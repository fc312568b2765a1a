//! Per-layer host timing measured from outside the runtime.
//!
//! [`Timed`] decorates each public trait the serving runtime calls
//! ([`Kernel`], [`Placement`], [`SchedPolicy`], [`EvictionPolicy`]) and
//! records a span around every call into the wrapped implementation.  Spans
//! nest on a thread-local stack, so each layer is charged its *self* time:
//! a program build inside a kernel launch counts toward `kernels.program`,
//! not toward `core.array_exec`.  Whatever [`Server::run_batch`] spends
//! outside every child span is the serve loop's own time.
//!
//! Every decorator forwards every trait method, provided or not, so a trait
//! default never silently replaces the wrapped implementation.
//!
//! [`Server::run_batch`]: vwr2a::runtime::Server::run_batch

use std::cell::RefCell;
use std::time::Instant;

use vwr2a::core::geometry::Geometry;
use vwr2a::core::KernelProgram;
use vwr2a::fftaccel::{FftAccelStats, FftAccelerator};
use vwr2a::runtime::{
    BackendView, EvictionPolicy, JobView, Kernel, LaunchCtx, Offload, Placement, PlacementPlan,
    QueuedJob, ResidentProgram, Resources, Result, SchedPolicy,
};
use vwr2a::soc::cpu::{Cpu, CpuRunStats};
use vwr2a::soc::sram::Sram;

/// A host-time layer of the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Server::run_batch`, the root span.
    Serve,
    /// `SchedPolicy::select`.
    Select,
    /// `Placement::place`.
    Place,
    /// `Kernel::program` and `Kernel::config_words`.
    Program,
    /// `Kernel::cache_key`.
    CacheKey,
    /// `Kernel::execute`: staging, launch, interpretation or replay.
    ArrayExec,
    /// `Kernel::execute_cpu`: the Cortex-M4 instruction-set simulator.
    CpuExec,
    /// `Kernel::execute_fft`: the FFT-engine model.
    FftExec,
    /// `EvictionPolicy::select_victim` and the `note_*` hooks.
    Evict,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 9;

/// Layers whose per-call durations are kept for percentiles.
fn sampled(layer: Layer) -> bool {
    matches!(layer, Layer::Place | Layer::ArrayExec)
}

/// Self time, call count and (for sampled layers) per-call self time of
/// every layer, accumulated since the last [`take`].
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Self nanoseconds per layer, indexed by `Layer as usize`.
    pub self_ns: [u64; LAYERS],
    /// Calls per layer.
    pub calls: [u64; LAYERS],
    /// Per-call self nanoseconds of the sampled layers.
    pub samples: [Vec<u64>; LAYERS],
}

impl Totals {
    /// Self nanoseconds charged to `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

struct Frame {
    child_ns: u64,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<Frame>,
    totals: Totals,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Runs `f` inside a span charged to `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| t.borrow_mut().stack.push(Frame { child_ns: 0 }));
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let frame = t.stack.pop().expect("span frames are balanced");
        let own = dur.saturating_sub(frame.child_ns);
        let i = layer as usize;
        t.totals.self_ns[i] += own;
        t.totals.calls[i] += 1;
        if sampled(layer) {
            t.totals.samples[i].push(own);
        }
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
    out
}

/// Returns the totals recorded on this thread and resets them.
pub fn take() -> Totals {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().totals))
}

/// Timing decorator over a runtime trait implementation.
#[derive(Debug, Clone, Copy)]
pub struct Timed<T>(pub T);

impl<K: Kernel> Kernel for Timed<&K> {
    type Input = K::Input;
    type Output = K::Output;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn cache_key(&self) -> String {
        span(Layer::CacheKey, || self.0.cache_key())
    }

    fn resources(&self) -> Resources {
        self.0.resources()
    }

    fn program(&self, geometry: &Geometry) -> Result<KernelProgram> {
        span(Layer::Program, || self.0.program(geometry))
    }

    fn config_words(&self, geometry: &Geometry) -> Result<usize> {
        span(Layer::Program, || self.0.config_words(geometry))
    }

    fn execute(&self, ctx: &mut LaunchCtx<'_>, input: &K::Input) -> Result<K::Output> {
        span(Layer::ArrayExec, || self.0.execute(ctx, input))
    }

    fn offload(&self) -> Offload {
        self.0.offload()
    }

    fn execute_fft(
        &self,
        accel: &FftAccelerator,
        input: &K::Input,
    ) -> Result<(K::Output, FftAccelStats)> {
        span(Layer::FftExec, || self.0.execute_fft(accel, input))
    }

    fn execute_cpu(
        &self,
        cpu: &mut Cpu,
        sram: &mut Sram,
        input: &K::Input,
    ) -> Result<(K::Output, CpuRunStats)> {
        span(Layer::CpuExec, || self.0.execute_cpu(cpu, sram, input))
    }
}

impl<P: SchedPolicy> SchedPolicy for Timed<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn select(&mut self, now: u64, queue: &[QueuedJob<'_>]) -> usize {
        span(Layer::Select, || self.0.select(now, queue))
    }
}

impl<P: Placement> Placement for Timed<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn place(&self, job: &JobView<'_>, backends: &[BackendView]) -> PlacementPlan {
        span(Layer::Place, || self.0.place(job, backends))
    }
}

impl<P: EvictionPolicy> EvictionPolicy for Timed<P> {
    fn select_victim<'a>(&self, candidates: &[ResidentProgram<'a>]) -> Option<&'a str> {
        span(Layer::Evict, || self.0.select_victim(candidates))
    }

    fn note_load(&self, key: &str) {
        span(Layer::Evict, || self.0.note_load(key))
    }

    fn note_use(&self, key: &str) {
        span(Layer::Evict, || self.0.note_use(key))
    }

    fn note_eviction(&self, key: &str, launches: u64) {
        span(Layer::Evict, || self.0.note_eviction(key, launches))
    }
}
