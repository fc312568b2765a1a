//! Heterogeneous execution backends behind a [`crate::pool::Pool`].
//!
//! The VWR2A paper places the CGRA inside a heterogeneous edge SoC, next
//! to a Cortex-M4 host and fixed-function accelerators.  This module is
//! that SoC's execution substrate seen through one interface: a
//! [`Backend`] accepts `(kernel, windows)` jobs, reports residency and
//! warmth, and executes windows onto its own [`crate::pipeline::
//! StreamSchedule`]-backed timeline.  Three implementations ship:
//!
//! * [`ArrayBackend`] — a CGRA array ([`Session`] + stream schedule),
//!   with the full prefetch/eviction residency story;
//! * [`FftBackend`] — the fixed-function FFT engine
//!   ([`vwr2a_fftaccel::FftAccelerator`]), costed from its own cycle
//!   model (setup + butterflies + IO) and accepting only FFT-shaped jobs;
//! * [`CpuBackend`] — the Cortex-M4 host ISS, for tiny jobs where an
//!   array's configuration-reload cost would dominate.
//!
//! A kernel advertises which backends besides the CGRA could serve it via
//! [`crate::Kernel::offload`]; the pool's placement strategies match that
//! against each backend's capability mask and route the job to whichever
//! backend clears it cheapest in cycles.

use std::fmt;
use vwr2a_core::geometry::Geometry;
use vwr2a_fftaccel::FftAccelerator;
use vwr2a_soc::cpu::Cpu;
use vwr2a_soc::sram::Sram;

use crate::error::Result;
use crate::pipeline::WindowPhases;
use crate::report::RunReport;
use crate::session::{Kernel, Session};

/// Capability bit: the backend executes CGRA configuration-memory
/// programs (every [`Kernel`] has one — see [`Kernel::program`]).
pub const CAP_CGRA: u32 = 1 << 0;

/// Capability bit: the backend executes FFT-shaped jobs on a
/// fixed-function engine (kernels advertising [`Offload::fft`]).
pub const CAP_FFT: u32 = 1 << 1;

/// Capability bit: the backend executes jobs on the Cortex-M4 host CPU
/// (kernels advertising [`Offload::cpu_cycles`]).
pub const CAP_CPU: u32 = 1 << 2;

/// What kind of execution substrate a [`Backend`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// A CGRA array behind a [`Session`].
    #[default]
    Array,
    /// The fixed-function FFT accelerator.
    FftAccel,
    /// The Cortex-M4 host CPU.
    Cpu,
}

impl BackendKind {
    /// Short lower-case label used in report names and bench tables.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Array => "array",
            BackendKind::FftAccel => "fft",
            BackendKind::Cpu => "cpu",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The FFT shape of a kernel's window, for jobs the fixed-function engine
/// could serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftShape {
    /// Transform length in (real or complex) input points.
    pub points: usize,
    /// `true` for the optimised real-valued flow, `false` for complex.
    pub real: bool,
}

/// A kernel's declaration of which non-CGRA backends could serve it, and
/// at what modelled cost (returned by [`Kernel::offload`]).
///
/// Every kernel runs on the CGRA; the two optional fields open the other
/// substrates.  The default — both `None` — is CGRA-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Offload {
    /// `Some(shape)` if one window of this kernel is exactly one FFT the
    /// fixed-function engine can run ([`Kernel::execute_fft`] must then be
    /// implemented).
    pub fft: Option<FftShape>,
    /// `Some(cycles)` if the Cortex-M4 host can run one window in roughly
    /// `cycles` ISS cycles ([`Kernel::execute_cpu`] must then be
    /// implemented).  This is the *placement estimate*; the executed
    /// window is charged its actual ISS cycle count.
    pub cpu_cycles: Option<u64>,
}

impl Offload {
    /// The capability classes this kernel's jobs belong to, as a mask of
    /// [`CAP_CGRA`] / [`CAP_FFT`] / [`CAP_CPU`] bits.  CGRA is always set.
    pub fn classes(&self) -> u32 {
        let mut mask = CAP_CGRA;
        if self.fft.is_some() {
            mask |= CAP_FFT;
        }
        if self.cpu_cycles.is_some() {
            mask |= CAP_CPU;
        }
        mask
    }
}

/// Mutable access to a backend's execution substrate, for the pool's
/// generic per-window dispatch (the crate-private `run_window_on`).
#[derive(Debug)]
pub enum ExecHandle<'a> {
    /// A CGRA array session.
    Array(&'a mut Session),
    /// The fixed-function FFT engine.
    Fft(&'a mut FftBackend),
    /// The Cortex-M4 host.
    Cpu(&'a mut CpuBackend),
}

/// One execution substrate under the pool's scheduler.
///
/// The trait is object-safe — the pool stores `Vec<Box<dyn Backend>>` —
/// so per-kernel work (program footprints, window execution) happens in
/// generic pool code through [`ExecHandle`] and the crate-private
/// `run_window_on` rather than on the trait itself.
pub trait Backend: fmt::Debug + Send {
    /// What kind of substrate this is.
    fn kind(&self) -> BackendKind;

    /// Capability mask of the jobs this backend can serve
    /// ([`CAP_CGRA`] / [`CAP_FFT`] / [`CAP_CPU`]).
    fn capabilities(&self) -> u32;

    /// The CGRA array geometry, for backends that have one.  The pool
    /// prices configuration reloads per backend through this — mixed
    /// geometries across a fleet are legal.
    fn geometry(&self) -> Option<&Geometry>;

    /// `true` if the program behind `key` is resident on this backend
    /// (loaded in an array's configuration memory; the engine's current
    /// programming for fixed-function backends).
    fn is_resident(&self, key: &str) -> bool;

    /// `true` if a launch of `key` would pay no configuration reload.
    fn is_warm(&self, key: &str) -> bool;

    /// Number of distinct programs resident on the backend.
    fn loaded_programs(&self) -> usize;

    /// Lifetime compute-busy cycles — the load metric behind
    /// [`crate::pool::LeastLoaded`].
    fn busy_compute(&self) -> u64;

    /// Modelled cycles for one window of a job with the given offload
    /// declaration, or `None` if this backend cannot serve the job (or
    /// does not model per-window cost, like the arrays, whose cost comes
    /// from observed execution instead).
    fn window_cycles(&self, offload: &Offload) -> Option<u64>;

    /// Modelled energy for one window of a job with the given offload
    /// declaration, in nanojoules — `None` under the same conditions as
    /// [`Backend::window_cycles`].  Offload backends derive it from their
    /// own cycle model through the [`vwr2a_energy::EnergyModel`]
    /// calibration; arrays return `None` (their estimate comes from the
    /// pool's observed per-window cycles instead).
    fn window_energy_nj(&self, offload: &Offload) -> Option<u64> {
        let _ = offload;
        None
    }

    /// Mutable handle onto the substrate, for window execution.
    fn exec(&mut self) -> ExecHandle<'_>;

    /// The underlying [`Session`], for CGRA backends.
    fn as_session(&self) -> Option<&Session> {
        None
    }

    /// Mutable access to the underlying [`Session`], for CGRA backends.
    fn as_session_mut(&mut self) -> Option<&mut Session> {
        None
    }
}

/// A CGRA array as a [`Backend`]: wraps a [`Session`], preserving the
/// full residency story — warm relaunches, LRU (or custom) eviction and
/// speculative configuration prefetch.
#[derive(Debug)]
pub struct ArrayBackend {
    session: Session,
}

impl ArrayBackend {
    /// Wraps a session.
    pub fn new(session: Session) -> Self {
        Self { session }
    }

    /// The wrapped session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the wrapped session.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

impl Backend for ArrayBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Array
    }

    fn capabilities(&self) -> u32 {
        CAP_CGRA
    }

    fn geometry(&self) -> Option<&Geometry> {
        Some(self.session.accelerator().geometry())
    }

    fn is_resident(&self, key: &str) -> bool {
        self.session.is_resident_key(key)
    }

    fn is_warm(&self, key: &str) -> bool {
        self.session.is_warm_key(key)
    }

    fn loaded_programs(&self) -> usize {
        self.session.loaded_programs()
    }

    fn busy_compute(&self) -> u64 {
        self.session.free_compute_at()
    }

    fn window_cycles(&self, _offload: &Offload) -> Option<u64> {
        None
    }

    fn exec(&mut self) -> ExecHandle<'_> {
        ExecHandle::Array(&mut self.session)
    }

    fn as_session(&self) -> Option<&Session> {
        Some(&self.session)
    }

    fn as_session_mut(&mut self) -> Option<&mut Session> {
        Some(&mut self.session)
    }
}

/// The fixed-function FFT engine as a [`Backend`].
///
/// The engine has no configuration memory — it is programmed over the
/// slave port before every run, which its cycle model charges as
/// `setup_cycles` on each window — so "residency" degenerates to *which
/// job shape it was last programmed for*.  It accepts only FFT-shaped
/// jobs ([`Offload::fft`]); its per-window cost is projected from its own
/// [`vwr2a_fftaccel::FftAccelConfig`] cycle model, so scheduler
/// projections match executions exactly.
#[derive(Debug)]
pub struct FftBackend {
    accel: FftAccelerator,
    programmed: Option<String>,
    busy_compute: u64,
}

impl FftBackend {
    /// An FFT backend around the default (paper-like) engine.
    pub fn new() -> Self {
        Self::with_accelerator(FftAccelerator::new())
    }

    /// An FFT backend around a custom-configured engine.
    pub fn with_accelerator(accel: FftAccelerator) -> Self {
        Self {
            accel,
            programmed: None,
            busy_compute: 0,
        }
    }

    /// The wrapped accelerator model.
    pub fn accelerator(&self) -> &FftAccelerator {
        &self.accel
    }

    /// Runs one window, folding launch/cycle accounting into `report`.
    fn run_into<K: Kernel>(
        &mut self,
        kernel: &K,
        key: &str,
        input: &K::Input,
        report: &mut RunReport,
    ) -> Result<(K::Output, WindowPhases)> {
        let warm = self.programmed.as_deref() == Some(key);
        let (output, stats) = kernel.execute_fft(&self.accel, input)?;
        report.energy_nj += vwr2a_energy::EnergyModel::calibrated().price_fft(&stats);
        self.programmed = Some(key.to_string());
        // The engine pays its register programming on every run; splitting
        // it onto the config lane lets it overlap the previous window's
        // butterflies on the stream schedule, like the host programming
        // the engine while it finishes.
        let setup = self.accel.config().setup_cycles.min(stats.cycles);
        let phases = WindowPhases {
            stage: 0,
            config: setup,
            compute: stats.cycles - setup,
            drain: 0,
        };
        self.busy_compute += phases.compute;
        report.invocations += 1;
        if warm {
            report.warm_launches += 1;
        } else {
            report.cold_launches += 1;
        }
        report.cycles += phases.total();
        Ok((output, phases))
    }
}

impl Default for FftBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for FftBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::FftAccel
    }

    fn capabilities(&self) -> u32 {
        CAP_FFT
    }

    fn geometry(&self) -> Option<&Geometry> {
        None
    }

    fn is_resident(&self, key: &str) -> bool {
        self.programmed.as_deref() == Some(key)
    }

    fn is_warm(&self, key: &str) -> bool {
        self.is_resident(key)
    }

    fn loaded_programs(&self) -> usize {
        usize::from(self.programmed.is_some())
    }

    fn busy_compute(&self) -> u64 {
        self.busy_compute
    }

    fn window_cycles(&self, offload: &Offload) -> Option<u64> {
        let shape = offload.fft?;
        self.accel.projected_cycles(shape.points, shape.real).ok()
    }

    fn window_energy_nj(&self, offload: &Offload) -> Option<u64> {
        self.window_cycles(offload)
            .map(|cycles| vwr2a_energy::EnergyModel::calibrated().fft_window_nj(cycles))
    }

    fn exec(&mut self) -> ExecHandle<'_> {
        ExecHandle::Fft(self)
    }
}

/// The Cortex-M4 host CPU as a [`Backend`].
///
/// The host has no configuration memory: every job is "warm" (a launch
/// never pays a reload), which is exactly why tiny jobs — whose array
/// reload cost would dominate their compute — belong here.  It accepts
/// only jobs whose kernel advertises a CPU implementation
/// ([`Offload::cpu_cycles`]).
#[derive(Debug)]
pub struct CpuBackend {
    cpu: Cpu,
    sram: Sram,
    busy_compute: u64,
}

impl CpuBackend {
    /// A CPU backend with a fresh ISS and the paper's SRAM.
    pub fn new() -> Self {
        Self {
            cpu: Cpu::new(),
            sram: Sram::paper(),
            busy_compute: 0,
        }
    }

    /// Runs one window, folding launch/cycle accounting into `report`.
    fn run_into<K: Kernel>(
        &mut self,
        kernel: &K,
        input: &K::Input,
        report: &mut RunReport,
    ) -> Result<(K::Output, WindowPhases)> {
        let (output, stats) = kernel.execute_cpu(&mut self.cpu, &mut self.sram, input)?;
        report.energy_nj += vwr2a_energy::EnergyModel::calibrated().price_cpu(&stats);
        let phases = WindowPhases {
            stage: 0,
            config: 0,
            compute: stats.cycles,
            drain: 0,
        };
        self.busy_compute += stats.cycles;
        report.invocations += 1;
        report.warm_launches += 1;
        report.cycles += phases.total();
        Ok((output, phases))
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn capabilities(&self) -> u32 {
        CAP_CPU
    }

    fn geometry(&self) -> Option<&Geometry> {
        None
    }

    fn is_resident(&self, _key: &str) -> bool {
        false
    }

    fn is_warm(&self, _key: &str) -> bool {
        true
    }

    fn loaded_programs(&self) -> usize {
        0
    }

    fn busy_compute(&self) -> u64 {
        self.busy_compute
    }

    fn window_cycles(&self, offload: &Offload) -> Option<u64> {
        offload.cpu_cycles
    }

    fn window_energy_nj(&self, offload: &Offload) -> Option<u64> {
        offload
            .cpu_cycles
            .map(|cycles| vwr2a_energy::EnergyModel::calibrated().cpu_window_nj(cycles))
    }

    fn exec(&mut self) -> ExecHandle<'_> {
        ExecHandle::Cpu(self)
    }
}

/// Runs one window of `kernel` on `backend`, folding launch and cycle
/// accounting into `report` and returning the output with its per-engine
/// phase split (which the caller replays on the backend's stream
/// schedule) and the window's measured energy in nanojoules (the delta
/// each substrate's executor priced into [`RunReport::energy_nj`], which
/// the caller attributes to the landed job's route).  The generic bridge
/// between the pool's typed executor and the type-erased backend vector.
pub(crate) fn run_window_on<K: Kernel>(
    backend: &mut dyn Backend,
    kernel: &K,
    key: &str,
    input: &K::Input,
    report: &mut RunReport,
) -> Result<(K::Output, WindowPhases, u64)> {
    let priced_before = report.energy_nj;
    let (output, phases) = match backend.exec() {
        ExecHandle::Array(session) => session.run_into(kernel, input, report),
        ExecHandle::Fft(fft) => fft.run_into(kernel, key, input, report),
        ExecHandle::Cpu(cpu) => cpu.run_into(kernel, input, report),
    }?;
    Ok((output, phases, report.energy_nj - priced_before))
}
