//! The three seeded serving workloads and the fleets that serve them.
//!
//! Each workload is synthesised from `--seed` alone; the runtime sees only
//! the generated jobs.  `tenants` is the `serve` bin's multi-tenant stream,
//! `burst` a deep single-window queue over a wide fleet, and `hetero` the
//! `hetero` bin's FFT + FIR-crumb mix on arrays, the FFT engine and the
//! Cortex-M4.  Mixes are exact and arrivals slotted (see
//! [`SplitMix64::deal`] and [`SplitMix64::arrivals`]), so the modelled
//! answers of two seeds stay comparable.

use vwr2a::core::geometry::Geometry;
use vwr2a::core::{KernelProgram, Vwr2a};
use vwr2a::dsp::fir::design_lowpass;
use vwr2a::dsp::fixed::Q15;
use vwr2a::fftaccel::{FftAccelStats, FftAccelerator};
use vwr2a::kernels::fft::FftKernel;
use vwr2a::kernels::fir::FirKernel;
use vwr2a::kernels::Spectrum;
use vwr2a::runtime::{
    ArcPolicy, CostAware, CpuBackend, EvictionPolicy, FftBackend, Fifo, Kernel, LaunchCtx,
    LruPolicy, Objective, Offload, Pool, Resources, Result, RuntimeError, SchedPolicy, Server,
    Session, WeightedFair,
};
use vwr2a::soc::cpu::{Cpu, CpuRunStats};
use vwr2a::soc::sram::Sram;

use crate::trace::Timed;

/// Seeded SplitMix64 generator (Steele, Lea & Flood 2014).  The benchmark
/// owns its generator so its inputs never change with the repository's.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform integer in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Arrival cycles of `jobs` jobs, each placed uniformly at random inside
    /// its own `mean_gap`-long slot.  Unlike a Poisson process, the offered
    /// load cannot bunch up over a seed, so modelled latency percentiles
    /// stay comparable across seeds.
    pub fn arrivals(&mut self, jobs: usize, mean_gap: f64) -> Vec<u64> {
        (0..jobs)
            .map(|i| {
                let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                ((i as f64 + u) * mean_gap) as u64
            })
            .collect()
    }

    /// `n` items cycling through `pattern`, shuffled: the stream's mix is
    /// exact and only its order depends on the seed.
    pub fn deal<T: Copy>(&mut self, n: usize, pattern: &[T]) -> Vec<T> {
        let mut items: Vec<T> = pattern.iter().copied().cycle().take(n).collect();
        for i in (1..n).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
        items
    }
}

/// One arrival-stamped job of a stream.
#[derive(Debug, Clone)]
pub struct Job<W> {
    /// Index of the job's kernel in the palette.
    pub pick: usize,
    /// The job's windows.
    pub windows: Vec<W>,
    /// Submitting tenant.
    pub tenant: u32,
    /// Arrival cycle.
    pub arrival: u64,
    /// Scheduling priority.
    pub priority: u8,
    /// Completion deadline, if any.
    pub deadline: Option<u64>,
}

/// Dispatch order of the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// First come, first served.
    Fifo,
    /// Deficit round robin across tenants.
    WeightedFair,
}

/// Eviction policy of every array session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evict {
    /// Least recently used (the session default).
    Lru,
    /// Adaptive replacement.
    Arc,
}

/// The fleet and server configuration a workload is served by.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// CGRA arrays.
    pub arrays: usize,
    /// Configuration-memory words per array.
    pub config_words: usize,
    /// Whether the fixed-function FFT engine joins the fleet.
    pub fft: bool,
    /// Whether the Cortex-M4 host joins the fleet.
    pub cpu: bool,
    /// Admission-queue policy.
    pub sched: Sched,
    /// Array eviction policy.
    pub evict: Evict,
    /// Work stealing.
    pub stealing: bool,
    /// Whole-queue lookahead planner.
    pub lookahead: bool,
}

fn policy<P: EvictionPolicy + 'static>(session: &mut Session, policy: P, traced: bool) {
    if traced {
        session.set_eviction_policy(Timed(policy));
    } else {
        session.set_eviction_policy(policy);
    }
}

fn sched<P: SchedPolicy + 'static>(server: Server, policy: P, traced: bool) -> Server {
    if traced {
        server.with_policy(Timed(policy))
    } else {
        server.with_policy(policy)
    }
}

impl Fleet {
    /// Builds a fresh server over a fresh fleet.  With `traced`, the
    /// placement, scheduling and eviction policies are wrapped in [`Timed`].
    pub fn server(&self, traced: bool) -> Server {
        let mut geometry = Geometry::paper();
        geometry.config_words = self.config_words;
        let sessions = (0..self.arrays)
            .map(|_| {
                let accel = Vwr2a::with_geometry(geometry).expect("valid constrained geometry");
                let mut session = Session::with_accelerator(accel);
                match self.evict {
                    Evict::Lru => policy(&mut session, LruPolicy, traced),
                    Evict::Arc => policy(&mut session, ArcPolicy::new(), traced),
                }
                session
            })
            .collect();
        let mut pool = Pool::with_sessions(sessions).expect("sessions share one geometry");
        if self.fft {
            pool = pool.with_backend(FftBackend::new());
        }
        if self.cpu {
            pool = pool.with_backend(CpuBackend::new());
        }
        let placement = CostAware::with_objective(Objective::Cycles);
        if traced {
            pool.set_placement(Timed(placement));
        } else {
            pool.set_placement(placement);
        }
        let server = Server::new(pool).with_stealing(self.stealing).with_lookahead(self.lookahead);
        match self.sched {
            Sched::Fifo => sched(server, Fifo, traced),
            Sched::WeightedFair => sched(server, WeightedFair::new(), traced),
        }
    }
}

/// A synthesised workload: kernel palette, job streams and fleet.
///
/// A workload is one or more independent streams, each served on its own
/// fresh fleet.  One long stream settles into one placement and residency
/// regime, which a seed picks; several streams average over regimes, so
/// the modelled percentiles of two seeds stay comparable.
#[derive(Debug)]
pub struct Workload<K, W> {
    /// The kernel palette jobs pick from.
    pub kernels: Vec<K>,
    /// Independent arrival-stamped job streams.
    pub streams: Vec<Vec<Job<W>>>,
    /// The fleet each stream is served by.
    pub fleet: Fleet,
    /// Mean arrival gap of every stream, in cycles.
    pub mean_gap: f64,
    /// Programs that fit one array's configuration memory.
    pub programs_per_array: usize,
}

impl<K, W> Workload<K, W> {
    fn all(&self) -> impl Iterator<Item = &Job<W>> {
        self.streams.iter().flatten()
    }

    /// Jobs across the streams.
    pub fn jobs(&self) -> u64 {
        self.all().count() as u64
    }

    /// Windows across the streams.
    pub fn windows(&self) -> u64 {
        self.all().map(|j| j.windows.len() as u64).sum()
    }

    /// Jobs submitted with a deadline.
    pub fn deadlined(&self) -> u64 {
        self.all().filter(|j| j.deadline.is_some()).count() as u64
    }
}

/// `count` streams, each synthesised by `stream` from its own seed drawn
/// from `seed`.
fn streams<W>(
    seed: u64,
    count: usize,
    stream: impl Fn(&mut SplitMix64) -> Vec<Job<W>>,
) -> Vec<Vec<Job<W>>> {
    let mut seeds = SplitMix64::new(seed);
    (0..count).map(|_| stream(&mut SplitMix64::new(seeds.next_u64()))).collect()
}

fn program_words<K: Kernel>(kernel: &K) -> usize {
    kernel.program(&Geometry::paper()).expect("program builds").config_words()
}

fn q15_lowpass(cutoff: f64) -> Vec<i32> {
    design_lowpass(11, cutoff)
        .expect("valid filter design")
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect()
}

/// Samples per FIR-256 window.
const FIR_N: usize = 256;
/// Distinct FIR-256 programs of `tenants` and `burst`.
const FIR_MIX: usize = 6;

/// The `serve` bin's six FIR-256 programs.
fn fir_palette() -> Vec<FirKernel> {
    (0..FIR_MIX)
        .map(|k| FirKernel::new(&q15_lowpass(0.05 + 0.04 * k as f64), FIR_N).expect("valid kernel"))
        .collect()
}

/// The `serve` bin's window signal for window index `i`.
fn fir_window(i: usize) -> Vec<i32> {
    (0..FIR_N).map(|s| (5500.0 * ((s + 31 * i) as f64 * 0.117).sin()) as i32).collect()
}

/// Four arrays of two-program configuration memories serve six programs
/// under weighted-fair dispatch, stealing, lookahead and ARC eviction.
fn fir_fleet(arrays: usize, kernels: &[FirKernel]) -> Fleet {
    Fleet {
        arrays,
        config_words: 2 * program_words(&kernels[0]),
        fft: false,
        cpu: false,
        sched: Sched::WeightedFair,
        evict: Evict::Arc,
        stealing: true,
        lookahead: true,
    }
}

/// Independent streams of `tenants`.
const TENANTS_STREAMS: usize = 4;
/// Jobs per `tenants` stream.
const TENANTS_JOBS: usize = 800;
/// Mean arrival gap of `tenants`.  Served all at once, the stream drains
/// at about 860 cycles per job, so this gap keeps the fleet at 85 % load.
const TENANTS_GAP: f64 = 1012.0;
/// Deadline slack of the interactive tenants (the `serve` bin's).
const TENANTS_SLACK: u64 = 9_000;

/// Every FIR-256 program index.
const FIR_PICKS: [usize; FIR_MIX] = [0, 1, 2, 3, 4, 5];

/// `tenants`: the `serve` bin's stream.  40 % of arrivals belong to a
/// chatty tenant (4–7 windows, no deadline); the rest to three interactive
/// tenants (one window, deadline at arrival + slack).
pub fn tenants(seed: u64) -> Workload<FirKernel, Vec<i32>> {
    let kernels = fir_palette();
    Workload {
        fleet: fir_fleet(4, &kernels),
        kernels,
        streams: streams(seed, TENANTS_STREAMS, tenants_stream),
        mean_gap: TENANTS_GAP,
        programs_per_array: 2,
    }
}

fn tenants_stream(rng: &mut SplitMix64) -> Vec<Job<Vec<i32>>> {
    let n = TENANTS_JOBS;
    let arrivals = rng.arrivals(n, TENANTS_GAP);
    let chatty = rng.deal(n, &[true, true, false, false, false]);
    let picks = rng.deal(n, &FIR_PICKS);
    let chatty_jobs = chatty.iter().filter(|&&c| c).count();
    let mut chatty_windows = rng.deal(chatty_jobs, &[4, 5, 6, 7]).into_iter();
    let mut interactive = rng.deal(n - chatty_jobs, &[1, 2, 3]).into_iter();
    (0..n)
        .map(|j| {
            let arrival = arrivals[j];
            let (tenant, windows, priority, deadline) = if chatty[j] {
                (0, chatty_windows.next().expect("a window count per chatty job"), 0, None)
            } else {
                let tenant = interactive.next().expect("a tenant per interactive job");
                (tenant, 1, 1, Some(arrival + TENANTS_SLACK))
            };
            Job {
                pick: picks[j],
                windows: (0..windows).map(|w| fir_window(j + 13 * w)).collect(),
                tenant,
                arrival,
                priority,
                deadline,
            }
        })
        .collect()
}

/// Arrays of `burst`.
const BURST_ARRAYS: usize = 200;
/// Independent streams of `burst`.  Four short bursts rather than one long
/// one give a run enough host-time samples for a steady median.
const BURST_STREAMS: usize = 4;
/// Jobs per `burst` stream.
const BURST_JOBS: usize = 1000;
/// Mean arrival gap of `burst`: 1000 arrivals within about 300 cycles.
const BURST_GAP: f64 = 0.3;

/// `burst`: single-window FIR-256 jobs of four deadline-free tenants over
/// the six programs, all arriving within a few hundred cycles.
pub fn burst(seed: u64) -> Workload<FirKernel, Vec<i32>> {
    let kernels = fir_palette();
    Workload {
        fleet: fir_fleet(BURST_ARRAYS, &kernels),
        kernels,
        streams: streams(seed, BURST_STREAMS, burst_stream),
        mean_gap: BURST_GAP,
        programs_per_array: 2,
    }
}

fn burst_stream(rng: &mut SplitMix64) -> Vec<Job<Vec<i32>>> {
    let arrivals = rng.arrivals(BURST_JOBS, BURST_GAP);
    let picks = rng.deal(BURST_JOBS, &FIR_PICKS);
    let tenants = rng.deal(BURST_JOBS, &[0, 1, 2, 3]);
    (0..BURST_JOBS)
        .map(|j| Job {
            pick: picks[j],
            windows: vec![fir_window(j)],
            tenant: tenants[j],
            arrival: arrivals[j],
            priority: 0,
            deadline: None,
        })
        .collect()
}

/// Complex FFT length of the heavy `hetero` jobs.
const FFT_POINTS: usize = 256;
/// Samples of a FIR crumb.
const CRUMB_SAMPLES: usize = 48;
/// Distinct crumb tap sets.
const CRUMB_VARIANTS: usize = 6;
/// Independent streams of `hetero`.
const HETERO_STREAMS: usize = 8;
/// Jobs per `hetero` stream.
const HETERO_JOBS: usize = 240;
/// Mean arrival gap of `hetero`.  Served all at once, the stream drains at
/// about 1085 cycles per job, so this gap keeps the fleet at 85 % load.
const HETERO_GAP: f64 = 1276.0;

/// A `hetero` palette entry: the FFT stage or a FIR crumb.
#[derive(Debug)]
pub enum MixKernel {
    /// 256-point complex FFT.
    Fft(FftKernel),
    /// 48-sample FIR crumb.
    Fir(FirKernel),
}

/// One window of the `hetero` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixWindow {
    /// FFT input.
    Spectrum(Spectrum),
    /// FIR input.
    Samples(Vec<i32>),
}

fn mismatch(kernel: &MixKernel) -> RuntimeError {
    RuntimeError::invalid_input(format!("window shape does not match the {} kernel", kernel.name()))
}

/// Forwards one trait method to whichever kernel the entry holds.
macro_rules! each {
    ($self:ident, $k:ident => $body:expr) => {
        match $self {
            MixKernel::Fft($k) => $body,
            MixKernel::Fir($k) => $body,
        }
    };
}

impl Kernel for MixKernel {
    type Input = MixWindow;
    type Output = MixWindow;

    fn name(&self) -> &str {
        each!(self, k => k.name())
    }

    fn cache_key(&self) -> String {
        each!(self, k => k.cache_key())
    }

    fn resources(&self) -> Resources {
        each!(self, k => k.resources())
    }

    fn program(&self, geometry: &Geometry) -> Result<KernelProgram> {
        each!(self, k => k.program(geometry))
    }

    fn config_words(&self, geometry: &Geometry) -> Result<usize> {
        each!(self, k => k.config_words(geometry))
    }

    fn execute(&self, ctx: &mut LaunchCtx<'_>, input: &MixWindow) -> Result<MixWindow> {
        match (self, input) {
            (MixKernel::Fft(k), MixWindow::Spectrum(s)) => {
                k.execute(ctx, s).map(MixWindow::Spectrum)
            }
            (MixKernel::Fir(k), MixWindow::Samples(v)) => k.execute(ctx, v).map(MixWindow::Samples),
            _ => Err(mismatch(self)),
        }
    }

    fn offload(&self) -> Offload {
        each!(self, k => k.offload())
    }

    fn execute_fft(
        &self,
        accel: &FftAccelerator,
        input: &MixWindow,
    ) -> Result<(MixWindow, FftAccelStats)> {
        match (self, input) {
            (MixKernel::Fft(k), MixWindow::Spectrum(s)) => {
                k.execute_fft(accel, s).map(|(out, stats)| (MixWindow::Spectrum(out), stats))
            }
            (MixKernel::Fir(k), MixWindow::Samples(v)) => {
                k.execute_fft(accel, v).map(|(out, stats)| (MixWindow::Samples(out), stats))
            }
            _ => Err(mismatch(self)),
        }
    }

    fn execute_cpu(
        &self,
        cpu: &mut Cpu,
        sram: &mut Sram,
        input: &MixWindow,
    ) -> Result<(MixWindow, CpuRunStats)> {
        match (self, input) {
            (MixKernel::Fft(k), MixWindow::Spectrum(s)) => {
                k.execute_cpu(cpu, sram, s).map(|(out, stats)| (MixWindow::Spectrum(out), stats))
            }
            (MixKernel::Fir(k), MixWindow::Samples(v)) => {
                k.execute_cpu(cpu, sram, v).map(|(out, stats)| (MixWindow::Samples(out), stats))
            }
            _ => Err(mismatch(self)),
        }
    }
}

fn spectrum_window(i: usize) -> MixWindow {
    let re =
        (0..FFT_POINTS).map(|s| (9000.0 * ((s + 17 * i) as f64 * 0.131).cos()) as i32).collect();
    let im =
        (0..FFT_POINTS).map(|s| (7000.0 * ((s + 29 * i) as f64 * 0.093).sin()) as i32).collect();
    MixWindow::Spectrum(Spectrum::new(re, im))
}

fn crumb_window(i: usize) -> MixWindow {
    MixWindow::Samples(
        (0..CRUMB_SAMPLES).map(|s| (5500.0 * ((s + 41 * i) as f64 * 0.117).sin()) as i32).collect(),
    )
}

/// `hetero`: the `hetero` bin's stream.  About half the arrivals are
/// FFT-256 jobs of one or two windows, the rest one-window FIR-48 crumbs
/// over six tap variants, served by 2 arrays + the FFT engine + the
/// Cortex-M4 under FIFO + stealing.  Each array holds the FFT stage plus
/// two crumb programs, so crumbs keep reloading.
pub fn hetero(seed: u64) -> Workload<MixKernel, MixWindow> {
    let mut kernels =
        vec![MixKernel::Fft(FftKernel::new(FFT_POINTS).expect("supported FFT length"))];
    kernels.extend((0..CRUMB_VARIANTS).map(|k| {
        let taps = q15_lowpass(0.06 + 0.05 * k as f64);
        MixKernel::Fir(FirKernel::new(&taps, CRUMB_SAMPLES).expect("valid kernel"))
    }));
    let fleet = Fleet {
        arrays: 2,
        config_words: program_words(&kernels[0]) + 2 * program_words(&kernels[1]),
        fft: true,
        cpu: true,
        sched: Sched::Fifo,
        evict: Evict::Lru,
        stealing: true,
        lookahead: false,
    };
    Workload {
        kernels,
        streams: streams(seed, HETERO_STREAMS, hetero_stream),
        fleet,
        mean_gap: HETERO_GAP,
        programs_per_array: 3,
    }
}

fn hetero_stream(rng: &mut SplitMix64) -> Vec<Job<MixWindow>> {
    let arrivals = rng.arrivals(HETERO_JOBS, HETERO_GAP);
    // (palette index, windows) per job: half FFT jobs, of which half have
    // two windows, and half crumbs spread evenly over the variants.
    let mut mix = vec![(0, 1); 3];
    mix.extend([(0, 2); 3]);
    mix.extend((1..=CRUMB_VARIANTS).map(|pick| (pick, 1)));
    let shapes = rng.deal(HETERO_JOBS, &mix);
    (0..HETERO_JOBS)
        .map(|j| {
            let (pick, count) = shapes[j];
            let windows = if pick == 0 {
                (0..count).map(|w| spectrum_window(j + 7 * w)).collect()
            } else {
                vec![crumb_window(j)]
            };
            Job { pick, windows, tenant: 0, arrival: arrivals[j], priority: 0, deadline: None }
        })
        .collect()
}
