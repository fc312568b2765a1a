//! The execution substrates behind a [`crate::pool::Pool`].
//!
//! The VWR2A paper places the CGRA inside a heterogeneous edge SoC, next
//! to a Cortex-M4 host and a fixed-function FFT engine.  [`Backend`] is
//! that SoC's closed set of substrates, one variant each; every variant
//! accepts `(kernel, windows)` jobs, reports residency and warmth, and
//! executes windows onto its own [`crate::pipeline::StreamSchedule`]-backed
//! timeline:
//!
//! * [`Backend::Array`] — a CGRA array ([`Session`] + stream schedule),
//!   with the full prefetch/eviction residency story;
//! * [`Backend::Fft`] — the fixed-function FFT engine ([`FftBackend`]),
//!   costed from its own cycle model (setup + butterflies + IO) and
//!   accepting only FFT-shaped jobs;
//! * [`Backend::Cpu`] — the Cortex-M4 host ISS ([`CpuBackend`]), for tiny
//!   jobs where an array's configuration-reload cost would dominate.
//!
//! Every kernel runs on an array.  A kernel opens the offload backends
//! through [`Kernel::offload`], and an offload backend serves a job
//! exactly when its model prices one of the job's windows
//! ([`Backend::window_cycles`] is `Some`).

use std::fmt;
use vwr2a_core::geometry::Geometry;
use vwr2a_energy::EnergyModel;
use vwr2a_fftaccel::FftAccelerator;
use vwr2a_soc::cpu::Cpu;
use vwr2a_soc::sram::Sram;

use crate::error::Result;
use crate::pipeline::WindowPhases;
use crate::report::RunReport;
use crate::session::{Kernel, Session};

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

    /// Estimated energy of `cycles` busy cycles on a backend of this kind,
    /// in nanojoules, at the kind's calibrated average power
    /// ([`EnergyModel`]) — how placement prices a window's joules.
    pub(crate) fn window_nj(self, cycles: u64) -> u64 {
        let model = EnergyModel::calibrated();
        match self {
            BackendKind::Array => model.array_window_nj(cycles),
            BackendKind::FftAccel => model.fft_window_nj(cycles),
            BackendKind::Cpu => model.cpu_window_nj(cycles),
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

/// One execution substrate under the pool's scheduler.
///
/// `From` impls for [`Session`], [`FftBackend`] and [`CpuBackend`] let
/// [`crate::pool::Pool::with_backend`] take any of them directly.
#[derive(Debug)]
pub enum Backend {
    /// A CGRA array.  Boxed: a session is several times larger than the
    /// other variants.
    Array(Box<Session>),
    /// The fixed-function FFT engine.
    Fft(FftBackend),
    /// The Cortex-M4 host CPU.
    Cpu(CpuBackend),
}

impl From<Session> for Backend {
    fn from(session: Session) -> Self {
        Backend::Array(Box::new(session))
    }
}

impl From<FftBackend> for Backend {
    fn from(fft: FftBackend) -> Self {
        Backend::Fft(fft)
    }
}

impl From<CpuBackend> for Backend {
    fn from(cpu: CpuBackend) -> Self {
        Backend::Cpu(cpu)
    }
}

impl Backend {
    /// What kind of substrate this is.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Array(_) => BackendKind::Array,
            Backend::Fft(_) => BackendKind::FftAccel,
            Backend::Cpu(_) => BackendKind::Cpu,
        }
    }

    /// The CGRA array geometry, for arrays.  The pool prices configuration
    /// reloads per backend through this — mixed geometries across a fleet
    /// are legal.
    pub fn geometry(&self) -> Option<&Geometry> {
        match self {
            Backend::Array(session) => Some(session.accelerator().geometry()),
            Backend::Fft(_) | Backend::Cpu(_) => None,
        }
    }

    /// `true` if the program behind `key` is resident on this backend
    /// (loaded in an array's configuration memory; the engine's current
    /// programming; never on the host CPU).
    pub fn is_resident(&self, key: &str) -> bool {
        match self {
            Backend::Array(session) => session.is_resident_key(key),
            Backend::Fft(fft) => fft.programmed.as_deref() == Some(key),
            Backend::Cpu(_) => false,
        }
    }

    /// `true` if a launch of `key` would pay no configuration reload
    /// (always on the host CPU, which has no configuration memory).
    pub fn is_warm(&self, key: &str) -> bool {
        match self {
            Backend::Array(session) => session.is_warm_key(key),
            Backend::Fft(_) => self.is_resident(key),
            Backend::Cpu(_) => true,
        }
    }

    /// Every program resident here, by cache key, with whether a launch of
    /// it would be warm: an array's resident programs, the engine's
    /// current programming (warm), nothing on the host CPU.
    pub(crate) fn residents(&self) -> impl Iterator<Item = (&str, bool)> {
        let (session, programmed) = match self {
            Backend::Array(session) => (Some(session.residents()), None),
            Backend::Fft(fft) => (None, fft.programmed.as_deref()),
            Backend::Cpu(_) => (None, None),
        };
        session
            .into_iter()
            .flatten()
            .chain(programmed.map(|key| (key, true)))
    }

    /// Lifetime compute-busy cycles — the cross-wave load metric behind
    /// [`crate::pool::BackendView::busy_compute`].
    pub fn busy_compute(&self) -> u64 {
        match self {
            Backend::Array(session) => session.busy().compute,
            Backend::Fft(fft) => fft.busy_compute,
            Backend::Cpu(cpu) => cpu.busy_compute,
        }
    }

    /// Modelled cycles for one window of a job with the given offload
    /// declaration, or `None` if this backend cannot serve the job — the
    /// pool's one eligibility rule for offload backends.  Always `None`
    /// for arrays, whose per-window cost comes from observed execution.
    pub fn window_cycles(&self, offload: &Offload) -> Option<u64> {
        match self {
            Backend::Array(_) => None,
            Backend::Fft(_) => {
                let shape = offload.fft?;
                FftAccelerator
                    .projected_cycles(shape.points, shape.real)
                    .ok()
            }
            Backend::Cpu(_) => offload.cpu_cycles,
        }
    }

    /// Runs one window of `kernel` here, folding launch and cycle
    /// accounting into `report`.  Returns the output, its per-engine phase
    /// split (which the caller replays on the backend's stream schedule)
    /// and the window's measured energy in nanojoules (the delta the
    /// substrate priced into [`RunReport::energy_nj`], which the caller
    /// attributes to the landed job's route).
    //
    // Out of line on purpose: the serve loop calls this once per window,
    // and letting the match inline into the monomorphised loop lowered the
    // median perfbench `windows_per_s` by 0.8 % (tenants), 2.4 % (burst)
    // and 1.0 % (hetero) — 4 alternating pairs each on a 2-vCPU VM, a
    // shift the size of the run-to-run noise.
    #[inline(never)]
    pub(crate) fn run_window<K: Kernel>(
        &mut self,
        kernel: &K,
        key: &str,
        input: &K::Input,
        report: &mut RunReport,
    ) -> Result<(K::Output, WindowPhases, u64)> {
        let priced_before = report.energy_nj;
        let (output, phases) = match self {
            Backend::Array(session) => session.run_into(kernel, key, input, report),
            Backend::Fft(fft) => fft.run_into(kernel, key, input, report),
            Backend::Cpu(cpu) => cpu.run_into(kernel, input, report),
        }?;
        Ok((output, phases, report.energy_nj - priced_before))
    }
}

/// The fixed-function FFT engine ([`Backend::Fft`]).
///
/// The engine has no configuration memory — it is programmed over the
/// slave port before every run, which its cycle model charges as
/// [`vwr2a_fftaccel::SETUP_CYCLES`] on each window — so "residency"
/// degenerates to *which job shape it was last programmed for*.  It
/// accepts only FFT-shaped jobs ([`Offload::fft`]); its per-window cost is
/// projected from the engine's own cycle model, so scheduler projections
/// match executions exactly.
#[derive(Debug)]
pub struct FftBackend {
    programmed: Option<String>,
    busy_compute: u64,
}

impl FftBackend {
    /// An FFT backend around the engine.
    pub fn new() -> Self {
        Self {
            programmed: None,
            busy_compute: 0,
        }
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
        let (output, stats) = kernel.execute_fft(&FftAccelerator, input)?;
        report.energy_nj += EnergyModel::calibrated().price_fft(&stats);
        self.programmed = Some(key.to_string());
        // The engine pays its register programming on every run; splitting
        // it onto the config lane lets it overlap the previous window's
        // butterflies on the stream schedule, like the host programming
        // the engine while it finishes.
        let setup = vwr2a_fftaccel::SETUP_CYCLES.min(stats.cycles);
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

/// The Cortex-M4 host CPU ([`Backend::Cpu`]).
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
        report.energy_nj += EnergyModel::calibrated().price_cpu(&stats);
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
