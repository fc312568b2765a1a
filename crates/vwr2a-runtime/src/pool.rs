//! Heterogeneous backend pool: fan `(kernel, windows)` jobs across CGRA
//! arrays, the fixed-function FFT engine and the host CPU behind one
//! residency-aware scheduler.
//!
//! # The scheduling model
//!
//! A [`Pool`] owns N [`Backend`]s — CGRA arrays (each a full [`Session`]
//! with its own `Vwr2a`, configuration memory and eviction policy), and
//! optionally the fixed-function FFT engine
//! ([`crate::backend::FftBackend`]) and the Cortex-M4 host
//! ([`crate::backend::CpuBackend`]).  A *job* is one `(kernel, windows)`
//! workload: a kernel plus the window stream to run through it.
//! [`Pool::run_batch`] / [`Pool::run_stream`] place each job on one
//! backend via the pool's [`Placement`] strategy and execute its windows
//! there on the backend's own pipelined [`StreamSchedule`] (staging
//! overlapped with compute, exactly like [`Session::run_stream`]).
//!
//! The pool has one executor, the serve loop behind
//! [`crate::serve::Server`].  A batch is an arrival-0 serve: every job
//! arrives at cycle 0, dispatches in submission order and runs as soon as
//! placement commits it (with no work stealing nothing could re-route it),
//! and there is no lookahead.  Every job is priced against every backend
//! once, at admission: an array can serve it when the array's geometry
//! builds its program, an offload backend when the backend's model prices
//! one of its windows ([`Backend::window_cycles`]).  Whenever a job
//! dispatches, the strategy sees only the backends that can serve it
//! *and* have room in their run queue — so its choice, and its prefetch,
//! land where the job runs.
//!
//! Placement is where the fleet either wins or loses: a kernel's program
//! must be *resident* in an array's configuration memory to launch warm,
//! so routing a job to an array that already holds its program skips the
//! configuration-word streaming entirely, while a residency-blind router
//! keeps paying cold reloads (and, under capacity pressure, keeps evicting
//! other jobs' programs).  A kernel may additionally advertise non-CGRA
//! implementations through [`Kernel::offload`] — an FFT shape the
//! fixed-function engine can run, a host-CPU routine for jobs too small to
//! amortise an array reload — and the pool prices those backends from
//! their own cycle models next to the arrays.  A strategy returns a
//! [`PlacementPlan`]: the target backend, and whether to stage the job's
//! configuration words *speculatively* ([`Session::prefetch`]) on the
//! target's [`StreamSchedule`] before the job's first window — the reload
//! streams on the otherwise-idle configuration-load lane, overlapping the
//! array's compute backlog, and the launch itself finds the program warm.
//! Three strategies ship with the pool:
//!
//! * [`CostAware`] — the default: estimates, for every backend offered,
//!   when the job would complete — reload cost
//!   ([`BackendView::reload_cycles`]) against compute backlog
//!   ([`BackendView::free_compute_at`]), plus the windows at
//!   [`BackendView::window_cycles`] — and routes the job to the cheapest
//!   completion, prefetching whenever a chosen *array* would otherwise
//!   reload cold.  On an all-array fleet this reduces exactly to the
//!   reload-versus-backlog cost model; with offload backends present it is
//!   what routes FFT jobs to the FFT engine and reload-dominated crumbs to
//!   the CPU.
//! * [`ResidencyAware`] — PR 4's scheduler, kept as the prefetch-less
//!   comparison point: prefer backends with the job's program resident,
//!   tie-breaking on the earliest-free compute engine; replicate onto
//!   fully idle backends rather than queue behind busy resident copies.
//! * [`RoundRobin`] — job *i* goes to backend *i mod E* of the E
//!   offered, residency-blind.  The baseline the `pool` bench bin
//!   compares against.
//!
//! Outputs are **bit-identical** to running every job serially on one
//! session, for every strategy, with or without prefetch — placement only
//! moves *where* (and overlap and prefetch only *when*) the
//! already-verified work executes.  Kernels implementing
//! [`Kernel::execute_fft`] / [`Kernel::execute_cpu`] owe the same
//! guarantee per backend, and [`FleetReport::routes`] records which
//! backend served each job so equivalence tests can hold them to it.  The
//! merged [`FleetReport`] exposes what placement changed: per-backend busy
//! and wall cycles, the fleet wall clock (max over backends), compute
//! occupancy, the cold-reload count, how many reloads were prefetched
//! ([`FleetReport::prefetched`]) or fully hidden inside compute backlogs
//! ([`FleetReport::hidden_reloads`]), and per-kind attribution rows
//! ([`FleetReport::per_kind`]).
//!
//! # Example
//!
//! ```
//! use vwr2a_runtime::pool::Pool;
//! use vwr2a_runtime::testing::BakedScaleKernel;
//!
//! # fn main() -> Result<(), vwr2a_runtime::RuntimeError> {
//! let mut pool = Pool::new(2); // two arrays, cost-aware placement
//! let double = BakedScaleKernel::new(2);
//! let triple = BakedScaleKernel::new(3);
//! let windows: Vec<Vec<i32>> = (0..4).map(|w| vec![w; 32]).collect();
//!
//! let jobs = [&double, &triple, &double, &triple]
//!     .map(|kernel| (kernel, windows.iter().map(Vec::as_slice)));
//! let (outputs, fleet) = pool.run_batch(jobs)?;
//! assert_eq!(outputs.len(), 4);
//! assert_eq!(outputs[0][0], vec![0; 32]);
//! // Each program's one reload was *prefetched* onto the array the job
//! // was routed to, off the launch's critical path: no launch ever went
//! // cold, and the repeat jobs found their programs resident and warm.
//! assert_eq!(fleet.cold_reloads(), 0);
//! assert_eq!(fleet.prefetched(), 2);
//! assert_eq!(fleet.warm_launches(), 16);
//! # Ok(())
//! # }
//! ```

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use vwr2a_core::geometry::Geometry;
use vwr2a_energy::EnergyModel;

use crate::backend::{Backend, BackendKind, Offload};
use crate::error::{Result, RuntimeError};
use crate::pipeline::{Engine, StreamSchedule};
use crate::report::{FleetReport, JobLatency, JobRoute, PlannerStats, RunReport, ServeReport};
use crate::serve::{QueuedJob, SchedPolicy, ServeJob, TenantId};
use crate::session::{Kernel, Session};

/// What a [`Placement`] strategy sees about the job being placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobView<'a> {
    /// Submission index of the job (0-based, in submission order).
    pub index: usize,
    /// The job kernel's [`Kernel::cache_key`] — program identity, i.e.
    /// what residency is tracked by.
    pub cache_key: &'a str,
    /// Lower-bound size hint of the job's window stream (exact for slices,
    /// `Vec`s and other exact-size iterators; `0` for opaque streams).
    /// The pool iterates windows lazily, so the true count is only known
    /// once the job has run.
    pub windows: usize,
    /// Absolute deadline cycle of the job on the caller's timeline, when
    /// one exists — the serving layer passes each ticket's deadline so
    /// [`Objective::EnergyUnderDeadline`] can minimise joules among the
    /// backends that still meet it.  `None` for batch fan-outs and
    /// deadline-less jobs.
    pub deadline: Option<u64>,
}

/// What a [`Placement`] strategy sees about one backend of the pool at the
/// moment a job is placed.  Placement only ever sees backends that can
/// serve the job, so every price column is a real price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendView {
    /// Index of the backend in the pool.
    pub index: usize,
    /// What kind of execution substrate this backend is.
    pub kind: BackendKind,
    /// `true` if the job's program is resident on this backend
    /// ([`Backend::is_resident`]).
    pub resident: bool,
    /// `true` if a launch of the job here would pay no configuration
    /// reload ([`Backend::is_warm`]).
    pub warm: bool,
    /// First cycle at which this backend's compute engine is free: its
    /// schedule's compute backlog plus the estimated cost of the jobs
    /// already queued on it.
    pub free_compute_at: u64,
    /// First cycle at which this backend's configuration-load lane is free
    /// ([`Engine::ConfigLoad`]): a prefetch directed here streams no
    /// earlier than this, queueing behind earlier reloads — cost models
    /// that ignore it over-replicate onto arrays whose configuration
    /// streamer is already the bottleneck.
    pub free_config_at: u64,
    /// The backend's cumulative compute-busy cycles over its whole
    /// lifetime ([`Backend::busy_compute`]) — the cross-wave load metric.
    pub busy_compute: u64,
    /// Cycles a cold configuration reload of this job would stream on
    /// this backend (priced against an array's own geometry; `0` on
    /// offload backends, which have no configuration memory).
    pub reload_cycles: u64,
    /// Estimated compute cycles of one window of this job here.  On an
    /// offload backend, its own model ([`Backend::window_cycles`]).  On an
    /// array, the pool's one array estimate: the key's mean observed array
    /// cycles per window; before the key has run on an array, the mean over
    /// every key seen on the arrays; before any array ran, the program's
    /// configuration-word footprint.  Both cold-start values are raised to
    /// the FFT engine's modelled window when the engine can serve the job
    /// (dedicated silicon is never slower at its own kernel).
    pub window_cycles: u64,
    /// Energy of streaming this job's cold configuration reload here, in
    /// nanojoules (`0` on offload backends).
    pub reload_energy_nj: u64,
    /// Estimated energy of one window of this job here, in nanojoules:
    /// [`BackendView::window_cycles`] at the backend kind's calibrated
    /// average power ([`vwr2a_energy::EnergyModel`]).
    pub window_energy_nj: u64,
}

/// What a [`Placement`] strategy decides for one job: where it runs, and
/// whether its configuration reload is staged speculatively first.
///
/// Returned by [`Placement::place`].  The target must be a valid backend
/// index; an out-of-range index aborts the run with
/// [`RuntimeError::Placement`] (the pool stays valid and reusable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementPlan {
    /// Backend that runs the job's windows.
    pub backend: usize,
    /// Whether the pool stages the job's program on the target before the
    /// job's first window: it calls [`Session::prefetch`] and replays the
    /// streamed cycles on the target's [`StreamSchedule::prefetch`] lane,
    /// where they overlap the array's compute backlog instead of sitting
    /// on the launch's critical path.  Staging an already-warm program is
    /// a no-op, and offload backends (no configuration memory) skip it.
    pub prefetch: bool,
}

impl PlacementPlan {
    /// A plan that just runs the job on `backend`, reload (if any) on the
    /// launch's critical path — the pre-prefetch behaviour.
    pub fn run_on(backend: usize) -> Self {
        Self {
            backend,
            prefetch: false,
        }
    }

    /// A plan that stages the job's program on `backend` ahead of running
    /// the job there, so a would-be cold reload streams off the critical
    /// path and the launch finds the program warm.
    pub fn with_prefetch(backend: usize) -> Self {
        Self {
            backend,
            prefetch: true,
        }
    }
}

/// Chooses which backend of a [`Pool`] runs a job — and whether the job's
/// configuration reload is prefetched ahead of its launch.
///
/// The strategy is consulted whenever a job dispatches, with a fresh
/// snapshot of the backends that can serve the job and have room in their
/// run queue — so residency and timeline effects of earlier placements
/// (including prefetches) are visible, and the chosen backend runs the
/// job.  A job with no such backend waits without consulting the
/// strategy.  Each view carries its pool-wide [`BackendView::index`],
/// which is what the plan names.  The work-stealing pass re-consults the
/// strategy under the same rule, the donor excluded.  It returns a
/// [`PlacementPlan`]; an out-of-range backend index aborts the run with
/// [`RuntimeError::Placement`], and a target that cannot serve the job
/// with [`RuntimeError::MixedGeometry`] (an array) or
/// [`RuntimeError::Capability`] (an offload backend).  The pool stays
/// valid and reusable either way.  A plan naming a backend that can serve
/// the job but has no room waits until it has (a steal onto it, or back
/// onto the donor, is dropped).  Strategies must be deterministic so fleet
/// experiments are reproducible.
pub trait Placement: fmt::Debug + Send {
    /// Short strategy name used in reports and bench tables.
    fn name(&self) -> &'static str;

    /// Returns the plan for `job`: target backend, and whether to prefetch.
    ///
    /// `backends` is never empty.
    fn place(&self, job: &JobView<'_>, backends: &[BackendView]) -> PlacementPlan;
}

/// Residency-aware placement: prefer backends that already hold the job's
/// program, tie-break on the earliest-free compute engine.
///
/// A job whose program is resident *somewhere* goes to the resident
/// backend whose compute engine frees earliest (warm launch, no
/// configuration streaming).  A program nobody holds yet goes to the
/// earliest-free backend offered — which both balances load and
/// spreads distinct programs across the fleet, so the steady state keeps
/// every program resident on "its" array instead of thrashing one
/// configuration memory.  One refinement keeps affinity from starving the
/// fleet: when every resident backend is busy but some backend is still
/// completely *idle* this wave, the job is placed there instead — the cold
/// reload replicates the program onto the idle array, and from then on
/// both copies serve warm launches (without this, a two-program workload
/// would leave half of a four-array fleet permanently idle).  Ties resolve
/// to the lowest backend index, keeping placement deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencyAware;

impl Placement for ResidencyAware {
    fn name(&self) -> &'static str {
        "residency-aware"
    }

    fn place(&self, _job: &JobView<'_>, backends: &[BackendView]) -> PlacementPlan {
        // Ties on the wave-local free time (e.g. every backend idle at the
        // start of a wave) break on the lifetime compute load, so a
        // sequence of single-job waves still spreads first-seen programs
        // across the fleet instead of piling them onto backend 0.
        let earliest_free = |candidates: &mut dyn Iterator<Item = &BackendView>| {
            candidates
                .min_by_key(|a| (a.free_compute_at, a.busy_compute, a.index))
                .copied()
        };
        let best_any =
            earliest_free(&mut backends.iter()).expect("placement sees at least one backend");
        PlacementPlan::run_on(
            match earliest_free(&mut backends.iter().filter(|a| a.resident)) {
                // Busy resident copies, but an idle backend is available:
                // replicate rather than queue.
                Some(resident) if resident.free_compute_at > 0 && best_any.free_compute_at == 0 => {
                    best_any.index
                }
                Some(resident) => resident.index,
                None => best_any.index,
            },
        )
    }
}

/// What [`CostAware`] minimises when it ranks a job's capable backends.
///
/// Every variant prices the same two per-backend estimates — completion
/// (cycles until the job's last window finishes there) and energy (the
/// cold reload if the program is not warm, plus windows at the backend's
/// modelled or learned per-window energy) — and differs only in how the
/// two are combined.  The default [`Objective::Cycles`] reproduces the
/// pre-energy behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Earliest estimated completion — wall cycles alone (the historical
    /// behaviour, and the default).
    #[default]
    Cycles,
    /// Smallest energy × completion product — the paper's headline
    /// figure of merit, trading a little latency for large energy wins
    /// (and vice versa) without a tuning knob.
    EnergyDelayProduct,
    /// Fewest estimated nanojoules *among the backends that still meet
    /// the job's deadline* ([`JobView::deadline`]); if no backend can, the
    /// earliest completion limits the damage, and deadline-less jobs fall
    /// back to [`Objective::EnergyDelayProduct`].
    EnergyUnderDeadline,
}

/// Cost-based placement with speculative prefetch — the pool's default.
///
/// For every backend offered the strategy estimates when the job would
/// *complete*: first the earliest cycle its first window could start
/// computing — the backend's compute backlog
/// ([`BackendView::free_compute_at`]), or the reload's streaming time
/// ([`BackendView::reload_cycles`], one word per cycle on an array; zero
/// on offload backends) when the program is not warm there — whichever
/// ends later, because a prefetched reload streams *concurrently* with
/// the backlog on the configuration-load lane; then the windows
/// themselves, at [`BackendView::window_cycles`] each.  It also estimates
/// what the job would *cost in joules* there: the cold reload's streaming
/// energy ([`BackendView::reload_energy_nj`]) plus windows at
/// [`BackendView::window_energy_nj`].  The [`Objective`] decides how the
/// two estimates rank the candidates; under the default
/// [`Objective::Cycles`] the job goes to the backend with the earliest
/// completion (ties break on the earlier compute start, then the lower
/// combined pressure `backlog + reload`, then lifetime compute load, then
/// index — deterministic).  Whatever the objective, a chosen *array* that
/// would otherwise reload on the launch's critical path gets a prefetch.
///
/// On an all-array fleet every candidate prices windows at the same
/// estimate, so the completion term cancels and the choice reduces
/// exactly to the PR 5 cost model (reload versus backlog, prefetch the
/// rest).  With offload backends present, the completion term is what
/// sends an FFT-shaped job to the fixed-function engine when the arrays
/// are cold or backlogged, and a tiny job to the always-warm CPU when its
/// array reload would dominate — and the energy objectives keep FFT jobs
/// on the engine (≈ 5× fewer nJ per cycle than an array) even when a
/// backlogged queue makes an array finish sooner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostAware {
    objective: Objective,
}

impl CostAware {
    /// Cost-aware placement minimising the given [`Objective`].
    pub fn with_objective(objective: Objective) -> Self {
        Self { objective }
    }

    /// The objective this strategy minimises.
    pub fn objective(&self) -> Objective {
        self.objective
    }
}

impl Placement for CostAware {
    fn name(&self) -> &'static str {
        match self.objective {
            Objective::Cycles => "cost-aware",
            Objective::EnergyDelayProduct => "cost-aware/edp",
            Objective::EnergyUnderDeadline => "cost-aware/energy-deadline",
        }
    }

    fn place(&self, job: &JobView<'_>, backends: &[BackendView]) -> PlacementPlan {
        let reload = |a: &BackendView| if a.warm { 0 } else { a.reload_cycles };
        // Earliest estimated compute start on this backend: a prefetched
        // reload queues on the configuration-load lane (behind the wave's
        // earlier reloads) and streams concurrently with the compute
        // backlog — the job starts when the later of the two finishes.
        let ready_at = |a: &BackendView| {
            let reload_done = if a.warm {
                0
            } else {
                a.free_config_at + a.reload_cycles
            };
            a.free_compute_at.max(reload_done)
        };
        // The window count is a caller's hint, not a modelled quantity, so
        // products and sums over it saturate instead of overflowing.
        let windows = job.windows as u64;
        let completion =
            |a: &BackendView| ready_at(a).saturating_add(windows.saturating_mul(a.window_cycles));
        let energy = |a: &BackendView| {
            let reload_nj = if a.warm { 0 } else { a.reload_energy_nj };
            reload_nj.saturating_add(windows.saturating_mul(a.window_energy_nj))
        };
        // Energy × delay in u128: both factors are u64, the product must
        // not wrap for long backlogs.
        let edp = |a: &BackendView| u128::from(energy(a)) * u128::from(completion(a));
        // The deterministic tail every objective tie-breaks through (the
        // historical cycles ordering).
        let tail = |a: &BackendView| {
            (
                completion(a),
                ready_at(a),
                // Prefer the cheaper total pressure on ties.
                a.free_compute_at.saturating_add(reload(a)),
                a.busy_compute,
                a.index,
            )
        };
        let min_energy = |views: &mut dyn Iterator<Item = &BackendView>| {
            views.min_by_key(|a| (energy(a), tail(a))).copied()
        };
        let min_edp = |views: &mut dyn Iterator<Item = &BackendView>| {
            views.min_by_key(|a| (edp(a), tail(a))).copied()
        };
        let chosen = match self.objective {
            Objective::Cycles => backends.iter().min_by_key(|a| tail(a)).copied(),
            Objective::EnergyDelayProduct => min_edp(&mut backends.iter()),
            Objective::EnergyUnderDeadline => match job.deadline {
                // Cheapest joules among the backends that still make the
                // deadline; nobody can -> earliest completion limits the
                // damage.
                Some(deadline) => {
                    min_energy(&mut backends.iter().filter(|a| completion(a) <= deadline))
                        .or_else(|| backends.iter().min_by_key(|a| tail(a)).copied())
                }
                None => min_edp(&mut backends.iter()),
            },
        }
        .expect("placement sees at least one backend");
        if chosen.warm || chosen.kind != BackendKind::Array {
            PlacementPlan::run_on(chosen.index)
        } else {
            PlacementPlan::with_prefetch(chosen.index)
        }
    }
}

/// Residency-blind baseline: job *i* runs on backend *i mod E* of the E
/// backends placement offers it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl Placement for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(&self, job: &JobView<'_>, backends: &[BackendView]) -> PlacementPlan {
        PlacementPlan::run_on(backends[job.index % backends.len()].index)
    }
}

/// One backend's admission-time price for a job — the raw material of
/// [`BackendView`]'s price columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendPrice {
    /// The backend cannot serve the job: an array whose geometry cannot
    /// build the program, or an offload backend whose model prices no
    /// window of it.
    Ineligible,
    /// An array: the cold reload's streaming cycles and nanojoules.  Its
    /// windows are priced by the [`Estimator`] when the job is placed.
    Array {
        reload_cycles: u64,
        reload_energy_nj: u64,
    },
    /// An offload backend: its modelled per-window cycles and nanojoules
    /// (no reload — it has no configuration memory).
    Offload {
        window_cycles: u64,
        window_energy_nj: u64,
    },
}

/// Per-job, per-backend pricing computed at admission, once per distinct
/// cache key and [`Offload`] declaration until the fleet changes, and
/// shared by the tickets that have both.
#[derive(Debug, Clone)]
struct JobPricing {
    /// Scalar reload cost: the footprint on the first array backend whose
    /// geometry builds the program (`0` in an all-offload fleet) — the
    /// array estimate's cold-start proxy.
    config_words: usize,
    /// Lower bound on the array estimate before the key has run on an
    /// array: the FFT engine's modelled window when the engine can serve
    /// the job, else `0`.  Dedicated silicon is never slower than the
    /// reconfigurable array at its own kernel (Sec. 2: ~3 k engine cycles
    /// vs 5–7 k array cycles for the 256-pt FFT), so a cold array estimate
    /// below the engine's window is certainly wrong.  The CPU's modelled
    /// window is *not* a bound — beating the CPU is the array's whole
    /// point.
    accel_floor: u64,
    /// Per backend, in pool order — see [`BackendPrice`].
    per_backend: Vec<BackendPrice>,
}

/// Dense id of an interned [`Kernel::cache_key`]: the pool numbers every
/// key it admits, in first-admission order, and keeps the numbering across
/// waves, so the serve loop's per-backend bookkeeping compares integers
/// instead of hashing key strings.
type KeyId = usize;

/// Observed `(compute cycles, windows)` totals.
type Observed = (u64, u64);

/// The pool's online per-program cost model for the arrays: cumulative
/// compute cycles and windows per key id, learned from every job an array
/// completed, plus the running total over all keys (the cold-start
/// fallback), each with its mean cached as it is learned.  Offload backends
/// price windows from their own models, so only array observations are
/// kept.  Backs the array columns of every [`BackendView`] and the
/// projected backlogs stealing reasons over.
#[derive(Debug, Default)]
struct Estimator {
    total: Observed,
    /// Mean of `total` ([`Estimator::mean`]).
    total_mean: Option<u64>,
    /// Per key id, the key's totals and their mean, grown as keys are
    /// learned (an id past the end has not run on an array yet).
    keys: Vec<(Observed, Option<u64>)>,
}

impl Estimator {
    /// Folds one array-completed job's observed cost into the model.
    fn learn(&mut self, key: KeyId, cycles: u64, windows: u64) {
        if self.keys.len() <= key {
            self.keys.resize(key + 1, ((0, 0), None));
        }
        let (observed, mean) = &mut self.keys[key];
        for (observed, mean) in [(observed, mean), (&mut self.total, &mut self.total_mean)] {
            observed.0 += cycles;
            observed.1 += windows;
            *mean = Self::mean(*observed);
        }
    }

    /// Mean cycles per window, floored at 1 (`None` before any window).
    fn mean((cycles, windows): Observed) -> Option<u64> {
        cycles.checked_div(windows).map(|mean| mean.max(1))
    }

    /// Estimated cycles of one array window of a job with key id `key`:
    /// the key's learned mean, else the mean over every key, else the
    /// program's footprint — both cold-start values raised to the job's
    /// [`JobPricing::accel_floor`].  Always at least 1.
    fn array_window(&self, key: KeyId, pricing: &JobPricing) -> u64 {
        if let Some(&(_, Some(mean))) = self.keys.get(key) {
            return mean;
        }
        self.total_mean
            .unwrap_or_else(|| (pricing.config_words as u64).max(1))
            .max(pricing.accel_floor)
    }
}

/// One backend's resident programs by key id, each with its warm flag: the
/// serve loop's integer copy of [`Backend::is_resident`] and
/// [`Backend::is_warm`].  Keys the pool never admitted (auxiliary programs)
/// are left out, since no ticket asks about them.
#[derive(Debug, Default)]
struct Residents {
    /// `true` on the host CPU, which holds nothing and is always warm.
    always_warm: bool,
    /// `(key id, warm)` per resident program.
    programs: Vec<(KeyId, bool)>,
}

impl Residents {
    /// `(resident, warm)` of the program with key id `key`.
    fn of(&self, key: KeyId) -> (bool, bool) {
        match self.programs.iter().find(|(id, _)| *id == key) {
            Some(&(_, warm)) => (true, warm),
            None => (false, self.always_warm),
        }
    }
}

/// One admitted-but-not-yet-started job inside [`Pool::serve`].
struct Ticket<'k, K, I> {
    seq: usize,
    kernel: &'k K,
    windows: I,
    /// The kernel's [`Kernel::cache_key`], for session calls and the views
    /// placement and scheduling policies see.
    key: String,
    /// `key`'s interned id, for everything the serve loop compares.
    key_id: KeyId,
    /// Per-backend cycles-and-joules pricing, computed at admission and
    /// shared by every ticket of the same key and offload declaration.  An
    /// ineligible price marks a backend that cannot serve this job;
    /// dispatch and stealing never commit the job there.
    pricing: Arc<JobPricing>,
    windows_hint: usize,
    tenant: TenantId,
    arrival: u64,
    priority: u8,
    deadline: Option<u64>,
}

impl<K, I> Ticket<'_, K, I> {
    /// `true` if backend `index` can serve this job at all.
    fn eligible(&self, index: usize) -> bool {
        self.pricing.per_backend[index] != BackendPrice::Ineligible
    }

    /// The [`JobView`] this ticket presents to the placement strategy.
    fn view(&self) -> JobView<'_> {
        JobView {
            index: self.seq,
            cache_key: &self.key,
            windows: self.windows_hint,
            deadline: self.deadline,
        }
    }
}

/// The latest arrival or deadline cycle [`Pool::serve`] admits:
/// `u64::MAX >> 2`, about 1,800 years at 80 MHz.  The serve loop's clocks
/// start at 0 or an admitted arrival, and the schedules only add modelled
/// work to them; while a run's work stays below 2⁶² cycles (far beyond
/// what a host can simulate), every such sum stays below 2⁶³ and cannot
/// overflow.  Deadlines are only compared, but share the bound.  The
/// horizon bounds stamps, not window-count hints: a caller may hint any
/// `usize`, so the estimates placement and projection derive from hints
/// saturate instead.
const CYCLE_HORIZON: u64 = u64::MAX >> 2;

/// A backend's run queue: committed-but-unstarted tickets, each with the
/// cycle it was committed at.
type RunQueue<'k, K, I> = VecDeque<(Ticket<'k, K, I>, u64)>;

/// How [`Pool::serve`] orders and commits the admitted queue: the
/// [`Server`](crate::serve::Server)'s knobs, or the fixed values of the
/// batch path ([`Pool::run_stream`]).
pub(crate) struct Dispatch<'a> {
    /// Picks which admitted job dispatches next.  `None` is the batch
    /// path: jobs dispatch in admission order, and each runs the moment it
    /// is committed — with stealing off nothing can re-route a committed
    /// job, so it need not wait in a run queue, and every backend keeps
    /// room.
    pub(crate) policy: Option<&'a mut dyn SchedPolicy>,
    /// Whether the work-stealing pass runs.
    pub(crate) stealing: bool,
    /// Per-backend run-queue depth (committed-but-unstarted jobs), ≥ 1.
    pub(crate) depth: usize,
    /// Whether the whole-queue lookahead planner runs.
    pub(crate) lookahead: bool,
}

/// A fleet of [`Backend`]s behind one [`Placement`] scheduler.
///
/// Every fan-out call ([`Pool::run_batch`] / [`Pool::run_stream`]) is one
/// *wave*: each backend starts the wave with an empty [`StreamSchedule`]
/// (its engines free at cycle 0), and the wave's merged [`FleetReport`] is
/// returned.  A wave is an arrival-0 serve: every job arrives at cycle 0,
/// dispatches in submission order, and runs as soon as placement commits
/// it.  *Residency persists across waves*: the sessions
/// keep their loaded programs, so a later wave's jobs launch warm wherever
/// earlier waves already placed their programs, and each array session's
/// lifetime counters ([`Session::busy`], [`Session::evictions`],
/// [`Session::prefetches`]) keep counting.
///
/// See the [module docs](crate::pool) for the scheduling model and a
/// runnable example.
#[derive(Debug)]
pub struct Pool {
    backends: Vec<Backend>,
    placement: Box<dyn Placement>,
    /// Admission prices by [`KeyId`], one per distinct [`Offload`]
    /// declaration of the key.  A price reads only the key's footprints,
    /// the declaration and the fleet, so it is computed once and kept
    /// until [`Pool::push_backend`] changes the fleet.
    prices: Vec<Vec<(Offload, Arc<JobPricing>)>>,
    /// Every cache key admitted so far, by its [`KeyId`].
    key_ids: HashMap<String, KeyId>,
    /// The learned per-program array costs behind projected backlogs and
    /// the array columns of [`BackendView`].
    estimates: Estimator,
    /// Per backend, the admitted programs resident there.  Rebuilt at the
    /// start of every serve, and refreshed wherever the serve loop changes
    /// a backend's residency: after a job's windows run there, and after
    /// a prefetch is staged there.
    residency: Vec<Residents>,
}

impl Pool {
    /// Creates a pool of `arrays` default sessions (paper geometry, LRU
    /// eviction) with the default [`CostAware`] placement.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is zero.
    pub fn new(arrays: usize) -> Self {
        Self::with_sessions((0..arrays).map(|_| Session::new()).collect())
            .expect("a pool needs at least one backend")
    }

    /// Creates an all-array pool over custom sessions (constrained or
    /// mixed geometries, custom eviction policies) with the default
    /// [`CostAware`] placement.
    ///
    /// Mixed geometries across the fleet are legal: each backend prices a
    /// kernel's reload against *its own* geometry
    /// ([`BackendView::reload_cycles`]), and a kernel whose program cannot
    /// be built for some backend's geometry is simply ineligible there.  A
    /// kernel no backend can take fails per job, as
    /// [`RuntimeError::MixedGeometry`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyPool`] if `sessions` is empty.
    pub fn with_sessions(sessions: Vec<Session>) -> Result<Self> {
        Self::with_backends(sessions.into_iter().map(Backend::from).collect())
    }

    /// Creates a pool over an explicit set of backends (arrays, the FFT
    /// engine, the host CPU — in any mix) with the default [`CostAware`]
    /// placement.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyPool`] if `backends` is empty.
    pub fn with_backends(backends: Vec<Backend>) -> Result<Self> {
        if backends.is_empty() {
            return Err(RuntimeError::EmptyPool);
        }
        let mut pool = Self {
            backends: Vec::with_capacity(backends.len()),
            placement: Box::new(CostAware::default()),
            prices: Vec::new(),
            key_ids: HashMap::new(),
            estimates: Estimator::default(),
            residency: Vec::new(),
        };
        for backend in backends {
            pool.push_backend(backend);
        }
        Ok(pool)
    }

    /// Appends a backend to the fleet, builder-style — how the FFT engine
    /// and the host CPU join an array pool.
    #[must_use]
    pub fn with_backend(mut self, backend: impl Into<Backend>) -> Self {
        self.push_backend(backend);
        self
    }

    /// Appends a backend to the fleet.  Existing residency and the
    /// placement strategy are unaffected; the new backend starts idle, and
    /// admission prices are recomputed for the new fleet.
    ///
    /// Every CGRA array of the fleet shares the first array's
    /// [`ReplayCache`](vwr2a_core::replay::ReplayCache), so a program
    /// recorded on one array replays on all of them.
    pub fn push_backend(&mut self, backend: impl Into<Backend>) {
        let mut backend = backend.into();
        let fleet_cache = self
            .sessions()
            .next()
            .map(|s| s.accelerator().replay_cache().clone());
        if let (Some(cache), Backend::Array(session)) = (fleet_cache, &mut backend) {
            session.accelerator_mut().share_replay_cache(&cache);
        }
        self.backends.push(backend);
        self.prices.clear();
    }

    /// Replaces the placement strategy, builder-style.
    #[must_use]
    pub fn with_placement(mut self, placement: impl Placement + 'static) -> Self {
        self.set_placement(placement);
        self
    }

    /// Replaces the placement strategy (resident programs are unaffected).
    pub fn set_placement(&mut self, placement: impl Placement + 'static) {
        self.placement = Box::new(placement);
    }

    /// Name of the active placement strategy.
    pub fn placement_name(&self) -> &'static str {
        self.placement.name()
    }

    /// Number of backends in the pool (kept under its historical name —
    /// before PR 7 every backend was an array).
    pub fn arrays(&self) -> usize {
        self.backends.len()
    }

    /// One backend of the fleet (kind and residency inspection), or
    /// `None` if `index` is out of range.
    pub fn backend(&self, index: usize) -> Option<&Backend> {
        self.backends.get(index)
    }

    /// The session behind one CGRA-array backend (residency inspection,
    /// tests), or `None` if `index` is out of range or the backend is not
    /// an array.
    pub fn array(&self, index: usize) -> Option<&Session> {
        match self.backends.get(index)? {
            Backend::Array(session) => Some(session),
            Backend::Fft(_) | Backend::Cpu(_) => None,
        }
    }

    /// The fleet's array sessions, in pool order.
    fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.backends.iter().filter_map(|b| match b {
            Backend::Array(session) => Some(&**session),
            Backend::Fft(_) | Backend::Cpu(_) => None,
        })
    }

    /// Evictions the needed-soon shield redirected, summed over the
    /// fleet's array sessions (see [`Session::evictions_averted`]).
    fn evictions_averted(&self) -> u64 {
        self.sessions().map(Session::evictions_averted).sum()
    }

    /// Fans a batch of `(kernel, windows)` jobs across the fleet and
    /// collects each job's outputs, in window order, grouped by job in
    /// submission order.
    ///
    /// Outputs are bit-identical to running every job serially on one
    /// [`Session`] — for any placement strategy, on whichever backend each
    /// job lands (kernels owe the same equivalence on their offload paths;
    /// see [`Kernel::execute_fft`] / [`Kernel::execute_cpu`]).  The
    /// returned [`FleetReport`] carries this wave's per-backend and
    /// fleet-level accounting, including the per-job routing record.
    ///
    /// # Errors
    ///
    /// As [`Session::run`] on the chosen backend, plus
    /// [`RuntimeError::Placement`] if the strategy returns an out-of-range
    /// backend index, [`RuntimeError::MixedGeometry`] if a job is routed
    /// to (or servable by no) array whose geometry cannot build its
    /// program, and [`RuntimeError::Capability`] if a job is routed to an
    /// offload backend that cannot serve it.  The first error aborts the
    /// fan-out; the pool and its backends stay valid and reusable.
    #[allow(clippy::type_complexity)]
    pub fn run_batch<'k, K, J, W>(&mut self, jobs: J) -> Result<(Vec<Vec<K::Output>>, FleetReport)>
    where
        K: Kernel + 'k,
        J: IntoIterator<Item = (&'k K, W)>,
        W: IntoIterator,
        W::Item: Borrow<K::Input>,
    {
        let jobs: Vec<(&K, W)> = jobs.into_iter().collect();
        let mut outputs: Vec<Vec<K::Output>> = (0..jobs.len()).map(|_| Vec::new()).collect();
        let report = self.run_stream(jobs, |job, output| {
            outputs[job].push(output);
            Ok(())
        })?;
        Ok((outputs, report))
    }

    /// Streams a fan-out of `(kernel, windows)` jobs across the fleet,
    /// handing each output to `sink` together with its job's submission
    /// index as soon as it is computed.  Within a job, windows arrive in
    /// window order; jobs on different backends may interleave.
    ///
    /// The fan-out is an arrival-0 serve: every job arrives at cycle 0,
    /// dispatches in submission order and runs on its backend as soon as
    /// placement commits it; there is no stealing and no lookahead.  Every
    /// job is priced against the fleet before the first one runs, so a job
    /// no backend can serve fails before any work.
    ///
    /// # Errors
    ///
    /// As [`Pool::run_batch`]; an error returned by `sink` aborts the
    /// fan-out as [`RuntimeError::Sink`] does for [`Session::run_stream`].
    /// Work performed before the abort still shows in the array sessions'
    /// lifetime counters ([`Session::busy`], [`Session::evictions`],
    /// [`Session::prefetches`]).
    pub fn run_stream<'k, K, J, W, F>(&mut self, jobs: J, sink: F) -> Result<FleetReport>
    where
        K: Kernel + 'k,
        J: IntoIterator<Item = (&'k K, W)>,
        W: IntoIterator,
        W::Item: Borrow<K::Input>,
        F: FnMut(usize, K::Output) -> Result<()>,
    {
        let jobs = jobs
            .into_iter()
            .map(|(kernel, windows)| ServeJob::new(kernel, windows, 0, 0));
        let batch = Dispatch {
            policy: None,
            stealing: false,
            depth: 1,
            lookahead: false,
        };
        self.serve(jobs, sink, batch).map(|report| report.fleet)
    }

    /// The [`KeyId`] of `key`, numbering it if the pool has not seen it.
    fn intern(&mut self, key: &str) -> KeyId {
        if let Some(&id) = self.key_ids.get(key) {
            return id;
        }
        let id = self.key_ids.len();
        self.key_ids.insert(key.to_string(), id);
        id
    }

    /// Prices `kernel` (offload declaration `offload`) against every
    /// backend of the fleet (see [`JobPricing`]).  An array can serve the
    /// job when its geometry builds the program, an offload backend when
    /// its model prices a window ([`Backend::window_cycles`]).  Errs if
    /// *no* backend can serve the job, naming the first array (whose
    /// geometry failed) or, in an all-offload fleet, the first backend.
    fn price_job<K: Kernel>(&self, kernel: &K, offload: &Offload) -> Result<JobPricing> {
        let model = EnergyModel::calibrated();
        let mut per_backend = Vec::with_capacity(self.backends.len());
        let mut config_words = None;
        let mut accel_floor: Option<u64> = None;
        // Footprints per distinct geometry (`None`: the geometry cannot
        // build the program), so [`Kernel::config_words`], which may build
        // the whole program to count, runs once per geometry.
        let mut footprints: Vec<(Geometry, Option<usize>)> = Vec::new();
        for index in 0..self.backends.len() {
            let price = if let Some(&geometry) = self.backends[index].geometry() {
                let words = match footprints.iter().find(|(seen, _)| *seen == geometry) {
                    Some(&(_, words)) => words,
                    None => {
                        let words = kernel.config_words(&geometry).ok();
                        footprints.push((geometry, words));
                        words
                    }
                };
                match words {
                    Some(words) => {
                        config_words.get_or_insert(words);
                        BackendPrice::Array {
                            reload_cycles: words as u64,
                            reload_energy_nj: model.array_reload_nj(words as u64),
                        }
                    }
                    None => BackendPrice::Ineligible,
                }
            } else {
                let kind = self.backends[index].kind();
                match self.backends[index].window_cycles(offload) {
                    Some(window_cycles) => {
                        if kind == BackendKind::FftAccel {
                            accel_floor =
                                Some(accel_floor.map_or(window_cycles, |f| f.min(window_cycles)));
                        }
                        BackendPrice::Offload {
                            window_cycles,
                            window_energy_nj: kind.window_nj(window_cycles),
                        }
                    }
                    None => BackendPrice::Ineligible,
                }
            };
            per_backend.push(price);
        }
        if per_backend.iter().all(|p| *p == BackendPrice::Ineligible) {
            let first_array = self
                .backends
                .iter()
                .position(|b| b.kind() == BackendKind::Array);
            return Err(self.cannot_serve(first_array.unwrap_or(0), kernel));
        }
        Ok(JobPricing {
            config_words: config_words.unwrap_or(0),
            accel_floor: accel_floor.unwrap_or(0),
            per_backend,
        })
    }

    /// The typed error for a job of `kernel` routed to backend `index`,
    /// which cannot serve it: [`RuntimeError::MixedGeometry`] for an
    /// array, [`RuntimeError::Capability`] otherwise.
    fn cannot_serve<K: Kernel>(&self, index: usize, kernel: &K) -> RuntimeError {
        match &self.backends[index] {
            Backend::Array(_) => RuntimeError::MixedGeometry { array: index },
            backend => RuntimeError::Capability {
                kernel: kernel.name().to_string(),
                backend: backend.kind().label().to_string(),
            },
        }
    }

    /// Checks a dispatch plan before anything runs: the target must name a
    /// backend of the pool ([`RuntimeError::Placement`]) that can serve the
    /// job ([`Pool::cannot_serve`]).
    fn check_plan<K: Kernel, I>(
        &self,
        plan: &PlacementPlan,
        ticket: &Ticket<'_, K, I>,
    ) -> Result<()> {
        match ticket.pricing.per_backend.get(plan.backend) {
            None => Err(RuntimeError::Placement {
                index: plan.backend,
                arrays: self.backends.len(),
            }),
            Some(BackendPrice::Ineligible) => Err(self.cannot_serve(plan.backend, ticket.kernel)),
            Some(_) => Ok(()),
        }
    }

    /// Executes a plan's prefetch: stages `ticket`'s program on backend
    /// `target` no earlier than `not_before` (the dispatch cycle) and folds
    /// the streamed cycles into `wave`.
    ///
    /// Speculative staging is best-effort: a prefetch the target cannot
    /// satisfy (its configuration memory packed with pinned programs, say)
    /// — or aimed at an offload backend, which has no configuration
    /// memory — is skipped, not fatal.  The job's own launch then pays the
    /// reload, and a genuine error resurfaces there, on the authoritative
    /// path.
    fn stage_prefetch<K: Kernel, I>(
        &mut self,
        target: usize,
        ticket: &Ticket<'_, K, I>,
        not_before: u64,
        schedules: &mut [StreamSchedule],
        wave: &mut FleetReport,
    ) {
        // The backlog *before* the prefetch decides whether the reload is
        // fully hidden (the ConfigLoad lane leaves the compute lane
        // untouched either way).
        let backlog = schedules[target].free_at(Engine::Compute);
        let Backend::Array(session) = &mut self.backends[target] else {
            return;
        };
        if let Ok(Some(staged)) = session.prefetch_key(ticket.kernel, &ticket.key) {
            let span = schedules[target].prefetch(staged.config_cycles, not_before);
            let report = &mut wave.arrays[target].report;
            report.prefetched += 1;
            if span.end <= backlog {
                report.hidden_reloads += 1;
            }
            // The streamed words are real engine work: fold them into the
            // serial phase sum and the activity counters so work
            // conservation and energy accounting hold.  The joules go to
            // the backend (and to the prefetch sub-total) but to no job:
            // per-job routes account execution only.
            report.cycles += staged.config_cycles;
            report.evictions += staged.evictions;
            let staged_nj = EnergyModel::calibrated().price_array(&staged.counters);
            report.energy_nj += staged_nj;
            report.prefetch_energy_nj += staged_nj;
            report.counters += staged.counters;
        }
        // Whatever the outcome: a stage the registry refuses evicts
        // nothing, but a policy that refuses, or names a non-candidate,
        // partway through a load leaves that load's evictions behind.
        self.refresh_residency(target);
    }

    /// Re-reads backend `index`'s resident programs into its residency
    /// view, in place.
    fn refresh_residency(&mut self, index: usize) {
        let backend = &self.backends[index];
        let view = &mut self.residency[index];
        view.always_warm = backend.kind() == BackendKind::Cpu;
        view.programs.clear();
        let key_ids = &self.key_ids;
        view.programs.extend(
            backend
                .residents()
                .filter_map(|(key, warm)| Some((*key_ids.get(key)?, warm))),
        );
    }

    /// `(resident, warm)` of `ticket`'s program on backend `index`, read
    /// from the residency view (debug builds check it against the
    /// backend).
    fn residency_of<K, I>(&self, index: usize, ticket: &Ticket<'_, K, I>) -> (bool, bool) {
        let state = self.residency[index].of(ticket.key_id);
        debug_assert_eq!(
            state,
            (
                self.backends[index].is_resident(&ticket.key),
                self.backends[index].is_warm(&ticket.key)
            ),
            "stale residency view of backend {index} for key {}",
            ticket.key
        );
        state
    }

    /// The pool's one executor, behind both [`Pool::run_stream`] and
    /// [`Server::run_stream`](crate::serve::Server::run_stream): admits
    /// arrival-stamped jobs, dispatches them by `dispatch.policy`, places
    /// each on a backend with room by the pool's [`Placement`], steals and
    /// plans ahead if asked to, and runs windows on per-backend
    /// [`StreamSchedule`]s.
    ///
    /// Every job is priced at admission, so a job no backend can serve —
    /// or whose arrival or deadline cycle lies beyond [`CYCLE_HORIZON`] —
    /// fails before any work.
    pub(crate) fn serve<'k, K, J, W, F>(
        &mut self,
        jobs: J,
        sink: F,
        mut dispatch: Dispatch<'_>,
    ) -> Result<ServeReport>
    where
        K: Kernel + 'k,
        J: IntoIterator<Item = ServeJob<&'k K, W>>,
        W: IntoIterator,
        W::Item: Borrow<K::Input>,
        F: FnMut(usize, K::Output) -> Result<()>,
    {
        let mut pending: VecDeque<Ticket<'k, K, W::IntoIter>> = VecDeque::new();
        for (seq, job) in jobs.into_iter().enumerate() {
            if job.arrival_cycle.max(job.deadline_cycle.unwrap_or(0)) > CYCLE_HORIZON {
                return Err(RuntimeError::invalid_input(format!(
                    "job {seq}: arrival or deadline cycle beyond the {CYCLE_HORIZON}-cycle horizon"
                )));
            }
            let key = job.kernel.cache_key();
            let key_id = self.intern(&key);
            let offload = job.kernel.offload();
            if self.prices.len() <= key_id {
                self.prices.resize_with(key_id + 1, Vec::new);
            }
            // Admission prices the job against every backend; the ticket
            // carries the pricing through dispatch and stealing.
            let pricing = match self.prices[key_id]
                .iter()
                .find(|(seen, _)| *seen == offload)
            {
                Some((_, pricing)) => Arc::clone(pricing),
                None => {
                    let pricing = Arc::new(self.price_job(job.kernel, &offload)?);
                    self.prices[key_id].push((offload, Arc::clone(&pricing)));
                    pricing
                }
            };
            let windows = job.windows.into_iter();
            pending.push_back(Ticket {
                seq,
                kernel: job.kernel,
                windows_hint: windows.size_hint().0,
                windows,
                key,
                key_id,
                pricing,
                tenant: job.tenant,
                arrival: job.arrival_cycle,
                priority: job.priority,
                deadline: job.deadline_cycle,
            });
        }
        // Admission happens in arrival order, stable on ties (submission
        // order), regardless of how the caller interleaved the stream.
        pending
            .make_contiguous()
            .sort_by_key(|t| (t.arrival, t.seq));

        let kinds: Vec<BackendKind> = self.backends.iter().map(|b| b.kind()).collect();
        let mut schedules: Vec<StreamSchedule> =
            kinds.iter().map(|_| StreamSchedule::new()).collect();
        let mut report = ServeReport {
            fleet: FleetReport::for_kinds(&kinds),
            latencies: Vec::new(),
            steals: 0,
            plan: PlannerStats::default(),
        };
        // Residency persists across waves: rebuild every backend's view,
        // now that every admitted key has its id.
        self.residency
            .resize_with(self.backends.len(), Residents::default);
        for index in 0..self.backends.len() {
            self.refresh_residency(index);
        }
        let averted_before = self.evictions_averted();
        let result = self.serve_loop(pending, sink, &mut dispatch, &mut schedules, &mut report);
        if dispatch.lookahead {
            // The queue is drained (or the run aborted): clear the
            // needed-soon announcement so later runs see an unshielded
            // fleet, and account what the shield redirected.
            for backend in &mut self.backends {
                if let Backend::Array(session) = backend {
                    session.set_needed_soon(std::iter::empty());
                }
            }
            report.plan.evictions_averted = self.evictions_averted() - averted_before;
        }
        result?;
        for (backend, schedule) in report.fleet.arrays.iter_mut().zip(schedules) {
            (backend.report.wall_cycles, backend.report.busy) = schedule.finish();
        }
        report.latencies.sort_unstable_by_key(|l| l.job);
        Ok(report)
    }

    /// The event loop of [`Pool::serve`]: admits, dispatches, steals and
    /// executes until the stream drains, recording into
    /// `schedules`/`report` as it goes so the caller can salvage the
    /// accounting of an aborted run.
    fn serve_loop<'k, K, I, F>(
        &mut self,
        mut pending: VecDeque<Ticket<'k, K, I>>,
        mut sink: F,
        dispatch: &mut Dispatch<'_>,
        schedules: &mut [StreamSchedule],
        report: &mut ServeReport,
    ) -> Result<()>
    where
        K: Kernel,
        I: Iterator,
        I::Item: Borrow<K::Input>,
        F: FnMut(usize, K::Output) -> Result<()>,
    {
        let backends = self.backends.len();
        let depth = dispatch.depth;
        let batch = dispatch.policy.is_none();
        let mut queue: VecDeque<Ticket<'k, K, I>> = VecDeque::new();
        let mut assigned: Vec<RunQueue<'k, K, I>> =
            (0..backends).map(|_| VecDeque::new()).collect();
        // Per backend, the key ids of the run queue last announced as
        // needed-soon (`None` until the first announcement).
        let mut announced: Vec<Option<Vec<KeyId>>> = vec![None; backends];
        let mut now = 0u64;

        loop {
            // Admit every job that has arrived by `now`.
            while pending.front().is_some_and(|t| t.arrival <= now) {
                queue.extend(pending.pop_front());
            }

            // Whether this iteration committed or materialised any job —
            // the guard against re-dispatching in place at the same cycle
            // forever when the only backends with queue room cannot serve
            // the jobs that are waiting.
            let mut progressed = false;

            // Dispatch: while the queue has jobs and some backend has
            // room, the policy picks the job and placement picks among the
            // backends that can serve it *and* have room, so the
            // strategy's choice and its prefetch land where the job runs.
            // A job with no such backend parks for this pass (room
            // elsewhere is no use to it), as does a job whose strategy
            // looked past its views at a full backend, so the loop
            // strictly consumes the queue and terminates.
            let mut parked: Vec<Ticket<'k, K, I>> = Vec::new();
            while !queue.is_empty() && assigned.iter().any(|a| a.len() < depth) {
                let ticket = match dispatch.policy.as_deref_mut() {
                    Some(policy) => {
                        let views: Vec<QueuedJob<'_>> = queue
                            .iter()
                            .map(|t| QueuedJob {
                                seq: t.seq,
                                tenant: t.tenant,
                                arrival_cycle: t.arrival,
                                priority: t.priority,
                                deadline_cycle: t.deadline,
                                windows: t.windows_hint,
                                cache_key: &t.key,
                            })
                            .collect();
                        let index = policy.select(now, &views);
                        queue.remove(index).ok_or(RuntimeError::Sched {
                            index,
                            queued: queue.len(),
                        })?
                    }
                    None => queue.pop_front().expect("the queue is not empty"),
                };
                let open = self.views(&ticket, now, schedules, &assigned, |i| {
                    assigned[i].len() < depth
                });
                if open.is_empty() {
                    parked.push(ticket);
                    continue;
                }
                let plan = self.placement.place(&ticket.view(), &open);
                self.check_plan(&plan, &ticket)?;
                let chosen = plan.backend;
                if assigned[chosen].len() >= depth {
                    parked.push(ticket);
                    continue;
                }
                if plan.prefetch {
                    self.stage_prefetch(chosen, &ticket, now, schedules, &mut report.fleet);
                }
                let head_key = dispatch.lookahead.then_some(ticket.key_id);
                assigned[chosen].push_back((ticket, now));
                progressed = true;
                if batch {
                    break; // the execute step runs it at once
                }
                // Affinity batching: queued jobs sharing the head job's
                // program ride along onto the same backend, back to back,
                // while its run queue has room — the reload (if any)
                // amortises over the whole run, and deeper riders become
                // warm launches behind the head.  Riders keep their queue
                // order; the head was dispatched on the policy's
                // authority, so fairness is charged where it matters (the
                // policy saw the head; the riders save everyone cycles).
                if let Some(head_key) = head_key {
                    let mut riders = 0u64;
                    while assigned[chosen].len() < depth {
                        let Some(next) = queue
                            .iter()
                            .position(|t| t.key_id == head_key && t.eligible(chosen))
                        else {
                            break;
                        };
                        assigned[chosen].extend(queue.remove(next).map(|t| (t, now)));
                        riders += 1;
                    }
                    if riders > 0 {
                        report.plan.affinity_runs += 1;
                        report.plan.batched_jobs += riders;
                    }
                }
            }
            queue.extend(parked);

            // Steal: re-route queued jobs away from the backend whose
            // projected backlog drifted furthest ahead of the fleet.
            if dispatch.stealing {
                self.steal_pass(now, depth, schedules, &mut assigned, report)?;
            }

            if dispatch.lookahead {
                // Eviction co-planning: announce, per backend, the
                // programs of the jobs committed to *that* backend as
                // needed-soon, so neither a sibling's prefetch nor a cold
                // load victimises a program this backend's run queue is
                // about to use.  The set is per-backend on purpose: a
                // global announce would shield replicas on arrays that
                // will never launch them, redirecting evictions onto
                // programs those arrays actually need (and starving the
                // speculative prefetches below, which refuse to evict
                // shielded residents).  Runs after stealing, against each
                // job's final backend, and only where a run queue's keys
                // changed since its last announcement.
                for ((backend, run_queue), last) in
                    self.backends.iter_mut().zip(&assigned).zip(&mut announced)
                {
                    let Backend::Array(session) = backend else {
                        continue;
                    };
                    let ids = run_queue.iter().map(|(t, _)| t.key_id);
                    if last
                        .as_ref()
                        .is_some_and(|last| ids.clone().eq(last.iter().copied()))
                    {
                        continue;
                    }
                    session.set_needed_soon(run_queue.iter().map(|(t, _)| t.key.clone()));
                    let last = last.get_or_insert_with(Vec::new);
                    last.clear();
                    last.extend(ids);
                }
                // Pipelined prefetch: stage the program of every job
                // *waiting* in an array's run queue on the
                // configuration-load lane, where it overlaps the compute
                // of the jobs ahead of it (and, behind a backlog, costs
                // zero wall cycles — a hidden reload).  Best-effort, like
                // every prefetch: a stage the session cannot satisfy is
                // skipped and the job's own launch pays the reload.
                for (i, run_queue) in assigned.iter().enumerate() {
                    if self.backends[i].kind() != BackendKind::Array {
                        continue;
                    }
                    for (ticket, _) in run_queue {
                        if self.residency_of(i, ticket).1 {
                            continue;
                        }
                        self.stage_prefetch(i, ticket, now, schedules, &mut report.fleet);
                        if self.residency_of(i, ticket).1 {
                            report.plan.planned_prefetches += 1;
                        }
                    }
                }
            }

            // Execute: materialise the front job of every backend whose
            // compute engine has caught up with the clock (a batch job at
            // once: nothing could re-route it).
            for i in 0..backends {
                while batch || schedules[i].free_at(Engine::Compute) <= now {
                    let Some((ticket, assign_cycle)) = assigned[i].pop_front() else {
                        break;
                    };
                    let kind = self.backends[i].kind();
                    // The route is final only now — stealing may have
                    // moved the ticket since dispatch — so the job counts
                    // from here.
                    let fleet = &mut report.fleet;
                    fleet.jobs += 1;
                    fleet.arrays[i].jobs += 1;
                    let route = fleet.routes.len();
                    fleet.routes.push(JobRoute {
                        job: ticket.seq,
                        backend: i,
                        kind,
                        energy_nj: 0,
                    });
                    let mut first_compute: Option<u64> = None;
                    let mut completed = assign_cycle;
                    let mut compute_cycles = 0u64;
                    let mut count = 0u64;
                    for window in ticket.windows {
                        let (output, phases, window_nj) = self.backends[i].run_window(
                            ticket.kernel,
                            &ticket.key,
                            window.borrow(),
                            &mut report.fleet.arrays[i].report,
                        )?;
                        // Attribute the window's measured joules to the
                        // job as they land, so even an aborted run's
                        // routes price the work actually done.
                        report.fleet.routes[route].energy_nj += window_nj;
                        let spans = schedules[i].push(phases, assign_cycle);
                        first_compute.get_or_insert(spans.compute.start);
                        completed = spans.irq.end;
                        compute_cycles += phases.compute;
                        count += 1;
                        sink(ticket.seq, output)?;
                    }
                    // Learn the kernel's observed array cost; offload
                    // backends price windows from their own models.
                    if kind == BackendKind::Array {
                        self.estimates.learn(ticket.key_id, compute_cycles, count);
                    }
                    // The windows loaded, evicted or reprogrammed here.
                    self.refresh_residency(i);
                    // The host knows the job is done once the last
                    // window's completion interrupt was serviced.
                    let service_start = first_compute.unwrap_or(completed);
                    report.latencies.push(JobLatency {
                        job: ticket.seq,
                        tenant: ticket.tenant,
                        queue_cycles: service_start - ticket.arrival,
                        service_cycles: completed - service_start,
                        total: completed - ticket.arrival,
                        deadline_met: ticket.deadline.is_none_or(|d| completed <= d),
                    });
                    progressed = true;
                }
            }

            // Re-dispatch at the same cycle if this iteration made
            // progress and left room for still-queued jobs.  The progress
            // guard matters in a heterogeneous fleet: room on a backend
            // the queued jobs cannot run on is not progress, and looping
            // on it would spin forever at the same cycle.
            if progressed && !queue.is_empty() && assigned.iter().any(|a| a.len() < depth) {
                continue;
            }
            if pending.is_empty() && queue.is_empty() && assigned.iter().all(VecDeque::is_empty) {
                return Ok(());
            }
            // Advance to the next event: an arrival, or a backend's
            // compute engine catching up with its front job.  Both are
            // strictly ahead of `now` (admission drained arrivals <= now;
            // execution drained backends free at <= now), and one exists:
            // a job still queued here waits on a run queue that is not
            // empty (an iteration that emptied them all made progress and
            // re-dispatched above).
            let next_arrival = pending.front().map(|t| t.arrival);
            let next_free = (0..backends)
                .filter(|&i| !assigned[i].is_empty())
                .map(|i| schedules[i].free_at(Engine::Compute))
                .min();
            now = next_arrival
                .into_iter()
                .chain(next_free)
                .min()
                .expect("an undrained stream has a next event");
        }
    }

    /// The work-stealing pass: while the most backlogged backend still
    /// has queued (unstarted) jobs, try to move its *last-committed* job
    /// to a backend that would finish it earlier, re-consulting
    /// [`Placement`] under the dispatch rule (donor excluded) so a planned
    /// prefetch fires on the new target.  Every move must strictly
    /// improve the donor/target pair's projected finish, and the pass is
    /// bounded, so it terminates.  A plan that cannot serve the job errs
    /// as at dispatch.
    fn steal_pass<'k, K, I>(
        &mut self,
        now: u64,
        depth: usize,
        schedules: &mut [StreamSchedule],
        assigned: &mut [RunQueue<'k, K, I>],
        report: &mut ServeReport,
    ) -> Result<()>
    where
        K: Kernel,
        I: Iterator,
    {
        let backends = assigned.len();
        let mut budget = backends * depth;
        while budget > 0 {
            budget -= 1;
            let projections: Vec<u64> = (0..backends)
                .map(|i| self.projection(i, now, schedules, assigned))
                .collect();
            let Some(donor) = (0..backends)
                .filter(|&i| !assigned[i].is_empty())
                .max_by_key(|&i| (projections[i], i))
            else {
                return Ok(());
            };
            let plan = {
                let (ticket, _) = assigned[donor].back().expect("donor has a queued job");
                // The dispatch rule, donor excluded: the strategy sees the
                // backends that can serve the job and have room.
                let views = self.views(ticket, now, schedules, assigned, |i| {
                    i != donor && assigned[i].len() < depth
                });
                if views.is_empty() {
                    return Ok(());
                }
                let plan = self.placement.place(&ticket.view(), &views);
                self.check_plan(&plan, ticket)?;
                let target = plan.backend;
                // A plan pointing back at the donor or at a full backend
                // steals nothing.  Otherwise only steal if the move
                // strictly improves the pair: the target (with the job, at
                // the job's cost *on the target*) must still finish before
                // the donor (whose projection includes the job) does today.
                if target == donor
                    || assigned[target].len() >= depth
                    || projections[target].saturating_add(self.est_cost(ticket, target))
                        >= projections[donor]
                {
                    return Ok(());
                }
                plan
            };
            let (ticket, _) = assigned[donor].pop_back().expect("donor checked non-empty");
            if plan.prefetch {
                self.stage_prefetch(plan.backend, &ticket, now, schedules, &mut report.fleet);
            }
            assigned[plan.backend].push_back((ticket, now));
            report.steals += 1;
        }
        Ok(())
    }

    /// Estimated compute cycles of one window of `ticket`'s program *on
    /// backend `backend`*: an offload backend's modelled per-window cost
    /// (priced at admission — the same model placement ranked the backend
    /// by, so projections stay consistent with the dispatch decision), else
    /// the array estimate ([`Estimator::array_window`]).  Consulting the
    /// model is what keeps a cold FFT-heavy run queue from projecting a
    /// near-zero horizon: an engine-capable key's footprint (zero config
    /// words) would price it at 1 cycle per window.
    fn per_window_estimate_on<K, I>(&self, ticket: &Ticket<'_, K, I>, backend: usize) -> u64 {
        match ticket.pricing.per_backend[backend] {
            BackendPrice::Offload { window_cycles, .. } => window_cycles.max(1),
            BackendPrice::Array { .. } | BackendPrice::Ineligible => {
                self.estimates.array_window(ticket.key_id, &ticket.pricing)
            }
        }
    }

    /// Estimated compute cost of a queued job on the backend it is queued
    /// on (its window hint times the per-window estimate, saturating; an
    /// opaque hint-less stream estimates free — the estimator corrects
    /// itself once the job has actually run).
    fn est_cost<K, I>(&self, ticket: &Ticket<'_, K, I>, backend: usize) -> u64 {
        (ticket.windows_hint as u64).saturating_mul(self.per_window_estimate_on(ticket, backend))
    }

    /// Projected compute horizon of one backend: its schedule's compute
    /// backlog (clamped to `now`) plus the estimated cost of every job
    /// queued on it, saturating.
    fn projection<K, I>(
        &self,
        backend: usize,
        now: u64,
        schedules: &[StreamSchedule],
        assigned: &[RunQueue<'_, K, I>],
    ) -> u64 {
        assigned[backend].iter().fold(
            schedules[backend].free_at(Engine::Compute).max(now),
            |horizon, (t, _)| horizon.saturating_add(self.est_cost(t, backend)),
        )
    }

    /// The [`BackendView`]s placement sees for `ticket` at dispatch and
    /// steal time: one per backend that can serve the job and passes
    /// `open`, over the *projected* backlogs.  Reload and offload window
    /// prices come from the ticket's admission-time pricing; the array
    /// window columns from one array estimate, computed here once.
    fn views<K, I>(
        &self,
        ticket: &Ticket<'_, K, I>,
        now: u64,
        schedules: &[StreamSchedule],
        assigned: &[RunQueue<'_, K, I>],
        open: impl Fn(usize) -> bool,
    ) -> Vec<BackendView> {
        let array_window = self.estimates.array_window(ticket.key_id, &ticket.pricing);
        let array_window_nj = BackendKind::Array.window_nj(array_window);
        let mut views = Vec::new();
        for (index, price) in ticket.pricing.per_backend.iter().enumerate() {
            let (reload_cycles, reload_energy_nj, window_cycles, window_energy_nj) = match *price {
                BackendPrice::Ineligible => continue,
                BackendPrice::Array {
                    reload_cycles,
                    reload_energy_nj,
                } => (
                    reload_cycles,
                    reload_energy_nj,
                    array_window,
                    array_window_nj,
                ),
                BackendPrice::Offload {
                    window_cycles,
                    window_energy_nj,
                } => (0, 0, window_cycles, window_energy_nj),
            };
            if !open(index) {
                continue;
            }
            let backend = &self.backends[index];
            let (resident, warm) = self.residency_of(index, ticket);
            views.push(BackendView {
                index,
                kind: backend.kind(),
                resident,
                warm,
                free_compute_at: self.projection(index, now, schedules, assigned),
                free_config_at: schedules[index].free_at(Engine::ConfigLoad).max(now),
                busy_compute: backend.busy_compute(),
                reload_cycles,
                window_cycles,
                reload_energy_nj,
                window_energy_nj,
            });
        }
        views
    }

    /// Runs every job of the same shape on one fresh, unconstrained
    /// [`Session`], serially — the reference the pool's equivalence tests
    /// compare against.  Outputs are grouped by job in submission order;
    /// the returned [`RunReport`] aggregates the whole serial run.
    ///
    /// # Errors
    ///
    /// As [`Session::run`]; the first error aborts the run.
    #[allow(clippy::type_complexity)]
    pub fn run_serial_reference<'k, K, J, W>(jobs: J) -> Result<(Vec<Vec<K::Output>>, RunReport)>
    where
        K: Kernel + 'k,
        J: IntoIterator<Item = (&'k K, W)>,
        W: IntoIterator,
        W::Item: Borrow<K::Input>,
    {
        let mut session = Session::new();
        let mut outputs = Vec::new();
        let mut total = RunReport::new("serial-reference");
        for (kernel, windows) in jobs {
            let mut job_outputs = Vec::new();
            for window in windows {
                let (output, report) = session.run(kernel, window.borrow())?;
                total.absorb(&report);
                job_outputs.push(output);
            }
            outputs.push(job_outputs);
        }
        Ok((outputs, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, FftBackend, FftShape, Offload};
    use crate::pipeline::Occupancy;
    use crate::testing::{constrained_sessions, BakedScaleKernel};
    use vwr2a_core::geometry::Geometry;

    fn baked_words() -> usize {
        BakedScaleKernel::new(1)
            .program(&Geometry::paper())
            .unwrap()
            .config_words()
    }

    /// Lifetime busy cycles of the fleet's array sessions, summed — what
    /// the sessions did, including runs that aborted.
    fn sessions_busy(pool: &Pool) -> Occupancy {
        pool.sessions()
            .map(Session::busy)
            .fold(Occupancy::default(), |acc, b| acc + b)
    }

    /// `true` if no backend of the fleet has computed anything yet.
    fn nothing_ran(pool: &Pool) -> bool {
        (0..pool.arrays()).all(|i| pool.backend(i).unwrap().busy_compute() == 0)
    }

    fn windows(count: usize, seed: i32) -> Vec<Vec<i32>> {
        (0..count)
            .map(|w| (0..96).map(|i| i + seed + 7 * w as i32).collect())
            .collect()
    }

    /// One job per pick, 2 windows each, kernels indexed by `picks`.
    fn picked_jobs<'a>(
        kernels: &'a [BakedScaleKernel],
        picks: &[usize],
    ) -> Vec<(&'a BakedScaleKernel, Vec<Vec<i32>>)> {
        picks
            .iter()
            .enumerate()
            .map(|(j, &pick)| (&kernels[pick], windows(2, j as i32)))
            .collect()
    }

    /// Outputs of a fan-out, grouped by job, then window.
    type JobOutputs = Vec<Vec<Vec<i32>>>;

    /// Fans `picks`-selected kernels over a 2-array pool with 2-slot
    /// configuration memories, returning (pool outputs, fleet report,
    /// serial reference outputs).
    fn run_mixed(
        factors: &[i16],
        picks: &[usize],
        placement: impl Placement + 'static,
    ) -> (JobOutputs, FleetReport, JobOutputs) {
        let kernels: Vec<BakedScaleKernel> =
            factors.iter().map(|&f| BakedScaleKernel::new(f)).collect();
        let mut pool = Pool::with_sessions(constrained_sessions(2, 2 * baked_words()))
            .unwrap()
            .with_placement(placement);
        let jobs = picked_jobs(&kernels, picks);
        let (outputs, fleet) = pool
            .run_batch(
                jobs.iter()
                    .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
            )
            .unwrap();
        let (serial, _) = Pool::run_serial_reference(
            jobs.iter()
                .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
        )
        .unwrap();
        (outputs, fleet, serial)
    }

    /// 12 jobs cycling over 3 distinct programs.
    const THREE_KERNEL_PICKS: [usize; 12] = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2];
    /// 12 jobs over 4 distinct programs in an irregular order, so
    /// round-robin cannot accidentally split the working set cleanly
    /// across the two arrays.
    const FOUR_KERNEL_PICKS: [usize; 12] = [0, 1, 2, 3, 2, 0, 1, 3, 0, 2, 3, 1];

    #[test]
    fn pool_outputs_match_serial_execution_for_every_strategy() {
        let factors = [2i16, 3, 5];
        let (ca, _, serial) = run_mixed(&factors, &THREE_KERNEL_PICKS, CostAware::default());
        assert_eq!(ca, serial);
        let (ra, _, serial) = run_mixed(&factors, &THREE_KERNEL_PICKS, ResidencyAware);
        assert_eq!(ra, serial);
        let (rr, _, serial) = run_mixed(&factors, &THREE_KERNEL_PICKS, RoundRobin);
        assert_eq!(rr, serial);
    }

    #[test]
    fn cost_aware_prefetch_turns_every_reload_warm() {
        // Same capacity-pressure scenario as the residency-aware test: 2
        // arrays, 3 distinct programs, 2-slot memories.  Cost-aware
        // placement stages every first-per-array reload speculatively, so
        // no launch ever pays configuration streaming on its critical
        // path.
        let factors = [2i16, 3, 5];
        let (_, cost_aware, _) = run_mixed(&factors, &THREE_KERNEL_PICKS, CostAware::default());
        assert_eq!(cost_aware.cold_reloads(), 0, "all reloads prefetched");
        assert!(cost_aware.prefetched() >= 3, "one stage per program-array");
        assert_eq!(
            cost_aware.warm_launches(),
            cost_aware.invocations(),
            "every launch found its program warm"
        );
        // The total reload bill is visible: prefetches replace cold
        // launches one for one, never silently disappear.
        let (_, residency_aware, _) = run_mixed(&factors, &THREE_KERNEL_PICKS, ResidencyAware);
        assert!(
            cost_aware.cold_reloads() + cost_aware.prefetched() >= residency_aware.cold_reloads()
        );
    }

    #[test]
    fn residency_aware_beats_round_robin_on_cold_reloads() {
        // The satellite scenario: 2 arrays, 3 distinct kernels, 2-slot
        // configuration memories.  Residency-aware placement pins each
        // program to "its" array and goes cold exactly once per program;
        // round-robin alternates every program across both 2-slot
        // memories — each array cycles through all 3 programs and keeps
        // re-streaming configuration words.
        let factors = [2i16, 3, 5];
        let (_, residency_aware, _) = run_mixed(&factors, &THREE_KERNEL_PICKS, ResidencyAware);
        let (_, round_robin, _) = run_mixed(&factors, &THREE_KERNEL_PICKS, RoundRobin);
        assert_eq!(
            residency_aware.cold_reloads(),
            3,
            "each of the 3 programs loads cold exactly once"
        );
        assert_eq!(residency_aware.evictions(), 0);
        assert!(
            residency_aware.cold_reloads() < round_robin.cold_reloads(),
            "residency-aware {} cold reloads must beat round-robin {}",
            residency_aware.cold_reloads(),
            round_robin.cold_reloads()
        );
        assert!(round_robin.evictions() > 0, "3 programs thrash 2 slots");
    }

    /// A launch-only kernel with a NOP-padded program: a distinct program
    /// per `key`, sized so cold configuration streaming is expensive
    /// relative to the (DMA-free) execution — the shape on which placement
    /// quality shows up in the fleet wall clock.
    struct PaddedKernel {
        key: String,
    }

    impl PaddedKernel {
        const ROWS: usize = 24;

        fn new(key: &str) -> Self {
            Self {
                key: key.to_string(),
            }
        }

        fn words() -> usize {
            PaddedKernel::new("probe")
                .program(&Geometry::paper())
                .unwrap()
                .config_words()
        }
    }

    impl Kernel for PaddedKernel {
        type Input = ();
        type Output = u64;
        fn name(&self) -> &str {
            "padded"
        }
        fn cache_key(&self) -> String {
            self.key.clone()
        }
        fn resources(&self) -> crate::session::Resources {
            crate::session::Resources::default()
        }
        fn program(&self, g: &Geometry) -> Result<vwr2a_core::program::KernelProgram> {
            use vwr2a_core::program::{ColumnProgram, Row};
            let mut rows = vec![Row::new(g.rcs_per_column); Self::ROWS];
            rows.push(Row::new(g.rcs_per_column).lcu(vwr2a_core::isa::LcuInstr::Exit));
            Ok(vwr2a_core::program::KernelProgram::new(
                self.key.as_str(),
                vec![ColumnProgram::new(rows)?],
            )?)
        }
        fn execute(&self, ctx: &mut crate::session::LaunchCtx<'_>, _input: &()) -> Result<u64> {
            ctx.launch()
        }
    }

    #[test]
    fn residency_aware_beats_round_robin_on_fleet_occupancy() {
        // The bench-bin acceptance claim: on a mixed-kernel sweep whose
        // working set fills the fleet (4 programs over 2 × 2 slots),
        // residency-aware placement spreads the programs across the
        // arrays once and then runs warm and balanced, while round-robin
        // keeps every array cycling through all 4 programs — the extra
        // configuration streaming sits on each array's critical path, so
        // a smaller fraction of the fleet's array-cycles goes to compute.
        let kernels: Vec<PaddedKernel> = (0..4)
            .map(|k| PaddedKernel::new(&format!("p{k}")))
            .collect();
        let run = |placement: Box<dyn Placement>| {
            let mut pool =
                Pool::with_sessions(constrained_sessions(2, 2 * PaddedKernel::words())).unwrap();
            pool.placement = placement;
            let (_, fleet) = pool
                .run_batch(
                    FOUR_KERNEL_PICKS
                        .iter()
                        .map(|&pick| (&kernels[pick], vec![(); 2])),
                )
                .unwrap();
            fleet
        };
        let residency_aware = run(Box::new(ResidencyAware));
        let round_robin = run(Box::new(RoundRobin));
        assert_eq!(residency_aware.cold_reloads(), 4);
        assert_eq!(residency_aware.evictions(), 0);
        assert!(round_robin.evictions() > 0);
        assert!(
            round_robin.cold_reloads() > residency_aware.cold_reloads(),
            "round-robin must thrash the 2-slot memories"
        );
        assert!(
            residency_aware.occupancy() > round_robin.occupancy(),
            "occupancy {:.3} must beat {:.3}",
            residency_aware.occupancy(),
            round_robin.occupancy()
        );
        assert!(residency_aware.wall_cycles() < round_robin.wall_cycles());

        // The tentpole claim on the same workload: prefetching the reloads
        // off the critical path beats even the residency-aware scheduler —
        // strictly fewer cold reloads (none) and a strictly lower fleet
        // wall clock, with some reloads fully hidden inside backlogs.
        let cost_aware = run(Box::<CostAware>::default());
        assert_eq!(cost_aware.cold_reloads(), 0);
        assert!(cost_aware.prefetched() >= 4);
        assert!(
            cost_aware.wall_cycles() < residency_aware.wall_cycles(),
            "cost-aware wall {} must beat residency-aware {}",
            cost_aware.wall_cycles(),
            residency_aware.wall_cycles()
        );
        assert_eq!(cost_aware.evictions(), 0);
    }

    #[test]
    fn fleet_wall_clock_and_busy_conserve_the_per_array_schedules() {
        // With prefetch (CostAware) the staged configuration cycles land on
        // the schedules' ConfigLoad lanes *and* in the per-array `cycles`,
        // so the same conservation identity must hold for both strategies.
        for fleet in [
            run_mixed(&[2i16, 3, 5], &THREE_KERNEL_PICKS, ResidencyAware).1,
            run_mixed(&[2i16, 3, 5], &THREE_KERNEL_PICKS, CostAware::default()).1,
        ] {
            let max_wall = fleet
                .arrays
                .iter()
                .map(|a| a.report.wall_cycles)
                .max()
                .unwrap();
            assert_eq!(fleet.wall_cycles(), max_wall);
            for array in &fleet.arrays {
                assert!(fleet.wall_cycles() >= array.report.wall_cycles);
                // Per-array work conservation, as in the schedule proptest:
                // every phase cycle — prefetched streaming included —
                // appears exactly once in the occupancy.
                assert_eq!(
                    array.report.busy.config_load
                        + array.report.busy.dma
                        + array.report.busy.compute,
                    array.report.cycles
                );
            }
            let busy_sum = fleet
                .arrays
                .iter()
                .map(|a| a.report.busy.total())
                .sum::<u64>();
            assert_eq!(fleet.busy().total(), busy_sum);
        }
    }

    #[test]
    fn placement_sees_residency_and_balances_new_programs() {
        let kernels: Vec<BakedScaleKernel> =
            [2, 3].iter().map(|&f| BakedScaleKernel::new(f)).collect();
        let mut pool = Pool::new(2);
        let jobs: Vec<(&BakedScaleKernel, Vec<Vec<i32>>)> = (0..4)
            .map(|j| (&kernels[j % 2], windows(1, j as i32)))
            .collect();
        pool.run_batch(
            jobs.iter()
                .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
        )
        .unwrap();
        // The two distinct programs must have been spread over the two
        // arrays (the second program's reload is cheaper than queueing
        // behind the first job's backlog), and each repeat went back to
        // its warm array.
        let (first, second) = (pool.array(0).unwrap(), pool.array(1).unwrap());
        assert!(first.is_resident(&kernels[0]));
        assert!(second.is_resident(&kernels[1]));
        assert!(!first.is_resident(&kernels[1]));
        assert!(!second.is_resident(&kernels[0]));
    }

    #[test]
    fn residency_persists_across_waves() {
        let kernel = BakedScaleKernel::new(9);
        let mut pool = Pool::new(2);
        let ws = windows(2, 0);
        let (_, first) = pool
            .run_batch([(&kernel, ws.iter().map(Vec::as_slice))])
            .unwrap();
        // The default cost-aware placement stages the one reload ahead of
        // the launch: prefetched, never cold.
        assert_eq!(first.cold_reloads(), 0);
        assert_eq!(first.prefetched(), 1);
        let (_, second) = pool
            .run_batch([(&kernel, ws.iter().map(Vec::as_slice))])
            .unwrap();
        assert_eq!(second.prefetched(), 0, "wave 2 finds the program warm");
        assert_eq!(second.cold_reloads(), 0);
        // Each wave reports itself alone; the sessions' lifetime counters
        // span both.
        assert_eq!((first.jobs, second.jobs), (1, 1));
        assert_eq!((first.invocations(), second.invocations()), (2, 2));
        assert_eq!(second.routes[0].job, 0);
        assert_eq!(pool.sessions().map(Session::prefetches).sum::<u64>(), 1);
        assert_eq!(
            sessions_busy(&pool).compute,
            first.busy().compute + second.busy().compute
        );
    }

    #[test]
    fn run_stream_delivers_outputs_with_job_indices() {
        let kernels: Vec<BakedScaleKernel> =
            [4, 5].iter().map(|&f| BakedScaleKernel::new(f)).collect();
        let mut pool = Pool::new(2);
        let mut seen: Vec<(usize, i32)> = Vec::new();
        let window = [10i32, 20];
        let report = pool
            .run_stream(
                (0..3).map(|j| (&kernels[j % 2], [window.as_slice()])),
                |job, out| {
                    seen.push((job, out[0]));
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(seen, vec![(0, 40), (1, 50), (2, 40)]);
        assert_eq!(report.jobs, 3);
        assert_eq!(report.invocations(), 3);
        assert_eq!(report.routes.len(), 3, "one route record per job");
        assert!(report.routes.iter().all(|r| r.kind == BackendKind::Array));
    }

    #[test]
    fn sink_error_aborts_the_fan_out_but_the_pool_stays_usable() {
        let kernel = BakedScaleKernel::new(3);
        let mut pool = Pool::new(2);
        let ws = windows(3, 0);
        let err = pool
            .run_stream([(&kernel, ws.iter().map(Vec::as_slice))], |_, _| {
                Err(RuntimeError::sink("downstream is full"))
            })
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Sink { .. }));
        // The aborted wave's work is not lost from the sessions' lifetime
        // counters: the (prefetched) configuration stream and the first
        // window physically ran.
        assert_eq!(pool.sessions().map(Session::prefetches).sum::<u64>(), 1);
        let busy = sessions_busy(&pool);
        assert_eq!(busy.config_load, baked_words() as u64);
        assert!(busy.compute > 0);
        // The placed program stays resident; the next wave runs warm.
        let (_, report) = pool
            .run_batch([(&kernel, ws.iter().map(Vec::as_slice))])
            .unwrap();
        assert_eq!(report.cold_reloads(), 0);
        assert_eq!(report.prefetched(), 0);
    }

    #[test]
    fn rogue_placement_fails_cleanly() {
        #[derive(Debug)]
        struct OutOfRange;
        impl Placement for OutOfRange {
            fn name(&self) -> &'static str {
                "out-of-range"
            }
            fn place(&self, _job: &JobView<'_>, backends: &[BackendView]) -> PlacementPlan {
                PlacementPlan::run_on(backends.len() + 3)
            }
        }
        let kernel = BakedScaleKernel::new(2);
        let mut pool = Pool::new(2).with_placement(OutOfRange);
        let ws = windows(1, 0);
        let err = pool
            .run_batch([(&kernel, ws.iter().map(Vec::as_slice))])
            .unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Placement {
                    index: 5,
                    arrays: 2
                }
            ),
            "expected Placement, got {err:?}"
        );
        // Nothing ran, and the pool recovers with a sane strategy.
        pool.set_placement(ResidencyAware);
        assert_eq!(pool.placement_name(), "residency-aware");
        pool.run_batch([(&kernel, ws.iter().map(Vec::as_slice))])
            .unwrap();
    }

    #[test]
    fn unsatisfiable_prefetches_are_skipped_not_fatal() {
        // A program larger than the whole configuration memory: the
        // directed prefetch cannot be satisfied and is skipped; the
        // genuine error then surfaces from the job's own launch path, and
        // no phantom prefetch is recorded.
        let kernels: Vec<BakedScaleKernel> = [2i16, 3]
            .iter()
            .map(|&f| BakedScaleKernel::new(f))
            .collect();
        let mut pool = Pool::with_sessions(constrained_sessions(2, baked_words() - 1)).unwrap();
        let ws = windows(1, 0);
        let err = pool
            .run_batch(kernels.iter().map(|k| (k, ws.iter().map(Vec::as_slice))))
            .unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Core(vwr2a_core::CoreError::ConfigMemoryFull { .. })
            ),
            "expected ConfigMemoryFull from the launch path, got {err:?}"
        );
        assert_eq!(
            pool.sessions().map(Session::prefetches).sum::<u64>(),
            0,
            "the failed stage is not counted"
        );
        // The pool stays reusable for jobs that do fit.
        let mut roomy = Pool::new(1);
        roomy
            .run_batch([(&kernels[0], ws.iter().map(Vec::as_slice))])
            .unwrap();
    }

    #[test]
    fn compute_backlogs_hide_prefetched_reloads_completely() {
        // One array, two compute-heavy jobs with distinct programs: the
        // second job's reload streams on the ConfigLoad lane entirely
        // inside the first job's compute backlog — a reload at zero
        // wall-clock cost, which a cold launch could never be.
        let first = BakedScaleKernel::new(2);
        let second = BakedScaleKernel::new(3);
        let ws = windows(6, 0);
        let mut pool = Pool::new(1);
        let (_, fleet) = pool
            .run_batch([
                (&first, ws.iter().map(Vec::as_slice)),
                (&second, ws.iter().map(Vec::as_slice)),
            ])
            .unwrap();
        assert_eq!(fleet.cold_reloads(), 0);
        assert_eq!(fleet.prefetched(), 2);
        assert_eq!(
            fleet.hidden_reloads(),
            1,
            "the first reload has no backlog to hide in; the second does"
        );
    }

    #[test]
    fn stats_accumulate_consistently_across_waves_and_errors() {
        let kernels: Vec<BakedScaleKernel> = [2i16, 3, 5]
            .iter()
            .map(|&f| BakedScaleKernel::new(f))
            .collect();
        let mut pool = Pool::with_sessions(constrained_sessions(2, 2 * baked_words())).unwrap();
        let ws = windows(2, 0);
        // Serial work per array, as the sessions' lifetime counters see it.
        fn lifetime(pool: &Pool) -> Vec<u64> {
            pool.sessions()
                .map(|s| s.busy().config_load + s.busy().dma + s.busy().compute)
                .collect()
        }
        // A completed wave reports exactly the work its sessions did, array
        // by array, and its busy split matches its serial phase sum.
        fn wave(pool: &mut Pool, kernels: &[BakedScaleKernel], ws: &[Vec<i32>]) -> FleetReport {
            let before = lifetime(pool);
            let (_, report) = pool
                .run_batch(kernels.iter().map(|k| (k, ws.iter().map(Vec::as_slice))))
                .unwrap();
            let after = lifetime(pool);
            for (array, (after, before)) in report.arrays.iter().zip(after.iter().zip(&before)) {
                assert_eq!(after - before, array.report.cycles);
                let busy = array.report.busy;
                assert_eq!(
                    busy.config_load + busy.dma + busy.compute,
                    array.report.cycles
                );
            }
            assert_eq!(
                report.arrays.iter().map(|a| a.jobs).sum::<u64>(),
                report.jobs
            );
            assert_eq!(
                report.busy().total(),
                report.arrays.iter().map(|a| a.report.busy.total()).sum()
            );
            report
        }

        // Waves 1 and 2: two, then all three programs.
        let first = wave(&mut pool, &kernels[..2], &ws);
        assert_eq!((first.jobs, first.invocations()), (2, 4));
        let second = wave(&mut pool, &kernels, &ws);
        assert_eq!((second.jobs, second.invocations()), (3, 6));

        // Wave 3 aborts in the sink after one window: the partial work
        // still shows in the sessions' lifetime counters.
        let before_abort = lifetime(&pool);
        let err = pool
            .run_stream(
                kernels.iter().map(|k| (k, ws.iter().map(Vec::as_slice))),
                |_, _| Err(RuntimeError::sink("full")),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Sink { .. }));
        let after_abort = lifetime(&pool);
        assert!(after_abort.iter().sum::<u64>() > before_abort.iter().sum::<u64>());

        // Wave 4 aborts in placement before anything runs: no counters
        // move at all.
        #[derive(Debug)]
        struct Rogue;
        impl Placement for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn place(&self, _job: &JobView<'_>, backends: &[BackendView]) -> PlacementPlan {
                PlacementPlan::run_on(backends.len())
            }
        }
        let counters = |pool: &Pool| -> Vec<(u64, u64)> {
            pool.sessions()
                .map(|s| (s.evictions(), s.prefetches()))
                .collect()
        };
        let counters_before = counters(&pool);
        pool.set_placement(Rogue);
        assert!(pool
            .run_batch(kernels.iter().map(|k| (k, ws.iter().map(Vec::as_slice))))
            .is_err());
        assert_eq!(lifetime(&pool), after_abort, "a rogue wave adds nothing");
        assert_eq!(counters(&pool), counters_before);

        // The pool stays fully usable.
        pool.set_placement(CostAware::default());
        let last = wave(&mut pool, &kernels, &ws);
        assert_eq!((last.jobs, last.invocations()), (3, 6));
    }

    #[test]
    fn empty_fan_out_is_free() {
        let mut pool = Pool::new(3);
        let (outputs, report) = pool
            .run_batch(std::iter::empty::<(&BakedScaleKernel, Vec<&[i32]>)>())
            .unwrap();
        assert!(outputs.is_empty());
        assert_eq!(report.jobs, 0);
        assert_eq!(report.wall_cycles(), 0);
        assert_eq!(report.occupancy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn zero_backend_pools_are_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn empty_fleets_are_a_typed_error() {
        assert_eq!(
            Pool::with_sessions(Vec::new()).unwrap_err(),
            RuntimeError::EmptyPool
        );
        assert_eq!(
            Pool::with_backends(Vec::new()).unwrap_err(),
            RuntimeError::EmptyPool
        );
    }

    /// Pins every job to one backend — the deterministic routing probe of
    /// the heterogeneous tests.
    #[derive(Debug)]
    struct Pin(usize);
    impl Placement for Pin {
        fn name(&self) -> &'static str {
            "pin"
        }
        fn place(&self, _job: &JobView<'_>, _backends: &[BackendView]) -> PlacementPlan {
            PlacementPlan::run_on(self.0)
        }
    }

    #[test]
    fn mixed_geometry_fleets_price_reloads_per_geometry() {
        // PR 7 retires the blanket MixedGeometry rejection: sessions with
        // different configuration-memory capacities form a legal fleet,
        // each backend pricing reloads against its own geometry, and
        // outputs stay bit-identical to the serial reference.
        let mut sessions = constrained_sessions(1, 3 * baked_words());
        sessions.extend(constrained_sessions(1, baked_words()));
        let mut pool = Pool::with_sessions(sessions).unwrap();
        let kernels: Vec<BakedScaleKernel> = [2i16, 3, 5]
            .iter()
            .map(|&f| BakedScaleKernel::new(f))
            .collect();
        let jobs = picked_jobs(&kernels, &THREE_KERNEL_PICKS);
        let (outputs, fleet) = pool
            .run_batch(
                jobs.iter()
                    .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
            )
            .unwrap();
        let (serial, _) = Pool::run_serial_reference(
            jobs.iter()
                .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
        )
        .unwrap();
        assert_eq!(outputs, serial);
        assert_eq!(fleet.jobs, 12);
        assert!(fleet.routes.iter().all(|r| r.kind == BackendKind::Array));
    }

    /// A scale kernel that refuses to map onto configuration memories
    /// smaller than two of its programs — the "genuinely incompatible
    /// kernel" of the mixed-geometry regression test.  It counts the
    /// footprint queries it answers.
    #[derive(Debug)]
    struct PickyKernel(BakedScaleKernel, std::cell::Cell<usize>);
    impl PickyKernel {
        fn new(factor: i16) -> Self {
            Self(BakedScaleKernel::new(factor), std::cell::Cell::new(0))
        }
    }
    impl Kernel for PickyKernel {
        type Input = [i32];
        type Output = Vec<i32>;
        fn name(&self) -> &str {
            "picky"
        }
        fn cache_key(&self) -> String {
            "picky".to_string()
        }
        fn resources(&self) -> crate::session::Resources {
            self.0.resources()
        }
        fn config_words(&self, g: &Geometry) -> Result<usize> {
            self.1.set(self.1.get() + 1);
            if g.config_words < 2 * baked_words() {
                return Err(RuntimeError::invalid_input(
                    "picky does not map onto small configuration memories",
                ));
            }
            self.0.config_words(g)
        }
        fn program(&self, g: &Geometry) -> Result<vwr2a_core::program::KernelProgram> {
            self.0.program(g)
        }
        fn execute(
            &self,
            ctx: &mut crate::session::LaunchCtx<'_>,
            input: &[i32],
        ) -> Result<Vec<i32>> {
            self.0.execute(ctx, input)
        }
    }

    #[test]
    fn incompatible_kernels_still_fail_as_mixed_geometry() {
        // The regression guard for the old rejection case: a kernel whose
        // program cannot be built for some backend's geometry is
        // ineligible there — routed around under cost-aware placement,
        // and a typed MixedGeometry error when pinned there or when no
        // backend can take it at all.
        let picky = PickyKernel::new(4);
        let ws = windows(1, 0);
        let mut sessions = constrained_sessions(1, 2 * baked_words());
        sessions.extend(constrained_sessions(1, baked_words()));
        let mut pool = Pool::with_sessions(sessions).unwrap();
        let (outputs, fleet) = pool
            .run_batch([(&picky, ws.iter().map(Vec::as_slice))])
            .unwrap();
        let (serial, _) =
            Pool::run_serial_reference([(&picky, ws.iter().map(Vec::as_slice))]).unwrap();
        assert_eq!(outputs, serial);
        assert_eq!(fleet.routes[0].backend, 0, "routed around the small array");

        pool.set_placement(Pin(1));
        let err = pool
            .run_batch([(&picky, ws.iter().map(Vec::as_slice))])
            .unwrap_err();
        assert_eq!(err, RuntimeError::MixedGeometry { array: 1 });
        assert!(err.to_string().contains("backend 1"));

        // A fleet with no compatible geometry fails at admission, naming
        // the first failing array; the pool stays reusable.
        let mut tiny = Pool::with_sessions(constrained_sessions(1, baked_words())).unwrap();
        let err = tiny
            .run_batch([(&picky, ws.iter().map(Vec::as_slice))])
            .unwrap_err();
        assert_eq!(err, RuntimeError::MixedGeometry { array: 0 });
        assert!(nothing_ran(&tiny));
        tiny.run_batch([(&picky.0, ws.iter().map(Vec::as_slice))])
            .unwrap();
    }

    #[test]
    fn footprints_are_priced_once_per_geometry() {
        // Four arrays of two interleaved geometries, one too small for
        // the program: three waves price it once per geometry — not once
        // per backend or per job — and still route around the small one.
        let big = 2 * baked_words();
        let mut sessions = constrained_sessions(1, big);
        sessions.extend(constrained_sessions(1, baked_words()));
        sessions.extend(constrained_sessions(2, big));
        let mut pool = Pool::with_sessions(sessions).unwrap();
        let picky = PickyKernel::new(4);
        let ws = windows(1, 0);
        for _ in 0..3 {
            let (_, fleet) = pool
                .run_batch([(&picky, ws.iter().map(Vec::as_slice))])
                .unwrap();
            assert_ne!(fleet.routes[0].backend, 1, "the small array is ineligible");
        }
        assert_eq!(picky.1.get(), 2, "one footprint query per geometry");
    }

    /// A kernel servable by both the arrays and the FFT engine: the CGRA
    /// path is a baked scale program; the FFT path computes the same
    /// scaled output host-side while running the engine's real-FFT flow
    /// for genuine cycle accounting — outputs are bit-identical across
    /// backends by construction, like the real FFT kernels in
    /// `vwr2a-kernels` (whose numerical equivalence is pinned there).
    #[derive(Debug)]
    struct FftishKernel {
        scale: BakedScaleKernel,
        points: usize,
    }
    impl FftishKernel {
        fn new(factor: i16, points: usize) -> Self {
            Self {
                scale: BakedScaleKernel::new(factor),
                points,
            }
        }
    }
    impl Kernel for FftishKernel {
        type Input = [i32];
        type Output = Vec<i32>;
        fn name(&self) -> &str {
            "fftish"
        }
        fn cache_key(&self) -> String {
            format!("fftish:{}", self.scale.factor())
        }
        fn resources(&self) -> crate::session::Resources {
            self.scale.resources()
        }
        fn program(&self, g: &Geometry) -> Result<vwr2a_core::program::KernelProgram> {
            self.scale.program(g)
        }
        fn execute(
            &self,
            ctx: &mut crate::session::LaunchCtx<'_>,
            input: &[i32],
        ) -> Result<Vec<i32>> {
            self.scale.execute(ctx, input)
        }
        fn offload(&self) -> Offload {
            Offload {
                fft: Some(FftShape {
                    points: self.points,
                    real: true,
                }),
                cpu_cycles: None,
            }
        }
        fn execute_fft(
            &self,
            accel: &vwr2a_fftaccel::FftAccelerator,
            input: &[i32],
        ) -> Result<(Vec<i32>, vwr2a_fftaccel::FftAccelStats)> {
            let samples: Vec<f64> = (0..self.points)
                .map(|i| f64::from(input.get(i).copied().unwrap_or(0)))
                .collect();
            let (_, stats) = accel
                .run_real(&samples)
                .map_err(|e| RuntimeError::invalid_input(e.to_string()))?;
            let out = input
                .iter()
                .map(|&v| v.wrapping_mul(i32::from(self.scale.factor())))
                .collect();
            Ok((out, stats))
        }
    }

    #[test]
    fn objectives_rank_the_same_candidates_differently() {
        // One warm array and the FFT engine, deliberately priced so the
        // array finishes a touch sooner while the engine costs ~5x fewer
        // joules — the canonical trade the objectives disagree on.
        let job = JobView {
            index: 0,
            cache_key: "k",
            windows: 2,
            deadline: None,
        };
        let array = BackendView {
            index: 0,
            kind: BackendKind::Array,
            resident: true,
            warm: true,
            free_compute_at: 0,
            free_config_at: 0,
            busy_compute: 0,
            reload_cycles: 100,
            window_cycles: 1_000,
            reload_energy_nj: 500,
            window_energy_nj: 67_000,
        };
        let engine = BackendView {
            index: 1,
            kind: BackendKind::FftAccel,
            resident: false,
            warm: true,
            free_compute_at: 0,
            free_config_at: 0,
            busy_compute: 0,
            reload_cycles: 0,
            window_cycles: 1_100,
            reload_energy_nj: 0,
            window_energy_nj: 13_000,
        };
        let views = [array, engine];
        let place =
            |obj: Objective, job: &JobView| CostAware::with_objective(obj).place(job, &views);
        // Cycles: the warm array completes first (2 000 vs 2 200).
        assert_eq!(place(Objective::Cycles, &job).backend, 0);
        // EDP: 26 000 x 2 200 beats 134 000 x 2 000 comfortably.
        assert_eq!(place(Objective::EnergyDelayProduct, &job).backend, 1);
        // No deadline: EnergyUnderDeadline falls back to EDP.
        assert_eq!(place(Objective::EnergyUnderDeadline, &job).backend, 1);
        // A deadline both meet: take the cheaper joules.
        let loose = JobView {
            deadline: Some(2_500),
            ..job
        };
        assert_eq!(place(Objective::EnergyUnderDeadline, &loose).backend, 1);
        // A deadline only the array meets: joules yield to feasibility.
        let tight = JobView {
            deadline: Some(2_100),
            ..job
        };
        assert_eq!(place(Objective::EnergyUnderDeadline, &tight).backend, 0);
        // A deadline nobody meets: earliest completion limits the damage.
        let hopeless = JobView {
            deadline: Some(10),
            ..job
        };
        assert_eq!(place(Objective::EnergyUnderDeadline, &hopeless).backend, 0);
        // Objectives surface in the strategy name for reports and benches.
        assert_eq!(CostAware::default().name(), "cost-aware");
        assert_eq!(
            CostAware::with_objective(Objective::EnergyDelayProduct).name(),
            "cost-aware/edp"
        );
        assert_eq!(
            CostAware::with_objective(Objective::EnergyDelayProduct).objective(),
            Objective::EnergyDelayProduct
        );
    }

    #[test]
    fn energy_objective_still_prefetches_cold_array_choices() {
        // A cold array chosen by an energy objective must still get the
        // reload staged off the critical path, exactly like Cycles does.
        let job = JobView {
            index: 0,
            cache_key: "k",
            windows: 4,
            deadline: None,
        };
        let cold = BackendView {
            index: 0,
            kind: BackendKind::Array,
            resident: false,
            warm: false,
            free_compute_at: 0,
            free_config_at: 0,
            busy_compute: 0,
            reload_cycles: 60,
            window_cycles: 500,
            reload_energy_nj: 300,
            window_energy_nj: 30_000,
        };
        for objective in [
            Objective::Cycles,
            Objective::EnergyDelayProduct,
            Objective::EnergyUnderDeadline,
        ] {
            let plan = CostAware::with_objective(objective).place(&job, &[cold]);
            assert_eq!(plan.backend, 0);
            assert!(plan.prefetch, "{objective:?} must stage the cold reload");
        }
    }

    #[test]
    fn fft_routed_jobs_execute_on_the_engine_and_stay_bit_identical() {
        let kernel = FftishKernel::new(3, 256);
        let ws = windows(2, 0);
        let mut pool = Pool::with_sessions(constrained_sessions(1, 2 * baked_words()))
            .unwrap()
            .with_backend(FftBackend::new())
            .with_placement(Pin(1));
        let (outputs, fleet) = pool
            .run_batch([(&kernel, ws.iter().map(Vec::as_slice))])
            .unwrap();
        let (serial, _) =
            Pool::run_serial_reference([(&kernel, ws.iter().map(Vec::as_slice))]).unwrap();
        assert_eq!(outputs, serial, "FFT-routed outputs match the CGRA serial");
        assert_eq!(fleet.routes.len(), 1);
        assert_eq!(fleet.routes[0].job, 0);
        assert_eq!(fleet.routes[0].backend, 1);
        assert_eq!(fleet.routes[0].kind, BackendKind::FftAccel);
        assert!(
            fleet.routes[0].energy_nj > 0,
            "the engine's measured joules land on the job's route"
        );
        let kinds = fleet.per_kind();
        let fft_row = kinds
            .iter()
            .find(|k| k.kind == BackendKind::FftAccel)
            .unwrap();
        assert_eq!(fft_row.jobs, 1);
        assert_eq!(fft_row.invocations, 2);
        // First window programs the engine (cold); the second finds the
        // same shape programmed (warm).  The engine's projection is exact.
        assert_eq!(fleet.cold_reloads(), 1);
        assert_eq!(fleet.warm_launches(), 1);
        let engine = pool.backend(1).unwrap();
        let projected = engine.window_cycles(&kernel.offload()).unwrap();
        assert_eq!(fft_row.cycles, 2 * projected);
        assert!(engine.is_warm(&kernel.cache_key()));
        assert!(pool.backend(2).is_none());
        assert!(pool.array(1).is_none(), "the engine is not an array");

        // A kernel without an FFT offload pinned to the engine is a typed
        // capability error, and the pool stays reusable.
        let plain = BakedScaleKernel::new(2);
        let err = pool
            .run_batch([(&plain, ws.iter().map(Vec::as_slice))])
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Capability {
                kernel: "baked-scale".to_string(),
                backend: "fft".to_string(),
            }
        );
        // Cost-aware placement routes the CGRA-only job around the engine.
        pool.set_placement(CostAware::default());
        let (_, fleet) = pool
            .run_batch([(&plain, ws.iter().map(Vec::as_slice))])
            .unwrap();
        assert_eq!(fleet.routes[0].backend, 0);
        assert_eq!(fleet.routes[0].kind, BackendKind::Array);
    }

    /// Delegates to a strategy, failing the test if placement is ever
    /// offered a backend that is not an array.
    #[derive(Debug)]
    struct ArraysOnly(Box<dyn Placement>);
    impl Placement for ArraysOnly {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn place(&self, job: &JobView<'_>, backends: &[BackendView]) -> PlacementPlan {
            assert!(
                backends.iter().all(|b| b.kind == BackendKind::Array),
                "{} was offered {backends:?}",
                self.0.name()
            );
            self.0.place(job, backends)
        }
    }

    #[test]
    fn fft_lengths_the_engine_rejects_are_never_offered_the_engine() {
        // A 24-point transform is FFT-shaped, but the engine's model
        // prices no window of it (not a power of two): the engine cannot
        // serve the job, so no strategy ever sees it, and the job lands on
        // an array bit-identically.
        let kernel = FftishKernel::new(5, 24);
        let engine = Backend::from(FftBackend::new());
        assert_eq!(engine.window_cycles(&kernel.offload()), None);
        let ws = windows(2, 0);
        let (serial, _) =
            Pool::run_serial_reference([(&kernel, ws.iter().map(Vec::as_slice))]).unwrap();
        for placement in [
            Box::new(CostAware::default()) as Box<dyn Placement>,
            Box::new(ResidencyAware),
            Box::new(RoundRobin),
        ] {
            let name = placement.name();
            let mut pool = Pool::with_sessions(constrained_sessions(2, 2 * baked_words()))
                .unwrap()
                .with_backend(FftBackend::new())
                .with_placement(ArraysOnly(placement));
            let jobs = (0..3).map(|_| (&kernel, ws.iter().map(Vec::as_slice)));
            let (outputs, fleet) = pool.run_batch(jobs).unwrap();
            assert!(outputs.iter().all(|job| *job == serial[0]), "{name}");
            assert!(
                fleet
                    .routes
                    .iter()
                    .all(|r| r.kind == BackendKind::Array && r.backend < 2),
                "{name}: {:?}",
                fleet.routes
            );
            assert_eq!(fleet.arrays[2].report.invocations, 0, "{name}");
        }
    }

    #[test]
    fn all_offload_fleets_reject_cgra_only_jobs_at_admission() {
        let mut pool = Pool::with_backends(vec![FftBackend::new().into()]).unwrap();
        let plain = BakedScaleKernel::new(2);
        let ws = windows(2, 0);
        let err = pool
            .run_batch([(&plain, ws.iter().map(Vec::as_slice))])
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Capability {
                kernel: "baked-scale".to_string(),
                backend: "fft".to_string(),
            }
        );
        assert!(nothing_ran(&pool));
        assert!(pool.array(0).is_none());
        // The engine serves what its model prices.
        let fftish = FftishKernel::new(3, 256);
        let (outputs, fleet) = pool
            .run_batch([(&fftish, ws.iter().map(Vec::as_slice))])
            .unwrap();
        let (serial, _) =
            Pool::run_serial_reference([(&fftish, ws.iter().map(Vec::as_slice))]).unwrap();
        assert_eq!(outputs, serial);
        assert_eq!(fleet.routes[0].kind, BackendKind::FftAccel);
    }

    #[test]
    fn cost_aware_offloads_tiny_jobs_to_the_cpu_and_keeps_bulk_on_arrays() {
        let words = baked_words() as u64;
        // Before a key has run on an array, the pool prices an array
        // window at the program's footprint (`words` cycles).  A host
        // estimate of 1.5 × `words` per window therefore loses to the
        // array once the one-off reload is amortised, yet beats a
        // one-window job's reload plus window, so that job belongs on the
        // CPU.
        let kernel = BakedScaleKernel::new(5).with_cpu_offload(3 * words / 2);
        let tiny: Vec<Vec<i32>> = vec![vec![3, -4, 7]];
        let mut pool = Pool::with_sessions(constrained_sessions(1, 2 * baked_words()))
            .unwrap()
            .with_backend(CpuBackend::new());
        let (outputs, fleet) = pool
            .run_batch([(&kernel, tiny.iter().map(Vec::as_slice))])
            .unwrap();
        let (serial, _) =
            Pool::run_serial_reference([(&kernel, tiny.iter().map(Vec::as_slice))]).unwrap();
        assert_eq!(outputs, serial, "CPU-routed outputs match the CGRA serial");
        assert_eq!(fleet.routes[0].kind, BackendKind::Cpu);
        let kinds = fleet.per_kind();
        let cpu_row = kinds.iter().find(|k| k.kind == BackendKind::Cpu).unwrap();
        assert_eq!(cpu_row.jobs, 1);
        assert!(cpu_row.cycles > 0, "the ISS charged real cycles");
        assert_eq!(fleet.cold_reloads(), 0, "the CPU never reloads");

        // Enough windows that the modelled CPU total strictly exceeds the
        // array's reload plus windows: the bulk job stays on the array
        // (and its reload is prefetched).
        let bulk: Vec<Vec<i32>> = (0..4).map(|w| vec![w, 1, 2]).collect();
        let (outputs, fleet) = pool
            .run_batch([(&kernel, bulk.iter().map(Vec::as_slice))])
            .unwrap();
        let (serial, _) =
            Pool::run_serial_reference([(&kernel, bulk.iter().map(Vec::as_slice))]).unwrap();
        assert_eq!(outputs, serial);
        assert_eq!(fleet.routes[0].kind, BackendKind::Array);
        assert_eq!(fleet.cold_reloads(), 0);
        assert_eq!(fleet.prefetched(), 1);
    }

    #[test]
    fn baseline_strategies_skip_ineligible_backends() {
        // Round-robin over [array, array, fft] with CGRA-only jobs must
        // rotate over the two arrays only — the engine cannot take them.
        let kernels: Vec<BakedScaleKernel> = [2i16, 3, 5, 7]
            .iter()
            .map(|&f| BakedScaleKernel::new(f))
            .collect();
        let ws = windows(1, 0);
        for placement in [
            Box::new(RoundRobin) as Box<dyn Placement>,
            Box::new(ResidencyAware),
        ] {
            let mut pool = Pool::with_sessions(constrained_sessions(2, 4 * baked_words()))
                .unwrap()
                .with_backend(FftBackend::new());
            pool.placement = placement;
            let (_, fleet) = pool
                .run_batch(kernels.iter().map(|k| (k, ws.iter().map(Vec::as_slice))))
                .unwrap();
            assert_eq!(fleet.jobs, 4);
            assert!(
                fleet.routes.iter().all(|r| r.backend < 2),
                "{}: CGRA-only jobs must never land on the engine",
                pool.placement_name()
            );
        }
    }

    /// A ticket with explicit admission prices, as the estimator tests
    /// need — never materialised, so the empty windows iterator is fine.
    /// Its key is interned in `pool`.
    fn priced_ticket<'k>(
        pool: &mut Pool,
        kernel: &'k BakedScaleKernel,
        key: &str,
        windows_hint: usize,
        pricing: JobPricing,
    ) -> Ticket<'k, BakedScaleKernel, std::iter::Empty<Vec<i32>>> {
        Ticket {
            seq: 0,
            kernel,
            windows: std::iter::empty(),
            key: key.to_string(),
            key_id: pool.intern(key),
            pricing: Arc::new(pricing),
            windows_hint,
            tenant: 0,
            arrival: 0,
            priority: 0,
            deadline: None,
        }
    }

    #[test]
    fn cold_fft_queue_projects_the_engines_modelled_horizon() {
        // Regression: an engine-capable key has a zero config-word
        // footprint, and the old cold-start fallback (footprint proxy for
        // every backend) priced its windows at 1 cycle each — a queued
        // FFT job projected a near-zero horizon, starving the stealing
        // pass of drift it should have seen.  The fix consults the placed
        // backend's modelled per-window cycles first.
        let mut pool = Pool::new(1).with_backend(FftBackend::new());
        let kernel = BakedScaleKernel::new(2);
        let modelled = 3_523;
        let ticket = priced_ticket(
            &mut pool,
            &kernel,
            "fft-512",
            4,
            JobPricing {
                config_words: 0, // engine-capable: no config footprint
                accel_floor: modelled,
                per_backend: vec![
                    BackendPrice::Ineligible,
                    BackendPrice::Offload {
                        window_cycles: modelled,
                        window_energy_nj: 43_000,
                    },
                ],
            },
        );
        // Cold pool: no learned estimates anywhere.
        assert_eq!(pool.per_window_estimate_on(&ticket, 1), modelled);
        assert_eq!(pool.est_cost(&ticket, 1), 4 * modelled);
        assert!(
            pool.est_cost(&ticket, 1) > 1_000,
            "a cold FFT-heavy queue no longer projects a near-zero horizon"
        );
    }

    #[test]
    fn cold_array_keys_keep_the_footprint_proxy() {
        let mut pool = Pool::new(1);
        let kernel = BakedScaleKernel::new(2);
        let ticket = priced_ticket(
            &mut pool,
            &kernel,
            "arrayish",
            2,
            JobPricing {
                config_words: 57,
                accel_floor: 0,
                per_backend: vec![BackendPrice::Array {
                    reload_cycles: 57,
                    reload_energy_nj: 100,
                }],
            },
        );
        assert_eq!(pool.per_window_estimate_on(&ticket, 0), 57);
    }

    #[test]
    fn engine_served_jobs_leave_the_array_estimator_unchanged() {
        // Offload backends price windows from their own models, so only
        // array observations feed the estimator: an engine-served job
        // teaches it nothing, and the same key served on an array does.
        let kernel = FftishKernel::new(3, 256);
        let key = kernel.cache_key();
        let ws = windows(2, 0);
        let mut pool = Pool::new(1)
            .with_backend(FftBackend::new())
            .with_placement(Pin(1));
        let (_, engine) = pool
            .run_batch([(&kernel, ws.iter().map(Vec::as_slice))])
            .unwrap();
        assert_eq!(engine.routes[0].kind, BackendKind::FftAccel);
        assert_eq!(pool.estimates.total, (0, 0));
        assert!(pool.estimates.keys.is_empty());

        pool.set_placement(Pin(0));
        let (_, array) = pool
            .run_batch([(&kernel, ws.iter().map(Vec::as_slice))])
            .unwrap();
        let array_compute = array.arrays[0].report.busy.compute;
        assert_eq!(pool.estimates.total, (array_compute, 2));
        assert_eq!(
            pool.estimates.keys[pool.key_ids[&key]].0,
            (array_compute, 2)
        );
    }

    #[test]
    fn every_array_of_the_fleet_shares_one_replay_cache() {
        let words = baked_words();
        let pool = Pool::with_sessions(constrained_sessions(2, 2 * words))
            .unwrap()
            .with_backend(FftBackend::new())
            .with_backend(Session::new());
        let fleet = pool.array(0).unwrap().accelerator().replay_cache();
        for index in [1, 3] {
            assert!(pool
                .array(index)
                .unwrap()
                .accelerator()
                .replay_cache()
                .same_store(fleet));
        }
        // A program recorded on one array replays wherever it lands next,
        // even after evictions: 4 programs through two 1-program memories
        // interpret once per program.
        let kernels: Vec<BakedScaleKernel> = [2, 3, 5, 7]
            .iter()
            .map(|&f| BakedScaleKernel::new(f))
            .collect();
        let jobs = picked_jobs(&kernels, &[0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0]);
        let mut pool = Pool::with_sessions(constrained_sessions(2, words)).unwrap();
        let (_, report) = pool
            .run_batch(
                jobs.iter()
                    .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
            )
            .unwrap();
        let launches: u64 = report.arrays.iter().map(|a| a.report.launches()).sum();
        assert!(
            report
                .arrays
                .iter()
                .map(|a| a.report.evictions)
                .sum::<u64>()
                > 0
        );
        assert_eq!(launches - report.replayed(), 4);
    }

    #[test]
    fn accelerator_model_floors_cold_array_estimates() {
        // An accelerator-capable key's cold array fallbacks (fleet-wide
        // mean, footprint proxy) can be dominated by light crumb
        // programs; the dedicated engine's modelled window is a lower
        // bound for the array running the same kernel, so cold array
        // estimates are floored by it.
        let mut pool = Pool::new(1).with_backend(FftBackend::new());
        let kernel = BakedScaleKernel::new(2);
        let modelled = 3_523;
        let ticket = priced_ticket(
            &mut pool,
            &kernel,
            "fft-256",
            1,
            JobPricing {
                config_words: 800,
                accel_floor: modelled,
                per_backend: vec![
                    BackendPrice::Array {
                        reload_cycles: 800,
                        reload_energy_nj: 1_000,
                    },
                    BackendPrice::Offload {
                        window_cycles: modelled,
                        window_energy_nj: 43_000,
                    },
                ],
            },
        );
        // Cold pool: the footprint proxy (800) would underprice the
        // array — the engine's modelled window floors it.
        assert_eq!(pool.per_window_estimate_on(&ticket, 0), modelled);
        // A crumb-dominated array-wide mean is floored the same way.
        let crumb = pool.intern("crumb");
        pool.estimates.learn(crumb, 3_000, 10);
        assert_eq!(pool.per_window_estimate_on(&ticket, 0), modelled);
        // A learned mean for the key itself is a measurement: trusted
        // as-is, even above the floor.
        pool.estimates.learn(ticket.key_id, 40_000, 10);
        assert_eq!(pool.per_window_estimate_on(&ticket, 0), 4_000);
    }

    #[test]
    fn admission_prices_the_fft_floor_from_the_engine_model() {
        // The floor comes from the engine's own model at admission; the
        // CPU's modelled window never floors the arrays.
        let pool = Pool::new(1)
            .with_backend(FftBackend::new())
            .with_backend(CpuBackend::new());
        let kernel = FftishKernel::new(3, 256);
        let pricing = pool.price_job(&kernel, &kernel.offload()).unwrap();
        let modelled = Backend::from(FftBackend::new())
            .window_cycles(&kernel.offload())
            .unwrap();
        assert_eq!(pricing.accel_floor, modelled);
        assert_eq!(pricing.per_backend[2], BackendPrice::Ineligible);
        let crumb = BakedScaleKernel::new(2).with_cpu_offload(10);
        let pricing = pool.price_job(&crumb, &crumb.offload()).unwrap();
        assert_eq!(pricing.accel_floor, 0);
        assert_eq!(pricing.per_backend[1], BackendPrice::Ineligible);
        assert!(matches!(
            pricing.per_backend[2],
            BackendPrice::Offload {
                window_cycles: 10,
                ..
            }
        ));
    }
}
