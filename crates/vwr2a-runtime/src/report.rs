//! The unified run report returned by every [`crate::Session`] execution.

use vwr2a_core::stats::time_us;
use vwr2a_core::ActivityCounters;
use vwr2a_energy::{vwr2a_energy, EnergyBreakdown};

use crate::backend::BackendKind;
use crate::pipeline::{overlap_ratio, Occupancy};

/// Cycle, launch and activity accounting of one or more kernel invocations
/// through a [`crate::Session`].
///
/// `RunReport` replaces the per-kernel result structs of earlier revisions
/// (`KernelRun`, `FftRun`): numerical outputs travel separately as the
/// kernel's associated `Output` type, and every kernel shares this one
/// accounting type, so pipelines can sum reports across heterogeneous
/// kernels without conversion.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Name of the kernel (for batches: the one kernel that ran repeatedly).
    pub kernel: String,
    /// Number of kernel invocations folded into this report (1 for
    /// [`crate::Session::run`], N for a batch of N windows).
    pub invocations: u64,
    /// Array launches that streamed configuration words (paid the
    /// configuration load).  At most 1 per program per session.
    pub cold_launches: u64,
    /// Array launches that found their program resident in the per-slot
    /// program memories and paid execution cycles only.
    pub warm_launches: u64,
    /// Launches (cold or warm) the host simulator served from the array's
    /// warm-window replay cache instead of cycle-by-cycle interpretation.
    /// A host-speed statistic only: modelled cycles, counters and outputs
    /// are bit-identical either way (see `vwr2a_core::replay`).
    pub replayed: u64,
    /// Programs evicted from the configuration memory during these
    /// invocations to make room for new loads (see
    /// [`crate::session::EvictionPolicy`]).  Every eviction turns the
    /// victim's next launch cold again.
    pub evictions: u64,
    /// Speculative configuration prefetches ([`crate::Session::prefetch`])
    /// that streamed a program's words ahead of its launch: the launch
    /// itself then counted as warm, because the reload left its critical
    /// path.  `cold_launches + prefetched` is the total number of
    /// configuration reloads paid, however they were scheduled.
    pub prefetched: u64,
    /// The subset of [`RunReport::prefetched`] whose streaming finished
    /// entirely inside the array's existing compute backlog — reloads with
    /// **zero** wall-clock cost.  The remaining prefetches still overlap
    /// the first window's DMA staging, just not for free.
    pub hidden_reloads: u64,
    /// Total cycles: DMA staging, SRF parameter writes, configuration
    /// loading (cold launches and speculative prefetches — warm launches
    /// stream nothing) and array execution, summed as if the phases ran
    /// strictly one after the other (the pre-pipelining cost metric;
    /// completion-interrupt latency is not included).
    pub cycles: u64,
    /// Overlapped end-to-end latency of the run on the pipelined execution
    /// engine: staging of window *i+1* hides behind the compute of window
    /// *i*, drains run behind launches, and every completion is delivered
    /// through an interrupt.  For a single invocation (no overlap
    /// possible) this equals [`RunReport::serial_cycles`]; for a
    /// multi-window stream it is strictly smaller whenever any phase
    /// overlapped.
    pub wall_cycles: u64,
    /// Per-engine busy cycles behind [`RunReport::wall_cycles`]
    /// (configuration streaming, DMA, array compute, interrupt servicing).
    pub busy: Occupancy,
    /// Activity accumulated on the array (and its DMA) during the runs.
    pub counters: ActivityCounters,
    /// Measured energy of the runs in integer nanojoules: every
    /// invocation's activity delta priced through the calibrated
    /// [`vwr2a_energy::EnergyModel`] as it executes (plus speculative
    /// prefetch streaming — see [`RunReport::prefetch_energy_nj`]).
    /// Integer nJ so per-job energies sum *exactly* to per-backend and
    /// fleet totals; [`RunReport::energy_uj`] converts for display.
    pub energy_nj: u64,
    /// The subset of [`RunReport::energy_nj`] spent streaming speculative
    /// configuration prefetches — backend energy no single job's route
    /// accounts for (`energy_nj - prefetch_energy_nj` is the job-attributed
    /// part).
    pub prefetch_energy_nj: u64,
}

impl RunReport {
    /// An empty report for the named kernel.
    pub fn new(kernel: impl Into<String>) -> Self {
        Self {
            kernel: kernel.into(),
            ..Self::default()
        }
    }

    /// Execution time in microseconds at the given clock frequency.
    pub fn time_us(&self, frequency_hz: f64) -> f64 {
        time_us(self.cycles, frequency_hz)
    }

    /// Energy of the accumulated activity under the calibrated VWR2A model.
    pub fn energy(&self) -> EnergyBreakdown {
        vwr2a_energy(&self.counters)
    }

    /// Measured energy in microjoules ([`RunReport::energy_nj`] scaled for
    /// display).
    pub fn energy_uj(&self) -> f64 {
        self.energy_nj as f64 / 1e3
    }

    /// Total array launches, cold and warm.
    pub fn launches(&self) -> u64 {
        self.cold_launches + self.warm_launches
    }

    /// Cost of the run with every phase serialised *including* the
    /// completion-interrupt servicing: the sum of all engines' busy cycles
    /// ([`RunReport::busy`]).  This is what the stream would cost without
    /// the pipelined execution engine.
    pub fn serial_cycles(&self) -> u64 {
        self.busy.total()
    }

    /// Fraction of the serial cost hidden by pipelining:
    /// `(serial − wall) / serial`.  `0.0` for empty and single-window
    /// runs (no overlap possible), approaching the DMA share of the serial
    /// cost for long compute-bound streams.
    pub fn overlap_ratio(&self) -> f64 {
        overlap_ratio(self.serial_cycles(), self.wall_cycles)
    }

    /// Folds another report into this one (used by batch accumulation and
    /// by pipelines that want one aggregate report per stage).  Wall
    /// cycles add, i.e. the combined report describes the runs executed
    /// one stream after the other.
    pub fn absorb(&mut self, other: &RunReport) {
        self.invocations += other.invocations;
        self.cold_launches += other.cold_launches;
        self.warm_launches += other.warm_launches;
        self.replayed += other.replayed;
        self.evictions += other.evictions;
        self.prefetched += other.prefetched;
        self.hidden_reloads += other.hidden_reloads;
        self.cycles += other.cycles;
        self.wall_cycles += other.wall_cycles;
        self.busy += other.busy;
        self.counters += other.counters;
        self.energy_nj += other.energy_nj;
        self.prefetch_energy_nj += other.prefetch_energy_nj;
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} invocation(s), {} wall cycles ({} serial, {:.0} % overlapped; \
             {} cold / {} warm launches, {} replayed, {} prefetched, {} evictions)",
            self.kernel,
            self.invocations,
            self.wall_cycles,
            self.serial_cycles(),
            100.0 * self.overlap_ratio(),
            self.cold_launches,
            self.warm_launches,
            self.replayed,
            self.prefetched,
            self.evictions
        )
    }
}

/// Accounting of one backend (a CGRA array [`crate::Session`], the FFT
/// engine, or the host CPU) inside a [`crate::pool::Pool`] fan-out.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrayReport {
    /// Index of the backend in the pool.
    pub array: usize,
    /// What kind of execution substrate this backend is — the per-backend
    /// attribution key heterogeneous fleets aggregate by
    /// ([`FleetReport::per_kind`]).
    pub kind: BackendKind,
    /// Jobs that started on this backend (counted when the route is
    /// recorded, so a job stolen before it started counts only where it
    /// ran).
    pub jobs: u64,
    /// The backend's aggregated run accounting: `wall_cycles`/`busy` come
    /// from replaying the backend's own [`crate::pipeline::StreamSchedule`],
    /// so they describe the backend's *local* pipelined timeline.
    pub report: RunReport,
}

/// Which backend one fanned-out job actually landed on — recorded per job
/// in [`FleetReport::routes`], so equivalence tests can replay each job
/// against the serial model of the backend that served it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRoute {
    /// The job's submission index ([`crate::pool::JobView::index`]).
    pub job: usize,
    /// Index of the backend that executed the job's windows.
    pub backend: usize,
    /// The executing backend's kind.
    pub kind: BackendKind,
    /// Measured energy of the job's executed windows in nanojoules — the
    /// landed backend's actual activity priced through the calibrated
    /// [`vwr2a_energy::EnergyModel`] (counters on arrays, run statistics
    /// on the engine and the CPU).  Summing routes per kind recovers each
    /// [`BackendKindStats`]'s job-attributed energy exactly.
    pub energy_nj: u64,
}

impl JobRoute {
    /// The job's measured energy in microjoules ([`JobRoute::energy_nj`]
    /// scaled for display).
    pub fn energy_uj(&self) -> f64 {
        self.energy_nj as f64 / 1e3
    }
}

/// Per-kind aggregate over a [`FleetReport`]'s backends — the
/// heterogeneous fleet's attribution row (how much of the work each
/// substrate absorbed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendKindStats {
    /// The backend kind the row aggregates.
    pub kind: BackendKind,
    /// Number of backends of this kind in the fleet.
    pub backends: usize,
    /// Jobs routed to backends of this kind.
    pub jobs: u64,
    /// Kernel invocations (windows) executed on this kind.
    pub invocations: u64,
    /// Serial phase-sum cycles spent on this kind.
    pub cycles: u64,
    /// Summed per-engine busy cycles on this kind.
    pub busy: Occupancy,
    /// Largest per-backend wall clock among this kind's backends.
    pub wall_cycles: u64,
    /// Measured energy spent on this kind in nanojoules
    /// ([`RunReport::energy_nj`] summed over the kind's backends —
    /// includes speculative prefetch streaming).
    pub energy_nj: u64,
    /// The prefetch-streaming subset of [`BackendKindStats::energy_nj`]
    /// (energy not attributed to any job's route).
    pub prefetch_energy_nj: u64,
}

impl BackendKindStats {
    /// The kind's measured energy in microjoules
    /// ([`BackendKindStats::energy_nj`] scaled for display).
    pub fn energy_uj(&self) -> f64 {
        self.energy_nj as f64 / 1e3
    }
}

/// The merged fleet-level accounting of a [`crate::pool::Pool`] fan-out:
/// one [`ArrayReport`] per array, with the fleet wall clock, occupancy and
/// cold-reload totals derived across them.
///
/// Arrays run concurrently, so [`FleetReport::wall_cycles`] is the *maximum*
/// of the per-array wall clocks (the fleet is done when its slowest array
/// is), while [`FleetReport::busy`] *sums* the per-array busy cycles — the
/// fleet does all of its arrays' work, however the placement distributed
/// it.  Together they give the work-conservation invariant the pool's
/// property tests enforce: `wall_cycles() >=` every array's wall clock, and
/// `busy().total()` equals the sum of the per-array spans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetReport {
    /// Jobs that started executing (a job is one `(kernel, windows)`
    /// workload; it counts once its route is recorded, so an aborted run
    /// counts only the jobs it started).
    pub jobs: u64,
    /// Per-backend accounting, indexed by backend.
    pub arrays: Vec<ArrayReport>,
    /// Which backend each job landed on, in execution order — the
    /// per-job routing record heterogeneous equivalence tests replay.
    pub routes: Vec<JobRoute>,
}

impl FleetReport {
    /// An empty report over one backend per entry of `kinds`, named
    /// `{kind}-{index}`.
    pub fn for_kinds(kinds: &[BackendKind]) -> Self {
        Self {
            jobs: 0,
            arrays: kinds
                .iter()
                .enumerate()
                .map(|(array, &kind)| ArrayReport {
                    array,
                    kind,
                    jobs: 0,
                    report: RunReport::new(format!("{}-{array}", kind.label())),
                })
                .collect(),
            routes: Vec::new(),
        }
    }

    /// Per-kind attribution rows (jobs, invocations, cycles, busy split,
    /// wall clock), in [`BackendKind`] declaration order, covering only
    /// the kinds present in the fleet.
    pub fn per_kind(&self) -> Vec<BackendKindStats> {
        [BackendKind::Array, BackendKind::FftAccel, BackendKind::Cpu]
            .into_iter()
            .filter_map(|kind| {
                let mut stats = BackendKindStats {
                    kind,
                    backends: 0,
                    jobs: 0,
                    invocations: 0,
                    cycles: 0,
                    busy: Occupancy::default(),
                    wall_cycles: 0,
                    energy_nj: 0,
                    prefetch_energy_nj: 0,
                };
                for array in self.arrays.iter().filter(|a| a.kind == kind) {
                    stats.backends += 1;
                    stats.jobs += array.jobs;
                    stats.invocations += array.report.invocations;
                    stats.cycles += array.report.cycles;
                    stats.busy += array.report.busy;
                    stats.wall_cycles = stats.wall_cycles.max(array.report.wall_cycles);
                    stats.energy_nj += array.report.energy_nj;
                    stats.prefetch_energy_nj += array.report.prefetch_energy_nj;
                }
                (stats.backends > 0).then_some(stats)
            })
            .collect()
    }

    /// Fleet wall clock: the largest per-array wall clock, because the
    /// arrays run concurrently.
    pub fn wall_cycles(&self) -> u64 {
        self.arrays
            .iter()
            .map(|a| a.report.wall_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Summed per-engine busy cycles across all arrays.
    pub fn busy(&self) -> Occupancy {
        self.arrays
            .iter()
            .map(|a| a.report.busy)
            .fold(Occupancy::default(), |acc, b| acc + b)
    }

    /// Cost of the whole fan-out executed strictly serially on one engine
    /// lane: the sum of every array's busy cycles.
    pub fn serial_cycles(&self) -> u64 {
        self.busy().total()
    }

    /// Total kernel invocations (windows) across the fleet.
    pub fn invocations(&self) -> u64 {
        self.arrays.iter().map(|a| a.report.invocations).sum()
    }

    /// Launches that had to stream configuration words — the pool-level
    /// *cold reload* count placement strategies compete on.  Under
    /// residency-aware placement a program goes cold once per array it is
    /// first routed to (plus once per eviction); placement that ignores
    /// residency pays it over and over.
    pub fn cold_reloads(&self) -> u64 {
        self.arrays.iter().map(|a| a.report.cold_launches).sum()
    }

    /// Warm launches across the fleet.
    pub fn warm_launches(&self) -> u64 {
        self.arrays.iter().map(|a| a.report.warm_launches).sum()
    }

    /// Launches served from the arrays' warm-window replay caches
    /// ([`RunReport::replayed`]) — a host simulation speed statistic; the
    /// modelled cycles are identical with replay disabled.
    pub fn replayed(&self) -> u64 {
        self.arrays.iter().map(|a| a.report.replayed).sum()
    }

    /// Configuration reloads streamed speculatively, ahead of the launch
    /// that needed them ([`RunReport::prefetched`]): those launches counted
    /// warm, so `cold_reloads() + prefetched()` is the total reloads paid
    /// however they were scheduled — what a prefetch-less scheduler would
    /// have paid as cold reloads on the critical path.
    pub fn prefetched(&self) -> u64 {
        self.arrays.iter().map(|a| a.report.prefetched).sum()
    }

    /// Prefetches that streamed entirely inside their array's existing
    /// compute backlog — reloads hidden at zero wall-clock cost
    /// ([`RunReport::hidden_reloads`]).
    pub fn hidden_reloads(&self) -> u64 {
        self.arrays.iter().map(|a| a.report.hidden_reloads).sum()
    }

    /// Programs evicted across the fleet to make room for new loads.
    pub fn evictions(&self) -> u64 {
        self.arrays.iter().map(|a| a.report.evictions).sum()
    }

    /// Total measured energy across the fleet in nanojoules
    /// ([`RunReport::energy_nj`] summed over every backend): the
    /// job-attributed window energies of [`FleetReport::routes`] plus
    /// speculative prefetch streaming.
    pub fn energy_nj(&self) -> u64 {
        self.arrays.iter().map(|a| a.report.energy_nj).sum()
    }

    /// Fleet energy in microjoules ([`FleetReport::energy_nj`] scaled for
    /// display).
    pub fn energy_uj(&self) -> f64 {
        self.energy_nj() as f64 / 1e3
    }

    /// Fleet compute occupancy in `[0, 1]`: the fraction of the fleet's
    /// array-cycles (`arrays × wall_cycles()`) spent computing.  Higher is
    /// better — cold configuration streaming, DMA stalls and load imbalance
    /// all push it down.  `0.0` for an empty or idle fleet.
    pub fn occupancy(&self) -> f64 {
        let wall = self.wall_cycles();
        if wall == 0 || self.arrays.is_empty() {
            return 0.0;
        }
        self.busy().compute as f64 / (wall as f64 * self.arrays.len() as f64)
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet: {} job(s) / {} invocation(s) over {} array(s), {} wall cycles, \
             {:.0} % occupancy, {:.2} uJ ({} cold reloads / {} warm launches, \
             {} prefetched of which {} hidden, {} evictions)",
            self.jobs,
            self.invocations(),
            self.arrays.len(),
            self.wall_cycles(),
            100.0 * self.occupancy(),
            self.energy_uj(),
            self.cold_reloads(),
            self.warm_launches(),
            self.prefetched(),
            self.hidden_reloads(),
            self.evictions()
        )?;
        // Heterogeneous fleets get the per-kind attribution inline.
        if self.arrays.iter().any(|a| a.kind != BackendKind::Array) {
            for stats in self.per_kind() {
                write!(
                    f,
                    "; {} x{}: {} job(s), {} busy cycles, {:.2} uJ",
                    stats.kind,
                    stats.backends,
                    stats.jobs,
                    stats.busy.total(),
                    stats.energy_uj()
                )?;
            }
        }
        Ok(())
    }
}

/// Per-job latency decomposition recorded by the serving layer
/// ([`crate::serve::Server`]) — the operator-facing view of one job's trip
/// through the admission queue and an array's pipelined schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLatency {
    /// Submission index of the job in the arrival stream.
    pub job: usize,
    /// Tenant that submitted the job.
    pub tenant: crate::serve::TenantId,
    /// Cycles from the job's arrival to its first window starting to
    /// compute — admission queueing plus any backlog and reload ahead of
    /// it on the chosen array.
    pub queue_cycles: u64,
    /// Cycles from the first window's compute start to the last window's
    /// completion interrupt.
    pub service_cycles: u64,
    /// End-to-end latency: `queue_cycles + service_cycles`.
    pub total: u64,
    /// `true` if the job completed by its deadline — vacuously `true` for
    /// jobs submitted without one.
    pub deadline_met: bool,
}

/// Per-tenant aggregate derived from a [`ServeReport`]'s job latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: crate::serve::TenantId,
    /// Jobs the tenant completed.
    pub jobs: u64,
    /// Summed end-to-end latency over the tenant's jobs.
    pub total_cycles: u64,
    /// The tenant's jobs that missed their deadline.
    pub deadline_misses: u64,
}

/// What the serving layer's whole-queue lookahead planner did during one
/// [`crate::serve::Server`] run.  All zeros when lookahead planning is
/// disabled ([`crate::serve::Server::with_lookahead`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Affinity runs formed: times the planner dispatched two or more
    /// queued jobs sharing one cache key consecutively onto the backend
    /// holding (or about to hold) their program.
    pub affinity_runs: u64,
    /// Jobs that rode an affinity run behind its policy-selected head
    /// (the head itself is not counted — it was dispatched on the
    /// scheduling policy's own authority).
    pub batched_jobs: u64,
    /// Prefetches the planner staged for jobs still waiting in a run
    /// queue, overlapping the reload with the compute of the jobs ahead.
    pub planned_prefetches: u64,
    /// Evictions the queue-derived needed-soon shield redirected away
    /// from a program a queued job needs (summed over the fleet's array
    /// sessions; see [`crate::Session::evictions_averted`]).
    pub evictions_averted: u64,
}

impl std::fmt::Display for PlannerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} affinity run(s) ({} batched job(s)), {} planned prefetch(es), \
             {} eviction(s) averted",
            self.affinity_runs, self.batched_jobs, self.planned_prefetches, self.evictions_averted
        )
    }
}

/// What one [`crate::serve::Server`] run reports: the underlying fleet
/// accounting plus the serving layer's operator numbers — per-job
/// latencies (in submission order), tail percentiles, deadline misses,
/// the work-stealing count and the lookahead planner's ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The run's fleet-level accounting (per-array wall/busy cycles,
    /// reload and prefetch counters), exactly as a [`FleetReport`] wave.
    pub fleet: FleetReport,
    /// Per-job latency decompositions, ordered by submission index.
    pub latencies: Vec<JobLatency>,
    /// Queued jobs the stealing pass re-routed away from a drifted-ahead
    /// array before they materialised.
    pub steals: u64,
    /// The lookahead planner's ledger (all zeros when planning is off).
    pub plan: PlannerStats,
}

impl ServeReport {
    /// The `p`-th percentile of end-to-end job latency, by the
    /// *nearest-rank* definition: the smallest recorded total such that at
    /// least `p` percent of jobs finished within it.  `0` when no job ran.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let mut totals: Vec<u64> = self.latencies.iter().map(|l| l.total).collect();
        totals.sort_unstable();
        let rank = ((p / 100.0) * totals.len() as f64).ceil() as usize;
        totals[rank.clamp(1, totals.len()) - 1]
    }

    /// Median end-to-end latency ([`ServeReport::percentile`] at 50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile end-to-end latency.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile end-to-end latency — the tail number an operator
    /// watches under load.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Jobs that blew their deadline (jobs without one never miss).
    pub fn deadline_misses(&self) -> u64 {
        self.latencies.iter().filter(|l| !l.deadline_met).count() as u64
    }

    /// Per-tenant aggregates, sorted by tenant id (deterministic table
    /// order for benches and logs).
    pub fn tenants(&self) -> Vec<TenantStats> {
        let mut stats: Vec<TenantStats> = Vec::new();
        for latency in &self.latencies {
            match stats.iter_mut().find(|s| s.tenant == latency.tenant) {
                Some(s) => {
                    s.jobs += 1;
                    s.total_cycles += latency.total;
                    s.deadline_misses += u64::from(!latency.deadline_met);
                }
                None => stats.push(TenantStats {
                    tenant: latency.tenant,
                    jobs: 1,
                    total_cycles: latency.total,
                    deadline_misses: u64::from(!latency.deadline_met),
                }),
            }
        }
        stats.sort_unstable_by_key(|s| s.tenant);
        stats
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve: {} job(s) from {} tenant(s), p50/p95/p99 latency {}/{}/{} cycles, \
             {} deadline miss(es), {} steal(s), {:.2} uJ; plan: {}; {}",
            self.latencies.len(),
            self.tenants().len(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.deadline_misses(),
            self.steals,
            self.fleet.energy_uj(),
            self.plan,
            self.fleet
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversion_matches_core_helper() {
        let report = RunReport {
            cycles: 8_000,
            ..RunReport::new("k")
        };
        assert!((report.time_us(80.0e6) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_accumulates_everything() {
        let mut a = RunReport::new("k");
        a.invocations = 1;
        a.cold_launches = 1;
        a.cycles = 100;
        a.wall_cycles = 90;
        a.busy.compute = 60;
        a.busy.dma = 40;
        a.counters.rc_alu_ops = 7;
        a.prefetched = 1;
        a.energy_nj = 120;
        a.prefetch_energy_nj = 20;
        let mut b = RunReport::new("k");
        b.invocations = 2;
        b.warm_launches = 5;
        b.replayed = 4;
        b.evictions = 2;
        b.prefetched = 2;
        b.hidden_reloads = 1;
        b.cycles = 50;
        b.wall_cycles = 40;
        b.busy.compute = 30;
        b.busy.interrupt = 20;
        b.counters.rc_alu_ops = 3;
        b.energy_nj = 80;
        a.absorb(&b);
        assert_eq!(a.energy_nj, 200);
        assert_eq!(a.prefetch_energy_nj, 20);
        assert!((a.energy_uj() - 0.2).abs() < 1e-12);
        assert_eq!(a.invocations, 3);
        assert_eq!(a.launches(), 6);
        assert_eq!(a.replayed, 4);
        assert_eq!(a.evictions, 2);
        assert_eq!(a.prefetched, 3);
        assert_eq!(a.hidden_reloads, 1);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.wall_cycles, 130);
        assert_eq!(a.serial_cycles(), 150);
        assert!(a.overlap_ratio() > 0.0);
        assert_eq!(a.counters.rc_alu_ops, 10);
        assert!(a.to_string().contains("3 invocation(s)"));
    }

    #[test]
    fn overlap_ratio_degenerates_to_zero() {
        // Empty stream: nothing ran, nothing overlapped — and no NaN from
        // the 0/0.
        let report = RunReport::new("k");
        assert_eq!(report.serial_cycles(), 0);
        assert_eq!(report.overlap_ratio(), 0.0);
        // Single window: the wall clock equals the serial schedule.
        let mut serial = RunReport::new("k");
        serial.wall_cycles = 500;
        serial.busy.compute = 400;
        serial.busy.dma = 100;
        assert_eq!(serial.overlap_ratio(), 0.0);
        // Sequential waves folded by `absorb` can push the summed wall
        // clock past the summed serial cost; the ratio stays at zero (one
        // definition in `crate::pipeline::overlap_ratio`, with a
        // saturating numerator, covers every caller).
        let mut folded = RunReport::new("k");
        folded.wall_cycles = 900;
        folded.busy.compute = 400;
        assert_eq!(folded.overlap_ratio(), 0.0);
        // And the ratio never exceeds 1.
        let mut wide = RunReport::new("k");
        wide.wall_cycles = 1;
        wide.busy.compute = 1_000_000;
        assert!((0.0..=1.0).contains(&wide.overlap_ratio()));
    }

    fn array_report(array: usize, wall: u64, compute: u64, dma: u64, cold: u64) -> ArrayReport {
        let mut report = RunReport::new(format!("array-{array}"));
        report.invocations = 2;
        report.cold_launches = cold;
        report.warm_launches = 2 - cold.min(2);
        report.wall_cycles = wall;
        report.busy.compute = compute;
        report.busy.dma = dma;
        report.energy_nj = 10 * compute;
        ArrayReport {
            array,
            kind: BackendKind::Array,
            jobs: 1,
            report,
        }
    }

    #[test]
    fn per_kind_attribution_splits_a_mixed_fleet() {
        let mut fleet = FleetReport::for_kinds(&[
            BackendKind::Array,
            BackendKind::Array,
            BackendKind::FftAccel,
        ]);
        fleet.jobs = 3;
        fleet.arrays[0] = array_report(0, 1_000, 700, 100, 1);
        fleet.arrays[1] = array_report(1, 800, 600, 50, 0);
        fleet.arrays[2].kind = BackendKind::FftAccel;
        fleet.arrays[2].jobs = 1;
        fleet.arrays[2].report.invocations = 4;
        fleet.arrays[2].report.cycles = 3_000;
        fleet.arrays[2].report.wall_cycles = 2_500;
        fleet.arrays[2].report.busy.compute = 3_000;
        fleet.arrays[2].report.energy_nj = 4_200;
        fleet.routes = vec![
            JobRoute {
                job: 0,
                backend: 0,
                kind: BackendKind::Array,
                energy_nj: 7_000,
            },
            JobRoute {
                job: 1,
                backend: 1,
                kind: BackendKind::Array,
                energy_nj: 6_000,
            },
            JobRoute {
                job: 2,
                backend: 2,
                kind: BackendKind::FftAccel,
                energy_nj: 4_200,
            },
        ];
        let kinds = fleet.per_kind();
        assert_eq!(kinds.len(), 2, "only present kinds are listed");
        assert_eq!(kinds[0].kind, BackendKind::Array);
        assert_eq!(kinds[0].backends, 2);
        assert_eq!(kinds[0].jobs, 2);
        assert_eq!(kinds[0].busy.compute, 1_300);
        assert_eq!(kinds[0].wall_cycles, 1_000);
        // Per-kind energy is the sum of the kind's backend reports — and
        // with no prefetch streaming, exactly the kind's route energies.
        assert_eq!(kinds[0].energy_nj, 13_000);
        assert_eq!(kinds[0].prefetch_energy_nj, 0);
        assert!((kinds[0].energy_uj() - 13.0).abs() < 1e-12);
        assert_eq!(kinds[1].kind, BackendKind::FftAccel);
        assert_eq!(kinds[1].invocations, 4);
        assert_eq!(kinds[1].energy_nj, 4_200);
        assert_eq!(fleet.energy_nj(), 17_200);
        assert!(fleet.to_string().contains("fft x1"));
        assert!(fleet.to_string().contains("uJ"));
    }

    #[test]
    fn fleet_report_merges_concurrent_arrays() {
        let mut fleet = FleetReport::for_kinds(&[BackendKind::Array; 2]);
        assert_eq!(fleet.wall_cycles(), 0);
        assert_eq!(fleet.occupancy(), 0.0);
        fleet.jobs = 2;
        fleet.arrays[0] = array_report(0, 1_000, 700, 100, 1);
        fleet.arrays[1] = array_report(1, 800, 600, 50, 2);
        fleet.arrays[0].report.prefetched = 2;
        fleet.arrays[0].report.hidden_reloads = 1;
        fleet.arrays[1].report.prefetched = 1;
        // Concurrency: the fleet finishes with its slowest array...
        assert_eq!(fleet.wall_cycles(), 1_000);
        // ...but does the sum of all arrays' work.
        assert_eq!(fleet.busy().compute, 1_300);
        assert_eq!(fleet.serial_cycles(), 1_450);
        assert_eq!(fleet.invocations(), 4);
        assert_eq!(fleet.cold_reloads(), 3);
        assert_eq!(fleet.warm_launches(), 1);
        assert_eq!(fleet.prefetched(), 3);
        assert_eq!(fleet.hidden_reloads(), 1);
        // Occupancy: 1300 compute cycles of 2 × 1000 array-cycles.
        assert!((fleet.occupancy() - 0.65).abs() < 1e-12);
        assert!(fleet.to_string().contains("2 array(s)"));
    }

    #[test]
    fn energy_is_positive_for_nonzero_activity() {
        let mut report = RunReport::new("k");
        report.counters.cycles = 10_000;
        report.counters.rc_alu_ops = 5_000;
        assert!(report.energy().total_uj() > 0.0);
    }

    fn latency(job: usize, total: u64, deadline_met: bool) -> JobLatency {
        JobLatency {
            job,
            tenant: (job % 2) as crate::serve::TenantId,
            queue_cycles: total / 2,
            service_cycles: total - total / 2,
            total,
            deadline_met,
        }
    }

    fn serve_report(totals: &[u64]) -> ServeReport {
        ServeReport {
            fleet: FleetReport::for_kinds(&[BackendKind::Array]),
            latencies: totals
                .iter()
                .enumerate()
                .map(|(job, &t)| latency(job, t, true))
                .collect(),
            steals: 0,
            plan: PlannerStats::default(),
        }
    }

    #[test]
    fn percentiles_of_an_empty_run_are_zero() {
        let report = serve_report(&[]);
        assert_eq!(report.p50(), 0);
        assert_eq!(report.p95(), 0);
        assert_eq!(report.p99(), 0);
        assert_eq!(report.deadline_misses(), 0);
        assert!(report.tenants().is_empty());
    }

    #[test]
    fn percentiles_of_a_single_job_are_its_latency() {
        let report = serve_report(&[420]);
        assert_eq!(report.p50(), 420);
        assert_eq!(report.p95(), 420);
        assert_eq!(report.p99(), 420);
    }

    #[test]
    fn percentiles_use_nearest_rank_and_survive_ties() {
        // 10 samples: nearest-rank p50 is the 5th smallest, p95/p99 the
        // 10th.  Ties collapse to the same value without interpolation —
        // every percentile is a latency some job actually saw.
        let report = serve_report(&[100, 100, 100, 200, 200, 300, 300, 300, 300, 900]);
        assert_eq!(report.p50(), 200);
        assert_eq!(report.p95(), 900);
        assert_eq!(report.p99(), 900);
        assert_eq!(report.percentile(0.0), 100, "p0 clamps to the minimum");
        assert_eq!(report.percentile(100.0), 900);
        // All-ties degenerate case.
        let flat = serve_report(&[7, 7, 7, 7]);
        assert_eq!(flat.p50(), 7);
        assert_eq!(flat.p99(), 7);
    }

    #[test]
    fn deadline_misses_and_tenant_totals_add_up() {
        let mut report = serve_report(&[100, 200, 300, 400]);
        report.latencies[1].deadline_met = false;
        report.latencies[3].deadline_met = false;
        assert_eq!(report.deadline_misses(), 2);
        let tenants = report.tenants();
        // Jobs alternate tenants 0 and 1 (see `latency`).
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].tenant, 0);
        assert_eq!(tenants[0].jobs, 2);
        assert_eq!(tenants[0].total_cycles, 400);
        assert_eq!(tenants[0].deadline_misses, 0);
        assert_eq!(tenants[1].tenant, 1);
        assert_eq!(tenants[1].jobs, 2);
        assert_eq!(tenants[1].total_cycles, 600);
        assert_eq!(tenants[1].deadline_misses, 2);
        assert!(report.to_string().contains("2 deadline miss(es)"));
    }
}
