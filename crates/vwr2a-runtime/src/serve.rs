//! Online serving layer: a multi-tenant admission queue in front of the
//! [`Pool`], with deadline-aware dispatch, work stealing and latency
//! percentiles.
//!
//! # The serving model
//!
//! A [`Pool`] fan-out executes a *fixed job list* handed over up front.
//! Real traffic is an **arrival stream**: jobs land over time from many
//! tenants, each stamped with an arrival cycle, a priority and an
//! optional deadline — and an operator watches p99 latency, not batch
//! wall cycles.  A [`Server`] wraps a pool and consumes exactly that
//! stream:
//!
//! 1. **Admission** — a [`ServeJob`] enters the admission queue at its
//!    [`ServeJob::arrival_cycle`]; nothing about it is scheduled before
//!    then (the per-array schedules clamp every phase to the dispatch
//!    cycle, so an idle array shows the wait as idle time, not work done
//!    in the past).
//! 2. **Dispatch** — whenever a backend has room in its (bounded) run
//!    queue, the pluggable [`SchedPolicy`] picks which admitted job goes
//!    next: [`Fifo`] in arrival order, [`EarliestDeadlineFirst`] by
//!    deadline, or [`WeightedFair`] deficit-round-robin across tenants so
//!    one chatty tenant cannot starve the rest.  The pool's
//!    [`Placement`](crate::pool::Placement) strategy then chooses the
//!    backend — CGRA array, FFT engine or host CPU — among those that can
//!    serve the job *and* have room, over *projected* backlogs (schedule
//!    horizon plus the estimated cost of jobs already queued there) and
//!    the per-backend reload/window pricing computed once at admission.
//!    A [`PlacementPlan`](crate::pool::PlacementPlan) that asks for a
//!    prefetch stages the job's reload speculatively from the dispatch
//!    cycle on, on the backend that will run the job.  When every backend
//!    that can serve the job is depth-full, the job waits in the queue.
//! 3. **Stealing** — placement decisions go stale: backlog estimates are
//!    learned online, so a backend can drift ahead of the fleet with jobs
//!    still queued behind it.  The stealing pass re-routes queued (not
//!    yet started) jobs from the most backlogged backend to the earliest
//!    free one, re-consulting [`Placement`](crate::pool::Placement) so a
//!    cost-aware prefetch fires on the new target.  Every move must
//!    strictly improve the pair's projected finish, and steals respect the
//!    job's admission price — a job is never stolen onto a backend that
//!    cannot serve it (a CGRA-only job onto the FFT engine, say).
//! 4. **Reporting** — each completed job yields a
//!    [`JobLatency`](crate::report::JobLatency) split into queueing and
//!    service cycles plus a deadline verdict; the run's
//!    [`ServeReport`] derives p50/p95/p99
//!    percentiles, per-tenant totals, the deadline-miss count and the
//!    steal count on top of the usual fleet accounting.
//!
//! The loop itself is the pool's one executor: a [`Pool`] batch runs it
//! with every job arriving at cycle 0, in submission order, each job
//! running as soon as it is committed, and no stealing or lookahead.
//!
//! Outputs are **bit-identical** to running every job serially in
//! submission order ([`Pool::run_serial_reference`]) for every policy,
//! with or without stealing — scheduling only moves *where and when* the
//! already-verified work executes.
//!
//! # Example
//!
//! ```
//! use vwr2a_runtime::pool::Pool;
//! use vwr2a_runtime::serve::{ServeJob, Server, WeightedFair};
//! use vwr2a_runtime::testing::BakedScaleKernel;
//!
//! # fn main() -> Result<(), vwr2a_runtime::RuntimeError> {
//! let mut server = Server::new(Pool::new(2)).with_policy(WeightedFair::new());
//! let double = BakedScaleKernel::new(2);
//! let windows: Vec<Vec<i32>> = (0..3).map(|w| vec![w; 32]).collect();
//!
//! // Four jobs from two tenants, arriving 500 cycles apart; the last one
//! // carries a deadline.
//! let jobs = (0..4u64).map(|j| {
//!     let job = ServeJob::new(
//!         &double,
//!         windows.iter().map(Vec::as_slice),
//!         (j % 2) as u32,
//!         j * 500,
//!     );
//!     if j == 3 {
//!         job.with_deadline(60_000)
//!     } else {
//!         job
//!     }
//! });
//! let (outputs, report) = server.run_batch(jobs)?;
//! assert_eq!(outputs.len(), 4);
//! assert_eq!(report.deadline_misses(), 0);
//! assert!(report.p99() >= report.p50());
//! # Ok(())
//! # }
//! ```

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::error::Result;
use crate::pool::{Dispatch, Pool};
use crate::report::ServeReport;
use crate::session::Kernel;

/// Identifies the tenant a [`ServeJob`] belongs to.  Tenants are the unit
/// of fairness for [`WeightedFair`] scheduling and of the per-tenant
/// aggregates in a [`ServeReport`].
pub type TenantId = u32;

/// One arrival-stamped job of a serving stream: a kernel, its window
/// stream, and the scheduling metadata the admission queue orders by.
#[derive(Debug, Clone)]
pub struct ServeJob<K, W> {
    /// The kernel to run (for [`Server::run_stream`]: a `&K` reference,
    /// mirroring the pool's job tuples).
    pub kernel: K,
    /// The job's window stream, consumed lazily at execution time.
    pub windows: W,
    /// Tenant that submitted the job.
    pub tenant: TenantId,
    /// Cycle at which the job enters the admission queue.  Nothing about
    /// the job is scheduled before this cycle.
    pub arrival_cycle: u64,
    /// Scheduling priority (higher is more urgent; `0` by default).
    /// [`EarliestDeadlineFirst`] and [`WeightedFair`] use it to order
    /// jobs that tie on their primary key; [`Fifo`] ignores it.
    pub priority: u8,
    /// Optional completion deadline.  A job finishing after this cycle
    /// counts as a deadline miss; jobs without one never miss.
    pub deadline_cycle: Option<u64>,
}

impl<K, W> ServeJob<K, W> {
    /// A default-priority job with no deadline.
    pub fn new(kernel: K, windows: W, tenant: TenantId, arrival_cycle: u64) -> Self {
        Self {
            kernel,
            windows,
            tenant,
            arrival_cycle,
            priority: 0,
            deadline_cycle: None,
        }
    }

    /// Sets the scheduling priority, builder-style.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the completion deadline, builder-style.
    #[must_use]
    pub fn with_deadline(mut self, deadline_cycle: u64) -> Self {
        self.deadline_cycle = Some(deadline_cycle);
        self
    }
}

/// What a [`SchedPolicy`] sees about one admitted job when asked to pick
/// the next dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob<'a> {
    /// Submission index of the job in the arrival stream.
    pub seq: usize,
    /// Tenant that submitted the job.
    pub tenant: TenantId,
    /// The job's arrival cycle.
    pub arrival_cycle: u64,
    /// The job's priority (higher is more urgent).
    pub priority: u8,
    /// The job's deadline, if any.
    pub deadline_cycle: Option<u64>,
    /// Lower-bound size hint of the job's window stream (exact for
    /// slice- and `Vec`-backed streams) — the cost proxy
    /// [`WeightedFair`]'s deficit counters charge against.
    pub windows: usize,
    /// The job kernel's [`Kernel::cache_key`].
    pub cache_key: &'a str,
}

/// Orders the admission queue: picks which admitted job is dispatched
/// next.
///
/// The policy is consulted once per dispatch with the current cycle and
/// the full admission queue (never empty), and returns the index of the
/// chosen job in that slice.  An out-of-range index aborts the run with
/// [`RuntimeError::Sched`](crate::RuntimeError::Sched) (the server stays
/// valid and reusable).
/// Policies may keep state across calls (deficit counters, aging) but
/// must be deterministic so serving experiments are reproducible.
pub trait SchedPolicy: fmt::Debug + Send {
    /// Short policy name used in reports and bench tables.
    fn name(&self) -> &'static str;

    /// Returns the queue index of the job to dispatch next.
    ///
    /// `queue` is never empty; `now` is the current cycle (for policies
    /// that age or expire entries — the built-in three ignore it).
    fn select(&mut self, now: u64, queue: &[QueuedJob<'_>]) -> usize;
}

/// First-come, first-served: dispatch in arrival order (ties on the
/// submission index).  Ignores priorities and deadlines — the baseline
/// the serve bench compares against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo;

impl SchedPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(&mut self, _now: u64, queue: &[QueuedJob<'_>]) -> usize {
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (q.arrival_cycle, q.seq))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Deadline-aware dispatch: the job with the earliest deadline goes
/// first; jobs without a deadline queue behind every deadlined one.
/// Ties break on priority (higher first), then arrival, then submission
/// index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarliestDeadlineFirst;

impl SchedPolicy for EarliestDeadlineFirst {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn select(&mut self, _now: u64, queue: &[QueuedJob<'_>]) -> usize {
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| {
                (
                    q.deadline_cycle.unwrap_or(u64::MAX),
                    std::cmp::Reverse(q.priority),
                    q.arrival_cycle,
                    q.seq,
                )
            })
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Deficit-round-robin fairness across tenants: every tenant with queued
/// work gets an equal share of the service, so one chatty tenant cannot
/// starve the rest.
///
/// Every time the round-robin cursor visits a tenant, the tenant's
/// *deficit* counter grows by one window; the tenant's head job
/// (highest priority, then earliest arrival) dispatches once the deficit
/// covers its cost — the job's window count, so long jobs drain
/// proportionally more of their tenant's budget than short ones.  A
/// tenant that keeps the cursor (its deficit still covers its next head
/// job) is served without new credit, and deficits of tenants with
/// nothing queued are dropped, so credit cannot be hoarded while idle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedFair {
    deficits: HashMap<TenantId, u64>,
    current: Option<TenantId>,
}

impl WeightedFair {
    /// Deficit round-robin with every deficit at zero and no tenant
    /// holding the cursor (the same as [`WeightedFair::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A job's cost in deficit units: its window count, floored at 1 so
    /// even an opaque (hint-less) stream drains some budget.
    fn cost(job: &QueuedJob<'_>) -> u64 {
        (job.windows as u64).max(1)
    }
}

impl SchedPolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "weighted-fair"
    }

    fn select(&mut self, _now: u64, queue: &[QueuedJob<'_>]) -> usize {
        // Every tenant's head job (highest priority, then earliest arrival,
        // then submission order), in one pass over the queue.
        let rank = |q: &QueuedJob<'_>| (std::cmp::Reverse(q.priority), q.arrival_cycle, q.seq);
        let mut heads: BTreeMap<TenantId, usize> = BTreeMap::new();
        for (i, q) in queue.iter().enumerate() {
            let head = heads.entry(q.tenant).or_insert(i);
            if rank(q) < rank(&queue[*head]) {
                *head = i;
            }
        }
        // Idle tenants lose their credit: deficits only persist while a
        // tenant has work queued.
        self.deficits.retain(|t, _| heads.contains_key(t));
        // A tenant mid-burst keeps the cursor while its deficit covers
        // its next head job — no new credit.
        if let Some((&current, &head)) = self.current.and_then(|t| heads.get_key_value(&t)) {
            let cost = Self::cost(&queue[head]);
            let deficit = self.deficits.entry(current).or_insert(0);
            if *deficit >= cost {
                *deficit -= cost;
                return head;
            }
        }
        // Round-robin over the active tenants (deterministic BTreeMap
        // order), starting after the cursor, adding one unit per visit
        // until some tenant affords its head job — in closed form, so a
        // huge window hint costs no rounds.  The tenant at position `p`
        // with deficit `d` and head cost `c` first affords its head on its
        // visit `max(1, c - d)`; the smallest `(visit, p)` wins.  Every
        // tenant up to the winner was visited that many times, every one
        // after it once fewer, and only visited tenants gain an entry.
        let order: Vec<(TenantId, usize)> = heads
            .iter()
            .filter(|(&t, _)| Some(t) > self.current)
            .chain(heads.iter().filter(|(&t, _)| Some(t) <= self.current))
            .map(|(&t, &head)| (t, head))
            .collect();
        let Some((visits, winner)) = order
            .iter()
            .enumerate()
            .map(|(p, &(tenant, head))| {
                let deficit = self.deficits.get(&tenant).copied().unwrap_or(0);
                (Self::cost(&queue[head]).saturating_sub(deficit).max(1), p)
            })
            .min()
        else {
            return 0;
        };
        for (p, &(tenant, _)) in order.iter().enumerate() {
            let credit = if p <= winner { visits } else { visits - 1 };
            if credit > 0 {
                *self.deficits.entry(tenant).or_insert(0) += credit;
            }
        }
        let (tenant, head) = order[winner];
        if let Some(deficit) = self.deficits.get_mut(&tenant) {
            *deficit -= Self::cost(&queue[head]);
        }
        self.current = Some(tenant);
        head
    }
}

/// Default for how many dispatched jobs a backend may hold while still
/// busy ([`Server::with_depth`] overrides it).  Jobs in this run queue are
/// *committed but not started* — stealable until the backend actually
/// materialises them.  Depth 1 would leave backends idle between jobs;
/// unbounded depth would commit placement far into an unknown future and
/// leave the stealing pass nothing early to fix.
const DISPATCH_DEPTH: usize = 2;

/// An online serving layer over a [`Pool`]: admits an arrival-stamped
/// [`ServeJob`] stream, dispatches by a pluggable [`SchedPolicy`],
/// re-balances queued jobs by work stealing, and reports per-job latency
/// percentiles.
///
/// See the [module docs](crate::serve) for the serving model and a
/// runnable example.
#[derive(Debug)]
pub struct Server {
    pool: Pool,
    policy: Box<dyn SchedPolicy>,
    stealing: bool,
    /// Per-backend run-queue depth (committed-but-unstarted jobs).  A
    /// deeper queue gives the placement strategy room to express a
    /// preference (e.g. queueing behind a busy engine because it is
    /// cheaper in joules), where a shallow queue hides a backend from
    /// placement the moment it fills.
    depth: usize,
    /// Whether the whole-queue lookahead planner is active (see
    /// [`Server::with_lookahead`]).
    lookahead: bool,
}

impl Server {
    /// Wraps `pool` with [`Fifo`] dispatch and work stealing enabled.
    pub fn new(pool: Pool) -> Self {
        Self {
            pool,
            policy: Box::new(Fifo),
            stealing: true,
            depth: DISPATCH_DEPTH,
            lookahead: false,
        }
    }

    /// Replaces the scheduling policy, builder-style (queued state such as
    /// deficit counters starts fresh; the pool's residency is unaffected).
    #[must_use]
    pub fn with_policy(mut self, policy: impl SchedPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Name of the active scheduling policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Enables or disables the work-stealing pass, builder-style.
    #[must_use]
    pub fn with_stealing(mut self, stealing: bool) -> Self {
        self.stealing = stealing;
        self
    }

    /// Sets the per-backend run-queue depth, builder-style (default 2).
    /// Depth 0 is clamped to 1 — a backend that can hold no job at all
    /// could never make progress.
    #[must_use]
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// The per-backend run-queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Enables or disables the whole-queue **lookahead planner**,
    /// builder-style (default off, preserving the head-job-only dispatch
    /// of earlier revisions).
    ///
    /// With lookahead on, every scheduling round plans over the *whole*
    /// admitted queue instead of only the policy-selected head job:
    ///
    /// 1. **Affinity batching** — queued jobs sharing the head job's cache
    ///    key ride along onto the same backend, back to back, while its
    ///    run queue has room: one reload (if any) amortises over the whole
    ///    run.
    /// 2. **Pipelined prefetch** — the programs of jobs *waiting* in an
    ///    array's run queue are staged on the configuration-load lane
    ///    while the jobs ahead of them compute, so their reloads leave the
    ///    launch critical path (see [`crate::Session::prefetch`]).
    /// 3. **Eviction co-planning** — the cache keys of every queued job
    ///    are announced to the fleet's array sessions as *needed soon*
    ///    ([`crate::Session::set_needed_soon`]), so a prefetch or cold
    ///    load never victimises a program a queued job is about to use
    ///    while any other resident can make room.
    ///
    /// Like scheduling policies, placement, prefetch and stealing, the
    /// planner moves only *where and when* jobs run — served outputs stay
    /// bit-identical to [`Pool::run_serial_reference`].  The planner's
    /// ledger is reported in [`ServeReport::plan`].
    #[must_use]
    pub fn with_lookahead(mut self, lookahead: bool) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// The wrapped pool (residency inspection).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Serves a batch of arrival-stamped jobs and collects each job's
    /// outputs, in window order, grouped by job in submission order.
    ///
    /// Outputs are bit-identical to running the jobs serially in
    /// submission order ([`Pool::run_serial_reference`]) — for every
    /// policy, with or without stealing.
    ///
    /// # Errors
    ///
    /// As [`Server::run_stream`].
    #[allow(clippy::type_complexity)]
    pub fn run_batch<'k, K, J, W>(&mut self, jobs: J) -> Result<(Vec<Vec<K::Output>>, ServeReport)>
    where
        K: Kernel + 'k,
        J: IntoIterator<Item = ServeJob<&'k K, W>>,
        W: IntoIterator,
        W::Item: Borrow<K::Input>,
    {
        let jobs: Vec<ServeJob<&K, W>> = jobs.into_iter().collect();
        let mut outputs: Vec<Vec<K::Output>> = (0..jobs.len()).map(|_| Vec::new()).collect();
        let report = self.run_stream(jobs, |job, output| {
            outputs[job].push(output);
            Ok(())
        })?;
        Ok((outputs, report))
    }

    /// Serves a stream of arrival-stamped jobs, handing each output to
    /// `sink` with its job's submission index as soon as it is computed.
    ///
    /// Jobs are admitted at their arrival cycles, dispatched by the
    /// server's [`SchedPolicy`] and placed by the pool's
    /// [`Placement`](crate::pool::Placement) strategy; the stealing pass
    /// (if enabled) re-routes queued jobs away from backends whose backlog
    /// drifted ahead of the fleet.  The returned [`ServeReport`] carries
    /// the run's fleet accounting, per-job latencies (in submission
    /// order), and the steal count.
    ///
    /// # Errors
    ///
    /// As [`Pool::run_stream`], plus [`RuntimeError::Sched`] if the
    /// policy returns an out-of-range queue index, and
    /// [`RuntimeError::InvalidInput`] — before any job runs — if a job's
    /// arrival or deadline cycle exceeds `u64::MAX >> 2` (about 1,800
    /// years at 80 MHz; no cycle sum of the serving model can overflow
    /// below it).  The first error aborts the run; completed work still
    /// shows in the array sessions' lifetime counters, and the server
    /// stays valid and reusable.
    ///
    /// [`RuntimeError::Sched`]: crate::RuntimeError::Sched
    /// [`RuntimeError::InvalidInput`]: crate::RuntimeError::InvalidInput
    pub fn run_stream<'k, K, J, W, F>(&mut self, jobs: J, sink: F) -> Result<ServeReport>
    where
        K: Kernel + 'k,
        J: IntoIterator<Item = ServeJob<&'k K, W>>,
        W: IntoIterator,
        W::Item: Borrow<K::Input>,
        F: FnMut(usize, K::Output) -> Result<()>,
    {
        let dispatch = Dispatch {
            policy: Some(self.policy.as_mut()),
            stealing: self.stealing,
            depth: self.depth,
            lookahead: self.lookahead,
        };
        self.pool.serve(jobs, sink, dispatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PlannerStats;
    use crate::testing::BakedScaleKernel;
    use crate::RuntimeError;
    use std::collections::BTreeSet;

    fn windows(count: usize, seed: i32) -> Vec<Vec<i32>> {
        (0..count)
            .map(|w| (0..96).map(|i| i + seed + 7 * w as i32).collect())
            .collect()
    }

    fn queued(seq: usize, tenant: TenantId, arrival: u64) -> QueuedJob<'static> {
        QueuedJob {
            seq,
            tenant,
            arrival_cycle: arrival,
            priority: 0,
            deadline_cycle: None,
            windows: 1,
            cache_key: "k",
        }
    }

    #[test]
    fn fifo_selects_the_earliest_arrival() {
        let mut fifo = Fifo;
        let queue = [queued(2, 0, 500), queued(0, 1, 100), queued(1, 0, 100)];
        // Earliest arrival wins; ties break on submission order.
        assert_eq!(fifo.select(0, &queue), 1);
        assert_eq!(fifo.name(), "fifo");
    }

    #[test]
    fn edf_orders_by_deadline_priority_then_arrival() {
        let mut edf = EarliestDeadlineFirst;
        let mut queue = vec![queued(0, 0, 0), queued(1, 0, 10), queued(2, 0, 20)];
        queue[0].deadline_cycle = None;
        queue[1].deadline_cycle = Some(9_000);
        queue[2].deadline_cycle = Some(5_000);
        // The tightest deadline wins even though it arrived last...
        assert_eq!(edf.select(0, &queue), 2);
        // ...deadline-less jobs queue behind every deadlined one...
        queue.remove(2);
        assert_eq!(edf.select(0, &queue), 1);
        // ...and among deadline-less jobs, priority then arrival decides.
        queue.remove(1);
        queue.push(queued(3, 0, 99).with_prio(5));
        assert_eq!(edf.select(0, &queue), 1);
    }

    impl QueuedJob<'_> {
        fn with_prio(mut self, priority: u8) -> Self {
            self.priority = priority;
            self
        }
    }

    #[test]
    fn weighted_fair_alternates_equal_tenants() {
        let mut wf = WeightedFair::new();
        let queue = [
            queued(0, 0, 0),
            queued(1, 0, 1),
            queued(2, 1, 2),
            queued(3, 1, 3),
        ];
        // Round-robin across tenants despite tenant 0 arriving first.
        let first = wf.select(0, &queue);
        assert_eq!(queue[first].tenant, 0);
        let rest: Vec<QueuedJob> = queue[1..].to_vec();
        let second = wf.select(0, &rest);
        assert_eq!(rest[second].tenant, 1);
    }

    #[test]
    fn weighted_fair_default_is_new_and_serves_a_lone_job() {
        // A default-built policy grants credit on every visit: it must
        // select the only queued job instead of spinning forever.
        let mut wf = WeightedFair::default();
        assert_eq!(wf, WeightedFair::new());
        let mut long = queued(0, 3, 0);
        long.windows = 4;
        assert_eq!(wf.select(0, &[long]), 0);
    }

    #[test]
    fn weighted_fair_charges_long_jobs_more() {
        let mut wf = WeightedFair::new();
        // Tenant 0's only job is 3 windows long; tenant 1 queues 1-window
        // jobs.  Tenant 0 must accrue 3 rounds of credit before its job
        // dispatches, so tenant 1's short jobs go first — window counts,
        // not job counts, are what the deficit counters charge.
        let mut long = queued(0, 0, 0);
        long.windows = 3;
        let queue = [long, queued(1, 1, 1), queued(2, 1, 2)];
        assert_eq!(queue[wf.select(0, &queue)].seq, 1);
        let queue = [long, queued(2, 1, 2)];
        assert_eq!(queue[wf.select(0, &queue)].seq, 2);
        let queue = [long];
        assert_eq!(queue[wf.select(0, &queue)].seq, 0);
    }

    #[test]
    fn served_outputs_match_the_serial_reference_for_every_policy() {
        let kernels: Vec<BakedScaleKernel> = [2i16, 3, 5]
            .iter()
            .map(|&f| BakedScaleKernel::new(f))
            .collect();
        let picks = [0usize, 1, 2, 0, 1, 2, 0, 1];
        let jobs: Vec<(&BakedScaleKernel, Vec<Vec<i32>>)> = picks
            .iter()
            .enumerate()
            .map(|(j, &p)| (&kernels[p], windows(2, j as i32)))
            .collect();
        let (serial, _) = Pool::run_serial_reference(
            jobs.iter()
                .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
        )
        .unwrap();

        let policies: Vec<Box<dyn SchedPolicy>> = vec![
            Box::new(Fifo),
            Box::new(EarliestDeadlineFirst),
            Box::new(WeightedFair::new()),
        ];
        for policy in policies {
            for stealing in [false, true] {
                let name = policy.name();
                let mut server = Server::new(Pool::new(2)).with_stealing(stealing);
                server.policy = dyn_clone(&*policy);
                let (outputs, report) = server
                    .run_batch(jobs.iter().enumerate().map(|(j, (k, ws))| {
                        ServeJob::new(*k, ws.iter().map(Vec::as_slice), (j % 3) as u32, 0)
                            .with_priority((j % 4) as u8)
                    }))
                    .unwrap();
                assert_eq!(
                    outputs, serial,
                    "{name} (stealing={stealing}) must match serial"
                );
                assert_eq!(report.latencies.len(), jobs.len());
                assert_eq!(report.fleet.jobs, jobs.len() as u64);
            }
        }
    }

    /// Fresh boxed instance of one of the three built-in policies (the
    /// trait is deliberately not `Clone`; tests only need the built-ins).
    fn dyn_clone(policy: &dyn SchedPolicy) -> Box<dyn SchedPolicy> {
        match policy.name() {
            "fifo" => Box::new(Fifo),
            "edf" => Box::new(EarliestDeadlineFirst),
            "weighted-fair" => Box::new(WeightedFair::new()),
            other => unreachable!("unknown built-in policy {other}"),
        }
    }

    #[test]
    fn lookahead_batches_affinity_runs_at_identical_outputs() {
        // Six jobs over two kernels arrive together on two arrays.  With
        // lookahead on, queued jobs sharing a cache key ride the head
        // job's dispatch as affinity runs; outputs stay bit-identical to
        // the serial reference and the lookahead-off server, and the
        // planner's counters surface in the report (all zero when off).
        let k2 = BakedScaleKernel::new(2);
        let k3 = BakedScaleKernel::new(3);
        let picks = [&k2, &k2, &k2, &k3, &k3, &k3];
        let jobs: Vec<(&BakedScaleKernel, Vec<Vec<i32>>)> = picks
            .iter()
            .enumerate()
            .map(|(j, k)| (*k, windows(2, j as i32)))
            .collect();
        let (serial, _) = Pool::run_serial_reference(
            jobs.iter()
                .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
        )
        .unwrap();

        let run = |lookahead: bool| {
            let mut server = Server::new(Pool::new(2))
                .with_depth(3)
                .with_lookahead(lookahead);
            server
                .run_batch(
                    jobs.iter()
                        .map(|(k, ws)| ServeJob::new(*k, ws.iter().map(Vec::as_slice), 0, 0)),
                )
                .unwrap()
        };
        let (plain_outputs, plain) = run(false);
        let (planned_outputs, planned) = run(true);
        assert_eq!(plain_outputs, serial);
        assert_eq!(planned_outputs, serial, "planning moved an output");
        assert_eq!(plain.plan, PlannerStats::default(), "off means all zeros");
        assert!(
            planned.plan.affinity_runs >= 1,
            "same-key jobs must batch: {:?}",
            planned.plan
        );
        assert!(planned.plan.batched_jobs >= planned.plan.affinity_runs);
    }

    #[test]
    fn lookahead_prefetches_queued_programs_behind_the_running_job() {
        // One array, two distinct kernels arriving together, under a
        // placement strategy that never prefetches on its own
        // (round-robin): while job 0 computes, the *planner* stages
        // job 1's program on the idle configuration-load lane, so its
        // would-be cold reload is paid off the critical path.
        use crate::pool::RoundRobin;
        let k2 = BakedScaleKernel::new(2);
        let k3 = BakedScaleKernel::new(3);
        let jobs: Vec<(&BakedScaleKernel, Vec<Vec<i32>>)> = [&k2, &k3]
            .iter()
            .enumerate()
            .map(|(j, &k)| (k, windows(3, j as i32)))
            .collect();
        let run = |lookahead: bool| {
            let mut server =
                Server::new(Pool::new(1).with_placement(RoundRobin)).with_lookahead(lookahead);
            server
                .run_batch(
                    jobs.iter()
                        .map(|(k, ws)| ServeJob::new(*k, ws.iter().map(Vec::as_slice), 0, 0)),
                )
                .unwrap()
        };
        let (plain_outputs, plain) = run(false);
        let (planned_outputs, planned) = run(true);
        assert_eq!(plain_outputs, planned_outputs, "planning moved an output");
        assert!(
            planned.plan.planned_prefetches >= 1,
            "the queued program must be staged: {:?}",
            planned.plan
        );
        assert!(planned.fleet.prefetched() > plain.fleet.prefetched());
        assert!(planned.fleet.hidden_reloads() >= plain.fleet.hidden_reloads());
    }

    #[test]
    fn edf_urgent_jobs_jump_the_queue() {
        let kernel = BakedScaleKernel::new(2);
        let ws = windows(1, 0);
        let mut server = Server::new(Pool::new(1)).with_policy(EarliestDeadlineFirst);
        let mut order: Vec<usize> = Vec::new();
        // Three jobs arrive together; the tightest deadline (job 2) must
        // start first, the deadline-less job (0) last.
        server
            .run_stream(
                [
                    ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, 0),
                    ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, 0)
                        .with_deadline(90_000),
                    ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, 0)
                        .with_deadline(50_000),
                ],
                |job, _| {
                    order.push(job);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn weighted_fair_protects_a_quiet_tenant_from_a_chatty_one() {
        let kernel = BakedScaleKernel::new(3);
        let ws = windows(1, 0);
        let latency_of = |policy: Box<dyn SchedPolicy>| {
            let mut server = Server::new(Pool::new(1));
            server.policy = policy;
            // Tenant 0 floods 6 jobs at cycle 0; tenant 1 submits 2.
            let (_, report) = server
                .run_batch((0..8).map(|j| {
                    let tenant = if j < 6 { 0 } else { 1 };
                    ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), tenant, 0)
                }))
                .unwrap();
            let tenants = report.tenants();
            assert_eq!(tenants.len(), 2);
            (tenants[0].total_cycles, tenants[1].total_cycles)
        };
        let (_, quiet_fifo) = latency_of(Box::new(Fifo));
        let (_, quiet_fair) = latency_of(Box::new(WeightedFair::new()));
        assert!(
            quiet_fair < quiet_fifo,
            "the quiet tenant must wait less under weighted-fair \
             ({quiet_fair} vs {quiet_fifo} total cycles)"
        );
    }

    #[test]
    fn deadline_misses_are_accounted_per_job() {
        let kernel = BakedScaleKernel::new(2);
        let ws = windows(1, 0);
        let mut server = Server::new(Pool::new(1));
        let (_, report) = server
            .run_batch([
                // Impossible deadline: 1 cycle after arrival.
                ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, 0).with_deadline(1),
                // Generous deadline: met.
                ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, 0).with_deadline(1_000_000),
                // No deadline: vacuously met.
                ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 1, 0),
            ])
            .unwrap();
        assert_eq!(report.deadline_misses(), 1);
        assert!(!report.latencies[0].deadline_met);
        assert!(report.latencies[1].deadline_met);
        assert!(report.latencies[2].deadline_met);
        let tenants = report.tenants();
        assert_eq!(tenants[0].deadline_misses, 1);
        assert_eq!(tenants[1].deadline_misses, 0);
    }

    #[test]
    fn latency_decomposition_is_consistent() {
        let kernel = BakedScaleKernel::new(5);
        let ws = windows(3, 0);
        let mut server = Server::new(Pool::new(2));
        let (_, report) = server
            .run_batch((0..5u64).map(|j| {
                ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), j as u32 % 2, j * 800)
            }))
            .unwrap();
        assert_eq!(report.latencies.len(), 5);
        for (j, latency) in report.latencies.iter().enumerate() {
            assert_eq!(latency.job, j, "latencies come back in submission order");
            assert_eq!(latency.total, latency.queue_cycles + latency.service_cycles);
            assert!(latency.service_cycles > 0, "3 windows actually computed");
        }
        assert_eq!(
            report.tenants().iter().map(|t| t.jobs).sum::<u64>(),
            5,
            "every job belongs to exactly one tenant"
        );
        assert_eq!(report.fleet.invocations(), 15);
        // Percentiles are monotone and drawn from actual latencies.
        assert!(report.p50() <= report.p95());
        assert!(report.p95() <= report.p99());
        assert!(report.latencies.iter().any(|l| l.total == report.p99()));
    }

    #[test]
    fn arrival_gaps_surface_as_idle_time_not_backdated_work() {
        let kernel = BakedScaleKernel::new(2);
        let ws = windows(1, 0);
        let mut server = Server::new(Pool::new(1));
        let (_, report) = server
            .run_batch([ServeJob::new(
                &kernel,
                ws.iter().map(Vec::as_slice),
                0,
                10_000,
            )])
            .unwrap();
        // The job could not run before it arrived: the fleet wall clock
        // covers the idle gap, but the job's own latency does not.
        assert!(report.fleet.wall_cycles() >= 10_000);
        assert!(report.latencies[0].total < 10_000);
    }

    #[test]
    fn stealing_rebalances_a_drifted_backlog() {
        // One heavy job (8 windows) and a train of light ones, all
        // arriving at once on a 2-array fleet: the estimator knows
        // nothing yet, so dispatch piles jobs behind the heavy one; once
        // it materialises, the drift is visible and the stealing pass
        // re-routes the queued job to the other array.
        let heavy = BakedScaleKernel::new(2);
        let light = BakedScaleKernel::new(3);
        let heavy_ws = windows(8, 0);
        let light_ws = windows(1, 1);
        let jobs = |server: &mut Server| {
            let mut order = Vec::new();
            let report = server
                .run_stream(
                    (0..6).map(|j| {
                        if j == 0 {
                            ServeJob::new(&heavy, heavy_ws.iter().map(Vec::as_slice), 0, 0)
                        } else {
                            ServeJob::new(&light, light_ws.iter().map(Vec::as_slice), 1, 0)
                        }
                    }),
                    |job, _| {
                        order.push(job);
                        Ok(())
                    },
                )
                .unwrap();
            (report, order)
        };
        let (stolen, _) = jobs(&mut Server::new(Pool::new(2)));
        assert!(stolen.steals > 0, "the drifted backlog must be rebalanced");
        let (kept, _) = jobs(&mut Server::new(Pool::new(2)).with_stealing(false));
        assert_eq!(kept.steals, 0);
        // Stealing strictly helps the tail here: the queued light jobs
        // escape the heavy job's backlog.
        assert!(
            stolen.p99() <= kept.p99(),
            "stealing p99 {} must not exceed no-steal p99 {}",
            stolen.p99(),
            kept.p99()
        );
        // And the re-routing never changes results: both match serial.
        let reference_jobs: Vec<(&BakedScaleKernel, &Vec<Vec<i32>>)> = (0..6)
            .map(|j| {
                if j == 0 {
                    (&heavy, &heavy_ws)
                } else {
                    (&light, &light_ws)
                }
            })
            .collect();
        let (serial, _) = Pool::run_serial_reference(
            reference_jobs
                .iter()
                .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
        )
        .unwrap();
        let (outputs, _) = Server::new(Pool::new(2))
            .run_batch((0..6).map(|j| {
                if j == 0 {
                    ServeJob::new(&heavy, heavy_ws.iter().map(Vec::as_slice), 0, 0)
                } else {
                    ServeJob::new(&light, light_ws.iter().map(Vec::as_slice), 1, 0)
                }
            }))
            .unwrap();
        assert_eq!(outputs, serial);
    }

    #[test]
    fn rogue_policy_fails_cleanly() {
        #[derive(Debug)]
        struct OutOfRange;
        impl SchedPolicy for OutOfRange {
            fn name(&self) -> &'static str {
                "out-of-range"
            }
            fn select(&mut self, _now: u64, queue: &[QueuedJob<'_>]) -> usize {
                queue.len() + 5
            }
        }
        let kernel = BakedScaleKernel::new(2);
        let ws = windows(1, 0);
        let mut server = Server::new(Pool::new(2)).with_policy(OutOfRange);
        assert_eq!(server.policy_name(), "out-of-range");
        let err = server
            .run_batch([ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, 0)])
            .unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Sched {
                    index: 6,
                    queued: 1
                }
            ),
            "expected Sched, got {err:?}"
        );
        // The server recovers with a sane policy.
        server = server.with_policy(Fifo);
        server
            .run_batch([ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, 0)])
            .unwrap();
    }

    #[test]
    fn cycle_stamps_beyond_the_horizon_are_rejected_before_any_work() {
        // An arrival this close to u64::MAX would overflow placement's
        // cycle sums (`free_config_at + reload_cycles`): admission rejects
        // it, and a deadline past the horizon, with a typed error before
        // any job of the batch runs.
        let kernel = BakedScaleKernel::new(2);
        let ws = windows(1, 0);
        let job = |arrival| ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, arrival);
        let mut server = Server::new(Pool::new(2));
        for batch in [
            vec![job(u64::MAX - 5)],
            vec![job(0), job(10).with_deadline(u64::MAX)],
        ] {
            let err = server.run_batch(batch).unwrap_err();
            assert!(
                matches!(err, RuntimeError::InvalidInput { .. }),
                "expected InvalidInput, got {err:?}"
            );
        }
        assert_eq!(server.pool().array(0).unwrap().loaded_programs(), 0);
        assert_eq!(server.pool().array(1).unwrap().loaded_programs(), 0);
        // The server still serves a normal job afterwards.
        let (outputs, report) = server.run_batch([job(0)]).unwrap();
        assert_eq!(
            outputs[0][0],
            ws[0].iter().map(|v| v * 2).collect::<Vec<_>>()
        );
        assert_eq!(report.latencies.len(), 1);
    }

    #[test]
    fn a_huge_window_hint_neither_overflows_placement_nor_projection() {
        // The horizon bounds cycle stamps, not window-count hints: a job
        // hinting `usize::MAX` windows is placed, projected and considered
        // for stealing on saturating estimates, and runs until its sink
        // stops it.
        let kernel = BakedScaleKernel::new(2);
        let ws = windows(1, 0);
        let endless = std::iter::repeat_n(ws[0].as_slice(), usize::MAX);
        let mut server = Server::new(Pool::new(2));
        let mut delivered = 0;
        let err = server
            .run_stream([ServeJob::new(&kernel, endless, 0, 0)], |_, _| {
                delivered += 1;
                if delivered == 2 {
                    Err(RuntimeError::sink("enough"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Sink { .. }),
            "expected Sink, got {err:?}"
        );
        assert_eq!(delivered, 2);
    }

    #[test]
    fn weighted_fair_dispatches_a_huge_job_without_spinning() {
        // Credit accrues one unit per visit; a job costing `u64::MAX`
        // units must still dispatch at once, and leave no credit behind.
        let mut wf = WeightedFair::new();
        let mut huge = queued(0, 0, 0);
        huge.windows = usize::MAX;
        assert_eq!(wf.select(0, &[huge]), 0);
        assert_eq!(wf.deficits.get(&0), Some(&0));
        // Behind a short job of another tenant, the short job goes first
        // and the huge one next.
        let mut wf = WeightedFair::new();
        let queue = [huge, queued(1, 1, 0)];
        assert_eq!(wf.select(0, &queue), 1);
        assert_eq!(wf.select(0, &queue[..1]), 0);
    }

    /// Index of `tenant`'s head job: highest priority, then earliest
    /// arrival, then submission order.
    fn head_of(queue: &[QueuedJob<'_>], tenant: TenantId) -> usize {
        queue
            .iter()
            .enumerate()
            .filter(|(_, q)| q.tenant == tenant)
            .min_by_key(|(_, q)| (std::cmp::Reverse(q.priority), q.arrival_cycle, q.seq))
            .map(|(i, _)| i)
            .expect("tenant has a queued job")
    }

    /// [`WeightedFair::select`] as one visit per loop iteration, each
    /// visit scanning the queue for its tenant's head: the round-robin the
    /// closed form must reproduce, state included.
    fn select_by_visits(wf: &mut WeightedFair, queue: &[QueuedJob<'_>]) -> usize {
        let tenants: BTreeSet<TenantId> = queue.iter().map(|q| q.tenant).collect();
        wf.deficits.retain(|t, _| tenants.contains(t));
        if let Some(current) = wf.current.filter(|t| tenants.contains(t)) {
            let head = head_of(queue, current);
            let cost = WeightedFair::cost(&queue[head]);
            let deficit = wf.deficits.entry(current).or_insert(0);
            if *deficit >= cost {
                *deficit -= cost;
                return head;
            }
        }
        let order: Vec<TenantId> = tenants
            .iter()
            .filter(|&&t| Some(t) > wf.current)
            .chain(tenants.iter().filter(|&&t| Some(t) <= wf.current))
            .copied()
            .collect();
        loop {
            for &tenant in &order {
                let head = head_of(queue, tenant);
                let cost = WeightedFair::cost(&queue[head]);
                let deficit = wf.deficits.entry(tenant).or_insert(0);
                *deficit += 1;
                if *deficit >= cost {
                    *deficit -= cost;
                    wf.current = Some(tenant);
                    return head;
                }
            }
        }
    }

    #[test]
    fn pools_servers_and_sessions_are_send() {
        // Host-parallel serving would move them across threads; this stops
        // compiling if any of them loses `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<Pool>();
        assert_send::<Server>();
        assert_send::<crate::Session>();
    }

    #[test]
    fn weighted_fair_closed_form_matches_visit_by_visit_credit() {
        // SplitMix64 over small queues, deficits and cursors: the closed
        // form picks the same job and leaves the same deficits and cursor.
        let mut state = 0x5eed_u64;
        let mut draw = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for case in 0..2_000 {
            let mut wf = WeightedFair::new();
            for tenant in 0..5 {
                if draw(2) == 0 {
                    wf.deficits.insert(tenant, draw(9));
                }
            }
            wf.current = (draw(3) > 0).then(|| draw(5) as TenantId);
            let queue: Vec<QueuedJob> = (0..1 + draw(6) as usize)
                .map(|seq| {
                    let mut job = queued(seq, draw(4) as TenantId, draw(3));
                    job.windows = draw(8) as usize;
                    job.priority = draw(2) as u8;
                    job
                })
                .collect();
            let mut reference = wf.clone();
            let expected = select_by_visits(&mut reference, &queue);
            assert_eq!(wf.select(0, &queue), expected, "case {case}: {queue:?}");
            assert_eq!(wf, reference, "case {case}: {queue:?}");
        }
    }

    #[test]
    fn empty_streams_serve_nothing() {
        let mut server = Server::new(Pool::new(2));
        let (outputs, report) = server
            .run_batch(std::iter::empty::<ServeJob<&BakedScaleKernel, Vec<&[i32]>>>())
            .unwrap();
        assert!(outputs.is_empty());
        assert!(report.latencies.is_empty());
        assert_eq!(report.steals, 0);
        assert_eq!(report.p99(), 0);
        assert_eq!(report.fleet.wall_cycles(), 0);
    }

    #[test]
    fn serving_never_routes_cgra_only_jobs_onto_offload_backends() {
        use crate::backend::{BackendKind, FftBackend};

        // 2 arrays + the FFT engine; plain BakedScale jobs are CGRA-only,
        // so the FFT backend must stay untouched no matter how saturated
        // the arrays get — dispatch and stealing both offer only the
        // backends the job's admission price says can serve it.
        let kernel = BakedScaleKernel::new(3);
        let ws = windows(2, 0);
        let jobs: Vec<(&BakedScaleKernel, Vec<Vec<i32>>)> =
            (0..6).map(|_| (&kernel, ws.clone())).collect();
        let (serial, _) = Pool::run_serial_reference(
            jobs.iter()
                .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
        )
        .unwrap();
        let pool = Pool::new(2).with_backend(FftBackend::new());
        let mut server = Server::new(pool);
        let (outputs, report) = server
            .run_batch(
                jobs.iter()
                    .map(|(k, ws)| ServeJob::new(*k, ws.iter().map(Vec::as_slice), 0, 0)),
            )
            .unwrap();
        assert_eq!(outputs, serial);
        assert_eq!(report.fleet.routes.len(), 6);
        assert!(
            report
                .fleet
                .routes
                .iter()
                .all(|r| r.backend < 2 && r.kind == BackendKind::Array),
            "CGRA-only jobs must stay on the arrays: {:?}",
            report.fleet.routes
        );
        assert_eq!(report.fleet.arrays[2].jobs, 0);
        assert_eq!(report.fleet.arrays[2].report.invocations, 0);
    }

    #[test]
    fn a_placement_pinned_to_an_incapable_backend_is_a_capability_error() {
        use crate::backend::FftBackend;
        use crate::pool::{BackendView, JobView, Placement, PlacementPlan};

        // Dispatch follows the batch path's error rule: a plan naming a
        // backend that cannot serve the job fails as a typed error rather
        // than being re-routed behind the strategy's back.
        #[derive(Debug)]
        struct PinEngine;
        impl Placement for PinEngine {
            fn name(&self) -> &'static str {
                "pin-engine"
            }
            fn place(&self, _job: &JobView<'_>, _backends: &[BackendView]) -> PlacementPlan {
                PlacementPlan::run_on(2)
            }
        }
        let kernel = BakedScaleKernel::new(3);
        let ws = windows(1, 0);
        let pool = Pool::new(2)
            .with_backend(FftBackend::new())
            .with_placement(PinEngine);
        let mut server = Server::new(pool);
        let err = server
            .run_batch([ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, 0)])
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Capability {
                kernel: "baked-scale".to_string(),
                backend: "fft".to_string(),
            }
        );
        let pool = server.pool();
        assert!(
            (0..pool.arrays()).all(|i| pool.backend(i).unwrap().busy_compute() == 0),
            "nothing ran"
        );
    }

    #[test]
    fn serving_offloads_tiny_jobs_to_the_cpu_bit_identically() {
        use crate::backend::{BackendKind, CpuBackend};

        // A 1-window crumb advertising a 2-cycle CPU implementation: the
        // cost-aware strategy must send it to the host CPU rather than pay
        // a cold array reload, and the outputs must still match the serial
        // single-session reference.
        let kernel = BakedScaleKernel::new(4).with_cpu_offload(2);
        let ws = windows(1, 3);
        let jobs: Vec<(&BakedScaleKernel, Vec<Vec<i32>>)> =
            (0..3).map(|_| (&kernel, ws.clone())).collect();
        let (serial, _) = Pool::run_serial_reference(
            jobs.iter()
                .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice))),
        )
        .unwrap();
        let pool = Pool::new(1).with_backend(CpuBackend::new());
        let mut server = Server::new(pool);
        // Arrivals are spaced wider than one ISS run, so each crumb finds
        // the CPU idle again (a busy CPU is a real cost the model must
        // weigh; the point here is the cold-reload-versus-offload call).
        let (outputs, report) = server
            .run_batch(jobs.iter().enumerate().map(|(j, (k, ws))| {
                ServeJob::new(*k, ws.iter().map(Vec::as_slice), 0, j as u64 * 5_000)
            }))
            .unwrap();
        assert_eq!(outputs, serial);
        assert!(
            report
                .fleet
                .routes
                .iter()
                .all(|r| r.kind == BackendKind::Cpu),
            "tiny jobs belong on the CPU: {:?}",
            report.fleet.routes
        );
        let per_kind = report.fleet.per_kind();
        let cpu = per_kind
            .iter()
            .find(|s| s.kind == BackendKind::Cpu)
            .expect("cpu row");
        assert_eq!(cpu.jobs, 3);
        assert_eq!(cpu.invocations, 3);
        assert!(cpu.cycles > 0, "the ISS actually ran");
        // Nothing touched the array's configuration memory.
        assert_eq!(report.fleet.arrays[0].report.cold_launches, 0);
    }

    #[test]
    fn run_queue_depth_moves_scheduling_never_outputs() {
        let kernel = BakedScaleKernel::new(3);
        let ws = windows(2, 0);
        let (serial, _) =
            Pool::run_serial_reference((0..4).map(|_| (&kernel, ws.iter().map(Vec::as_slice))))
                .unwrap();
        for depth in [1, 2, 6] {
            let mut server = Server::new(Pool::new(2)).with_depth(depth);
            assert_eq!(server.depth(), depth);
            let (outputs, _) = server
                .run_batch((0..4).map(|j| {
                    ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, j as u64 * 60)
                }))
                .unwrap();
            assert_eq!(outputs, serial, "depth {depth} changed an output");
        }
        // Depth 0 could never make progress: clamped to 1.
        assert_eq!(Server::new(Pool::new(1)).with_depth(0).depth(), 1);
    }

    #[test]
    fn served_routes_carry_the_jobs_measured_joules() {
        let kernel = BakedScaleKernel::new(2);
        let ws = windows(2, 0);
        let mut server = Server::new(Pool::new(2));
        let (_, report) =
            server
                .run_batch((0..3).map(|j| {
                    ServeJob::new(&kernel, ws.iter().map(Vec::as_slice), 0, j as u64 * 50)
                }))
                .unwrap();
        assert_eq!(report.fleet.routes.len(), 3);
        for route in &report.fleet.routes {
            assert!(route.energy_nj > 0, "every served job priced its windows");
        }
        let routed: u64 = report.fleet.routes.iter().map(|r| r.energy_nj).sum();
        let per_kind = report.fleet.per_kind();
        let attributed: u64 = per_kind
            .iter()
            .map(|k| k.energy_nj - k.prefetch_energy_nj)
            .sum();
        assert_eq!(routed, attributed, "job joules sum exactly to kind totals");
        let display = format!("{report}");
        assert!(display.contains("uJ"), "the serve summary prints joules");
    }
}
