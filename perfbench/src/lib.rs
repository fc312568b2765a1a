//! The repository benchmark: three seeded serving workloads run through
//! [`Server::run_batch`] on one thread, with two clocks side by side.
//!
//! * *Host* metrics say how fast the simulator answers: served windows per
//!   host second, set-up time and peak memory.
//! * *Modelled* metrics (`model.*`, `plan.*`) are the simulator's answers:
//!   latency percentiles, makespan and energy in cycles and nanojoules.
//!   They are deterministic, so every pass must reproduce them exactly.
//!
//! Every pass builds a fresh fleet and serves the whole stream.  Outputs
//! are checked against an oracle per landed route, outside the timed
//! region.  A traced run wraps the runtime's traits in [`trace::Timed`]
//! decorators and splits host time across layers.

pub mod trace;
pub mod workloads;

use std::borrow::Borrow;
use std::time::Instant;

use vwr2a::fftaccel::FftAccelerator;
use vwr2a::runtime::{BackendKind, Kernel, Pool, Result, ServeJob, ServeReport};
use vwr2a::soc::cpu::Cpu;
use vwr2a::soc::sram::Sram;

use trace::{Layer, Timed, Totals};
use workloads::{Fleet, Job, Workload};

/// Serves `jobs` once on a fresh server over `fleet`.  With `traced`, the
/// fleet's policies are wrapped in [`Timed`] and the call is the root span.
pub fn serve<K, W>(
    fleet: &Fleet,
    kernels: &[K],
    jobs: &[Job<W>],
    traced: bool,
) -> Result<(Vec<Vec<K::Output>>, ServeReport)>
where
    K: Kernel,
    W: Borrow<K::Input>,
{
    let mut server = fleet.server(traced);
    let stream = jobs.iter().map(|j| ServeJob {
        kernel: &kernels[j.pick],
        windows: j.windows.iter().map(|w| -> &K::Input { w.borrow() }),
        tenant: j.tenant,
        arrival_cycle: j.arrival,
        priority: j.priority,
        deadline_cycle: j.deadline,
    });
    if traced {
        trace::span(Layer::Serve, || server.run_batch(stream))
    } else {
        server.run_batch(stream)
    }
}

/// Nearest-rank percentile of `values` (`0` when empty).
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The modelled answers of one pass over every stream of a workload.  The
/// simulator is deterministic, so every pass of a run, traced or not, must
/// reproduce them exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Median arrival-to-completion latency over every job.
    pub p50_cycles: u64,
    /// 95th-percentile arrival-to-completion latency over every job.
    pub p95_cycles: u64,
    /// Jobs that missed their deadline.
    pub deadline_misses: u64,
    /// Fleet makespans summed over the streams.
    pub wall_cycles: u64,
    /// Measured fleet energy.
    pub energy_nj: u64,
    /// Cold configuration reloads.
    pub cold_reloads: u64,
    /// Prefetched reloads hidden inside a compute backlog.
    pub hidden_reloads: u64,
    /// Programs evicted.
    pub evictions: u64,
    /// Queued jobs re-routed by stealing.
    pub steals: u64,
    /// Fleet compute occupancy, weighted by each stream's makespan.
    pub occupancy: f64,
    /// Median admission-plus-backlog wait.
    pub queue_p50_cycles: u64,
    /// Prefetches the lookahead planner staged.
    pub planned_prefetches: u64,
    /// Affinity runs the lookahead planner formed.
    pub affinity_runs: u64,
    /// Evictions the needed-soon shield redirected.
    pub evictions_averted: u64,
    /// Jobs landed per backend kind: arrays, FFT engine, CPU.
    pub jobs_by_kind: [u64; 3],
}

impl Model {
    /// Extracts the modelled answers from the serve reports of one pass.
    pub fn of(reports: &[ServeReport]) -> Self {
        let latencies = || reports.iter().flat_map(|r| &r.latencies);
        let mut totals: Vec<u64> = latencies().map(|l| l.total).collect();
        let mut queue: Vec<u64> = latencies().map(|l| l.queue_cycles).collect();
        let sum = |f: &dyn Fn(&ServeReport) -> u64| reports.iter().map(f).sum::<u64>();
        let mut jobs_by_kind = [0; 3];
        for route in reports.iter().flat_map(|r| &r.fleet.routes) {
            jobs_by_kind[kind_index(route.kind)] += 1;
        }
        let wall_cycles = sum(&|r| r.fleet.wall_cycles());
        let busy: f64 =
            reports.iter().map(|r| r.fleet.occupancy() * r.fleet.wall_cycles() as f64).sum();
        Self {
            p50_cycles: percentile(&mut totals, 50.0),
            p95_cycles: percentile(&mut totals, 95.0),
            deadline_misses: sum(&|r| r.deadline_misses()),
            wall_cycles,
            energy_nj: sum(&|r| r.fleet.energy_nj()),
            cold_reloads: sum(&|r| r.fleet.cold_reloads()),
            hidden_reloads: sum(&|r| r.fleet.hidden_reloads()),
            evictions: sum(&|r| r.fleet.evictions()),
            steals: sum(&|r| r.steals),
            occupancy: if wall_cycles == 0 { 0.0 } else { busy / wall_cycles as f64 },
            queue_p50_cycles: percentile(&mut queue, 50.0),
            planned_prefetches: sum(&|r| r.plan.planned_prefetches),
            affinity_runs: sum(&|r| r.plan.affinity_runs),
            evictions_averted: sum(&|r| r.plan.evictions_averted),
            jobs_by_kind,
        }
    }
}

fn kind_index(kind: BackendKind) -> usize {
    match kind {
        BackendKind::Array => 0,
        BackendKind::FftAccel => 1,
        BackendKind::Cpu => 2,
    }
}

/// Checks every job's outputs against the model of the backend it landed
/// on: array jobs against [`Pool::run_serial_reference`], engine jobs
/// against a fresh [`FftAccelerator`], CPU jobs against a fresh [`Cpu`] and
/// [`Sram::paper`].  Returns the number of jobs that diverged (or whose
/// route is missing).
pub fn oracle<K, W>(
    kernels: &[K],
    jobs: &[Job<W>],
    outputs: &[Vec<K::Output>],
    report: &ServeReport,
) -> Result<u64>
where
    K: Kernel,
    K::Output: PartialEq,
    W: Borrow<K::Input>,
{
    let on_arrays = report.fleet.routes.iter().any(|r| r.kind == BackendKind::Array);
    let serial = if on_arrays {
        Pool::run_serial_reference(jobs.iter().map(|j| {
            let windows = j.windows.iter().map(|w| -> &K::Input { w.borrow() });
            (&kernels[j.pick], windows)
        }))?
        .0
    } else {
        Vec::new()
    };
    let mut good = vec![false; jobs.len()];
    let mut seen = vec![0u32; jobs.len()];
    for route in &report.fleet.routes {
        let (Some(job), Some(got)) = (jobs.get(route.job), outputs.get(route.job)) else {
            continue;
        };
        seen[route.job] += 1;
        let kernel = &kernels[job.pick];
        let ok = match route.kind {
            BackendKind::Array => serial.get(route.job) == Some(got),
            BackendKind::FftAccel => {
                let mut all = got.len() == job.windows.len();
                for (w, out) in job.windows.iter().zip(got) {
                    let fresh = kernel.execute_fft(&FftAccelerator::new(), w.borrow())?.0;
                    all &= fresh == *out;
                }
                all
            }
            BackendKind::Cpu => {
                let mut all = got.len() == job.windows.len();
                for (w, out) in job.windows.iter().zip(got) {
                    let fresh =
                        kernel.execute_cpu(&mut Cpu::new(), &mut Sram::paper(), w.borrow())?.0;
                    all &= fresh == *out;
                }
                all
            }
        };
        good[route.job] = ok;
    }
    Ok((0..jobs.len()).filter(|&j| !good[j] || seen[j] != 1).count() as u64)
}

/// Host seconds [`probe`] takes on the reference host.  Host-time metrics
/// are reported as on that host: `secs * PROBE_REF_S / probe_secs`.
pub const PROBE_REF_S: f64 = 0.01;

/// Host seconds of one fixed reference computation: a small register
/// machine interpreting a seeded 256-instruction program `PROBE_ROUNDS`
/// times.  Its code is the benchmark's own, so it never changes with the
/// repository; timing it right before and after a measured interval says
/// how fast the host ran interpreter-shaped code during it.  A shared host
/// drifts by up to 2x within a minute, and the probe drifts with it.
pub fn probe() -> f64 {
    const PROBE_ROUNDS: usize = 20_000;
    let mut rng = workloads::SplitMix64::new(0x5eed);
    let code: Vec<u32> = std::hint::black_box((0..256).map(|_| rng.next_u64() as u32).collect());
    let mut regs = [1i32; 64];
    let mut mem = vec![3i32; 4096];
    let start = Instant::now();
    for round in 0..PROBE_ROUNDS {
        for &op in &code {
            let a = (op >> 3) as usize & 63;
            let b = (op >> 9) as usize & 63;
            let c = (op >> 15) as usize & 63;
            match op & 7 {
                0 => regs[a] = regs[b].wrapping_add(regs[c]),
                1 => regs[a] = regs[b].wrapping_mul(regs[c]) >> 15,
                2 => regs[a] = mem[(regs[b] as usize ^ round) & 4095],
                3 => mem[(regs[b] as usize).wrapping_add(c) & 4095] = regs[a],
                4 => regs[a] = regs[b].max(regs[c]),
                5 => regs[a] = regs[b] ^ (op as i32 >> 12),
                6 => regs[a] = regs[b].wrapping_sub(regs[c]),
                _ => regs[a] = (regs[b] as u32).rotate_left(c as u32) as i32,
            }
        }
    }
    std::hint::black_box((&regs, &mem));
    start.elapsed().as_secs_f64()
}

/// Host seconds `f` takes, as measured and as on the reference host
/// (scaled by the mean of a [`probe`] right before and right after it).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = probe();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let probe_secs = (before + probe()) / 2.0;
    (out, secs, secs * PROBE_REF_S / probe_secs)
}

/// Host time of serving one stream once.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Whether the stream ran through the [`Timed`] decorators.
    pub traced: bool,
    /// Windows the stream served.
    pub windows: u64,
    /// Host seconds of fleet build plus `run_batch`.
    pub secs: f64,
    /// The same, as on the reference host (see [`PROBE_REF_S`]).
    pub ref_secs: f64,
}

impl Sample {
    /// Served windows per host second, as measured.
    pub fn raw_rate(&self) -> f64 {
        self.windows as f64 / self.secs
    }

    /// Served windows per host second on the reference host.
    pub fn rate(&self) -> f64 {
        self.windows as f64 / self.ref_secs
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Passes over every stream of the workload.
    pub passes: usize,
    /// One sample per stream served.
    pub samples: Vec<Sample>,
    /// The modelled answers (identical across passes unless `errors` says
    /// otherwise).
    pub model: Option<Model>,
    /// Launches served from the arrays' warm-window replay caches.
    pub replayed: u64,
    /// Array launches (cold plus warm) across array backends.
    pub array_launches: u64,
    /// Per-layer totals of every traced pass.
    pub layers: Vec<Totals>,
    /// Jobs submitted across passes.
    pub attempted: u64,
    /// Jobs that errored or diverged across passes.
    pub failed: u64,
    /// What went wrong, if anything.
    pub errors: Vec<String>,
}

/// Serves every stream of `w`, pass after pass, until `seconds` of pass
/// time have elapsed and at least `min_passes` passes ran (of each kind,
/// with `trace`).  With `trace`, passes alternate untraced and traced.
/// The first pass's outputs are checked by [`oracle`]; every later pass
/// must reproduce them and its [`Model`] exactly.  `between` runs after
/// every pass, outside the timed region.
pub fn measure<K, W>(
    w: &Workload<K, W>,
    seconds: f64,
    min_passes: usize,
    trace: bool,
    mut between: impl FnMut(),
) -> Measured
where
    K: Kernel,
    K::Output: PartialEq,
    W: Borrow<K::Input>,
{
    let decorated: Vec<Timed<&K>> = w.kernels.iter().map(Timed).collect();
    let jobs = w.jobs();
    let kinds = if trace { 2 } else { 1 };
    let mut m = Measured::default();
    let mut first: Option<Vec<Vec<Vec<K::Output>>>> = None;
    let mut spent = 0.0;
    for i in 0.. {
        if spent >= seconds && i >= kinds * min_passes && i % kinds == 0 {
            break;
        }
        let traced = trace && i % 2 == 1;
        trace::take();
        let mut served = Vec::with_capacity(w.streams.len());
        for stream in &w.streams {
            let (result, secs, ref_secs) = timed(|| {
                if traced {
                    serve(&w.fleet, &decorated, stream, true)
                } else {
                    serve(&w.fleet, &w.kernels, stream, false)
                }
            });
            spent += secs;
            let windows = stream.iter().map(|j| j.windows.len() as u64).sum();
            m.samples.push(Sample { traced, windows, secs, ref_secs });
            served.push(result);
        }
        m.attempted += jobs;
        let (outputs, reports): (Vec<_>, Vec<_>) =
            match served.into_iter().collect::<Result<Vec<_>>>() {
                Ok(done) => done.into_iter().unzip(),
                Err(e) => {
                    m.failed += jobs;
                    m.errors.push(format!("pass {i}: serving failed: {e}"));
                    break;
                }
            };
        m.passes += 1;
        if traced {
            m.layers.push(trace::take());
        }
        let model = Model::of(&reports);
        match (&first, &m.model) {
            (Some(expected), Some(model0)) => {
                let diverged = expected
                    .iter()
                    .flatten()
                    .zip(outputs.iter().flatten())
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                m.failed += diverged;
                if diverged > 0 {
                    m.errors.push(format!("pass {i}: {diverged} job(s) differ from pass 0"));
                }
                if model != *model0 {
                    m.errors.push(format!(
                        "pass {i}: modelled values drifted from pass 0: {model:?} vs {model0:?}"
                    ));
                }
            }
            _ => {
                for ((stream, out), report) in w.streams.iter().zip(&outputs).zip(&reports) {
                    match oracle(&w.kernels, stream, out, report) {
                        Ok(0) => {}
                        Ok(bad) => {
                            m.failed += bad;
                            m.errors
                                .push(format!("pass {i}: {bad} job(s) diverged from the oracle"));
                        }
                        Err(e) => {
                            m.failed += stream.len() as u64;
                            m.errors.push(format!("oracle failed: {e}"));
                        }
                    }
                }
                let arrays = reports
                    .iter()
                    .flat_map(|r| &r.fleet.arrays)
                    .filter(|a| a.kind == BackendKind::Array);
                m.array_launches = arrays.map(|a| a.report.launches()).sum();
                m.replayed = reports.iter().map(|r| r.fleet.replayed()).sum();
                first = Some(outputs);
                m.model = Some(model);
            }
        }
        if !m.errors.is_empty() {
            break;
        }
        between();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{burst, hetero, tenants, SplitMix64};

    /// The first `jobs` jobs of a workload's first stream.
    fn short<K, W>(mut w: Workload<K, W>, jobs: usize) -> Workload<K, W> {
        w.streams.truncate(1);
        w.streams[0].truncate(jobs);
        w
    }

    /// Serves `w` untraced and traced, checks that both agree bit for bit
    /// and pass the oracle, and returns the traced pass's layer totals.
    fn transparent<K, W>(w: &Workload<K, W>) -> Totals
    where
        K: Kernel,
        K::Output: PartialEq + std::fmt::Debug,
        W: Borrow<K::Input>,
    {
        let timed: Vec<Timed<&K>> = w.kernels.iter().map(Timed).collect();
        let jobs = &w.streams[0];
        let (plain, plain_report) = serve(&w.fleet, &w.kernels, jobs, false).expect("serves");
        trace::take();
        let (traced, traced_report) = serve(&w.fleet, &timed, jobs, true).expect("serves");
        let totals = trace::take();
        assert_eq!(plain, traced, "tracing must not change any output");
        assert_eq!(plain_report, traced_report, "tracing must not change any report");
        let failed = oracle(&w.kernels, jobs, &plain, &plain_report).expect("oracle runs");
        assert_eq!(failed, 0, "every output matches its route's oracle");
        assert_eq!(totals.calls(Layer::Serve), 1);
        totals
    }

    #[test]
    fn tracing_is_transparent_on_tenants() {
        let t = transparent(&short(tenants(22), 60));
        for layer in [Layer::Select, Layer::Place, Layer::CacheKey, Layer::ArrayExec] {
            assert!(t.calls(layer) > 0, "{layer:?} is traced");
        }
        assert!(t.calls(Layer::Evict) > 0, "ARC hooks are traced");
    }

    #[test]
    fn tracing_is_transparent_on_burst() {
        let t = transparent(&short(burst(22), 400));
        assert_eq!(t.calls(Layer::ArrayExec), 400, "one execute per window");
        assert!(t.calls(Layer::Program) > 0);
    }

    #[test]
    fn tracing_is_transparent_on_hetero() {
        let t = transparent(&short(hetero(22), 60));
        assert!(t.calls(Layer::FftExec) > 0, "the FFT engine serves jobs");
        assert!(t.calls(Layer::CpuExec) > 0, "the Cortex-M4 serves jobs");
    }

    #[test]
    fn measure_alternates_and_reproduces_every_pass() {
        let mut idle = 0;
        let m = measure(&short(hetero(23), 40), 0.0, 2, true, || idle += 1);
        assert!(m.errors.is_empty(), "{:?}", m.errors);
        assert_eq!(m.failed, 0);
        assert_eq!((m.passes, idle), (4, 4));
        assert_eq!(m.samples.iter().filter(|s| s.traced).count(), 2);
        assert_eq!(m.layers.len(), 2);
        assert_eq!(m.attempted, 4 * 40);
    }

    #[test]
    fn streams_have_an_exact_mix_and_a_seeded_order() {
        let mut rng = SplitMix64::new(7);
        let dealt = rng.deal(300, &[0, 1, 2]);
        assert!((0..3).all(|k| dealt.iter().filter(|&&d| d == k).count() == 100));
        assert_ne!(dealt, SplitMix64::new(8).deal(300, &[0, 1, 2]));
        let stamps = rng.arrivals(100, 50.0);
        assert!(stamps.windows(2).all(|p| p[0] <= p[1]));
        assert!(stamps.iter().enumerate().all(|(i, &t)| t / 50 == i as u64));
        assert_eq!(tenants(22).windows(), tenants(22).windows());
    }
}
