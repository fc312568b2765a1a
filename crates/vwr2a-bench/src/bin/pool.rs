//! Multi-accelerator pool sweep: array count × kernel mix × placement
//! strategy, with and without speculative configuration prefetch.
//!
//! The workload fans a fixed job list — `(kernel, windows)` pairs drawn
//! from a mix of distinct FIR programs in an irregular order — across a
//! `Pool` of `Session`s whose configuration memories hold only two
//! programs each.  For every combination the table reports the fleet wall
//! clock, compute occupancy, cold reloads, prefetched reloads (and how
//! many of those were fully hidden inside compute backlogs) and
//! evictions, for all three placement strategies.
//!
//! The point the sweep makes: with more distinct programs than one array's
//! configuration memory can hold, *where* a job runs decides whether its
//! launch is warm — and *when* its reload streams decides whether anyone
//! waits for it.  `CostAware` weighs each reload against the candidate
//! arrays' backlogs and prefetches it off the launch's critical path, so
//! no launch ever goes cold; `ResidencyAware` (PR 4's scheduler) places
//! warm but reloads on the critical path; `RoundRobin` keeps re-streaming
//! configuration words, which sits on each array's critical path and
//! drags the fleet occupancy down.
//!
//! A second table scales the *serving* layer to large fleets: a
//! near-simultaneous burst of single-window jobs served by weighted-fair +
//! stealing across 100–1000 arrays (100 in smoke mode), with and without
//! the whole-queue lookahead planner + ARC adaptive eviction.  The
//! warm-window replay cache is what makes a thousand simulated arrays
//! affordable on the host — repeated `(program, window)` launches replay
//! instead of re-interpreting (see `BENCH_replay.json`).  Each large-fleet
//! cell also prints one `Host time: <arrays> arrays, <config>: <N> us/job`
//! line: host time of the server run alone (execution included) per job,
//! which shows how per-job dispatch cost grows with fleet width.
//!
//! Run with `--smoke` for the fast CI configuration.  In every mode the
//! binary *fails fast* (non-zero exit) if `CostAware` ever pays more cold
//! reloads than `RoundRobin`, if the headline 4-array × 6-kernel cell
//! (non-smoke) does not show `CostAware` strictly beating `ResidencyAware`
//! on both cold reloads and fleet wall cycles, or if the lookahead planner
//! ever pays more cold reloads (or hides fewer) than the plain serving
//! configuration at any fleet scale.

use std::time::{Duration, Instant};

use vwr2a_core::geometry::Geometry;
use vwr2a_dsp::fir::design_lowpass;
use vwr2a_dsp::fixed::Q15;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::pool::{CostAware, Placement, Pool, ResidencyAware, RoundRobin};
use vwr2a_runtime::testing::constrained_sessions;
use vwr2a_runtime::{ArcPolicy, FleetReport, Kernel, ServeJob, ServeReport, Server, WeightedFair};

const N: usize = 256;

fn fir(cutoff: f64) -> FirKernel {
    let taps: Vec<i32> = design_lowpass(11, cutoff)
        .expect("valid filter design")
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    FirKernel::new(&taps, N).expect("valid kernel")
}

/// `mix` distinct FIR programs (different cutoffs ⇒ different baked taps).
fn kernels(mix: usize) -> Vec<FirKernel> {
    (0..mix).map(|k| fir(0.05 + 0.04 * k as f64)).collect()
}

fn window(i: usize) -> Vec<i32> {
    (0..N)
        .map(|s| (5500.0 * ((s + 29 * i) as f64 * 0.123).sin()) as i32)
        .collect()
}

/// Irregular kernel sequence, so round-robin cannot accidentally split the
/// working set cleanly across the arrays.
fn picks(jobs: usize, mix: usize) -> Vec<usize> {
    (0..jobs).map(|j| (j * 5 + j / mix) % mix).collect()
}

fn run_sweep(
    arrays: usize,
    mix: usize,
    jobs: usize,
    windows_per_job: usize,
    placement: impl Placement + 'static,
) -> FleetReport {
    let kernels = kernels(mix);
    // Each array holds two FIR programs — a fleet-wide working set can be
    // resident, a single array's cannot (for mix > 2).
    let program_words = kernels[0]
        .program(&Geometry::paper())
        .expect("program builds")
        .config_words();
    let mut pool = Pool::with_sessions(constrained_sessions(arrays, 2 * program_words))
        .expect("constrained sessions share one geometry")
        .with_placement(placement);
    let job_list: Vec<(usize, Vec<Vec<i32>>)> = picks(jobs, mix)
        .into_iter()
        .enumerate()
        .map(|(j, pick)| {
            (
                pick,
                (0..windows_per_job).map(|w| window(j + 7 * w)).collect(),
            )
        })
        .collect();
    let (_, fleet) = pool
        .run_batch(
            job_list
                .iter()
                .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
        )
        .expect("pool fan-out runs");
    fleet
}

/// One sweep cell: the three strategies on the same job list.
struct Cell {
    arrays: usize,
    mix: usize,
    cost_aware: FleetReport,
    residency: FleetReport,
    round_robin: FleetReport,
}

/// One large-fleet cell: weighted-fair + stealing, with and without the
/// whole-queue lookahead planner + ARC eviction, on the same burst.
struct FleetCell {
    arrays: usize,
    jobs: usize,
    baseline: ServeReport,
    planned: ServeReport,
    /// Host time of the baseline and the lookahead server run (the serve
    /// call alone: no fleet build, no oracle).
    host: [Duration; 2],
}

/// Serves one `jobs`-deep burst (single-window FIR jobs over a 6-program
/// mix, near-simultaneous arrivals) across `arrays` two-program arrays,
/// with and without lookahead planning.  The warm-window replay cache is
/// what keeps a thousand simulated arrays affordable on the host — every
/// repeated `(program, window)` launch replays instead of re-interpreting.
fn large_fleet(arrays: usize, jobs: usize) -> FleetCell {
    let mix = 6;
    let kernels = kernels(mix);
    let program_words = kernels[0]
        .program(&Geometry::paper())
        .expect("program builds")
        .config_words();
    let job_list: Vec<(usize, Vec<i32>, u32, u64)> = picks(jobs, mix)
        .into_iter()
        .enumerate()
        .map(|(j, pick)| (pick, window(j), (j % 4) as u32, (j as u64 % 97) * 53))
        .collect();
    let (serial, _) = Pool::run_serial_reference(
        job_list
            .iter()
            .map(|(pick, w, _, _)| (&kernels[*pick], std::iter::once(w.as_slice()))),
    )
    .expect("serial reference runs");
    let run = |plan: bool| -> (ServeReport, Duration) {
        let mut sessions = constrained_sessions(arrays, 2 * program_words);
        if plan {
            for session in &mut sessions {
                session.set_eviction_policy(ArcPolicy::new());
            }
        }
        let pool = Pool::with_sessions(sessions)
            .expect("constrained sessions share one geometry")
            .with_placement(CostAware::default());
        let mut server = Server::new(pool)
            .with_policy(WeightedFair::new())
            .with_stealing(true)
            .with_lookahead(plan);
        let start = Instant::now();
        let (outputs, report) = server
            .run_batch(job_list.iter().map(|(pick, w, tenant, arrival)| {
                ServeJob::new(
                    &kernels[*pick],
                    std::iter::once(w.as_slice()),
                    *tenant,
                    *arrival,
                )
            }))
            .expect("large-fleet burst serves");
        let host = start.elapsed();
        assert_eq!(
            outputs, serial,
            "served outputs must be bit-identical to the serial reference"
        );
        (report, host)
    };
    let (baseline, baseline_host) = run(false);
    let (planned, planned_host) = run(true);
    FleetCell {
        arrays,
        jobs,
        baseline,
        planned,
        host: [baseline_host, planned_host],
    }
}

fn main() {
    let host = Instant::now();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (array_counts, mixes, jobs, windows_per_job): (&[usize], &[usize], usize, usize) = if smoke
    {
        (&[2], &[4], 8, 2)
    } else {
        (&[1, 2, 4], &[2, 4, 6], 24, 4)
    };

    println!(
        "Fleet sweep: {jobs} jobs x {windows_per_job} {N}-sample FIR windows, 2-program \
         configuration memories per array"
    );
    println!();
    println!(
        "  arrays  mix  placement        cold  prefetch  hidden  evict  wall-cycles  occupancy"
    );
    println!(
        "  ------  ---  ---------------  ----  --------  ------  -----  -----------  ---------"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &arrays in array_counts {
        for &mix in mixes {
            let cell = Cell {
                arrays,
                mix,
                cost_aware: run_sweep(arrays, mix, jobs, windows_per_job, CostAware::default()),
                residency: run_sweep(arrays, mix, jobs, windows_per_job, ResidencyAware),
                round_robin: run_sweep(arrays, mix, jobs, windows_per_job, RoundRobin),
            };
            for (name, fleet) in [
                (CostAware::default().name(), &cell.cost_aware),
                (ResidencyAware.name(), &cell.residency),
                (RoundRobin.name(), &cell.round_robin),
            ] {
                println!(
                    "  {:>6}  {:>3}  {:<15}  {:>4}  {:>8}  {:>6}  {:>5}  {:>11}  {:>8.1}%",
                    arrays,
                    mix,
                    name,
                    fleet.cold_reloads(),
                    fleet.prefetched(),
                    fleet.hidden_reloads(),
                    fleet.evictions(),
                    fleet.wall_cycles(),
                    100.0 * fleet.occupancy(),
                );
            }
            cells.push(cell);
        }
    }

    println!();
    println!("Cost-aware + prefetch vs PR 4's residency-aware, cold reloads and wall cycles:");
    for cell in &cells {
        let (ca, ra) = (&cell.cost_aware, &cell.residency);
        let wall_delta = 100.0 * (1.0 - ca.wall_cycles() as f64 / ra.wall_cycles().max(1) as f64);
        let verdict = if cell.arrays == 1 && cell.mix <= 2 {
            "(single warm array: nothing left to hide)"
        } else if ca.cold_reloads() < ra.cold_reloads() && ca.wall_cycles() < ra.wall_cycles() {
            "both better, as required"
        } else if ca.cold_reloads() < ra.cold_reloads() {
            "fewer cold reloads"
        } else {
            "NO IMPROVEMENT (unexpected)"
        };
        println!(
            "  {} array(s), {}-kernel mix: cold {} -> {}, wall {} -> {} ({wall_delta:+.1}%) {verdict}",
            cell.arrays,
            cell.mix,
            ra.cold_reloads(),
            ca.cold_reloads(),
            ra.wall_cycles(),
            ca.wall_cycles(),
        );
    }
    // Large-fleet planner scaling: the serving layer's whole-queue
    // lookahead planner at 100-1000 arrays.
    let fleet_scales: &[(usize, usize)] = if smoke {
        &[(100, 200)]
    } else {
        &[(100, 200), (400, 800), (1000, 2000)]
    };
    println!();
    println!("Large-fleet planner scaling: weighted-fair + stealing burst, 6-kernel mix,");
    println!("one window per job, with and without whole-queue lookahead + ARC eviction");
    println!();
    println!(
        "  arrays  jobs   config     p99  cold  prefetch  hidden  plan-pf  runs/batched  averted  wall-cycles"
    );
    println!(
        "  ------  ----  ---------  ----  ----  --------  ------  -------  ------------  -------  -----------"
    );
    let fleet_cells: Vec<FleetCell> = fleet_scales
        .iter()
        .map(|&(arrays, jobs)| large_fleet(arrays, jobs))
        .collect();
    for cell in &fleet_cells {
        for (name, report) in [("baseline", &cell.baseline), ("lookahead", &cell.planned)] {
            println!(
                "  {:>6}  {:>4}  {:<9}  {:>4}  {:>4}  {:>8}  {:>6}  {:>7}  {:>6}/{:<5}  {:>7}  {:>11}",
                cell.arrays,
                cell.jobs,
                name,
                report.p99(),
                report.fleet.cold_reloads(),
                report.fleet.prefetched(),
                report.fleet.hidden_reloads(),
                report.plan.planned_prefetches,
                report.plan.affinity_runs,
                report.plan.batched_jobs,
                report.plan.evictions_averted,
                report.fleet.wall_cycles(),
            );
        }
    }
    // Per-job dispatch cost against fleet width: host time of each server
    // run (execution included) over its jobs.
    for cell in &fleet_cells {
        for (name, host) in ["baseline", "lookahead"].into_iter().zip(cell.host) {
            println!(
                "Host time: {} arrays, {name}: {:.0} us/job",
                cell.arrays,
                host.as_secs_f64() * 1e6 / cell.jobs as f64
            );
        }
    }

    println!();
    println!("Outputs are bit-identical to serial single-session execution in every cell;");
    println!("placement decides where, prefetch and the pipeline when, the work runs.");
    println!();
    println!(
        "Host time: {:.0} us (modelled cycles above are simulator output)",
        host.elapsed().as_secs_f64() * 1e6
    );

    // Fail-fast gates (CI runs the smoke configuration; the full sweep
    // additionally checks the headline 4-array x 6-kernel cell).
    let mut failures = Vec::new();
    for cell in &cells {
        if cell.cost_aware.cold_reloads() > cell.round_robin.cold_reloads() {
            failures.push(format!(
                "{} array(s), {}-kernel mix: cost-aware paid {} cold reloads vs round-robin {}",
                cell.arrays,
                cell.mix,
                cell.cost_aware.cold_reloads(),
                cell.round_robin.cold_reloads()
            ));
        }
        if cell.arrays == 4 && cell.mix == 6 {
            if cell.cost_aware.cold_reloads() >= cell.residency.cold_reloads() {
                failures.push(format!(
                    "4x6 cell: cost-aware cold reloads {} not strictly below residency-aware {}",
                    cell.cost_aware.cold_reloads(),
                    cell.residency.cold_reloads()
                ));
            }
            if cell.cost_aware.wall_cycles() >= cell.residency.wall_cycles() {
                failures.push(format!(
                    "4x6 cell: cost-aware wall cycles {} not strictly below residency-aware {}",
                    cell.cost_aware.wall_cycles(),
                    cell.residency.wall_cycles()
                ));
            }
        }
    }
    for cell in &fleet_cells {
        if cell.planned.fleet.cold_reloads() > cell.baseline.fleet.cold_reloads() {
            failures.push(format!(
                "{} arrays, {} jobs: lookahead cold reloads {} worse than baseline {}",
                cell.arrays,
                cell.jobs,
                cell.planned.fleet.cold_reloads(),
                cell.baseline.fleet.cold_reloads()
            ));
        }
        if cell.planned.fleet.hidden_reloads() < cell.baseline.fleet.hidden_reloads() {
            failures.push(format!(
                "{} arrays, {} jobs: lookahead hid {} reloads vs baseline {}",
                cell.arrays,
                cell.jobs,
                cell.planned.fleet.hidden_reloads(),
                cell.baseline.fleet.hidden_reloads()
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!();
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
