//! Online serving sweep: a multi-tenant Poisson arrival stream served by
//! the admission queue under every scheduling policy, with and without
//! work stealing.
//!
//! The workload is a seeded Poisson process: a *chatty* batch tenant
//! submits long multi-window FIR jobs with no deadlines while three
//! *interactive* tenants submit short jobs that must finish within a
//! fixed slack of their arrival.  Every job is arrival-stamped, admitted
//! by the [`Server`], dispatched by the scheduling policy under test and
//! placed by the pool's cost-aware strategy; the table reports p50/p95/p99
//! end-to-end latency, deadline misses, steals, measured fleet energy and
//! the fleet occupancy for seven configurations: FIFO with and without
//! stealing, earliest-deadline-first, weighted-fair with and without
//! stealing, weighted-fair + stealing placed by
//! [`Objective::EnergyUnderDeadline`] (minimise joules among the backends
//! whose projected completion still meets the deadline), and weighted-fair
//! with stealing and the whole-queue lookahead planner (affinity batching,
//! pipelined prefetch, needed-soon eviction shielding) over ARC adaptive
//! eviction.
//!
//! The point the sweep makes: *who* is dispatched next decides whether a
//! deadline holds, and *where* decides whether the tail waits.  FIFO lets
//! the chatty tenant's backlog starve the interactive jobs queued behind
//! it; weighted fair queueing caps the chatty tenant at its fair share so
//! interactive jobs keep their deadlines, and the stealing pass re-routes
//! queued jobs away from drifted-ahead arrays, which is what pulls the
//! p99 tail in.  Outputs are bit-identical to serial single-session
//! execution in every configuration — scheduling moves *when and where*,
//! never *what*.
//!
//! Run with `--smoke` for the fast CI configuration and `--seed N` to
//! re-seed the arrival process.  In every mode the binary *fails fast*
//! (non-zero exit) if any configuration's outputs diverge from the serial
//! reference, if the headline 4-array × 6-kernel cell does not show
//! weighted-fair + stealing meeting strictly more deadlines *and* a
//! strictly lower p99 than FIFO without stealing, if lookahead planning +
//! ARC does not show a p99 no worse *and* strictly fewer cold reloads
//! (with at least as many hidden) than plain weighted-fair + stealing, or
//! if the energy-under-deadline objective misses more deadlines than the
//! same policy placed on cycles in any cell.
//!
//! `--windows K` multiplies every job's window count by `K` — a host-side
//! soak knob.  The arrival gap and deadline slack scale with `K`, so the
//! soak serves the same relative workload and every comparison gate runs
//! at every `K` (they used to be skipped for `K != 1`).  Host wall-clock
//! per served window is reported next to the modelled numbers.

use vwr2a_bench::{poisson_arrivals, time_host, SplitMix64};
use vwr2a_core::geometry::Geometry;
use vwr2a_dsp::fir::design_lowpass;
use vwr2a_dsp::fixed::Q15;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::pool::Pool;
use vwr2a_runtime::testing::constrained_sessions;
use vwr2a_runtime::{
    ArcPolicy, CostAware, EarliestDeadlineFirst, Fifo, Kernel, Objective, SchedPolicy, ServeJob,
    ServeReport, Server, WeightedFair,
};

const N: usize = 256;
/// The chatty batch tenant; tenants 1..=3 are interactive.
const CHATTY: u32 = 0;

fn fir(cutoff: f64) -> FirKernel {
    let taps: Vec<i32> = design_lowpass(11, cutoff)
        .expect("valid filter design")
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    FirKernel::new(&taps, N).expect("valid kernel")
}

fn kernels(mix: usize) -> Vec<FirKernel> {
    (0..mix).map(|k| fir(0.05 + 0.04 * k as f64)).collect()
}

fn window(i: usize) -> Vec<i32> {
    (0..N)
        .map(|s| (5500.0 * ((s + 31 * i) as f64 * 0.117).sin()) as i32)
        .collect()
}

/// One synthesised job of the arrival stream (policy-independent, so all
/// five configurations serve the identical workload).
struct JobSpec {
    pick: usize,
    windows: Vec<Vec<i32>>,
    tenant: u32,
    arrival: u64,
    priority: u8,
    deadline: Option<u64>,
}

/// Synthesises the seeded Poisson workload: ~40 % of arrivals belong to
/// the chatty tenant (long, deadline-free), the rest to the interactive
/// tenants (short, deadlined at `arrival + slack`).  `wscale` multiplies
/// every job's window count (the `--windows` soak knob).
fn workload(
    seed: u64,
    jobs: usize,
    mix: usize,
    mean_gap: f64,
    slack: u64,
    wscale: usize,
) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let arrivals = poisson_arrivals(&mut rng, jobs, mean_gap);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(j, arrival)| {
            let chatty = rng.next_below(5) < 2;
            let (tenant, windows, priority, deadline) = if chatty {
                let count = 4 + rng.next_below(4) as usize;
                (CHATTY, count, 0, None)
            } else {
                (1 + rng.next_below(3) as u32, 1, 1, Some(arrival + slack))
            };
            JobSpec {
                pick: rng.next_below(mix as u64) as usize,
                windows: (0..windows * wscale).map(|w| window(j + 13 * w)).collect(),
                tenant,
                arrival,
                priority,
                deadline,
            }
        })
        .collect()
}

/// Serves the workload under one policy/stealing configuration and checks
/// the outputs against the serial reference.  With `plan` the server runs
/// the whole-queue lookahead planner (affinity batching, pipelined
/// prefetch, needed-soon eviction shielding) and every array session
/// evicts by the adaptive [`ArcPolicy`] instead of plain LRU.
#[allow(clippy::too_many_arguments)]
fn serve_run(
    arrays: usize,
    policy: impl SchedPolicy + 'static,
    stealing: bool,
    objective: Objective,
    plan: bool,
    specs: &[JobSpec],
    kernels: &[FirKernel],
    serial: &[Vec<Vec<i32>>],
) -> ServeReport {
    let program_words = kernels[0]
        .program(&Geometry::paper())
        .expect("program builds")
        .config_words();
    // Two resident programs per array: the six-program working set fits
    // the fleet, not a single array, so placement and prefetch matter.
    let mut sessions = constrained_sessions(arrays, 2 * program_words);
    if plan {
        for session in &mut sessions {
            session.set_eviction_policy(ArcPolicy::new());
        }
    }
    let pool = Pool::with_sessions(sessions)
        .expect("constrained sessions share one geometry")
        .with_placement(CostAware::with_objective(objective));
    let mut server = Server::new(pool)
        .with_policy(policy)
        .with_stealing(stealing)
        .with_lookahead(plan);
    let (outputs, report) = server
        .run_batch(specs.iter().map(|s| ServeJob {
            kernel: &kernels[s.pick],
            windows: s.windows.iter().map(Vec::as_slice),
            tenant: s.tenant,
            arrival_cycle: s.arrival,
            priority: s.priority,
            deadline_cycle: s.deadline,
        }))
        .expect("serving runs");
    assert_eq!(
        &outputs, serial,
        "served outputs must be bit-identical to the serial reference"
    );
    report
}

/// One sweep cell: the six configurations on the same arrival stream.
struct Cell {
    arrays: usize,
    mix: usize,
    /// Windows pushed through the admission queue across the six
    /// configurations (the host-speed denominator).
    windows_served: u64,
    fifo: ServeReport,
    fifo_steal: ServeReport,
    edf_steal: ServeReport,
    wf: ServeReport,
    wf_steal: ServeReport,
    /// Weighted-fair + stealing again, but placed by
    /// [`Objective::EnergyUnderDeadline`]: minimise joules among the
    /// backends that still meet the job's deadline.
    wf_steal_eud: ServeReport,
    /// Weighted-fair + stealing with the whole-queue lookahead planner
    /// and ARC adaptive eviction — the PR 10 configuration the headline
    /// gate compares against plain weighted-fair + stealing.
    wf_steal_plan: ServeReport,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    arrays: usize,
    mix: usize,
    jobs: usize,
    seed: u64,
    mean_gap: f64,
    slack: u64,
    wscale: usize,
) -> Cell {
    let kernels = kernels(mix);
    let specs = workload(seed, jobs, mix, mean_gap, slack, wscale);
    let windows_served = 7 * specs.iter().map(|s| s.windows.len() as u64).sum::<u64>();
    let (serial, _) = Pool::run_serial_reference(
        specs
            .iter()
            .map(|s| (&kernels[s.pick], s.windows.iter().map(Vec::as_slice))),
    )
    .expect("serial reference runs");
    let run = |policy: &str, stealing: bool, objective: Objective, plan: bool| match policy {
        "fifo" => serve_run(
            arrays, Fifo, stealing, objective, plan, &specs, &kernels, &serial,
        ),
        "edf" => serve_run(
            arrays,
            EarliestDeadlineFirst,
            stealing,
            objective,
            plan,
            &specs,
            &kernels,
            &serial,
        ),
        _ => serve_run(
            arrays,
            WeightedFair::new(),
            stealing,
            objective,
            plan,
            &specs,
            &kernels,
            &serial,
        ),
    };
    Cell {
        arrays,
        mix,
        windows_served,
        fifo: run("fifo", false, Objective::Cycles, false),
        fifo_steal: run("fifo", true, Objective::Cycles, false),
        edf_steal: run("edf", true, Objective::Cycles, false),
        wf: run("wf", false, Objective::Cycles, false),
        wf_steal: run("wf", true, Objective::Cycles, false),
        wf_steal_eud: run("wf", true, Objective::EnergyUnderDeadline, false),
        wf_steal_plan: run("wf", true, Objective::Cycles, true),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(22);
    let wscale: usize = args
        .iter()
        .position(|a| a == "--windows")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .expect("--windows takes a window-count multiplier")
        })
        .unwrap_or(1);

    // The headline cell: 4 arrays x 6 kernels under the seeded Poisson
    // stream.  Smoke mode runs only this cell (it is what CI gates on);
    // the full sweep adds smaller fleets for the table.  The arrival gap
    // and the deadline slack scale with the window multiplier, so a
    // `--windows K` soak serves the same *relative* workload — K-times
    // longer jobs arriving K-times slower with K-times the slack — and
    // the policy-comparison gates below stay valid at every K instead of
    // being skipped.
    let (jobs, mean_gap, slack) = (32, 200.0 * wscale as f64, 9_000 * wscale as u64);
    let (cells, host_us): (Vec<Cell>, f64) = time_host(|| {
        if smoke {
            vec![run_cell(4, 6, jobs, seed, mean_gap, slack, wscale)]
        } else {
            vec![
                run_cell(2, 4, jobs, seed, mean_gap, slack, wscale),
                run_cell(2, 6, jobs, seed, mean_gap, slack, wscale),
                run_cell(4, 6, jobs, seed, mean_gap, slack, wscale),
            ]
        }
    });

    println!(
        "Serving sweep: {jobs} Poisson-arrival jobs (seed {seed}, mean gap {mean_gap} cycles), \
         1 chatty + 3 interactive tenants,"
    );
    println!(
        "interactive deadline = arrival + {slack} cycles, 2-program configuration memories per \
         array"
    );
    println!();
    println!(
        "  arrays  mix  policy          steal      p50      p95      p99  met/ddl  steals  \
         energy"
    );
    println!(
        "  ------  ---  --------------  -----  -------  -------  -------  -------  ------  \
         ------"
    );
    for cell in &cells {
        for (name, stealing, report) in [
            ("fifo", false, &cell.fifo),
            ("fifo", true, &cell.fifo_steal),
            ("edf", true, &cell.edf_steal),
            ("weighted-fair", false, &cell.wf),
            ("weighted-fair", true, &cell.wf_steal),
            ("wf energy-ddl", true, &cell.wf_steal_eud),
            ("wf lookahead", true, &cell.wf_steal_plan),
        ] {
            let deadlined = report
                .latencies
                .iter()
                .filter(|l| l.tenant != CHATTY)
                .count() as u64;
            println!(
                "  {:>6}  {:>3}  {:<14}  {:<5}  {:>7}  {:>7}  {:>7}  {:>4}/{:<2}  {:>6}  {:>4.2} uJ",
                cell.arrays,
                cell.mix,
                name,
                if stealing { "yes" } else { "no" },
                report.p50(),
                report.p95(),
                report.p99(),
                deadlined - report.deadline_misses(),
                deadlined,
                report.steals,
                report.fleet.energy_uj(),
            );
        }
    }

    println!();
    println!("Weighted-fair + stealing vs FIFO without stealing:");
    for cell in &cells {
        let (fifo, wf) = (&cell.fifo, &cell.wf_steal);
        let p99_delta = 100.0 * (1.0 - wf.p99() as f64 / fifo.p99().max(1) as f64);
        println!(
            "  {} array(s), {}-kernel mix: misses {} -> {}, p99 {} -> {} ({p99_delta:+.1}%), \
             {} steal(s)",
            cell.arrays,
            cell.mix,
            fifo.deadline_misses(),
            wf.deadline_misses(),
            fifo.p99(),
            wf.p99(),
            wf.steals,
        );
    }
    println!();
    println!("Lookahead planner + ARC eviction vs weighted-fair + stealing:");
    for cell in &cells {
        let (wf, plan) = (&cell.wf_steal, &cell.wf_steal_plan);
        let p99_delta = 100.0 * (1.0 - plan.p99() as f64 / wf.p99().max(1) as f64);
        println!(
            "  {} array(s), {}-kernel mix: p99 {} -> {} ({p99_delta:+.1}%), cold reloads \
             {} -> {}, hidden {} -> {}",
            cell.arrays,
            cell.mix,
            wf.p99(),
            plan.p99(),
            wf.fleet.cold_reloads(),
            plan.fleet.cold_reloads(),
            wf.fleet.hidden_reloads(),
            plan.fleet.hidden_reloads(),
        );
        println!("    plan: {}", plan.plan);
    }
    println!();
    println!("Outputs are bit-identical to serial single-session execution in every cell;");
    println!("the policy decides who runs next, stealing where — never what.");

    let windows_served: u64 = cells.iter().map(|c| c.windows_served).sum();
    println!();
    println!(
        "Host time: {:.0} us for {windows_served} served windows ({:.1} us/window, \
         window scale x{wscale}).",
        host_us,
        host_us / windows_served as f64,
    );
    if wscale == 1 {
        println!(
            "For a million-window soak (not run in CI), try: serve --windows 2500 \
             (~{:.1}M served windows)",
            2_500.0 * windows_served as f64 / 1e6,
        );
    }

    // Fail-fast gates: the headline 4x6 cell must show weighted-fair +
    // stealing strictly ahead of FIFO-without-stealing on both deadline
    // hits and the p99 tail, and the lookahead planner + ARC eviction no
    // worse than plain weighted-fair + stealing on the p99 tail and
    // strictly ahead on the reload picture.  (Output equality is
    // asserted inline above.)  The workload's time constants scale with
    // `--windows K`, so these comparisons hold on soak runs too — no
    // skipping.
    let mut failures = Vec::new();
    for cell in &cells {
        if cell.arrays == 4 && cell.mix == 6 {
            if cell.wf_steal.deadline_misses() >= cell.fifo.deadline_misses() {
                failures.push(format!(
                    "4x6 cell: weighted-fair+steal misses {} not strictly below fifo {}",
                    cell.wf_steal.deadline_misses(),
                    cell.fifo.deadline_misses()
                ));
            }
            if cell.wf_steal.p99() >= cell.fifo.p99() {
                failures.push(format!(
                    "4x6 cell: weighted-fair+steal p99 {} not strictly below fifo {}",
                    cell.wf_steal.p99(),
                    cell.fifo.p99()
                ));
            }
            // PR 10 headline: the lookahead planner + ARC eviction must
            // match the same policy/stealing configuration without it on
            // the tail AND beat it on the reload picture (fewer cold
            // reloads on the critical path, at least as many reloads
            // hidden inside compute backlogs).  The tail gate is no-worse:
            // dispatch places every job on a backend with room, where its
            // prefetch fired, so plain weighted-fair + stealing already
            // reaches the planner's p99 on this cell.
            let (wf, plan) = (&cell.wf_steal, &cell.wf_steal_plan);
            if plan.p99() > wf.p99() {
                failures.push(format!(
                    "4x6 cell: lookahead p99 {} worse than weighted-fair+steal {} (scale x{wscale})",
                    plan.p99(),
                    wf.p99()
                ));
            }
            if plan.fleet.cold_reloads() >= wf.fleet.cold_reloads() {
                failures.push(format!(
                    "4x6 cell: lookahead cold reloads {} not strictly below weighted-fair+steal {}",
                    plan.fleet.cold_reloads(),
                    wf.fleet.cold_reloads()
                ));
            }
            if plan.fleet.hidden_reloads() < wf.fleet.hidden_reloads() {
                failures.push(format!(
                    "4x6 cell: lookahead hid {} reload(s), weighted-fair+steal hid {}",
                    plan.fleet.hidden_reloads(),
                    wf.fleet.hidden_reloads()
                ));
            }
        }
        // Everywhere: stealing must not meaningfully hurt the FIFO tail.
        // Steal decisions use the online cost estimator, so a re-route can
        // land a hair off the oracle choice — allow 2 % of noise, no more.
        if cell.fifo_steal.p99() as f64 > 1.02 * cell.fifo.p99() as f64 {
            failures.push(format!(
                "{}x{} cell: stealing worsened fifo p99 {} -> {}",
                cell.arrays,
                cell.mix,
                cell.fifo.p99(),
                cell.fifo_steal.p99()
            ));
        }
        // Everywhere: switching the placement objective to
        // energy-under-deadline must not cost deadline hits — the
        // objective minimises joules only among backends whose projected
        // completion still makes the deadline, so misses may not regress
        // versus the same policy placed on cycles.
        if cell.wf_steal_eud.deadline_misses() > cell.wf_steal.deadline_misses() {
            failures.push(format!(
                "{}x{} cell: energy-under-deadline misses {} regressed vs weighted-fair+steal {}",
                cell.arrays,
                cell.mix,
                cell.wf_steal_eud.deadline_misses(),
                cell.wf_steal.deadline_misses()
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
