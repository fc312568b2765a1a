//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload tenants|burst|hetero [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every metric is printed by name with its unit and direction; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones.  The exit code is non-zero if
//! any output diverged, any pass errored or any modelled value drifted
//! between passes.

use std::borrow::Borrow;
use std::process::ExitCode;

use perfbench::trace::{Layer, Totals, LAYERS};
use perfbench::workloads::{self, Workload};
use perfbench::{measure, median, percentile, timed, Measured, Model, Sample};
use vwr2a::runtime::Kernel;

/// Set-up repetitions before the first pass and after every pass;
/// `setup_s` is the median of all of them.  Spreading them over the run
/// keeps a burst of host contention from moving the median.
const SETUP_REPS: usize = 5;
/// Fewest passes of each kind a run makes, however long they take.
const MIN_PASSES: usize = 3;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Options, String> {
    let mut opts = Options { workload: String::new(), seed: 22, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// One reported metric: name, value, unit and which direction is better.
type Metric = (&'static str, f64, &'static str, &'static str);

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Served windows per host second on the reference host, of every stream
/// served traced or not.
fn rates(m: &Measured, traced: bool) -> Vec<f64> {
    m.samples.iter().filter(|s| s.traced == traced).map(Sample::rate).collect()
}

fn end_to_end(
    setup_s: f64,
    windows: u64,
    m: &Measured,
    model: &Model,
) -> Result<Vec<Metric>, String> {
    Ok(vec![
        ("setup_s", setup_s, "s", "lower"),
        ("windows_per_s", median(&rates(m, false)), "1/s", "higher"),
        ("peak_rss_mb", peak_rss_mb()?, "MB", "lower"),
        ("model.p50_cycles", model.p50_cycles as f64, "cycles", "lower"),
        ("model.p95_cycles", model.p95_cycles as f64, "cycles", "lower"),
        ("model.wall_cycles", model.wall_cycles as f64, "cycles", "lower"),
        ("model.energy_nj_per_window", model.energy_nj as f64 / windows as f64, "nJ", "lower"),
    ])
}

/// Median over traced passes of a per-pass quantity.
fn per_pass(layers: &[Totals], f: impl Fn(&Totals) -> f64) -> f64 {
    median(&layers.iter().map(f).collect::<Vec<_>>())
}

/// Percentile, in µs, of the per-call self times of `layer` across every
/// traced pass.
fn call_us(layers: &[Totals], layer: Layer, p: f64) -> f64 {
    let mut all: Vec<u64> =
        layers.iter().flat_map(|t| t.samples[layer as usize].iter().copied()).collect();
    percentile(&mut all, p) as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(jobs: u64, deadlined: u64, m: &Measured, model: &Model) -> Vec<Metric> {
    let l = &m.layers;
    let us = |layer: Layer| per_pass(l, |t| t.ns(layer) as f64 / 1e3);
    let calls = |layer: Layer| per_pass(l, |t| t.calls(layer) as f64);
    let total_us = per_pass(l, |t| t.self_ns.iter().sum::<u64>() as f64 / 1e3);
    let overhead = 1.0 - ratio(median(&rates(m, true)), median(&rates(m, false)));
    let n = jobs as f64;
    vec![
        ("serve.run_batch_us", total_us, "us", "lower"),
        ("serve.self_us", us(Layer::Serve), "us", "lower"),
        ("serve.select_us", us(Layer::Select), "us", "lower"),
        ("serve.select_calls", calls(Layer::Select), "count", "lower"),
        ("pool.place_us", us(Layer::Place), "us", "lower"),
        ("pool.place_calls", calls(Layer::Place), "count", "lower"),
        ("pool.place_us.p50", call_us(l, Layer::Place, 50.0), "us", "lower"),
        ("pool.place_us.p99", call_us(l, Layer::Place, 99.0), "us", "lower"),
        ("kernels.program_us", us(Layer::Program), "us", "lower"),
        ("kernels.program_calls_per_job", calls(Layer::Program) / n, "calls/job", "lower"),
        ("kernels.cache_key_us", us(Layer::CacheKey), "us", "lower"),
        ("kernels.cache_key_calls_per_job", calls(Layer::CacheKey) / n, "calls/job", "lower"),
        ("core.array_exec_us", us(Layer::ArrayExec), "us", "lower"),
        ("core.array_exec_calls", calls(Layer::ArrayExec), "count", "lower"),
        ("core.array_exec_us.p50", call_us(l, Layer::ArrayExec, 50.0), "us", "lower"),
        ("core.array_exec_us.p99", call_us(l, Layer::ArrayExec, 99.0), "us", "lower"),
        (
            "core.replay_hit_ratio",
            ratio(m.replayed as f64, m.array_launches as f64),
            "ratio",
            "higher",
        ),
        ("core.array_launches", m.array_launches as f64, "count", "lower"),
        ("soc.cpu_exec_us", us(Layer::CpuExec), "us", "lower"),
        ("soc.cpu_exec_calls", calls(Layer::CpuExec), "count", "lower"),
        ("fftaccel.exec_us", us(Layer::FftExec), "us", "lower"),
        ("fftaccel.exec_calls", calls(Layer::FftExec), "count", "lower"),
        ("policy.evict_us", us(Layer::Evict), "us", "lower"),
        ("policy.evict_calls", calls(Layer::Evict), "count", "lower"),
        ("model.cold_reloads", model.cold_reloads as f64, "count", "lower"),
        ("model.hidden_reloads", model.hidden_reloads as f64, "count", "higher"),
        ("model.evictions", model.evictions as f64, "count", "lower"),
        ("model.steals", model.steals as f64, "count", "lower"),
        ("model.occupancy", model.occupancy, "ratio", "higher"),
        ("model.queue_cycles.p50", model.queue_p50_cycles as f64, "cycles", "lower"),
        (
            "model.deadline_miss_frac",
            ratio(model.deadline_misses as f64, deadlined as f64),
            "ratio",
            "lower",
        ),
        ("plan.planned_prefetches", model.planned_prefetches as f64, "count", "higher"),
        ("plan.affinity_runs", model.affinity_runs as f64, "count", "higher"),
        ("plan.evictions_averted", model.evictions_averted as f64, "count", "higher"),
        ("model.jobs.array", model.jobs_by_kind[0] as f64, "count", "lower"),
        ("model.jobs.fftaccel", model.jobs_by_kind[1] as f64, "count", "higher"),
        ("model.jobs.cpu", model.jobs_by_kind[2] as f64, "count", "higher"),
        ("trace.overhead_frac", overhead, "ratio", "lower"),
    ]
}

/// The per-layer host split of the traced passes.
fn print_layers(jobs: u64, layers: &[Totals]) {
    const ROWS: [(Layer, &str); LAYERS] = [
        (Layer::Serve, "serve (self)"),
        (Layer::Select, "serve.select"),
        (Layer::Place, "pool.place"),
        (Layer::Program, "kernels.program"),
        (Layer::CacheKey, "kernels.cache_key"),
        (Layer::ArrayExec, "core.array_exec"),
        (Layer::CpuExec, "soc.cpu_exec"),
        (Layer::FftExec, "fftaccel.exec"),
        (Layer::Evict, "policy.evict"),
    ];
    let total = per_pass(layers, |t| t.self_ns.iter().sum::<u64>() as f64 / 1e3);
    println!("per-layer host split (median traced pass, self time):");
    println!("  {:<18} {:>12} {:>8} {:>10} {:>10}", "layer", "us", "% batch", "calls", "calls/job");
    for (layer, label) in ROWS {
        let us = per_pass(layers, |t| t.ns(layer) as f64 / 1e3);
        let calls = per_pass(layers, |t| t.calls(layer) as f64);
        println!(
            "  {label:<18} {us:>12.1} {:>7.1}% {calls:>10} {:>10.2}",
            100.0 * ratio(us, total),
            calls / jobs as f64
        );
    }
    println!("  {:<18} {total:>12.1} {:>7.1}%", "serve.run_batch", 100.0);
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run<K, W>(opts: &Options, make: fn(u64) -> Workload<K, W>) -> ExitCode
where
    K: Kernel,
    K::Output: PartialEq,
    W: Borrow<K::Input>,
{
    let mut setup = Vec::new();
    let mut build = || {
        let (w, _, ref_secs) = timed(|| std::hint::black_box(make(opts.seed)));
        setup.push(ref_secs);
        w
    };
    let w = build();
    for _ in 1..SETUP_REPS {
        build();
    }
    let (jobs, windows, deadlined) = (w.jobs(), w.windows(), w.deadlined());
    let f = &w.fleet;
    println!(
        "workload {} (seed {}): {} stream(s), {jobs} jobs, {windows} windows ({:.2}/job), \
         mean gap {} cycles, {deadlined} deadlined",
        opts.workload,
        opts.seed,
        w.streams.len(),
        windows as f64 / jobs as f64,
        w.mean_gap,
    );
    println!(
        "fleet: {} arrays{}{}, {} config words ({} programs) per array, {:?} + stealing {} + \
         lookahead {}, {:?} eviction",
        f.arrays,
        if f.fft { " + fft engine" } else { "" },
        if f.cpu { " + cortex-m4" } else { "" },
        f.config_words,
        w.programs_per_array,
        f.sched,
        f.stealing,
        f.lookahead,
        f.evict
    );

    let m = measure(&w, opts.seconds, MIN_PASSES, opts.trace, || {
        for _ in 0..SETUP_REPS {
            build();
        }
    });
    let setup_s = median(&setup);
    for e in &m.errors {
        eprintln!("FAIL: {e}");
    }
    let correct = m.errors.is_empty() && m.failed == 0;
    let metrics = match &m.model {
        None => Vec::new(),
        Some(model) if opts.trace => per_layer(jobs, deadlined, &m, model),
        Some(model) => match end_to_end(setup_s, windows, &m, model) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("FAIL: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    println!(
        "{} passes ({} traced), {:.2} host s measured, {} set-up repetitions",
        m.passes,
        m.layers.len(),
        m.samples.iter().map(|s| s.secs).sum::<f64>(),
        setup.len()
    );
    for (label, rate) in [
        ("as measured", Sample::raw_rate as fn(&Sample) -> f64),
        ("as on the reference host", Sample::rate),
    ] {
        let per_stream: Vec<String> =
            m.samples.iter().filter(|s| !s.traced).map(|s| format!("{:.0}", rate(s))).collect();
        println!("untraced windows/s per stream served, {label}: {}", per_stream.join(" "));
    }
    if let Some(model) = &m.model {
        println!(
            "failed_frac = {} ({} of {} jobs)",
            ratio(m.failed as f64, m.attempted as f64),
            m.failed,
            m.attempted
        );
        println!(
            "model.deadline_miss_frac = {} ({} of {} deadlined jobs)",
            ratio(model.deadline_misses as f64, deadlined as f64),
            model.deadline_misses,
            deadlined
        );
        println!(
            "core.replay_hit_ratio base: {} replayed of {} array launches",
            m.replayed, m.array_launches
        );
    }
    if opts.trace && !m.layers.is_empty() {
        print_layers(jobs, &m.layers);
    }
    for (name, value, unit, better) in &metrics {
        println!("  {name:<32} {value:>16.4} {unit:<9} ({better} is better)");
    }
    println!("{}", json(correct, m.attempted.max(1), m.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match opts.workload.as_str() {
        "tenants" => run(&opts, workloads::tenants),
        "burst" => run(&opts, workloads::burst),
        "hetero" => run(&opts, workloads::hetero),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (tenants, burst or hetero)");
            ExitCode::from(2)
        }
    }
}
