//! Warm-window replay benchmark: host simulation speed of the replay cache
//! (`vwr2a_core::replay`) on a warm FIR stream.
//!
//! The workload is the steady state the cache targets: one session, one
//! 11-tap FIR kernel, a long stream of warm windows whose *data* differs
//! per window but whose control flow and SRF addressing parameters repeat.
//! The first (unmeasured) window pays the cold load and records the trace;
//! the measured phase then runs twice — once with the cache disabled
//! (cycle-by-cycle interpretation) and once enabled — and the binary checks
//! that the cache changed host wall-clock only: outputs, modelled cycles
//! and activity counters must be bit-identical, and every measured launch
//! must hit the cache (a 100 % warm hit rate).
//!
//! Full runs write `BENCH_replay.json`.  Run with `--smoke` for the fast
//! CI gate (fails on any hit-rate miss or if replay-on host time does not
//! beat replay-off; leaves the checked-in artifact alone); the full run
//! additionally enforces the >= 10x host speed-up target.  `--windows N`
//! overrides the stream length.
//!
//! Two gate cells follow the stream, in smoke and full runs alike:
//!
//! * **Churn** — 6 FIR programs through 2-program configuration memories
//!   on a 2-array `Pool`, so most jobs evict.  Traces are keyed by program
//!   content and shared across the fleet, so they survive evictions and
//!   reloads on either array: the cell fails unless interpreted launches
//!   equal the number of distinct (program, SRF-parameter) pairs — one per
//!   FIR program, whose launches all use the same line pointers.
//! * **FFT-256** — a complex FFT stream on one array.  The stage program's
//!   interleave passes bump their output pointers in-kernel, and stages
//!   alternate between a ping and a pong parameter set: the cell fails
//!   unless every stage launch after the first two replays.
//!
//! Both cells also require outputs and modelled reports bit-identical to
//! their replay-off (or serial-reference) counterparts.
//!
//! `--baseline PATH` regresses the measured replay-on host time per
//! window against the `host_us_per_window_on` recorded in a checked-in
//! `BENCH_replay.json`: the run fails if it exceeds the baseline by more
//! than the tolerance factor.  The tolerance is deliberately loose — CI
//! runners are slower and noisier than the machine that wrote the
//! artifact — so the gate catches gross host-speed regressions (a broken
//! replay path re-interpreting warm windows), not single-digit drift.
//! The scheduled soak CI job uses this.

use vwr2a_bench::{cycles_to_us, run_fir_replay_stream, time_host, ReplayMeasurement};
use vwr2a_core::geometry::Geometry;
use vwr2a_dsp::fir::design_lowpass;
use vwr2a_dsp::fixed::Q15;
use vwr2a_kernels::fft::FftKernel;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_kernels::Spectrum;
use vwr2a_runtime::pool::Pool;
use vwr2a_runtime::testing::constrained_sessions;
use vwr2a_runtime::{Kernel, Session};

const N: usize = 256;

/// Distinct FIR programs of the churn cell.
const CHURN_PROGRAMS: usize = 6;

/// How many times slower than the recorded baseline the measured
/// per-window host time may be before `--baseline` fails the run.
const HOST_REGRESSION_TOLERANCE: f64 = 3.0;

/// Pulls `"key": <number>` out of the flat single-object artifact without
/// a JSON dependency (the artifact is written with `format!` for the same
/// reason).
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Host-clock noise (scheduler preemption, frequency scaling) only ever
/// *inflates* a wall-clock sample, so the minimum over a few repeats is
/// the standard low-noise estimator.  Outputs and reports are identical
/// across repeats — the simulator is deterministic — so only the timing
/// of the kept measurement differs.
fn best_of(repeats: usize, n: usize, windows: usize, replay: bool) -> ReplayMeasurement {
    let mut best = run_fir_replay_stream(n, windows, replay);
    for _ in 1..repeats {
        let next = run_fir_replay_stream(n, windows, replay);
        assert_eq!(next.outputs, best.outputs, "non-deterministic outputs");
        assert_eq!(next.report, best.report, "non-deterministic report");
        if next.host_us < best.host_us {
            best = next;
        }
    }
    best
}

/// Runs the churn cell over `jobs` two-window jobs; `Err` names the
/// failed gate.
fn churn_cell(jobs: usize) -> Result<(), String> {
    let kernels: Vec<FirKernel> = (0..CHURN_PROGRAMS)
        .map(|k| {
            let taps: Vec<i32> = design_lowpass(11, 0.06 + 0.04 * k as f64)
                .expect("valid filter design")
                .iter()
                .map(|&v| Q15::from_f64(v).0 as i32)
                .collect();
            FirKernel::new(&taps, N).expect("valid kernel")
        })
        .collect();
    let job_list: Vec<(&FirKernel, Vec<Vec<i32>>)> = (0..jobs)
        .map(|j| {
            let windows = (0..2)
                .map(|w| {
                    (0..N as i32)
                        .map(|i| (i * 37 + 11 * (j + w) as i32) % 4001 - 2000)
                        .collect()
                })
                .collect();
            (&kernels[j % CHURN_PROGRAMS], windows)
        })
        .collect();
    let as_jobs = || {
        job_list
            .iter()
            .map(|(k, ws)| (*k, ws.iter().map(Vec::as_slice)))
    };
    let words = kernels[0]
        .program(&Geometry::paper())
        .expect("FIR program builds")
        .config_words();
    let mut pool = Pool::with_sessions(constrained_sessions(2, 2 * words)).expect("array fleet");
    let ((outputs, fleet), host_us) = time_host(|| pool.run_batch(as_jobs()).expect("churn runs"));
    let (serial, _) = Pool::run_serial_reference(as_jobs()).expect("serial reference runs");

    let launches: u64 = fleet.arrays.iter().map(|a| a.report.launches()).sum();
    let evictions: u64 = fleet.arrays.iter().map(|a| a.report.evictions).sum();
    let interpreted = launches - fleet.replayed();
    println!(
        "Churn: {jobs} jobs of {CHURN_PROGRAMS} FIR programs on 2 arrays x 2-program memories: \
         {evictions} evictions, {interpreted}/{launches} launches interpreted \
         ({CHURN_PROGRAMS} distinct program/parameter pairs), {host_us:.0} host us"
    );
    if outputs != serial {
        return Err("churn outputs differ from the serial reference".into());
    }
    if evictions == 0 {
        return Err("churn cell evicted nothing".into());
    }
    if interpreted != CHURN_PROGRAMS as u64 {
        return Err(format!(
            "churn interpreted {interpreted} launches, expected one per distinct \
             program/parameter pair ({CHURN_PROGRAMS})"
        ));
    }
    Ok(())
}

/// Runs the FFT-256 cell over `windows` windows; `Err` names the failed
/// gate.
fn fft_cell(windows: usize) -> Result<(), String> {
    let kernel = FftKernel::new(N).expect("supported FFT length");
    let inputs: Vec<Spectrum> = (0..windows)
        .map(|w| {
            let re = (0..N as i32)
                .map(|i| ((i * 53 + 7 * w as i32) % 2001 - 1000) << 6)
                .collect();
            let im = (0..N as i32)
                .map(|i| ((i * 29 + 3 * w as i32) % 1501 - 750) << 6)
                .collect();
            Spectrum::new(re, im)
        })
        .collect();
    let run = |replay: bool| {
        let mut session = Session::new();
        session.set_replay(replay);
        time_host(|| session.run_batch(&kernel, inputs.iter()).expect("FFT runs"))
    };
    let ((out_off, off), off_us) = run(false);
    let ((out_on, mut on), on_us) = run(true);
    let launches = on.launches();
    let replayed = on.replayed;
    println!(
        "FFT-{N}: {windows} windows, {replayed}/{launches} stage launches replayed, \
         host {off_us:.0} -> {on_us:.0} us ({:.1}x)",
        off_us / on_us
    );
    on.replayed = 0;
    if out_on != out_off || on != off {
        return Err("FFT replay changed an output bit or a modelled number".into());
    }
    if replayed + 2 != launches {
        return Err(format!(
            "FFT replayed {replayed}/{launches} stage launches, expected all but the \
             first ping and pong launch"
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let windows: usize = args
        .iter()
        .position(|a| a == "--windows")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 200 } else { 1000 });

    println!("Warm-window replay: {windows} warm {N}-sample FIR windows through one Session");
    println!("(cache off = cycle-by-cycle interpretation; cache on = trace replay;");
    println!(" both phases follow one unmeasured cold window that records the trace;");
    println!(" host times are the best of 3 repeats)");
    println!();

    // Interpretation first, so the replay run cannot have warmed anything
    // for it (each measurement uses its own fresh session anyway).
    let off = best_of(3, N, windows, false);
    let on = best_of(3, N, windows, true);

    // Correctness is non-negotiable: the cache may only change host time.
    assert_eq!(on.outputs, off.outputs, "replay changed an output bit");
    let mut on_report = on.report.clone();
    let mut off_report = off.report.clone();
    on_report.replayed = 0;
    off_report.replayed = 0;
    assert_eq!(
        on_report, off_report,
        "replay changed a modelled number (cycles, counters or launch mix)"
    );
    assert_eq!(off.report.replayed, 0, "disabled cache served a launch");

    // The FIR kernel may launch more than once per window (per-column
    // passes), so the hit rate is over array launches, not windows.
    let launches = on.report.launches();
    let hit_rate = on.report.replayed as f64 / launches as f64;
    let speedup = off.host_us / on.host_us;
    let modelled_us = cycles_to_us(on.report.cycles);

    println!("  cache  modelled-us     host-us  us/window  hit-rate");
    println!("  -----  -----------  ----------  ---------  --------");
    for (tag, m, rate) in [("off", &off, 0.0), ("on", &on, hit_rate)] {
        println!(
            "  {:>5}  {:>11.1}  {:>10.1}  {:>9.3}  {:>7.1}%",
            tag,
            cycles_to_us(m.report.cycles),
            m.host_us,
            m.host_us / windows as f64,
            100.0 * rate,
        );
    }
    println!();
    println!(
        "Replay served {}/{} warm launches and cut host time {speedup:.1}x \
         ({:.1} -> {:.1} us); outputs and modelled costs are bit-identical.",
        on.report.replayed, launches, off.host_us, on.host_us,
    );

    // Smoke runs gate but do not overwrite the checked-in full-run artifact.
    if !smoke {
        let json = format!(
            "{{\n  \"benchmark\": \"replay\",\n  \"n\": {N},\n  \"windows\": {windows},\n  \
             \"modelled_cycles\": {},\n  \"modelled_us\": {modelled_us:.1},\n  \
             \"host_us_replay_off\": {:.1},\n  \"host_us_replay_on\": {:.1},\n  \
             \"host_us_per_window_on\": {:.3},\n  \"speedup\": {speedup:.2},\n  \
             \"hit_rate\": {hit_rate:.4}\n}}\n",
            on.report.cycles,
            off.host_us,
            on.host_us,
            on.host_us / windows as f64,
        );
        std::fs::write("BENCH_replay.json", json).expect("write BENCH_replay.json");
        println!("Wrote BENCH_replay.json");
    }

    if hit_rate < 1.0 {
        eprintln!(
            "FAIL: warm-stream hit rate {:.1}% < 100% ({}/{} launches replayed)",
            100.0 * hit_rate,
            on.report.replayed,
            launches,
        );
        std::process::exit(1);
    }
    if on.host_us >= off.host_us {
        eprintln!(
            "FAIL: replay-on host time {:.1} us does not beat replay-off {:.1} us",
            on.host_us, off.host_us,
        );
        std::process::exit(1);
    }
    if !smoke && speedup < 10.0 {
        eprintln!("FAIL: host speed-up {speedup:.1}x below the 10x target");
        std::process::exit(1);
    }

    println!();
    // Both cells run (and print) before either can fail the run.
    let cells = [
        churn_cell(4 * CHURN_PROGRAMS),
        fft_cell(if smoke { 8 } else { 40 }),
    ];
    if let Some(failure) = cells.into_iter().find_map(Result::err) {
        eprintln!("FAIL: {failure}");
        std::process::exit(1);
    }

    if let Some(path) = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
    {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--baseline {path} is not readable: {e}"));
        let per_window = extract_f64(&text, "host_us_per_window_on")
            .expect("baseline artifact records host_us_per_window_on");
        let measured = on.host_us / windows as f64;
        let ceiling = per_window * HOST_REGRESSION_TOLERANCE;
        println!();
        println!(
            "Baseline {path}: {per_window:.3} us/window; measured {measured:.3} us/window \
             (ceiling {ceiling:.3}, tolerance x{HOST_REGRESSION_TOLERANCE})",
        );
        if measured > ceiling {
            eprintln!(
                "FAIL: replay-on host time {measured:.3} us/window regressed past \
                 {ceiling:.3} (baseline {per_window:.3} x{HOST_REGRESSION_TOLERANCE})",
            );
            std::process::exit(1);
        }
    }
}
