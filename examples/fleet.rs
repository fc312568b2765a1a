//! Fleet scheduling: fan concurrent `(kernel, windows)` jobs across a
//! pool of VWR2A arrays and compare placement strategies.
//!
//! Four distinct FIR programs (different baked-in taps) serve twelve jobs
//! on a two-array fleet whose configuration memories hold only two
//! programs each.  The cost-aware scheduler (the default) prefetches each
//! program's reload off the launch's critical path and never goes cold;
//! residency-aware placement spreads the programs across the fleet once
//! but reloads in line; the residency-blind round-robin baseline keeps
//! re-streaming configuration words.
//!
//! Run with `cargo run --release --example fleet`.

use vwr2a::core::Geometry;
use vwr2a::dsp::fir::design_lowpass;
use vwr2a::dsp::fixed::Q15;
use vwr2a::kernels::fir::FirKernel;
use vwr2a::runtime::pool::{CostAware, Placement, Pool, ResidencyAware, RoundRobin};
use vwr2a::runtime::testing::constrained_sessions;
use vwr2a::runtime::{FleetReport, Kernel};

const N: usize = 256;
const JOBS: usize = 12;
const WINDOWS_PER_JOB: usize = 3;

fn fir(cutoff: f64) -> FirKernel {
    let taps: Vec<i32> = design_lowpass(11, cutoff)
        .expect("valid filter design")
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    FirKernel::new(&taps, N).expect("valid kernel")
}

fn window(seed: usize) -> Vec<i32> {
    (0..N)
        .map(|s| (6000.0 * ((s + 43 * seed) as f64 * 0.107).sin()) as i32)
        .collect()
}

fn fleet(placement: impl Placement + 'static, kernels: &[FirKernel]) -> FleetReport {
    // Two arrays whose configuration memories hold two FIR programs each:
    // the four-program working set fits the fleet, not a single array.
    let program_words = kernels[0]
        .program(&Geometry::paper())
        .expect("program builds")
        .config_words();
    let mut pool = Pool::with_sessions(constrained_sessions(2, 2 * program_words))
        .expect("constrained sessions share one geometry")
        .with_placement(placement);

    // An irregular kernel order, as concurrent streams would produce.
    let picks = [0usize, 1, 2, 3, 2, 0, 1, 3, 0, 2, 3, 1];
    let jobs: Vec<(usize, Vec<Vec<i32>>)> = (0..JOBS)
        .map(|j| {
            (
                picks[j],
                (0..WINDOWS_PER_JOB).map(|w| window(j + 5 * w)).collect(),
            )
        })
        .collect();
    let (outputs, report) = pool
        .run_batch(
            jobs.iter()
                .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
        )
        .expect("fan-out runs");
    assert_eq!(outputs.len(), JOBS);
    report
}

fn main() {
    let kernels: Vec<FirKernel> = [0.06, 0.12, 0.2, 0.3].iter().map(|&fc| fir(fc)).collect();

    println!(
        "Fleet of 2 VWR2A arrays, {JOBS} jobs x {WINDOWS_PER_JOB} windows over {} distinct FIR programs",
        kernels.len()
    );
    println!("(2-program configuration memory per array)\n");

    for (name, report) in [
        (
            "cost-aware + prefetch",
            fleet(CostAware::default(), &kernels),
        ),
        ("residency-aware", fleet(ResidencyAware, &kernels)),
        ("round-robin", fleet(RoundRobin, &kernels)),
    ] {
        println!("{name}:");
        println!("  {report}");
        for array in &report.arrays {
            println!(
                "    array {}: {} job(s), {} wall cycles, {} cold / {} warm, \
                 {} prefetched ({} hidden), {} evictions",
                array.array,
                array.jobs,
                array.report.wall_cycles,
                array.report.cold_launches,
                array.report.warm_launches,
                array.report.prefetched,
                array.report.hidden_reloads,
                array.report.evictions,
            );
        }
    }

    println!();
    println!("Same jobs, same outputs — placement decides which array's configuration");
    println!("memory already holds the program, and prefetch decides whether anyone");
    println!("ever waits for the reload.");
}
