//! Heterogeneous fleet: route jobs across CGRA arrays, the fixed-function
//! FFT engine and the Cortex-M4 host under one cost-aware scheduler.
//!
//! Two waves run on one fleet of 2 arrays + engine + CPU.  The FFT wave's
//! jobs carry an `FftShape` the engine's model prices, so the scheduler
//! may send them to the engine (zero configuration streaming, ~3 k cycles
//! at 256 points) instead of an array; the FIR wave's tiny windows carry a
//! CPU cycle estimate, so reload-dominated crumbs may land on the host.  Every job
//! stays bit-identical to the backend it landed on: arrays match the
//! serial single-session reference, the engine and the CPU match the
//! kernel's own backend model.
//!
//! Run with `cargo run --release --example hetero`.

use vwr2a::dsp::fir::design_lowpass;
use vwr2a::dsp::fixed::{to_q16, Q15};
use vwr2a::kernels::fft::FftKernel;
use vwr2a::kernels::fir::FirKernel;
use vwr2a::kernels::Spectrum;
use vwr2a::{CostAware, CpuBackend, FftBackend, FleetReport, Pool};

fn spectrum(freq: f64) -> Spectrum {
    let n = 256;
    let re = (0..n)
        .map(|i| to_q16(0.4 * (std::f64::consts::TAU * freq * i as f64 / n as f64).cos()))
        .collect();
    let im = vec![0i32; n];
    Spectrum::new(re, im)
}

fn crumb(seed: usize) -> Vec<i32> {
    (0..CRUMB_SAMPLES)
        .map(|s| (5000.0 * ((s + 31 * seed) as f64 * 0.113).sin()) as i32)
        .collect()
}

/// Small enough that an array's cold reload (~380 config words) plus a
/// window launch costs more than the whole filter on the ISS.
const CRUMB_SAMPLES: usize = 12;

fn print_routes(label: &str, fleet: &FleetReport) {
    println!("{label}:");
    for route in &fleet.routes {
        println!(
            "  job {} -> backend {} ({}), {:.3} uJ",
            route.job,
            route.backend,
            route.kind.label(),
            route.energy_uj()
        );
    }
    for row in fleet.per_kind() {
        println!(
            "  {:>5}: {} backend(s), {} job(s), {} invocation(s), wall {} cycles, {:.3} uJ",
            row.kind.label(),
            row.backends,
            row.jobs,
            row.invocations,
            row.wall_cycles,
            row.energy_uj()
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 2 CGRA arrays, the FFT engine and the host CPU behind one scheduler.
    let mut pool = Pool::new(2)
        .with_backend(FftBackend::new())
        .with_backend(CpuBackend::new())
        .with_placement(CostAware::default());

    // Wave 1: four 256-point FFT jobs.  The engine needs no configuration
    // streaming, so the cost model routes most of the wave there while
    // the arrays absorb the rest in parallel.
    let fft = FftKernel::new(256)?;
    let fft_windows: Vec<Vec<Spectrum>> = (0..4)
        .map(|j| vec![spectrum(4.0 + j as f64), spectrum(9.0 + j as f64)])
        .collect();
    let (_, fft_fleet) = pool.run_batch(fft_windows.iter().map(|ws| (&fft, ws.iter())))?;
    print_routes("FFT wave (2 windows per job)", &fft_fleet);

    // Wave 2: six tiny one-window FIR crumbs with distinct taps.  Each
    // tap set is its own program, so an array pays a fresh configuration
    // reload per crumb; the scheduler balances those reloads against the
    // host CPU, which runs the filter from plain SRAM with no reload and
    // whose wrapping MAC/shift arithmetic matches the RC datapath bit
    // for bit.
    let taps: Vec<Vec<i32>> = (0..6)
        .map(|k| {
            design_lowpass(11, 0.06 + 0.05 * k as f64)
                .expect("valid filter design")
                .iter()
                .map(|&v| Q15::from_f64(v).0 as i32)
                .collect()
        })
        .collect();
    let crumbs: Vec<(FirKernel, Vec<i32>)> = taps
        .iter()
        .enumerate()
        .map(|(j, t)| Ok((FirKernel::new(t, CRUMB_SAMPLES)?, crumb(j))))
        .collect::<Result<_, vwr2a::kernels::KernelError>>()?;
    let (_, fir_fleet) = pool.run_batch(
        crumbs
            .iter()
            .map(|(k, w)| (k, std::iter::once(w.as_slice()))),
    )?;
    print_routes("FIR crumb wave (1 window per job)", &fir_fleet);

    Ok(())
}
