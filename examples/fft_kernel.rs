//! Run the paper's headline kernel — a 512-point real-valued FFT — on the
//! CPU baseline, the fixed-function accelerator and VWR2A, and print the
//! Table 2 / Fig. 2-style comparison for that one size.
//!
//! Run with `cargo run --example fft_kernel`.

use vwr2a::dsp::fixed::{from_q16, to_q16};
use vwr2a::fftaccel::FftAccelerator;
use vwr2a::kernels::fft::RealFftKernel;
use vwr2a::runtime::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 512;
    let signal: Vec<f64> = (0..n)
        .map(|i| 0.4 * (std::f64::consts::TAU * 12.0 * i as f64 / n as f64).sin())
        .collect();

    // Fixed-function accelerator.
    let engine = FftAccelerator::new();
    let (spectrum_accel, accel_stats) = engine.run_real(&signal)?;

    // VWR2A through a Session.
    let kernel = RealFftKernel::new(n)?;
    let mut session = Session::new();
    let q16: Vec<i32> = signal.iter().map(|&v| to_q16(v)).collect();
    let (spectrum, report) = session.run(&kernel, q16.as_slice())?;

    // Both must find the 12-cycles-per-window tone in bin 12.
    let peak_accel = (1..n / 2)
        .max_by(|&a, &b| spectrum_accel[a].abs().total_cmp(&spectrum_accel[b].abs()))
        .unwrap();
    let peak_vwr2a = (1..n / 2)
        .max_by_key(|&k| (spectrum.re[k] as i64).pow(2) + (spectrum.im[k] as i64).pow(2))
        .unwrap();
    println!("512-point real-valued FFT of a 12-cycle tone");
    println!(
        "  FFT accelerator : peak bin {peak_accel}, {} cycles",
        accel_stats.cycles
    );
    println!(
        "  VWR2A           : peak bin {peak_vwr2a}, {} cycles, {:.3} µJ ({} cold / {} warm launches)",
        report.cycles,
        report.energy().total_uj(),
        report.cold_launches,
        report.warm_launches
    );
    // The array returns the unnormalised DFT and the engine `X[k]/N`, so
    // the engine's bin times N lands on the array's magnitude.
    let k = peak_vwr2a;
    println!(
        "  bin {k} magnitude (unnormalised DFT): VWR2A {:.2}, FFT accelerator × N {:.2}",
        from_q16(spectrum.re[k]).hypot(from_q16(spectrum.im[k])),
        spectrum_accel[k].abs() * n as f64
    );
    Ok(())
}
