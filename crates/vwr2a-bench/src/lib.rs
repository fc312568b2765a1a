//! Experiment harness regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one artefact (see DESIGN.md §5):
//! `table2`, `fig2`, `table3`, `table4`, `table5`, `ulpsrp` and `ablation`;
//! `residency` (configuration-memory pressure and eviction policies) and
//! `streaming` (pipelined-overlap sweep) probe the runtime beyond the
//! paper's tables and run in CI with `--smoke`.
//! The shared measurement functions live here so that every binary
//! exercises exactly the same code paths.  Every VWR2A
//! measurement goes through a fresh [`Session`], matching the paper's
//! isolated-kernel methodology (the configuration load is part of the
//! measured cost exactly once).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vwr2a_dsp::complex::Complex;
use vwr2a_dsp::fixed::{to_q16, Q15};
use vwr2a_energy::{cpu_energy, fft_accel_energy, EnergyBreakdown};
use vwr2a_fftaccel::FftAccelerator;
use vwr2a_kernels::fft::{FftKernel, RealFftKernel};
use vwr2a_kernels::fir::FirKernel;
use vwr2a_kernels::Spectrum;
use vwr2a_runtime::{RunReport, Session};
use vwr2a_soc::cpu::kernels as cpu_kernels;
use vwr2a_soc::soc::BiosignalSoc;

/// The platform clock frequency (80 MHz).
pub const FREQUENCY_HZ: f64 = 80.0e6;

/// Result of one FFT measurement on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FftMeasurement {
    /// Cycles for the transform.
    pub cycles: u64,
    /// Energy of the transform.
    pub energy: EnergyBreakdown,
}

impl FftMeasurement {
    fn from_report(report: &RunReport) -> Self {
        Self {
            cycles: report.cycles,
            energy: report.energy(),
        }
    }
}

/// One row of Table 2 / Fig. 2: an FFT size measured on the three platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct FftComparison {
    /// Transform length in points.
    pub n: usize,
    /// `true` for the real-valued flow.
    pub real: bool,
    /// The CPU (CMSIS-like q15) measurement.
    pub cpu: FftMeasurement,
    /// The fixed-function accelerator measurement.
    pub accel: FftMeasurement,
    /// The VWR2A measurement, absent when the mapping does not support the
    /// size (complex 2048 points exceed the 32 KiB SPM without streaming).
    pub vwr2a: Option<FftMeasurement>,
}

fn test_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            0.35 * (std::f64::consts::TAU * 13.0 * i as f64 / n as f64).sin()
                + 0.2 * (std::f64::consts::TAU * 3.0 * i as f64 / n as f64).cos()
        })
        .collect()
}

/// Measures an FFT of `n` points (complex or real-valued) on the CPU, the
/// fixed-function accelerator and VWR2A.
///
/// # Panics
///
/// Panics if a simulator reports an error for a supported size — that would
/// be a bug in the harness, not an expected runtime condition.
pub fn run_fft_comparison(n: usize, real: bool) -> FftComparison {
    let signal = test_signal(n);

    // --- CPU baseline ---------------------------------------------------
    let mut soc = BiosignalSoc::new();
    let cpu_stats = if real {
        let data: Vec<i32> = signal.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
        let tw = cpu_kernels::fft::cfft_twiddles_q15(n / 2);
        let split = cpu_kernels::fft::rfft_split_twiddles_q15(n);
        let data_addr = 0;
        let tw_addr = n;
        let split_addr = tw_addr + n / 2;
        let out_addr = split_addr + n + 2;
        soc.sram_mut().load(data_addr, &data).unwrap();
        soc.sram_mut().load(tw_addr, &tw).unwrap();
        soc.sram_mut().load(split_addr, &split).unwrap();
        let program =
            cpu_kernels::rfft_q15_program(n, data_addr, tw_addr, split_addr, out_addr).unwrap();
        soc.run_cpu_program(&program).unwrap()
    } else {
        let data: Vec<i32> = signal
            .iter()
            .flat_map(|&v| [Q15::from_f64(v).0 as i32, 0])
            .collect();
        let tw = cpu_kernels::fft::cfft_twiddles_q15(n);
        soc.sram_mut().load(0, &data).unwrap();
        soc.sram_mut().load(2 * n, &tw).unwrap();
        let program = cpu_kernels::cfft_q15_program(n, 0, 2 * n).unwrap();
        soc.run_cpu_program(&program).unwrap()
    };
    let cpu = FftMeasurement {
        cycles: cpu_stats.cycles,
        energy: cpu_energy(&cpu_stats),
    };

    // --- Fixed-function accelerator --------------------------------------
    let engine = FftAccelerator::new();
    let accel_stats = if real {
        engine.run_real(&signal).unwrap().1
    } else {
        let input: Vec<Complex> = signal.iter().map(|&v| Complex::new(v, 0.0)).collect();
        engine.run_complex(&input).unwrap().1
    };
    let accel = FftMeasurement {
        cycles: accel_stats.cycles,
        energy: fft_accel_energy(&accel_stats),
    };

    // --- VWR2A ------------------------------------------------------------
    let vwr2a = if real {
        RealFftKernel::new(n).ok().map(|kernel| {
            let mut session = Session::new();
            let data: Vec<i32> = signal.iter().map(|&v| to_q16(v)).collect();
            let (_, report) = session.run(&kernel, data.as_slice()).unwrap();
            FftMeasurement::from_report(&report)
        })
    } else {
        FftKernel::new(n).ok().map(|kernel| {
            let mut session = Session::new();
            let re: Vec<i32> = signal.iter().map(|&v| to_q16(v)).collect();
            let im = vec![0i32; n];
            let (_, report) = session.run(&kernel, &Spectrum::new(re, im)).unwrap();
            FftMeasurement::from_report(&report)
        })
    };

    FftComparison {
        n,
        real,
        cpu,
        accel,
        vwr2a,
    }
}

/// One row of Table 4: the FIR kernel on the CPU and on VWR2A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirComparison {
    /// Input length in samples.
    pub n: usize,
    /// The CPU measurement.
    pub cpu: FftMeasurement,
    /// The VWR2A measurement.
    pub vwr2a: FftMeasurement,
}

/// Measures the 11-tap FIR filter over `n` points on the CPU and on VWR2A.
///
/// # Panics
///
/// Panics on simulator errors (harness bug).
pub fn run_fir_comparison(n: usize) -> FirComparison {
    let taps_f = vwr2a_dsp::fir::design_lowpass(11, 0.1).unwrap();
    let taps: Vec<i32> = taps_f.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
    let input: Vec<i32> = test_signal(n)
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();

    let mut soc = BiosignalSoc::new();
    soc.sram_mut().load(0, &input).unwrap();
    soc.sram_mut().load(n, &taps).unwrap();
    let program = cpu_kernels::fir_q15_program(n, taps.len(), 0, n, n + 16).unwrap();
    let stats = soc.run_cpu_program(&program).unwrap();
    let cpu = FftMeasurement {
        cycles: stats.cycles,
        energy: cpu_energy(&stats),
    };

    let kernel = FirKernel::new(&taps, n).unwrap();
    let mut session = Session::new();
    let (_, report) = session.run(&kernel, input.as_slice()).unwrap();
    let vwr2a = FftMeasurement::from_report(&report);
    FirComparison { n, cpu, vwr2a }
}

/// Measures the 11-tap FIR filter over a stream of `windows` windows of `n`
/// points each through one [`Session`] (warm steady state), returning the
/// aggregated report.  This is the config-memory-reuse experiment behind
/// the ablation binary.
///
/// # Panics
///
/// Panics on simulator errors (harness bug).
pub fn run_fir_stream(n: usize, windows: usize) -> RunReport {
    let taps_f = vwr2a_dsp::fir::design_lowpass(11, 0.1).unwrap();
    let taps: Vec<i32> = taps_f.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
    let kernel = FirKernel::new(&taps, n).unwrap();
    let inputs: Vec<Vec<i32>> = (0..windows)
        .map(|w| {
            test_signal(n)
                .iter()
                .map(|&v| Q15::from_f64(v * (1.0 - 0.1 * (w % 3) as f64)).0 as i32)
                .collect()
        })
        .collect();
    let mut session = Session::new();
    let (_, report) = session
        .run_batch(&kernel, inputs.iter().map(Vec::as_slice))
        .unwrap();
    report
}

/// Converts cycles to microseconds at the platform frequency.
pub fn cycles_to_us(cycles: u64) -> f64 {
    vwr2a_core::stats::time_us(cycles, FREQUENCY_HZ)
}

/// Runs `f` and returns its result next to the host wall-clock microseconds
/// it took.  Every bench binary reports this number beside the modelled
/// cycle counts, so simulator-speed regressions are as visible as
/// modelled-cost regressions.
pub fn time_host<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e6)
}

/// One measured warm FIR stream for the replay benchmark: the aggregated
/// report and outputs of the measured phase, plus the host microseconds the
/// phase took.
#[derive(Debug, Clone)]
pub struct ReplayMeasurement {
    /// Aggregated report of the measured (all-warm) phase.
    pub report: RunReport,
    /// Outputs of every measured window, for bit-identity checks.
    pub outputs: Vec<Vec<i32>>,
    /// Host wall-clock microseconds of the measured phase.
    pub host_us: f64,
}

/// Streams `windows` warm windows of the 11-tap FIR over `n` points through
/// one [`Session`] with the warm-window replay cache on or off, and measures
/// the host wall-clock of the warm phase.
///
/// One unmeasured warm-up window first pays the cold configuration load
/// (and, with `replay` on, records the trace), so the measured phase is the
/// steady state the replay cache targets: every launch warm, every window's
/// data different.
///
/// # Panics
///
/// Panics on simulator errors (harness bug).
pub fn run_fir_replay_stream(n: usize, windows: usize, replay: bool) -> ReplayMeasurement {
    let taps_f = vwr2a_dsp::fir::design_lowpass(11, 0.1).unwrap();
    let taps: Vec<i32> = taps_f.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
    let kernel = FirKernel::new(&taps, n).unwrap();
    let signal = test_signal(n);
    let inputs: Vec<Vec<i32>> = (0..windows)
        .map(|w| {
            signal
                .iter()
                .map(|&v| Q15::from_f64(v * (1.0 - 0.1 * (w % 7) as f64)).0 as i32)
                .collect()
        })
        .collect();
    let mut session = Session::new();
    session.set_replay(replay);
    let warmup: Vec<i32> = signal.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
    session.run(&kernel, warmup.as_slice()).unwrap();
    let ((outputs, report), host_us) = time_host(|| {
        session
            .run_batch(&kernel, inputs.iter().map(Vec::as_slice))
            .unwrap()
    });
    ReplayMeasurement {
        report,
        outputs,
        host_us,
    }
}

/// A seeded SplitMix64 pseudo-random generator.
///
/// The workspace vendors no random-number crate, and the serving benchmark
/// needs reproducible workloads: the same `--seed` must generate the same
/// arrival process on every machine so that CI gates compare like with
/// like.  SplitMix64 (Steele, Lea & Flood 2014) is the standard seeding
/// generator — a 64-bit Weyl sequence pushed through two xor-shift-multiply
/// mixing rounds — small enough to vendor in twenty lines and statistically
/// solid for workload synthesis.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.  Equal seeds yield equal
    /// streams; any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns a uniform double in `[0, 1)` built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero — an empty range has no sample.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below needs a non-empty range");
        // The modulo bias over a 64-bit stream is negligible for the
        // small bounds workload synthesis uses (tenants, kernel picks).
        self.next_u64() % bound
    }

    /// Returns an exponentially distributed sample with the given mean —
    /// the inter-arrival gap of a Poisson process.
    pub fn next_exponential(&mut self, mean: f64) -> f64 {
        // Inverse-CDF sampling; 1 - u keeps the logarithm's argument in
        // (0, 1] so the result is always finite.
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// Generates `jobs` arrival cycles of a Poisson process with the given mean
/// inter-arrival gap (in cycles), starting at cycle 0.  The returned stamps
/// are non-decreasing, ready to feed the serving layer's admission queue.
pub fn poisson_arrivals(rng: &mut SplitMix64, jobs: usize, mean_gap: f64) -> Vec<u64> {
    let mut at = 0.0f64;
    (0..jobs)
        .map(|_| {
            at += rng.next_exponential(mean_gap);
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_comparison_produces_consistent_ordering() {
        let row = run_fft_comparison(512, true);
        assert!(
            row.cpu.cycles > row.accel.cycles,
            "the accelerator must beat the CPU"
        );
        let v = row.vwr2a.expect("real 512 is supported");
        assert!(v.cycles < row.cpu.cycles, "VWR2A must beat the CPU");
        assert!(v.energy.total_uj() < row.cpu.energy.total_uj());
        assert!(v.energy.total_uj() > row.accel.energy.total_uj());
    }

    #[test]
    fn fir_comparison_matches_table4_shape() {
        let row = run_fir_comparison(256);
        let speedup = row.cpu.cycles as f64 / row.vwr2a.cycles as f64;
        assert!(speedup > 5.0, "speed-up {speedup}");
        let savings = 1.0 - row.vwr2a.energy.total_uj() / row.cpu.energy.total_uj();
        assert!(savings > 0.3, "savings {savings}");
    }

    #[test]
    fn unsupported_complex_2048_is_reported_as_none() {
        let row = run_fft_comparison(2048, false);
        assert!(row.vwr2a.is_none());
        assert!(row.cpu.cycles > 100_000);
    }

    #[test]
    fn fir_stream_pipelines_staging_behind_compute() {
        let stream = run_fir_stream(256, 8);
        // The pipelined wall clock must beat both the serial phase sum
        // with interrupts and the classic DMA+compute+DMA cycle total.
        assert!(stream.wall_cycles < stream.serial_cycles());
        assert!(stream.wall_cycles < stream.cycles);
        assert!(
            stream.overlap_ratio() > 0.1,
            "overlap {}",
            stream.overlap_ratio()
        );
        // The work itself is conserved across the overlapped schedule.
        assert_eq!(
            stream.busy.config_load + stream.busy.dma + stream.busy.compute,
            stream.cycles
        );
    }

    #[test]
    fn splitmix_streams_are_deterministic_and_seed_sensitive() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let (sa, sb, sc): (Vec<u64>, Vec<u64>, Vec<u64>) = (
            (0..8).map(|_| a.next_u64()).collect(),
            (0..8).map(|_| b.next_u64()).collect(),
            (0..8).map(|_| c.next_u64()).collect(),
        );
        assert_eq!(sa, sb, "equal seeds replay the same stream");
        assert_ne!(sa, sc, "different seeds diverge");
        // Reference value of the splitmix64 algorithm for seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn splitmix_floats_and_gaps_stay_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u), "uniform out of range: {u}");
            let gap = rng.next_exponential(500.0);
            assert!(gap.is_finite() && gap >= 0.0, "bad gap: {gap}");
            assert!(rng.next_below(6) < 6);
        }
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_reproducible() {
        let stamps = poisson_arrivals(&mut SplitMix64::new(11), 64, 800.0);
        assert_eq!(stamps.len(), 64);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        let replay = poisson_arrivals(&mut SplitMix64::new(11), 64, 800.0);
        assert_eq!(stamps, replay, "seeded process replays exactly");
        // The empirical mean gap lands near the requested one.
        let mean = *stamps.last().unwrap() as f64 / 64.0;
        assert!((400.0..1600.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn fir_stream_amortises_the_configuration_load() {
        let stream = run_fir_stream(256, 8);
        assert_eq!(stream.invocations, 8);
        assert_eq!(stream.cold_launches, 1);
        let single = run_fir_comparison(256).vwr2a;
        // Eight warm windows must cost less than eight isolated cold runs.
        assert!(
            stream.cycles < 8 * single.cycles,
            "stream {} vs 8x cold {}",
            stream.cycles,
            8 * single.cycles
        );
    }
}
