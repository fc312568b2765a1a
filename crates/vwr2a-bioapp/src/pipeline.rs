//! The MBioTracker pipeline in the three platform configurations.

use std::error::Error;
use std::fmt;
use vwr2a_dsp::fir::design_lowpass;
use vwr2a_dsp::fixed::Q15;
use vwr2a_energy::{cpu_energy, fft_accel_energy, EnergyBreakdown};
use vwr2a_fftaccel::FftAccelerator;
use vwr2a_kernels::features::{BandEnergies, DotProduct, SumAndSquares};
use vwr2a_kernels::fft::RealFftKernel;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::Session;
use vwr2a_soc::cpu::kernels as cpu_kernels;
use vwr2a_soc::soc::BiosignalSoc;

/// Number of samples in one application window (as in the paper's
/// 512-point real-valued FFT of the filtered signal).
pub const WINDOW: usize = 512;
/// Number of FIR taps of the preprocessing filter.
pub const FIR_TAPS: usize = 11;
/// Number of spectral bands used as frequency features.
pub const BANDS: usize = 4;
/// Prominence threshold (q15) used by the delineation step.
pub const PROMINENCE: i32 = 8_192;

/// Errors raised while running the application pipeline.
#[derive(Debug)]
pub struct PipelineError(String);

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline error: {}", self.0)
    }
}

impl Error for PipelineError {}

macro_rules! impl_from_error {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for PipelineError {
            fn from(e: $ty) -> Self {
                PipelineError(e.to_string())
            }
        })*
    };
}

impl_from_error!(
    vwr2a_core::CoreError,
    vwr2a_soc::SocError,
    vwr2a_kernels::KernelError,
    vwr2a_runtime::RuntimeError,
    vwr2a_fftaccel::FftAccelError,
    vwr2a_dsp::DspError,
);

/// Result alias of the pipeline functions.
pub type Result<T> = std::result::Result<T, PipelineError>;

/// Cycles and energy of one application step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// Step name ("preprocessing", "delineation", "feature extraction").
    pub name: String,
    /// Cycles spent in the step.
    pub cycles: u64,
    /// Energy spent in the step.
    pub energy: EnergyBreakdown,
}

/// Full report of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// Platform configuration name.
    pub platform: String,
    /// Per-step results, in execution order.
    pub steps: Vec<StepResult>,
    /// The SVM class prediction (+1 / −1).
    pub prediction: i32,
}

impl AppReport {
    /// Total cycles across all steps.
    pub fn total_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.cycles).sum()
    }

    /// Total energy in microjoules across all steps.
    pub fn total_energy_uj(&self) -> f64 {
        self.steps.iter().map(|s| s.energy.total_uj()).sum()
    }

    /// Cycles of a named step (zero if absent).
    pub fn step_cycles(&self, name: &str) -> u64 {
        self.steps
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.cycles)
    }
}

fn fir_taps_q15() -> Vec<i32> {
    design_lowpass(FIR_TAPS, 0.08)
        .expect("valid filter specification")
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect()
}

fn svm_weights() -> (Vec<i32>, i32) {
    // A plausible linear model over the 8 features
    // [mean_insp, mean_exp, rms_insp, rms_exp, band0..band3]: slower, deeper
    // breathing (long intervals, low high-frequency energy) maps to low
    // workload.
    (vec![-3, -3, 2, 2, -1, 2, 4, 6], 120)
}

/// Intervals (in samples) between alternating extrema, split into
/// inspirations (min→max) and expirations (max→min).
fn intervals_from_triplets(triplets: &[i32]) -> (Vec<i32>, Vec<i32>) {
    let mut insp = Vec::new();
    let mut exp = Vec::new();
    for pair in triplets.chunks(3).collect::<Vec<_>>().windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let dt = b[0] - a[0];
        if a[2] == 0 && b[2] != 0 {
            insp.push(dt);
        } else if a[2] != 0 && b[2] == 0 {
            exp.push(dt);
        }
    }
    if insp.is_empty() {
        insp.push(1);
    }
    if exp.is_empty() {
        exp.push(1);
    }
    (insp, exp)
}

fn mean_and_rms(sum: i64, sumsq: i64, n: usize) -> (i32, i32) {
    let n = n.max(1) as i64;
    let mean = (sum / n) as i32;
    let rms = ((sumsq / n) as f64).sqrt() as i32;
    (mean, rms)
}

/// CPU memory map (word addresses in SRAM) shared by the CPU-side steps.
mod layout {
    pub const RAW: usize = 0;
    pub const TAPS: usize = 600;
    pub const FILTERED: usize = 700;
    pub const EXTREMA: usize = 1300;
    pub const EXTREMA_COUNT: usize = 1500;
    pub const INTERVALS: usize = 1510;
    pub const INTERVAL_COUNT: usize = 1580;
    pub const SCRATCH: usize = 1600;
    pub const STATS_OUT: usize = 1700;
    pub const FFT_DATA: usize = 1800;
    pub const FFT_TW: usize = 2400;
    pub const FFT_SPLIT_TW: usize = 2700;
    pub const FFT_OUT: usize = 3300;
    pub const BANDS_OUT: usize = 3900;
    pub const FEATURES: usize = 3950;
    pub const WEIGHTS: usize = 3970;
    pub const SVM_OUT: usize = 3990;
}

/// Runs the delineation step on the CPU and returns (cycles, energy,
/// inspiration intervals, expiration intervals).  Shared by every platform
/// configuration in this reproduction.
fn delineation_on_cpu(
    soc: &mut BiosignalSoc,
    filtered: &[i32],
) -> Result<(u64, EnergyBreakdown, Vec<i32>, Vec<i32>)> {
    soc.sram_mut().load(layout::FILTERED, filtered)?;
    let program = cpu_kernels::delineation_program(
        WINDOW,
        PROMINENCE,
        layout::FILTERED,
        layout::EXTREMA,
        layout::EXTREMA_COUNT,
    )?;
    let stats = soc.run_cpu_program(&program)?;
    let count = soc.sram().dump(layout::EXTREMA_COUNT, 1)?[0] as usize;
    let triplets = soc.sram().dump(layout::EXTREMA, 3 * count.max(1))?;
    let (insp, exp) = intervals_from_triplets(&triplets[..3 * count]);
    Ok((stats.cycles, cpu_energy(&stats), insp, exp))
}

/// Runs the feature-extraction CPU pieces shared by the CPU-only and
/// CPU+FFT-accelerator configurations: interval statistics, band energies
/// over an already-computed spectrum, and the SVM.
fn cpu_stats_bands_svm(
    soc: &mut BiosignalSoc,
    insp: &[i32],
    exp: &[i32],
    spectrum: &[i32],
) -> Result<(u64, EnergyBreakdown, i32)> {
    let mut cycles = 0u64;
    let mut energy = EnergyBreakdown::default();
    let mut features = Vec::new();
    for data in [insp, exp] {
        soc.sram_mut().load(layout::INTERVALS, data)?;
        soc.sram_mut()
            .load(layout::INTERVAL_COUNT, &[data.len() as i32])?;
        let program = cpu_kernels::stats_program(
            layout::INTERVALS,
            layout::INTERVAL_COUNT,
            layout::SCRATCH,
            layout::STATS_OUT,
        )?;
        let stats = soc.run_cpu_program(&program)?;
        cycles += stats.cycles;
        energy = energy.combined(&cpu_energy(&stats));
        let out = soc.sram().dump(layout::STATS_OUT, 3)?;
        features.push(out[0]); // mean
        features.push(out[2]); // rms
    }
    // Reorder to [mean_insp, mean_exp, rms_insp, rms_exp].
    let features = vec![features[0], features[2], features[1], features[3]];

    soc.sram_mut().load(layout::FFT_OUT, spectrum)?;
    let program =
        cpu_kernels::band_energy_program(WINDOW / 2, BANDS, layout::FFT_OUT, layout::BANDS_OUT)?;
    let stats = soc.run_cpu_program(&program)?;
    cycles += stats.cycles;
    energy = energy.combined(&cpu_energy(&stats));
    let bands = soc.sram().dump(layout::BANDS_OUT, BANDS)?;

    let mut all_features = features;
    all_features.extend(bands);
    let (weights, bias) = svm_weights();
    soc.sram_mut().load(layout::FEATURES, &all_features)?;
    soc.sram_mut().load(layout::WEIGHTS, &weights)?;
    let program = cpu_kernels::svm_program(
        all_features.len(),
        bias,
        layout::FEATURES,
        layout::WEIGHTS,
        layout::SVM_OUT,
    )?;
    let stats = soc.run_cpu_program(&program)?;
    cycles += stats.cycles;
    energy = energy.combined(&cpu_energy(&stats));
    let prediction = soc.sram().dump(layout::SVM_OUT, 2)?[1];
    Ok((cycles, energy, prediction))
}

/// Runs the preprocessing (FIR) step on the CPU.
fn preprocessing_on_cpu(
    soc: &mut BiosignalSoc,
    window: &[i32],
) -> Result<(u64, EnergyBreakdown, Vec<i32>)> {
    soc.sram_mut().load(layout::RAW, window)?;
    soc.sram_mut().load(layout::TAPS, &fir_taps_q15())?;
    let program = cpu_kernels::fir_q15_program(
        WINDOW,
        FIR_TAPS,
        layout::RAW,
        layout::TAPS,
        layout::FILTERED,
    )?;
    let stats = soc.run_cpu_program(&program)?;
    let filtered = soc.sram().dump(layout::FILTERED, WINDOW)?;
    Ok((stats.cycles, cpu_energy(&stats), filtered))
}

/// Runs the real-valued FFT of the filtered signal on the CPU, returning
/// (cycles, energy, interleaved spectrum).
fn fft_on_cpu(
    soc: &mut BiosignalSoc,
    filtered: &[i32],
) -> Result<(u64, EnergyBreakdown, Vec<i32>)> {
    soc.sram_mut().load(layout::FFT_DATA, filtered)?;
    soc.sram_mut().load(
        layout::FFT_TW,
        &cpu_kernels::fft::cfft_twiddles_q15(WINDOW / 2),
    )?;
    soc.sram_mut().load(
        layout::FFT_SPLIT_TW,
        &cpu_kernels::fft::rfft_split_twiddles_q15(WINDOW),
    )?;
    let program = cpu_kernels::rfft_q15_program(
        WINDOW,
        layout::FFT_DATA,
        layout::FFT_TW,
        layout::FFT_SPLIT_TW,
        layout::FFT_OUT,
    )?;
    let stats = soc.run_cpu_program(&program)?;
    let spectrum = soc.sram().dump(layout::FFT_OUT, WINDOW)?;
    Ok((stats.cycles, cpu_energy(&stats), spectrum))
}

/// Runs the whole application on the CPU alone.
///
/// # Errors
///
/// Propagates simulator errors as [`PipelineError`].
pub fn run_cpu_only(window: &[i32]) -> Result<AppReport> {
    let mut soc = BiosignalSoc::new();
    let (pre_cycles, pre_energy, filtered) = preprocessing_on_cpu(&mut soc, window)?;
    let (del_cycles, del_energy, insp, exp) = delineation_on_cpu(&mut soc, &filtered)?;
    let (fft_cycles, fft_energy, spectrum) = fft_on_cpu(&mut soc, &filtered)?;
    let (rest_cycles, rest_energy, prediction) =
        cpu_stats_bands_svm(&mut soc, &insp, &exp, &spectrum)?;
    Ok(AppReport {
        platform: "CPU".into(),
        steps: vec![
            StepResult {
                name: "preprocessing".into(),
                cycles: pre_cycles,
                energy: pre_energy,
            },
            StepResult {
                name: "delineation".into(),
                cycles: del_cycles,
                energy: del_energy,
            },
            StepResult {
                name: "feature extraction".into(),
                cycles: fft_cycles + rest_cycles,
                energy: fft_energy.combined(&rest_energy),
            },
        ],
        prediction,
    })
}

/// Runs the application with the fixed-function FFT accelerator available:
/// identical to [`run_cpu_only`] except the FFT inside feature extraction.
///
/// # Errors
///
/// Propagates simulator errors as [`PipelineError`].
pub fn run_cpu_with_fft_accel(window: &[i32]) -> Result<AppReport> {
    let mut soc = BiosignalSoc::new();
    let (pre_cycles, pre_energy, filtered) = preprocessing_on_cpu(&mut soc, window)?;
    let (del_cycles, del_energy, insp, exp) = delineation_on_cpu(&mut soc, &filtered)?;

    // FFT on the fixed-function engine (it reads the filtered signal over
    // the bus and returns the 257-bin spectrum).
    let accel = FftAccelerator::new();
    let filtered_f: Vec<f64> = filtered.iter().map(|&v| v as f64 / 32768.0).collect();
    let (spectrum_c, accel_stats) = accel.run_real(&filtered_f)?;
    let spectrum: Vec<i32> = spectrum_c
        .iter()
        .take(WINDOW / 2)
        .flat_map(|c| [(c.re * 32768.0) as i32, (c.im * 32768.0) as i32])
        .collect();
    let fft_cycles = accel_stats.cycles;
    let fft_energy = fft_accel_energy(&accel_stats);

    let (rest_cycles, rest_energy, prediction) =
        cpu_stats_bands_svm(&mut soc, &insp, &exp, &spectrum)?;
    Ok(AppReport {
        platform: "CPU + FFT ACCEL".into(),
        steps: vec![
            StepResult {
                name: "preprocessing".into(),
                cycles: pre_cycles,
                energy: pre_energy,
            },
            StepResult {
                name: "delineation".into(),
                cycles: del_cycles,
                energy: del_energy,
            },
            StepResult {
                name: "feature extraction".into(),
                cycles: fft_cycles + rest_cycles,
                energy: fft_energy.combined(&rest_energy),
            },
        ],
        prediction,
    })
}

/// The VWR2A platform configuration as a long-lived pipeline: one
/// [`Session`] owns the accelerator and keeps every kernel program —
/// FIR, the FFT stage program, the real-FFT recombination passes and the
/// map-reduce programs — resident in the configuration memory across
/// windows.
///
/// The first [`Vwr2aPipeline::run_window`] pays each program's
/// configuration load once; every later window runs fully warm, which is
/// exactly the paper's intended steady-state operation of the array (the
/// application processes a continuous respiration stream window by
/// window).
#[derive(Debug)]
pub struct Vwr2aPipeline {
    session: Session,
    soc: BiosignalSoc,
    fir: FirKernel,
    rfft: RealFftKernel,
    bands: BandEnergies,
    moments: SumAndSquares,
    svm: DotProduct,
    bias: i32,
}

impl Vwr2aPipeline {
    /// Builds the pipeline's kernels and an empty session.
    ///
    /// # Errors
    ///
    /// Propagates kernel-construction errors as [`PipelineError`].
    pub fn new() -> Result<Self> {
        let (weights, bias) = svm_weights();
        Ok(Self {
            session: Session::new(),
            soc: BiosignalSoc::new(),
            fir: FirKernel::new(&fir_taps_q15(), WINDOW)?,
            rfft: RealFftKernel::new(WINDOW)?,
            bands: BandEnergies::new(BANDS)?,
            moments: SumAndSquares::new(),
            svm: DotProduct::new(weights)?,
            bias,
        })
    }

    /// The underlying session (e.g. to inspect program residency).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Runs the preprocessing FIR over a whole stream of windows on the
    /// pipelined execution engine: window *i+1* stages into the SPM while
    /// the array filters window *i*, and window *i−1* drains behind the
    /// launch.  Returns the filtered windows (bit-identical to per-window
    /// [`Vwr2aPipeline::run_window`] preprocessing) and the aggregated
    /// report, whose `wall_cycles` / `overlap_ratio()` quantify how much
    /// of the DMA time the pipeline hides.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors as [`PipelineError`]; the first error
    /// aborts the stream.
    pub fn preprocess_stream<'a>(
        &mut self,
        windows: impl IntoIterator<Item = &'a [i32]>,
    ) -> Result<(Vec<Vec<i32>>, vwr2a_runtime::RunReport)> {
        Ok(self.session.run_batch(&self.fir, windows)?)
    }

    /// Runs one application window: preprocessing, the FFT, the band
    /// energies, the interval statistics and the SVM on the array;
    /// delineation on the CPU (see the crate documentation).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors as [`PipelineError`].
    pub fn run_window(&mut self, window: &[i32]) -> Result<AppReport> {
        // Preprocessing on VWR2A.
        let (filtered, fir_report) = self.session.run(&self.fir, window)?;
        let pre_cycles = fir_report.cycles;
        let pre_energy = fir_report.energy();

        // Delineation stays on the CPU in this reproduction.
        let (del_cycles, del_energy, insp, exp) = delineation_on_cpu(&mut self.soc, &filtered)?;

        // Feature extraction on VWR2A: real FFT, band energies, interval
        // statistics and the SVM dot product.
        let mut fe_cycles = 0u64;
        let mut fe_energy = EnergyBreakdown::default();

        let (spectrum, fft_report) = self.session.run(&self.rfft, filtered.as_slice())?;
        fe_cycles += fft_report.cycles;
        fe_energy = fe_energy.combined(&fft_report.energy());

        let (band_energies, bands_report) = self.session.run(&self.bands, &spectrum)?;
        fe_cycles += bands_report.cycles;
        fe_energy = fe_energy.combined(&bands_report.energy());

        let mut features = Vec::new();
        let mut means = Vec::new();
        let mut rmss = Vec::new();
        for data in [&insp, &exp] {
            let (stats, report) = self.session.run(&self.moments, data.as_slice())?;
            fe_cycles += report.cycles;
            fe_energy = fe_energy.combined(&report.energy());
            let (mean, rms) =
                mean_and_rms(stats.sum as i64, stats.sum_of_squares as i64, data.len());
            means.push(mean);
            rmss.push(rms);
        }
        features.extend(means);
        features.extend(rmss);
        // Re-scale band energies to the q15-squared range used by the CPU
        // path (the VWR2A spectrum is in Q15.16).
        features.extend(band_energies.iter().map(|&b| b >> 2));

        let (dot, dot_report) = self.session.run(&self.svm, features.as_slice())?;
        fe_cycles += dot_report.cycles;
        fe_energy = fe_energy.combined(&dot_report.energy());
        let decision = dot.saturating_add(self.bias);
        let prediction = if decision >= 0 { 1 } else { -1 };

        Ok(AppReport {
            platform: "CPU + VWR2A".into(),
            steps: vec![
                StepResult {
                    name: "preprocessing".into(),
                    cycles: pre_cycles,
                    energy: pre_energy,
                },
                StepResult {
                    name: "delineation".into(),
                    cycles: del_cycles,
                    energy: del_energy,
                },
                StepResult {
                    name: "feature extraction".into(),
                    cycles: fe_cycles,
                    energy: fe_energy,
                },
            ],
            prediction,
        })
    }
}

/// Runs the application with VWR2A for a single window (a fresh
/// [`Vwr2aPipeline`], so every kernel launches cold — the paper's isolated
/// measurement).  Streaming workloads should hold a [`Vwr2aPipeline`] to
/// amortise the configuration loads.
///
/// # Errors
///
/// Propagates simulator errors as [`PipelineError`].
pub fn run_cpu_with_vwr2a(window: &[i32]) -> Result<AppReport> {
    Vwr2aPipeline::new()?.run_window(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::RespirationGenerator;

    fn window() -> Vec<i32> {
        RespirationGenerator::new(3).window(WINDOW)
    }

    #[test]
    fn cpu_only_pipeline_runs() {
        let report = run_cpu_only(&window()).unwrap();
        assert_eq!(report.steps.len(), 3);
        assert!(report.total_cycles() > 50_000);
        assert!(report.total_energy_uj() > 0.1);
        assert!(report.prediction == 1 || report.prediction == -1);
    }

    #[test]
    fn fft_accel_helps_only_feature_extraction() {
        let w = window();
        let cpu = run_cpu_only(&w).unwrap();
        let accel = run_cpu_with_fft_accel(&w).unwrap();
        assert_eq!(
            cpu.step_cycles("preprocessing"),
            accel.step_cycles("preprocessing")
        );
        assert_eq!(
            cpu.step_cycles("delineation"),
            accel.step_cycles("delineation")
        );
        assert!(
            accel.step_cycles("feature extraction") < cpu.step_cycles("feature extraction"),
            "the FFT accelerator must speed up feature extraction"
        );
    }

    #[test]
    fn vwr2a_gives_large_application_level_savings() {
        let w = window();
        let cpu = run_cpu_only(&w).unwrap();
        let vwr2a = run_cpu_with_vwr2a(&w).unwrap();
        assert!(
            vwr2a.step_cycles("preprocessing") < cpu.step_cycles("preprocessing") / 4,
            "preprocessing speed-up too small: {} vs {}",
            vwr2a.step_cycles("preprocessing"),
            cpu.step_cycles("preprocessing")
        );
        assert!(
            vwr2a.step_cycles("feature extraction") < cpu.step_cycles("feature extraction"),
            "feature extraction must be faster on VWR2A"
        );
        assert!(
            vwr2a.total_energy_uj() < cpu.total_energy_uj(),
            "total energy must drop: {} vs {}",
            vwr2a.total_energy_uj(),
            cpu.total_energy_uj()
        );
    }

    #[test]
    fn streamed_windows_run_warm_after_the_first() {
        let mut generator = RespirationGenerator::new(11);
        let windows: Vec<Vec<i32>> = (0..3).map(|_| generator.window(WINDOW)).collect();
        let mut pipeline = Vwr2aPipeline::new().unwrap();
        let reports: Vec<AppReport> = windows
            .iter()
            .map(|w| pipeline.run_window(w).unwrap())
            .collect();
        assert_eq!(reports.len(), 3);
        // Window 1 pays every configuration load; later windows must not.
        assert!(
            reports[1].step_cycles("preprocessing") < reports[0].step_cycles("preprocessing"),
            "warm preprocessing {} must beat cold {}",
            reports[1].step_cycles("preprocessing"),
            reports[0].step_cycles("preprocessing")
        );
        assert!(
            reports[1].step_cycles("feature extraction")
                < reports[0].step_cycles("feature extraction"),
            "warm feature extraction must beat cold"
        );
        // Steady state: windows 2 and 3 cost the same per step modulo
        // data-dependent delineation intervals.
        assert_eq!(
            reports[1].step_cycles("preprocessing"),
            reports[2].step_cycles("preprocessing")
        );
    }

    #[test]
    fn preprocessing_stream_overlaps_dma_with_compute() {
        let mut generator = RespirationGenerator::new(21);
        let windows: Vec<Vec<i32>> = (0..6).map(|_| generator.window(WINDOW)).collect();

        let mut pipeline = Vwr2aPipeline::new().unwrap();
        let (filtered, report) = pipeline
            .preprocess_stream(windows.iter().map(Vec::as_slice))
            .unwrap();
        assert_eq!(filtered.len(), windows.len());
        // Pipelined staging must beat the serial DMA-in + compute +
        // DMA-out sum while the filter output stays bit-identical to the
        // synchronous per-window path.
        assert!(
            report.wall_cycles < report.cycles,
            "wall {} vs serial phase sum {}",
            report.wall_cycles,
            report.cycles
        );
        assert!(report.overlap_ratio() > 0.0);

        let mut reference = Vwr2aPipeline::new().unwrap();
        for (window, streamed) in windows.iter().zip(&filtered) {
            let (isolated, _) = reference
                .session
                .run(&reference.fir, window.as_slice())
                .unwrap();
            assert_eq!(&isolated, streamed);
        }
    }

    #[test]
    fn pipeline_reuses_resident_programs_across_windows() {
        let mut pipeline = Vwr2aPipeline::new().unwrap();
        let mut generator = RespirationGenerator::new(5);
        pipeline.run_window(&generator.window(WINDOW)).unwrap();
        let programs_after_first = pipeline.session().loaded_programs();
        assert!(
            programs_after_first >= 5,
            "fir + fft stage + splits + map-reduce ops"
        );
        // The session registry mirrors the accelerator's configuration
        // memory one-to-one.
        let config_mem = pipeline.session().accelerator().config_mem();
        assert_eq!(config_mem.kernel_count(), programs_after_first);
        assert!(config_mem.used_words() > 0);
        pipeline.run_window(&generator.window(WINDOW)).unwrap();
        assert_eq!(
            pipeline.session().loaded_programs(),
            programs_after_first,
            "no new programs may be loaded for later windows"
        );
    }
}
