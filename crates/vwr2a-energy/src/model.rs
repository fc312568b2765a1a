//! Per-backend energy pricing facade for schedulers.
//!
//! The crate's free functions ([`crate::vwr2a_energy`],
//! [`crate::fft_accel_energy`], [`crate::cpu_energy`]) price a *finished*
//! run from its activity trail.  A scheduler needs two more things:
//!
//! * the same pricing expressed in **integer nanojoules**, so per-job
//!   energies sum exactly to per-backend and fleet totals (floating-point
//!   µJ sums drift; u64 nJ sums do not), and
//! * **estimates** for work that has not run yet — a per-window energy
//!   figure per backend kind, derived from the paper's Table 3 average
//!   power at the calibration frequency, so a placement strategy can
//!   weigh joules next to cycles before committing a job.
//!
//! [`EnergyModel`] bundles both over the calibrated coefficient sets.  The
//! estimates are deliberately simple — nominal pJ/cycle rates — because a
//! placement decision only needs relative ordering between backends; the
//! executed window is always re-priced from its actual counters.

use crate::coefficients::Vwr2aCoefficients;
use crate::{cpu_energy, fft_accel_energy, vwr2a_energy_with, PAPER_FREQUENCY_HZ};
use vwr2a_core::ActivityCounters;
use vwr2a_fftaccel::FftAccelStats;
use vwr2a_soc::cpu::CpuRunStats;

/// Table 3 average VWR2A power on the 512-point real FFT (mW).
const ARRAY_MW: f64 = 5.41;
/// Table 3 average fixed-function FFT engine power (mW).
const FFT_MW: f64 = 0.983;
/// Average Cortex-M4 power implied by the Tables 4/5 µJ columns (mW).
const CPU_MW: f64 = 1.2;

/// Converts a µJ breakdown total to integer nanojoules (round to nearest).
fn uj_to_nj(uj: f64) -> u64 {
    (uj * 1e3).round() as u64
}

/// Nominal per-cycle energy (nJ/cycle) of a substrate averaging `mw`
/// milliwatts at the calibration clock.
fn nj_per_cycle(mw: f64) -> f64 {
    // mW / Hz = mJ/cycle; × 1e6 = nJ/cycle.
    mw / PAPER_FREQUENCY_HZ * 1e6
}

/// Energy pricing for every backend kind of the heterogeneous fleet, in
/// integer nanojoules.
///
/// *Measured* pricing (`price_*`) converts an executed run's activity
/// trail through the calibrated coefficient sets; *estimates*
/// (`*_window_nj`, [`EnergyModel::array_reload_nj`]) project the energy of
/// work that has not run yet from cycle counts alone.  Both are what the
/// runtime's placement layer threads through `BackendView` and
/// `JobRoute`.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    vwr2a: Vwr2aCoefficients,
}

impl EnergyModel {
    /// The model over the paper-calibrated coefficient sets.
    pub fn calibrated() -> Self {
        Self {
            vwr2a: Vwr2aCoefficients::calibrated(),
        }
    }

    /// Prices a CGRA array's measured activity delta, in nJ.
    pub fn price_array(&self, counters: &ActivityCounters) -> u64 {
        uj_to_nj(vwr2a_energy_with(counters, &self.vwr2a).total_uj())
    }

    /// Prices a fixed-function FFT engine run from its statistics, in nJ.
    pub fn price_fft(&self, stats: &FftAccelStats) -> u64 {
        uj_to_nj(fft_accel_energy(stats).total_uj())
    }

    /// Prices a Cortex-M4 run from its ISS statistics, in nJ.
    pub fn price_cpu(&self, stats: &CpuRunStats) -> u64 {
        uj_to_nj(cpu_energy(stats).total_uj())
    }

    /// Estimated energy of `cycles` compute cycles on a CGRA array, in nJ
    /// (Table 3 average power, ≈ 67.6 pJ/cycle).
    pub fn array_window_nj(&self, cycles: u64) -> u64 {
        (cycles as f64 * nj_per_cycle(ARRAY_MW)).round() as u64
    }

    /// Estimated energy of `cycles` cycles on the fixed-function FFT
    /// engine, in nJ (Table 3 average power, ≈ 12.3 pJ/cycle).
    pub fn fft_window_nj(&self, cycles: u64) -> u64 {
        (cycles as f64 * nj_per_cycle(FFT_MW)).round() as u64
    }

    /// Estimated energy of `cycles` ISS cycles on the Cortex-M4 host, in
    /// nJ (≈ 15 pJ/cycle).
    pub fn cpu_window_nj(&self, cycles: u64) -> u64 {
        (cycles as f64 * nj_per_cycle(CPU_MW)).round() as u64
    }

    /// Estimated energy of streaming a `config_words`-word configuration
    /// reload into an array, in nJ — priced through the coefficients
    /// exactly as the measured reload will be (one word per cycle, the
    /// config-word switching cost plus leakage).
    pub fn array_reload_nj(&self, config_words: u64) -> u64 {
        let counters = ActivityCounters {
            cycles: config_words,
            config_words_loaded: config_words,
            ..ActivityCounters::default()
        };
        self.price_array(&counters)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_pricing_matches_the_free_functions() {
        let model = EnergyModel::calibrated();
        let counters = ActivityCounters {
            cycles: 5000,
            rc_alu_ops: 20_000,
            vwr_word_reads: 40_000,
            ..ActivityCounters::default()
        };
        let uj = crate::vwr2a_energy(&counters).total_uj();
        assert_eq!(model.price_array(&counters), uj_to_nj(uj));
        let stats = FftAccelStats {
            cycles: 3523,
            butterflies: 2048,
            memory_accesses: 16384,
            twiddle_reads: 2048,
            io_words: 1281,
            scaling_events: 3,
        };
        assert_eq!(
            model.price_fft(&stats),
            uj_to_nj(fft_accel_energy(&stats).total_uj())
        );
    }

    #[test]
    fn estimates_rank_backends_like_table3() {
        // Same cycle count: the engine is the cheapest substrate, the
        // array the most power-hungry — the ordering the paper's Table 3
        // reports and the placement objective relies on.
        let model = EnergyModel::calibrated();
        let cycles = 3500;
        let array = model.array_window_nj(cycles);
        let fft = model.fft_window_nj(cycles);
        let cpu = model.cpu_window_nj(cycles);
        assert!(fft < cpu, "fft {fft} vs cpu {cpu}");
        assert!(cpu < array, "cpu {cpu} vs array {array}");
        // ~67.6 pJ/cycle x 3500 cycles ≈ 237 nJ.
        assert!((200..280).contains(&array), "array {array} nJ");
    }

    #[test]
    fn reload_estimate_is_linear_in_words() {
        let model = EnergyModel::calibrated();
        let one = model.array_reload_nj(100);
        let two = model.array_reload_nj(200);
        assert!(one > 0);
        assert!(two >= 2 * one - 1 && two <= 2 * one + 1);
    }
}
