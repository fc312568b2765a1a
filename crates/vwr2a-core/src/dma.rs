//! The VWR2A DMA engine.
//!
//! A DMA performs the data transfers between the SPM and the system memory
//! (Sec. 3.2): VWR2A's master port issues bus transactions word by word at
//! the system-bus width, while the LSU handles the wide SPM↔VWR side.  The
//! model charges a fixed descriptor-programming overhead per transfer plus a
//! per-word beat cost; both are visible in the returned cycle counts and in
//! the activity counters, which is how the DMA row of Table 3 is produced.

use crate::error::{CoreError, Result};
use crate::spm::Spm;
use crate::trace::ActivityCounters;
use serde::{Deserialize, Serialize};

/// Timing parameters of the DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaConfig {
    /// Cycles to program one transfer descriptor (CPU writes over the slave
    /// port plus channel start).
    pub setup_cycles: u64,
    /// Bus beats per 32-bit word moved (AHB single beats; burst transfers
    /// can lower this).
    pub cycles_per_word: u64,
}

impl Default for DmaConfig {
    fn default() -> Self {
        // One descriptor write burst plus single-beat word transfers, the
        // conservative configuration used for the paper-shape experiments.
        Self {
            setup_cycles: 24,
            cycles_per_word: 1,
        }
    }
}

/// The DMA engine.
///
/// Transfers return the cycles they occupy the engine
/// ([`Dma::transfer_cycles`]).  When those cycles run is the caller's
/// business: the runtime's pipelined schedule overlaps them with the
/// array's compute.
///
/// # Example
///
/// ```
/// use vwr2a_core::dma::{Dma, DmaConfig};
/// use vwr2a_core::spm::Spm;
/// use vwr2a_core::trace::ActivityCounters;
///
/// # fn main() -> Result<(), vwr2a_core::error::CoreError> {
/// let dma = Dma::new(DmaConfig::default());
/// let mut spm = Spm::new(8192, 128);
/// let mut counters = ActivityCounters::new();
/// let data: Vec<i32> = (0..256).collect();
/// let cycles = dma.copy_to_spm(&data, &mut spm, 0, &mut counters)?;
/// assert!(cycles > 256);
/// assert_eq!(spm.read_word(255)?, 255);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dma {
    config: DmaConfig,
}

impl Dma {
    /// Creates a DMA engine with the given timing configuration.
    pub fn new(config: DmaConfig) -> Self {
        Self { config }
    }

    /// The timing configuration.
    pub fn config(&self) -> DmaConfig {
        self.config
    }

    /// Cycles a transfer of `words` words occupies the DMA engine
    /// (descriptor programming plus per-word beats).
    pub fn transfer_cycles(&self, words: usize) -> u64 {
        self.config.setup_cycles + self.config.cycles_per_word * words as u64
    }

    /// Copies `data` from system memory into the SPM starting at
    /// `spm_word_addr`, returning the transfer's cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDmaTransfer`] for an empty transfer or
    /// [`CoreError::SpmOutOfRange`] if the destination range does not fit.
    pub fn copy_to_spm(
        &self,
        data: &[i32],
        spm: &mut Spm,
        spm_word_addr: usize,
        counters: &mut ActivityCounters,
    ) -> Result<u64> {
        if data.is_empty() {
            return Err(CoreError::InvalidDmaTransfer {
                detail: "transfer length is zero".into(),
            });
        }
        spm.write_words(spm_word_addr, data)?;
        counters.dma_transfers += 1;
        counters.dma_words += data.len() as u64;
        counters.spm_word_writes += data.len() as u64;
        Ok(self.transfer_cycles(data.len()))
    }

    /// Copies `len` words from the SPM starting at `spm_word_addr` back to
    /// system memory, returning the data and the transfer's cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDmaTransfer`] for an empty transfer or
    /// [`CoreError::SpmOutOfRange`] if the source range does not fit.
    pub fn copy_from_spm(
        &self,
        spm: &Spm,
        spm_word_addr: usize,
        len: usize,
        counters: &mut ActivityCounters,
    ) -> Result<(Vec<i32>, u64)> {
        if len == 0 {
            return Err(CoreError::InvalidDmaTransfer {
                detail: "transfer length is zero".into(),
            });
        }
        let data = spm.read_words(spm_word_addr, len)?;
        counters.dma_transfers += 1;
        counters.dma_words += len as u64;
        counters.spm_word_reads += len as u64;
        Ok((data, self.transfer_cycles(len)))
    }
}

impl Default for Dma {
    fn default() -> Self {
        Self::new(DmaConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_data_and_counts_activity() {
        let dma = Dma::default();
        let mut spm = Spm::new(1024, 128);
        let mut counters = ActivityCounters::new();
        let data: Vec<i32> = (0..128).map(|i| i * 3 - 64).collect();
        let to = dma
            .copy_to_spm(&data, &mut spm, 128, &mut counters)
            .unwrap();
        let (back, from) = dma.copy_from_spm(&spm, 128, 128, &mut counters).unwrap();
        assert_eq!(back, data);
        assert_eq!(to, from);
        assert_eq!(to, dma.transfer_cycles(128));
        assert_eq!(counters.dma_transfers, 2);
        assert_eq!(counters.dma_words, 256);
        assert_eq!(counters.spm_word_writes, 128);
        assert_eq!(counters.spm_word_reads, 128);
    }

    #[test]
    fn cycle_cost_scales_with_length() {
        let dma = Dma::new(DmaConfig {
            setup_cycles: 10,
            cycles_per_word: 2,
        });
        let mut spm = Spm::new(1024, 128);
        let mut counters = ActivityCounters::new();
        let cycles = dma
            .copy_to_spm(&[0; 100], &mut spm, 0, &mut counters)
            .unwrap();
        assert_eq!(cycles, 10 + 200);
        assert_eq!(dma.transfer_cycles(100), 210);
    }

    #[test]
    fn invalid_transfers_rejected() {
        let dma = Dma::default();
        let mut spm = Spm::new(256, 128);
        let mut counters = ActivityCounters::new();
        assert!(dma.copy_to_spm(&[], &mut spm, 0, &mut counters).is_err());
        assert!(dma
            .copy_to_spm(&[0; 300], &mut spm, 0, &mut counters)
            .is_err());
        assert!(dma.copy_from_spm(&spm, 0, 0, &mut counters).is_err());
        assert!(dma.copy_from_spm(&spm, 200, 100, &mut counters).is_err());
        // Failed transfers move nothing.
        assert_eq!(counters.dma_transfers, 0);
        assert_eq!(counters.dma_words, 0);
    }
}
