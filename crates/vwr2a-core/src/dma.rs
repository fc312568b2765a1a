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

/// Cycles to program one transfer descriptor (CPU writes over the slave
/// port plus channel start).
const SETUP_CYCLES: u64 = 24;
/// Bus beats per 32-bit word moved (AHB single beats).
const CYCLES_PER_WORD: u64 = 1;

/// Cycles a transfer of `words` words occupies the DMA engine (descriptor
/// programming plus per-word beats).  When those cycles run is the
/// caller's business: the runtime's pipelined schedule overlaps them with
/// the array's compute.
///
/// # Example
///
/// ```
/// use vwr2a_core::dma;
/// use vwr2a_core::spm::Spm;
/// use vwr2a_core::trace::ActivityCounters;
///
/// # fn main() -> Result<(), vwr2a_core::error::CoreError> {
/// let mut spm = Spm::new(8192, 128);
/// let mut counters = ActivityCounters::new();
/// let data: Vec<i32> = (0..100).collect();
/// let cycles = dma::copy_to_spm(&data, &mut spm, 0, &mut counters)?;
/// assert_eq!(cycles, 124);
/// assert_eq!(cycles, dma::transfer_cycles(100));
/// assert_eq!(spm.read_word(99)?, 99);
/// # Ok(())
/// # }
/// ```
pub fn transfer_cycles(words: usize) -> u64 {
    SETUP_CYCLES + CYCLES_PER_WORD * words as u64
}

/// Copies `data` from system memory into the SPM starting at
/// `spm_word_addr`, returning the transfer's cycles.
///
/// # Errors
///
/// Returns [`CoreError::InvalidDmaTransfer`] for an empty transfer or
/// [`CoreError::SpmOutOfRange`] if the destination range does not fit.
pub fn copy_to_spm(
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
    Ok(transfer_cycles(data.len()))
}

/// Copies `len` words from the SPM starting at `spm_word_addr` back to
/// system memory, returning the data and the transfer's cycles.
///
/// # Errors
///
/// Returns [`CoreError::InvalidDmaTransfer`] for an empty transfer or
/// [`CoreError::SpmOutOfRange`] if the source range does not fit.
pub fn copy_from_spm(
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
    Ok((data, transfer_cycles(len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_data_and_counts_activity() {
        let mut spm = Spm::new(1024, 128);
        let mut counters = ActivityCounters::new();
        let data: Vec<i32> = (0..128).map(|i| i * 3 - 64).collect();
        let to = copy_to_spm(&data, &mut spm, 128, &mut counters).unwrap();
        let (back, from) = copy_from_spm(&spm, 128, 128, &mut counters).unwrap();
        assert_eq!(back, data);
        assert_eq!(to, from);
        assert_eq!(to, transfer_cycles(128));
        assert_eq!(counters.dma_transfers, 2);
        assert_eq!(counters.dma_words, 256);
        assert_eq!(counters.spm_word_writes, 128);
        assert_eq!(counters.spm_word_reads, 128);
    }

    #[test]
    fn cycle_cost_scales_with_length() {
        let mut spm = Spm::new(1024, 128);
        let mut counters = ActivityCounters::new();
        let cycles = copy_to_spm(&[0; 100], &mut spm, 0, &mut counters).unwrap();
        assert_eq!(cycles, 24 + 100);
        assert_eq!(transfer_cycles(100), 124);
        assert_eq!(transfer_cycles(200), 224);
    }

    #[test]
    fn invalid_transfers_rejected() {
        let mut spm = Spm::new(256, 128);
        let mut counters = ActivityCounters::new();
        assert!(copy_to_spm(&[], &mut spm, 0, &mut counters).is_err());
        assert!(copy_to_spm(&[0; 300], &mut spm, 0, &mut counters).is_err());
        assert!(copy_from_spm(&spm, 0, 0, &mut counters).is_err());
        assert!(copy_from_spm(&spm, 200, 100, &mut counters).is_err());
        // Failed transfers move nothing.
        assert_eq!(counters.dma_transfers, 0);
        assert_eq!(counters.dma_words, 0);
    }
}
