//! Activity counters used for the energy model.
//!
//! The paper estimates power from post-synthesis switching activity with
//! PrimePower.  Our substitute is architectural: every simulated component
//! increments an activity counter whenever it does work, and the
//! `vwr2a-energy` crate multiplies the counters by calibrated per-event
//! energies.  The counter categories mirror the breakdown of Table 3
//! (DMA / Memories / Control / Datapath).

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Per-component activity counters accumulated over a kernel run.
///
/// # Example
///
/// ```
/// use vwr2a_core::trace::ActivityCounters;
///
/// let mut a = ActivityCounters::default();
/// a.rc_alu_ops = 10;
/// let mut b = ActivityCounters::default();
/// b.rc_alu_ops = 5;
/// assert_eq!((a + b).rc_alu_ops, 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ActivityCounters {
    /// Total cycles the array was active.
    pub cycles: u64,
    /// Non-NOP RC instructions issued (ALU activations).
    pub rc_alu_ops: u64,
    /// RC multiplications (subset of `rc_alu_ops`, charged extra energy).
    pub rc_multiplies: u64,
    /// RC local register file reads.
    pub rc_reg_reads: u64,
    /// RC local register file writes.
    pub rc_reg_writes: u64,
    /// Word reads from a VWR by the datapath.
    pub vwr_word_reads: u64,
    /// Word writes to a VWR by the datapath.
    pub vwr_word_writes: u64,
    /// Whole-line VWR fills/drains (SPM-side port activations).
    pub vwr_line_transfers: u64,
    /// SPM wide-line reads (accelerator side).
    pub spm_line_reads: u64,
    /// SPM wide-line writes (accelerator side).
    pub spm_line_writes: u64,
    /// SPM narrow word reads (scalar / system side).
    pub spm_word_reads: u64,
    /// SPM narrow word writes (scalar / system side).
    pub spm_word_writes: u64,
    /// SRF reads.
    pub srf_reads: u64,
    /// SRF writes.
    pub srf_writes: u64,
    /// Shuffle-unit activations.
    pub shuffle_ops: u64,
    /// Non-NOP instruction issues across all slots (control/sequencing
    /// activity: program memory reads, PC updates).
    pub instr_issues: u64,
    /// NOP issues (clock but no datapath activity; operand isolation keeps
    /// their dynamic cost near zero).
    pub nop_issues: u64,
    /// Taken LCU branches and jumps.
    pub lcu_branches: u64,
    /// Words moved by the VWR2A DMA between the SPM and system memory.
    pub dma_words: u64,
    /// DMA transfer setup events (descriptor programming).
    pub dma_transfers: u64,
    /// Configuration words loaded from the configuration memory into the
    /// per-slot program memories at kernel start.
    pub config_words_loaded: u64,
}

impl ActivityCounters {
    /// Creates a zeroed counter set (same as `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Add for ActivityCounters {
    type Output = ActivityCounters;
    fn add(mut self, rhs: ActivityCounters) -> ActivityCounters {
        self += rhs;
        self
    }
}

impl AddAssign for ActivityCounters {
    fn add_assign(&mut self, rhs: ActivityCounters) {
        self.cycles += rhs.cycles;
        self.rc_alu_ops += rhs.rc_alu_ops;
        self.rc_multiplies += rhs.rc_multiplies;
        self.rc_reg_reads += rhs.rc_reg_reads;
        self.rc_reg_writes += rhs.rc_reg_writes;
        self.vwr_word_reads += rhs.vwr_word_reads;
        self.vwr_word_writes += rhs.vwr_word_writes;
        self.vwr_line_transfers += rhs.vwr_line_transfers;
        self.spm_line_reads += rhs.spm_line_reads;
        self.spm_line_writes += rhs.spm_line_writes;
        self.spm_word_reads += rhs.spm_word_reads;
        self.spm_word_writes += rhs.spm_word_writes;
        self.srf_reads += rhs.srf_reads;
        self.srf_writes += rhs.srf_writes;
        self.shuffle_ops += rhs.shuffle_ops;
        self.instr_issues += rhs.instr_issues;
        self.nop_issues += rhs.nop_issues;
        self.lcu_branches += rhs.lcu_branches;
        self.dma_words += rhs.dma_words;
        self.dma_transfers += rhs.dma_transfers;
        self.config_words_loaded += rhs.config_words_loaded;
    }
}

impl Sub for ActivityCounters {
    type Output = ActivityCounters;
    fn sub(mut self, rhs: ActivityCounters) -> ActivityCounters {
        self -= rhs;
        self
    }
}

impl SubAssign for ActivityCounters {
    fn sub_assign(&mut self, rhs: ActivityCounters) {
        self.cycles -= rhs.cycles;
        self.rc_alu_ops -= rhs.rc_alu_ops;
        self.rc_multiplies -= rhs.rc_multiplies;
        self.rc_reg_reads -= rhs.rc_reg_reads;
        self.rc_reg_writes -= rhs.rc_reg_writes;
        self.vwr_word_reads -= rhs.vwr_word_reads;
        self.vwr_word_writes -= rhs.vwr_word_writes;
        self.vwr_line_transfers -= rhs.vwr_line_transfers;
        self.spm_line_reads -= rhs.spm_line_reads;
        self.spm_line_writes -= rhs.spm_line_writes;
        self.spm_word_reads -= rhs.spm_word_reads;
        self.spm_word_writes -= rhs.spm_word_writes;
        self.srf_reads -= rhs.srf_reads;
        self.srf_writes -= rhs.srf_writes;
        self.shuffle_ops -= rhs.shuffle_ops;
        self.instr_issues -= rhs.instr_issues;
        self.nop_issues -= rhs.nop_issues;
        self.lcu_branches -= rhs.lcu_branches;
        self.dma_words -= rhs.dma_words;
        self.dma_transfers -= rhs.dma_transfers;
        self.config_words_loaded -= rhs.config_words_loaded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_accumulates_every_field() {
        let mut a = ActivityCounters::new();
        a.cycles = 1;
        a.rc_alu_ops = 2;
        a.rc_multiplies = 3;
        a.vwr_word_reads = 4;
        a.spm_line_reads = 5;
        a.srf_reads = 6;
        a.dma_words = 7;
        a.config_words_loaded = 8;
        let b = a;
        let sum = a + b;
        assert_eq!(sum.cycles, 2);
        assert_eq!(sum.rc_alu_ops, 4);
        assert_eq!(sum.rc_multiplies, 6);
        assert_eq!(sum.vwr_word_reads, 8);
        assert_eq!(sum.spm_line_reads, 10);
        assert_eq!(sum.srf_reads, 12);
        assert_eq!(sum.dma_words, 14);
        assert_eq!(sum.config_words_loaded, 16);
    }

    #[test]
    fn subtraction_inverts_addition() {
        let mut a = ActivityCounters::new();
        a.cycles = 10;
        a.rc_alu_ops = 20;
        a.dma_words = 30;
        a.config_words_loaded = 40;
        let mut b = ActivityCounters::new();
        b.cycles = 3;
        b.rc_alu_ops = 4;
        b.dma_words = 5;
        b.config_words_loaded = 6;
        assert_eq!((a + b) - b, a);
        let d = a - b;
        assert_eq!(d.cycles, 7);
        assert_eq!(d.rc_alu_ops, 16);
        assert_eq!(d.dma_words, 25);
        assert_eq!(d.config_words_loaded, 34);
    }
}
