//! Architectural geometry of the VWR2A array.
//!
//! The paper's instance (Sec. 3) has two columns of four reconfigurable
//! cells, three 4096-bit very-wide registers per column, a 32 KiB shared
//! scratchpad, an 8-entry scalar register file and 64-word program memories.
//! All of these are captured in [`Geometry`] so the ablation experiments
//! (E7 in DESIGN.md) can sweep them; [`Geometry::paper`] returns the
//! published configuration.

use crate::error::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// Identifier of one of the per-column very-wide registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VwrId {
    /// VWR A — first shuffle-unit input.
    A,
    /// VWR B — second shuffle-unit input.
    B,
    /// VWR C — shuffle-unit output.
    C,
    /// Additional VWR (only present when `Geometry::num_vwrs > 3`, used by
    /// the ablation study).
    D,
}

impl VwrId {
    /// All identifiers in order.
    pub const ALL: [VwrId; 4] = [VwrId::A, VwrId::B, VwrId::C, VwrId::D];

    /// Index of this VWR within a column (A=0 … D=3).
    pub fn index(self) -> usize {
        match self {
            VwrId::A => 0,
            VwrId::B => 1,
            VwrId::C => 2,
            VwrId::D => 3,
        }
    }

    /// The identifier for a given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }
}

/// Geometry (sizes and counts) of a VWR2A instance.
///
/// # Example
///
/// ```
/// use vwr2a_core::geometry::Geometry;
///
/// let g = Geometry::paper();
/// assert_eq!(g.columns, 2);
/// assert_eq!(g.rcs_per_column, 4);
/// assert_eq!(g.vwr_words, 128);          // 4096 bits / 32-bit words
/// assert_eq!(g.spm_lines(), 64);         // 32 KiB / 4096-bit lines
/// assert_eq!(g.slice_words(), 32);       // each RC sees a quarter of a VWR
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Number of columns (the paper uses 2).
    pub columns: usize,
    /// Reconfigurable cells per column (the paper uses 4).
    pub rcs_per_column: usize,
    /// Number of very-wide registers per column (the paper uses 3).
    pub num_vwrs: usize,
    /// Words (32-bit) per very-wide register (the paper uses 128 = 4096 bits).
    pub vwr_words: usize,
    /// Scratchpad capacity in bytes (the paper uses 32 KiB).
    pub spm_bytes: usize,
    /// Scalar-register-file entries (the paper uses 8).
    pub srf_entries: usize,
    /// Program-memory words per slot (the paper uses 64).
    pub program_words: usize,
    /// Local register-file entries per RC (the paper uses 2).
    pub rc_registers: usize,
    /// Configuration-memory capacity in configuration words.
    pub config_words: usize,
}

impl Geometry {
    /// The configuration published in the paper.
    pub fn paper() -> Self {
        Self {
            columns: 2,
            rcs_per_column: 4,
            num_vwrs: 3,
            vwr_words: 128,
            spm_bytes: 32 * 1024,
            srf_entries: 8,
            program_words: 64,
            rc_registers: 2,
            config_words: 4096,
        }
    }

    /// Words visible to each RC (a `1/rcs_per_column` slice of a VWR).
    pub fn slice_words(&self) -> usize {
        self.vwr_words / self.rcs_per_column
    }

    /// SPM capacity in 32-bit words.
    pub fn spm_words(&self) -> usize {
        self.spm_bytes / 4
    }

    /// SPM capacity in VWR-wide lines.
    pub fn spm_lines(&self) -> usize {
        self.spm_words() / self.vwr_words
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGeometry`] when a parameter is zero, the
    /// VWR width is not divisible by the RC count, the SPM is not a whole
    /// number of lines, or more than four VWRs are requested.
    pub fn validate(&self) -> Result<()> {
        let fail = |detail: String| Err(CoreError::InvalidGeometry { detail });
        if self.columns == 0 || self.rcs_per_column == 0 || self.vwr_words == 0 {
            return fail("columns, rcs_per_column and vwr_words must be non-zero".into());
        }
        if self.num_vwrs < 2 || self.num_vwrs > VwrId::ALL.len() {
            return fail(format!(
                "num_vwrs must be between 2 and {}, got {}",
                VwrId::ALL.len(),
                self.num_vwrs
            ));
        }
        if !self.vwr_words.is_multiple_of(self.rcs_per_column) {
            return fail(format!(
                "vwr_words ({}) must be divisible by rcs_per_column ({})",
                self.vwr_words, self.rcs_per_column
            ));
        }
        if !self.spm_bytes.is_multiple_of(self.vwr_words * 4) {
            return fail(format!(
                "spm_bytes ({}) must be a whole number of {}-byte lines",
                self.spm_bytes,
                self.vwr_words * 4
            ));
        }
        if self.srf_entries == 0 || self.program_words == 0 || self.rc_registers == 0 {
            return fail("srf_entries, program_words and rc_registers must be non-zero".into());
        }
        if !self.vwr_words.is_power_of_two() {
            return fail(format!(
                "vwr_words must be a power of two for the shuffle unit, got {}",
                self.vwr_words
            ));
        }
        Ok(())
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_valid_and_matches_section3() {
        let g = Geometry::paper();
        g.validate().unwrap();
        assert_eq!(g.spm_words(), 8192);
        assert_eq!(g.spm_lines(), 64);
        assert_eq!(g.slice_words(), 32);
        assert_eq!(g.num_vwrs, 3);
        assert_eq!(g.srf_entries, 8);
        assert_eq!(g.program_words, 64);
        assert_eq!(g.rc_registers, 2);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(Geometry::default(), Geometry::paper());
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let mut g = Geometry::paper();
        g.vwr_words = 0;
        assert!(g.validate().is_err());

        let mut g = Geometry::paper();
        g.num_vwrs = 1;
        assert!(g.validate().is_err());

        let mut g = Geometry::paper();
        g.num_vwrs = 9;
        assert!(g.validate().is_err());

        let mut g = Geometry::paper();
        g.vwr_words = 100; // not a power of two, not divisible cleanly into the SPM
        assert!(g.validate().is_err());

        let mut g = Geometry::paper();
        g.spm_bytes = 1000;
        assert!(g.validate().is_err());

        let mut g = Geometry::paper();
        g.srf_entries = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn vwr_id_round_trip() {
        for (i, id) in VwrId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(VwrId::from_index(i), *id);
        }
    }

    #[test]
    fn ablation_geometries_validate() {
        for vwrs in 2..=4usize {
            let mut g = Geometry::paper();
            g.num_vwrs = vwrs;
            g.validate().unwrap();
        }
        for words in [64usize, 128, 256] {
            let mut g = Geometry::paper();
            g.vwr_words = words;
            g.validate().unwrap();
        }
    }
}
