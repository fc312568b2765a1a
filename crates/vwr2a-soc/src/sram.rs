//! On-chip SRAM: the 192 KiB data memory of the platform's CPU.
//!
//! The platform of Sec. 4.1 has 192 KiB of SRAM.  The model stores the
//! words and bounds-checks every access: the CPU's loads and stores go
//! through [`Sram::read_word`] and [`Sram::write_word`], and the host seeds
//! inputs and collects results with [`Sram::load`] and [`Sram::dump`].

use crate::error::{Result, SocError};
use serde::{Deserialize, Serialize};

/// The SRAM, addressed in 32-bit words.
///
/// # Example
///
/// ```
/// use vwr2a_soc::sram::Sram;
///
/// # fn main() -> Result<(), vwr2a_soc::error::SocError> {
/// let mut sram = Sram::paper();           // 192 KiB
/// sram.write_word(0, 123)?;
/// assert_eq!(sram.read_word(0)?, 123);
/// assert_eq!(sram.words(), 49_152);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sram {
    words: Vec<i32>,
}

impl Sram {
    /// Creates a zeroed SRAM of `words` 32-bit words.
    pub fn with_words(words: usize) -> Self {
        Self {
            words: vec![0; words],
        }
    }

    /// The paper's configuration: 192 KiB (49152 words).
    pub fn paper() -> Self {
        Self::with_words(192 * 1024 / 4)
    }

    /// Capacity in 32-bit words.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// The error for an access ending at word `addr`.
    fn out_of_range(&self, addr: usize) -> SocError {
        SocError::AddressOutOfRange {
            addr,
            capacity: self.words.len(),
        }
    }

    /// Reads one word.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::AddressOutOfRange`] if the address is outside the
    /// memory.
    pub fn read_word(&self, word_addr: usize) -> Result<i32> {
        match self.words.get(word_addr) {
            Some(&value) => Ok(value),
            None => Err(self.out_of_range(word_addr)),
        }
    }

    /// Writes one word.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::AddressOutOfRange`] if the address is outside the
    /// memory.
    pub fn write_word(&mut self, word_addr: usize, value: i32) -> Result<()> {
        match self.words.get_mut(word_addr) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(self.out_of_range(word_addr)),
        }
    }

    /// Bulk host-side write (seeding inputs).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::AddressOutOfRange`] if the slice does not fit.
    pub fn load(&mut self, word_addr: usize, data: &[i32]) -> Result<()> {
        let end = word_addr.saturating_add(data.len());
        if end > self.words.len() {
            return Err(self.out_of_range(end));
        }
        self.words[word_addr..end].copy_from_slice(data);
        Ok(())
    }

    /// Bulk host-side read (collecting results).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::AddressOutOfRange`] if the range does not fit.
    pub fn dump(&self, word_addr: usize, len: usize) -> Result<Vec<i32>> {
        let end = word_addr.saturating_add(len);
        if end > self.words.len() {
            return Err(self.out_of_range(end));
        }
        Ok(self.words[word_addr..end].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration() {
        let sram = Sram::paper();
        assert_eq!(sram.words(), 192 * 1024 / 4);
        assert_eq!(sram.dump(0, sram.words()).unwrap(), vec![0; 49_152]);
    }

    #[test]
    fn read_write_round_trip() {
        let mut sram = Sram::with_words(512);
        sram.write_word(10, -3).unwrap();
        sram.write_word(511, 7).unwrap();
        assert_eq!(sram.read_word(10).unwrap(), -3);
        assert_eq!(sram.read_word(511).unwrap(), 7);
        assert_eq!(sram.read_word(11).unwrap(), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut sram = Sram::with_words(256);
        assert!(sram.read_word(256).is_err());
        assert!(sram.write_word(1000, 0).is_err());
        assert!(sram.load(200, &[0; 100]).is_err());
        assert!(sram.dump(0, 1000).is_err());
        assert!(
            sram.dump(usize::MAX, 2).is_err(),
            "no overflow past the end"
        );
        assert!(Sram::with_words(0).read_word(0).is_err());
    }

    #[test]
    fn bulk_load_dump_round_trip() {
        let mut sram = Sram::with_words(1024);
        let data: Vec<i32> = (0..512).map(|i| i * 2 - 512).collect();
        sram.load(100, &data).unwrap();
        assert_eq!(sram.dump(100, 512).unwrap(), data);
    }
}
