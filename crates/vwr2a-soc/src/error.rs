//! Error type of the SoC substrate.

use std::error::Error;
use std::fmt;

/// Errors raised by the SoC simulator (SRAM, CPU, CPU kernel builders).
///
/// # Example
///
/// ```
/// use vwr2a_soc::error::SocError;
///
/// let e = SocError::AddressOutOfRange { addr: 0x4000_0000, capacity: 196_608 };
/// assert!(e.to_string().contains("out of range"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SocError {
    /// A memory access fell outside the addressed component.
    AddressOutOfRange {
        /// Byte or word address that was requested.
        addr: usize,
        /// Capacity of the component in the same unit.
        capacity: usize,
    },
    /// A CPU register index outside the register file.
    InvalidRegister {
        /// The offending register number.
        reg: usize,
    },
    /// A branch or jump target outside the program.
    InvalidBranchTarget {
        /// The requested target.
        target: usize,
        /// Program length.
        len: usize,
    },
    /// The CPU executed more cycles than the configured limit.
    CycleLimitExceeded {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// The program finished without executing `Halt`.
    MissingHalt,
    /// A parameter is outside its supported range.
    InvalidParameter {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::AddressOutOfRange { addr, capacity } => {
                write!(f, "address {addr:#x} out of range (capacity {capacity:#x})")
            }
            SocError::InvalidRegister { reg } => write!(f, "invalid cpu register r{reg}"),
            SocError::InvalidBranchTarget { target, len } => {
                write!(f, "branch target {target} outside program of length {len}")
            }
            SocError::CycleLimitExceeded { limit } => {
                write!(f, "cpu program did not halt within {limit} cycles")
            }
            SocError::MissingHalt => write!(f, "cpu program ran past its last instruction"),
            SocError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for SocError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SocError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(SocError::InvalidRegister { reg: 33 }
            .to_string()
            .contains("33"));
        assert!(
            SocError::MissingHalt.to_string().contains("halt")
                || SocError::MissingHalt.to_string().contains("ran past")
        );
        assert!(SocError::InvalidBranchTarget { target: 9, len: 4 }
            .to_string()
            .contains('9'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<SocError>();
    }
}
