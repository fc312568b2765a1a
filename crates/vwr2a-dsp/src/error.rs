//! Error type shared by the reference DSP kernels.

use std::error::Error;
use std::fmt;

/// Errors produced by the reference DSP kernels.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::{fft, DspError};
/// use vwr2a_dsp::complex::Complex;
///
/// // FFT lengths must be powers of two.
/// let err = fft::fft(&vec![Complex::default(); 3]).unwrap_err();
/// assert!(matches!(err, DspError::LengthNotPowerOfTwo { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DspError {
    /// The transform length is not a power of two.
    LengthNotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// The input was empty where a non-empty slice is required.
    EmptyInput,
    /// A parameter is outside its supported range.
    InvalidParameter {
        /// Human-readable description of the parameter and its constraint.
        what: String,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::LengthNotPowerOfTwo { len } => {
                write!(f, "length {len} is not a power of two")
            }
            DspError::EmptyInput => write!(f, "input slice is empty"),
            DspError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = DspError::LengthNotPowerOfTwo { len: 12 };
        assert_eq!(e.to_string(), "length 12 is not a power of two");
        let e = DspError::EmptyInput;
        assert_eq!(e.to_string(), "input slice is empty");
        let e = DspError::InvalidParameter {
            what: "taps must be odd".into(),
        };
        assert!(e.to_string().contains("taps must be odd"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
