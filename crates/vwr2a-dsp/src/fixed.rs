//! Fixed-point arithmetic formats used across the reproduction.
//!
//! Three formats appear in the paper:
//!
//! * **q15** — the CMSIS-DSP 16-bit format (`Q1.15`) used by the Cortex-M4
//!   baseline.  Values are in `[-1, 1)` with 15 fractional bits.
//! * **Q15.16** — the format produced by the VWR2A ALU's fixed-point
//!   multiplier: the 64-bit product of two 32-bit operands has its lower 16
//!   bits discarded (Sec. 3.1), so data with 16 fractional bits stays in the
//!   same format across multiplications.
//! * **18-bit saturating** — the fixed-function FFT accelerator's internal
//!   representation with block dynamic scaling (Sec. 4.1), modelled in the
//!   `vwr2a-fftaccel` crate.
//!
//! The free functions here are deliberately small and branch-free so they can
//! double as the semantic reference for the corresponding simulator ALU ops.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of fractional bits of the `q15` format.
pub const Q15_FRAC_BITS: u32 = 15;
/// Number of fractional bits of the `Q15.16` format used by the VWR2A ALU.
pub const Q16_FRAC_BITS: u32 = 16;

/// A `q15` sample (1 sign bit, 15 fractional bits) stored in an `i16`.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::fixed::Q15;
///
/// let half = Q15::from_f64(0.5);
/// let quarter = half.saturating_mul(half);
/// assert!((quarter.to_f64() - 0.25).abs() < 1e-4);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Q15(pub i16);

impl Q15 {
    /// The largest representable value (just below `1.0`).
    pub const MAX: Q15 = Q15(i16::MAX);
    /// The most negative representable value (`-1.0`).
    pub const MIN: Q15 = Q15(i16::MIN);
    /// Zero.
    pub const ZERO: Q15 = Q15(0);

    /// Converts from a float, saturating to the representable range.
    pub fn from_f64(v: f64) -> Self {
        let scaled = (v * (1 << Q15_FRAC_BITS) as f64).round();
        if scaled > i16::MAX as f64 {
            Q15::MAX
        } else if scaled < i16::MIN as f64 {
            Q15::MIN
        } else {
            Q15(scaled as i16)
        }
    }

    /// Converts to a float.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1 << Q15_FRAC_BITS) as f64
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Q15) -> Q15 {
        Q15(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Q15) -> Q15 {
        Q15(self.0.saturating_sub(rhs.0))
    }

    /// Saturating `q15 × q15 → q15` multiplication (CMSIS `__SSAT(((a*b)>>15), 16)`).
    pub fn saturating_mul(self, rhs: Q15) -> Q15 {
        let p = (self.0 as i32 * rhs.0 as i32) >> Q15_FRAC_BITS;
        Q15(p.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }
}

impl fmt::Display for Q15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}q15", self.to_f64())
    }
}

impl From<i16> for Q15 {
    fn from(v: i16) -> Self {
        Q15(v)
    }
}

/// Converts a float to raw `Q15.16` bits, saturating to the `i32` range.
///
/// ```
/// use vwr2a_dsp::fixed::to_q16;
/// assert_eq!(to_q16(1.0), 1 << 16);
/// assert_eq!(to_q16(-0.5), -(1 << 15));
/// ```
pub fn to_q16(v: f64) -> i32 {
    let scaled = (v * (1u64 << Q16_FRAC_BITS) as f64).round();
    if scaled > i32::MAX as f64 {
        i32::MAX
    } else if scaled < i32::MIN as f64 {
        i32::MIN
    } else {
        scaled as i32
    }
}

/// Converts raw `Q15.16` bits back to a float.
///
/// ```
/// use vwr2a_dsp::fixed::{to_q16, from_q16};
/// assert!((from_q16(to_q16(0.3)) - 0.3).abs() < 1e-4);
/// ```
pub fn from_q16(v: i32) -> f64 {
    v as f64 / (1u64 << Q16_FRAC_BITS) as f64
}

/// The VWR2A ALU fixed-point multiply: 64-bit product, lower 16 bits
/// discarded, next 32 bits kept (Sec. 3.1 of the paper).
///
/// Two `Q15.16` operands therefore produce a `Q15.16` result.
///
/// ```
/// use vwr2a_dsp::fixed::{to_q16, from_q16, mul_fxp};
/// let a = to_q16(0.5);
/// let b = to_q16(-0.25);
/// assert!((from_q16(mul_fxp(a, b)) + 0.125).abs() < 1e-4);
/// ```
pub fn mul_fxp(a: i32, b: i32) -> i32 {
    (((a as i64) * (b as i64)) >> Q16_FRAC_BITS) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q15_round_trip() {
        for v in [-1.0, -0.5, -0.001, 0.0, 0.25, 0.9999] {
            let q = Q15::from_f64(v);
            assert!((q.to_f64() - v).abs() < 1.0 / 32768.0 + 1e-9, "{v}");
        }
    }

    #[test]
    fn q15_saturates() {
        assert_eq!(Q15::from_f64(2.0), Q15::MAX);
        assert_eq!(Q15::from_f64(-2.0), Q15::MIN);
        assert_eq!(Q15::MAX.saturating_add(Q15::MAX), Q15::MAX);
        assert_eq!(Q15::MIN.saturating_sub(Q15::MAX), Q15::MIN);
    }

    #[test]
    fn q15_mul_matches_float() {
        let a = Q15::from_f64(0.7);
        let b = Q15::from_f64(-0.3);
        assert!((a.saturating_mul(b).to_f64() + 0.21).abs() < 1e-3);
    }

    #[test]
    fn q15_mul_extreme_negative_saturates() {
        // -1.0 * -1.0 = +1.0 which is not representable in q15.
        let m = Q15::MIN.saturating_mul(Q15::MIN);
        assert_eq!(m, Q15::MAX);
    }

    #[test]
    fn q16_round_trip_and_mul() {
        let a = to_q16(1.5);
        let b = to_q16(-2.25);
        assert!((from_q16(mul_fxp(a, b)) + 3.375).abs() < 1e-3);
    }

    #[test]
    fn mul_fxp_matches_paper_shift_semantics() {
        // (a * b) >> 16 with sign preserved.
        assert_eq!(mul_fxp(1 << 16, 1 << 16), 1 << 16);
        assert_eq!(mul_fxp(-(1 << 16), 1 << 16), -(1 << 16));
        assert_eq!(mul_fxp(3 << 16, 1 << 15), 3 << 15);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Q15::from_f64(0.5)).is_empty());
    }
}
