//! The double-precision complex number used by the reference FFTs.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Neg, Sub};

/// A double-precision complex number.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::complex::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// let p = a * b;
/// assert_eq!(p, Complex::new(5.0, 5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from its real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The complex conjugate.
    ///
    /// ```
    /// use vwr2a_dsp::complex::Complex;
    /// assert_eq!(Complex::new(1.0, 2.0).conj(), Complex::new(1.0, -2.0));
    /// ```
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// The squared magnitude `re² + im²`.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `sqrt(re² + im²)`.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// `e^{iθ}` — a unit complex number at angle `theta` radians.
    ///
    /// ```
    /// use vwr2a_dsp::complex::Complex;
    /// let w = Complex::from_angle(std::f64::consts::PI);
    /// assert!((w.re + 1.0).abs() < 1e-12);
    /// assert!(w.im.abs() < 1e-12);
    /// ```
    pub fn from_angle(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Multiplies by a real scalar.
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(2.0, -3.0);
        let zero = Complex::default();
        let one = Complex::new(1.0, 0.0);
        assert_eq!(a + zero, a);
        assert_eq!(a * one, a);
        assert_eq!(a - a, zero);
        assert_eq!(-a + a, zero);
    }

    #[test]
    fn conjugate_multiplication_gives_norm() {
        let a = Complex::new(3.0, 4.0);
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < 1e-12);
        assert!(p.im.abs() < 1e-12);
        assert!((a.abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_angle_is_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::TAU / 16.0;
            let w = Complex::from_angle(theta);
            assert!((w.abs() - 1.0).abs() < 1e-12);
        }
    }
}
