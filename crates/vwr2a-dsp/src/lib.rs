//! Golden reference DSP kernels and fixed-point arithmetic for the VWR2A
//! reproduction.
//!
//! The VWR2A paper evaluates the accelerator on biosignal kernels: radix-2
//! FFTs (complex and real-valued), an 11-tap FIR filter, statistical feature
//! extraction (mean, median, RMS) and an SVM classifier.  This crate provides
//! *reference* implementations of all of them except the SVM, in three
//! arithmetic flavours:
//!
//! * `f64` floating point — the golden model used to validate everything
//!   else;
//! * [`fixed::Q15`] — the 16-bit `q15` format used by the CMSIS-DSP CPU
//!   baseline in the paper;
//! * the raw-`i32` `Q15.16` helpers in [`fixed`] — the format produced by the
//!   VWR2A ALU's fixed-point multiplier (Sec. 3.1 of the paper: the lower 16
//!   bits of the 64-bit product are discarded).
//!
//! The simulated accelerators (`vwr2a-core`, `vwr2a-fftaccel`) and the CPU
//! baseline programs are all verified against this crate in the workspace
//! integration tests.  The SVM's decision is a single dot product, so the
//! tests of its CPU and array programs compute their expected values
//! directly.
//!
//! # Example
//!
//! ```
//! use vwr2a_dsp::fft;
//! use vwr2a_dsp::complex::Complex;
//!
//! # fn main() -> Result<(), vwr2a_dsp::DspError> {
//! // Forward + inverse FFT round-trips to the original signal.
//! let signal: Vec<Complex> = (0..64)
//!     .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
//!     .collect();
//! let spectrum = fft::fft(&signal)?;
//! let back = fft::ifft(&spectrum)?;
//! for (a, b) in signal.iter().zip(back.iter()) {
//!     assert!((a.re - b.re).abs() < 1e-9);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod error;
pub mod fft;
pub mod fft_q15;
pub mod fir;
pub mod fixed;
pub mod stats;

pub use error::DspError;
