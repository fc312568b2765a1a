//! CPU baseline kernel programs.
//!
//! These are the "CPU" columns of the paper's tables: the same biosignal
//! kernels that run on VWR2A, hand-written against the scalar ISS of
//! [`crate::cpu`] on `q15` data, the way the paper's baseline uses
//! CMSIS-DSP on the Cortex-M4.  Every generator returns a plain instruction
//! vector; data layouts (word addresses in SRAM) are documented per
//! function, and each kernel is validated against the `vwr2a-dsp` golden
//! model in its module tests.
//!
//! Register convention: `r0` is initialised to zero by every program and
//! never written afterwards.

pub mod delineation;
pub mod features;
pub mod fft;
pub mod fir;
pub mod svm;

pub use delineation::delineation_program;
pub use features::{band_energy_program, stats_program};
pub use fft::{cfft_q15_program, rfft_q15_program};
pub use fir::fir_q15_program;
pub use svm::svm_program;
