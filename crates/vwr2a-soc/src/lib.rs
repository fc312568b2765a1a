//! Biosignal SoC substrate for the VWR2A reproduction.
//!
//! The VWR2A paper evaluates the accelerator inside an ultra-low-power SoC
//! for biomedical signal acquisition (Sec. 4.1): an ARM Cortex-M4F, 192 KiB
//! of SRAM, an AMBA-AHB interconnect, a DMA, fixed-function accelerators
//! and multiple power domains.  The reproduction's results read two things
//! of that platform — the CPU's cycles and memory traffic, and what a
//! completion interrupt costs the host — so this crate models exactly
//! those:
//!
//! * [`cpu`] — a Cortex-M4-like scalar instruction-set simulator plus the
//!   hand-written baseline kernel programs (FIR, FFT, delineation, feature
//!   extraction, SVM) used for the CPU columns of the paper's tables;
//! * [`sram`] — the CPU's 192 KiB of SRAM;
//! * [`irq`] — the latency of the completion interrupt through which
//!   accelerators signal the host;
//! * [`soc`] — [`soc::BiosignalSoc`], the CPU and its SRAM.
//!
//! The energy model (`vwr2a-energy`) prices the CPU from its own
//! [`cpu::CpuRunStats`]; the system interconnect, the system DMA and
//! the power domains are not modelled: no reproduced number depends on
//! them.
//!
//! The fixed-function FFT accelerator and VWR2A itself live in the
//! `vwr2a-fftaccel` and `vwr2a-core` crates; the `vwr2a-bioapp` crate wires
//! everything together for the application-level experiments.
//!
//! # Example
//!
//! ```
//! use vwr2a_soc::soc::BiosignalSoc;
//! use vwr2a_soc::cpu::kernels::fir_q15_program;
//!
//! # fn main() -> Result<(), vwr2a_soc::error::SocError> {
//! let mut soc = BiosignalSoc::new();
//! // Stage a tiny signal and an averaging filter, then run the CPU kernel.
//! soc.sram_mut().load(0, &[100, 200, 300, 400])?;
//! soc.sram_mut().load(4, &[16384, 16384])?; // two 0.5 taps in q15
//! let program = fir_q15_program(4, 2, 0, 4, 8)?;
//! let stats = soc.run_cpu_program(&program)?;
//! assert!(stats.cycles > 0);
//! assert_eq!(soc.sram().dump(8, 4)?, vec![50, 150, 250, 350]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod error;
pub mod irq;
pub mod soc;
pub mod sram;

pub use error::SocError;
pub use soc::BiosignalSoc;
