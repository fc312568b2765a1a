//! Behavioural and cycle/energy model of the fixed-function FFT accelerator.
//!
//! The comparison point of the paper is the FFT accelerator of the MUSEIC
//! platform (Sec. 4.1): a mixed radix-2/radix-4 engine for FFTs and inverse
//! FFTs up to 4096 points, with an optimised real-valued flow, twiddle ROMs,
//! a dual-port data memory and an 18-bit internal representation with
//! dynamic scaling.  We do not have its RTL, so this crate models it at the
//! architectural level:
//!
//! * **Functionally** — [`FftAccelerator::run_complex`] /
//!   [`FftAccelerator::run_real`] compute the transform with 18-bit
//!   saturating arithmetic and per-stage block dynamic scaling, so outputs
//!   (and their quantisation behaviour) are realistic and are validated
//!   against the `vwr2a-dsp` golden FFT.  Every entry point runs one
//!   fixed-point datapath that, like the engine, reads its twiddles from a
//!   ROM built once per supported size.  The complex FFT kernel's entry,
//!   [`FftAccelerator::run_complex_q16`], feeds it `Q15.16` words directly:
//!   the datapath's input scale is `2^16` and every renormalisation factor
//!   is a power of two, so it returns exactly `run_complex`'s spectrum
//!   times `N` without a float round trip.
//! * **In time** — a cycle model charges each radix-4/radix-2 pass, the
//!   input/output transfers over the dual-port memory and a fixed
//!   programming overhead ([`SETUP_CYCLES`]); the engine's constants (an
//!   18-bit datapath, 4096 points at most, 0.55 radix-2 butterflies and one
//!   IO word per cycle) are chosen so the cycle counts land in the ranges of
//!   Table 2.
//! * **In activity** — [`FftAccelStats`] reports per-component event counts
//!   (memory accesses, butterfly operations, DMA words) consumed by the
//!   `vwr2a-energy` crate to produce the accelerator column of Table 3 and
//!   Fig. 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;

pub use model::{FftAccelError, FftAccelStats, FftAccelerator, SETUP_CYCLES};
