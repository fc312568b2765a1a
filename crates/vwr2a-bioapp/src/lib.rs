//! The MBioTracker biosignal application on the simulated platform.
//!
//! MBioTracker (Sec. 4.4.2 of the paper) estimates cognitive workload from a
//! respiration signal in four steps: preprocessing (FIR filtering),
//! delineation (min/max detection), feature extraction (time features of the
//! breath intervals plus frequency features from an FFT of the filtered
//! signal) and SVM prediction.  This crate runs that pipeline end-to-end on
//! the simulated SoC in the paper's three configurations:
//!
//! * **CPU only** — every step on the Cortex-M4-like ISS ([`pipeline::run_cpu_only`]);
//! * **CPU + FFT accelerator** — identical, except the FFT inside feature
//!   extraction runs on the fixed-function engine
//!   ([`pipeline::run_cpu_with_fft_accel`]);
//! * **CPU + VWR2A** — preprocessing, the FFT, the band energies, the
//!   interval statistics and the SVM run on VWR2A through one
//!   [`vwr2a_runtime::Session`] ([`pipeline::run_cpu_with_vwr2a`] for one
//!   isolated window, [`pipeline::Vwr2aPipeline`] for window streams where
//!   every kernel program is loaded once and relaunched warm).
//!   Delineation stays on the CPU in this reproduction (the paper maps it
//!   onto VWR2A too; see EXPERIMENTS.md for the impact of that difference
//!   on Table 5).
//!
//! The per-step cycle counts and energies of the three reports regenerate
//! Table 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod signal;

pub use pipeline::{AppReport, PipelineError, StepResult, Vwr2aPipeline};
pub use signal::RespirationGenerator;
