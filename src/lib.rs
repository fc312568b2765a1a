//! # VWR2A — a very-wide-register reconfigurable-array architecture
//!
//! This crate is the facade of a full reproduction of the DAC 2022 paper
//! *“VWR2A: A Very-Wide-Register Reconfigurable-Array Architecture for
//! Low-Power Embedded Devices”* (Denkinger et al.).  It re-exports the
//! individual workspace crates under stable module names:
//!
//! * [`core`] — the cycle-accurate VWR2A accelerator simulator (the paper's
//!   contribution): reconfigurable cells, very-wide registers, scratchpad
//!   memory, shuffle unit, specialised slots and the execution engine.
//! * [`runtime`] — the execution runtime: the [`runtime::Kernel`] trait and
//!   the [`runtime::Session`] that owns the accelerator, keeps kernel
//!   programs resident in the configuration memory, and makes warm
//!   relaunches (the paper's load-once/run-many model) the default — with
//!   batched and streamed execution and a unified [`runtime::RunReport`].
//! * [`asm`] — a textual assembler for the per-slot instruction streams.
//! * [`dsp`] — golden reference DSP kernels (FFT, FIR, statistics, SVM) and
//!   fixed-point arithmetic helpers.
//! * [`soc`] — the host side of the biosignal SoC: the Cortex-M4-like CPU
//!   ISS with its baseline kernels, its SRAM, and the completion-interrupt
//!   latency.
//! * [`fftaccel`] — the fixed-function FFT accelerator used as the paper's
//!   comparator.
//! * [`energy`] — the activity-based energy model and component breakdowns.
//! * [`kernels`] — VWR2A kernel mappings (FFT, FIR, feature extraction,
//!   SVM decision) implementing [`runtime::Kernel`].
//! * [`bioapp`] — the MBioTracker biosignal application pipeline.
//!
//! ## Quick start
//!
//! Kernels run through a [`runtime::Session`]: the first invocation loads
//! the kernel's program into the per-column configuration memory (a *cold*
//! launch), every repeat relaunches it *warm* — only execution cycles, no
//! configuration streaming — exactly like the real hardware re-invokes a
//! resident kernel.
//!
//! ```
//! use vwr2a::kernels::fir::FirKernel;
//! use vwr2a::runtime::Session;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One session owns the accelerator and the loaded-kernel registry.
//! let mut session = Session::new();
//!
//! // Map an 11-tap FIR over 256 samples onto the array's two columns.
//! let taps = [2048i32; 11];
//! let input: Vec<i32> = (0..256).map(|i| (i % 32) - 16).collect();
//! let kernel = FirKernel::new(&taps, input.len())?;
//!
//! // Cold first run: configuration load + execution.
//! let (output, cold) = session.run(&kernel, input.as_slice())?;
//! assert_eq!(output.len(), input.len());
//!
//! // Warm repeat: the resident program skips the configuration load.
//! let (_, warm) = session.run(&kernel, input.as_slice())?;
//! assert!(warm.cycles < cold.cycles);
//!
//! // Whole window streams amortise the load across N invocations.
//! let windows = vec![input.clone(), input.clone(), input.clone()];
//! let (outputs, report) = session.run_batch(&kernel, windows.iter().map(Vec::as_slice))?;
//! assert_eq!(outputs.len(), 3);
//! assert_eq!(report.cold_launches, 0); // already resident
//! println!("3 windows in {} cycles ({} warm launches)", report.cycles, report.warm_launches);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/vwr2a-bench` for the
//! binaries that regenerate every table and figure of the paper.

pub use vwr2a_asm as asm;
pub use vwr2a_bioapp as bioapp;
pub use vwr2a_core as core;
pub use vwr2a_dsp as dsp;
pub use vwr2a_energy as energy;
pub use vwr2a_fftaccel as fftaccel;
pub use vwr2a_kernels as kernels;
pub use vwr2a_runtime as runtime;
pub use vwr2a_soc as soc;

// The runtime workhorses, re-exported at the facade root so applications
// can depend on `vwr2a` alone: the single-array session and kernel trait,
// the heterogeneous pool (CGRA arrays, the FFT engine and the host CPU
// behind one `Backend` enum) with its placement strategies, the
// online serving layer with its scheduling policies, and the unified
// reports with per-backend attribution.
pub use vwr2a_runtime::{
    ArcPolicy, Backend, BackendKind, BackendKindStats, BackendView, CostAware, CpuBackend,
    EarliestDeadlineFirst, FftBackend, FftShape, Fifo, FleetReport, JobLatency, JobRoute, Kernel,
    Objective, Offload, Placement, PlacementPlan, PlannerStats, Pool, ResidencyAware, RoundRobin,
    RunReport, SchedPolicy, ServeJob, ServeReport, Server, Session, TenantId, TenantStats,
    WeightedFair,
};
