//! Cycle-accurate simulator of the **VWR2A** very-wide-register
//! reconfigurable-array accelerator (Denkinger et al., DAC 2022).
//!
//! VWR2A is a CGRA-style programmable accelerator organised as a 4×2 array
//! of reconfigurable cells grouped in two independent columns.  Its defining
//! features, all modelled here, are:
//!
//! * **Very-wide registers** ([`vwr::Vwr`], 3 × 4096 bit per column) backed
//!   by a wide **scratchpad memory** ([`spm::Spm`], 32 KiB) whose
//!   accelerator-side port matches the VWR width, so a whole register fills
//!   in one cycle.
//! * A hard-wired **shuffle unit** ([`shuffle`]) for data reordering
//!   (interleave, even/odd pruning, bit-reversal, circular shift).
//! * VLIW-style **specialised slots** per column — load-store unit,
//!   loop-control unit and multiplexer-control unit ([`isa`]) — sharing one
//!   program counter with the four RCs.
//! * A **DMA** ([`dma`]) between the SPM and system memory and a
//!   **configuration memory** ([`config_mem::ConfigMemory`]) holding encoded
//!   kernels.
//!
//! The crate exposes a host-style API on [`Vwr2a`]: seed the SPM over the
//! DMA, write kernel parameters into the SRF, run a [`program::KernelProgram`]
//! and collect [`stats::RunStats`] with cycle counts and per-component
//! activity (consumed by the `vwr2a-energy` crate).  Every transfer and
//! launch reports the cycles it took; scheduling them on overlapping
//! engine lanes is the runtime's job.
//!
//! # Example
//!
//! ```
//! use vwr2a_core::Vwr2a;
//! use vwr2a_core::builder::ColumnProgramBuilder;
//! use vwr2a_core::geometry::VwrId;
//! use vwr2a_core::isa::{LcuCond, LcuInstr, LcuSrc, LsuAddr, LsuInstr, MxcuInstr,
//!                       RcDst, RcInstr, RcOpcode, RcSrc};
//! use vwr2a_core::program::KernelProgram;
//!
//! # fn main() -> Result<(), vwr2a_core::error::CoreError> {
//! // Element-wise add of two 128-word vectors living in SPM lines 0 and 1.
//! let mut b = ColumnProgramBuilder::new(4);
//! b.push(b.row().lsu(LsuInstr::LoadVwr { vwr: VwrId::A, line: LsuAddr::Imm(0) }));
//! b.push(b.row().lsu(LsuInstr::LoadVwr { vwr: VwrId::B, line: LsuAddr::Imm(1) })
//!        .lcu(LcuInstr::Li { r: 0, value: 0 })
//!        .mxcu(MxcuInstr::SetIdx(0)));
//! let top = b.new_label();
//! b.bind_label(top);
//! b.push(b.row()
//!        .lcu(LcuInstr::Add { r: 0, src: LcuSrc::Imm(1) })
//!        .mxcu(MxcuInstr::AddIdx(1))
//!        .rc_all(RcInstr::new(RcOpcode::Add, RcDst::Vwr(VwrId::C),
//!                             RcSrc::Vwr(VwrId::A), RcSrc::Vwr(VwrId::B))));
//! b.push_branch(b.row(), LcuCond::Lt, 0, LcuSrc::Imm(32), top);
//! b.push(b.row().lsu(LsuInstr::StoreVwr { vwr: VwrId::C, line: LsuAddr::Imm(2) }));
//! b.push_exit();
//! let kernel = KernelProgram::new("vadd", vec![b.build()?])?;
//!
//! let mut accel = Vwr2a::new();
//! accel.dma_to_spm(&vec![1; 128], 0)?;
//! accel.dma_to_spm(&vec![41; 128], 128)?;
//! let stats = accel.run_program(&kernel)?;
//! let (sum, _) = accel.dma_from_spm(256, 128)?;
//! assert!(sum.iter().all(|&v| v == 42));
//! println!("vadd took {} cycles", stats.cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
pub mod array;
pub mod builder;
pub mod column;
pub mod config_mem;
pub mod dma;
pub mod error;
pub mod geometry;
pub mod isa;
pub mod program;
pub mod replay;
pub mod shuffle;
pub mod spm;
pub mod srf;
pub mod stats;
pub mod trace;
pub mod vwr;

pub use array::Vwr2a;
pub use error::CoreError;
pub use geometry::{Geometry, VwrId};
pub use program::{ColumnProgram, KernelProgram, Row};
pub use stats::RunStats;
pub use trace::ActivityCounters;
