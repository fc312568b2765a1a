//! Label-aware assembler for CPU programs.
//!
//! The baseline kernels in [`super::kernels`] are hand-written assembly; the
//! assembler provides forward/backward labels so loop structures read
//! naturally and branch targets are resolved once at build time.

use super::CpuInstr;
use crate::error::{Result, SocError};

/// A position in the program that can be branched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuLabel(usize);

/// Condition used by [`CpuAsm::branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater than or equal (signed).
    Ge,
}

/// Assembler accumulating instructions and resolving labels.
///
/// # Example
///
/// ```
/// use vwr2a_soc::cpu::asm::{CpuAsm, BranchCond};
/// use vwr2a_soc::cpu::{Cpu, CpuInstr};
/// use vwr2a_soc::sram::Sram;
///
/// # fn main() -> Result<(), vwr2a_soc::error::SocError> {
/// // Compute 10! iteratively.
/// let mut a = CpuAsm::new();
/// a.push(CpuInstr::Li { rd: 1, imm: 1 });  // acc
/// a.push(CpuInstr::Li { rd: 2, imm: 1 });  // i
/// a.push(CpuInstr::Li { rd: 3, imm: 11 }); // bound
/// let top = a.new_label();
/// a.bind(top);
/// a.push(CpuInstr::Mul { rd: 1, rs1: 1, rs2: 2 });
/// a.push(CpuInstr::Addi { rd: 2, rs1: 2, imm: 1 });
/// a.branch(BranchCond::Lt, 2, 3, top);
/// a.push(CpuInstr::Halt);
/// let program = a.build()?;
///
/// let mut cpu = Cpu::new();
/// let mut sram = Sram::paper();
/// cpu.run(&program, &mut sram)?;
/// assert_eq!(cpu.reg(1)?, 3_628_800);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CpuAsm {
    instrs: Vec<CpuInstr>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, CpuLabel)>,
}

impl CpuAsm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Creates an unbound label.
    pub fn new_label(&mut self) -> CpuLabel {
        self.labels.push(None);
        CpuLabel(self.labels.len() - 1)
    }

    /// Binds a label to the next instruction to be pushed.
    pub fn bind(&mut self, label: CpuLabel) {
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Appends an instruction, returning its index.
    pub fn push(&mut self, instr: CpuInstr) -> usize {
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    /// Appends a conditional branch to `label`.
    pub fn branch(&mut self, cond: BranchCond, rs1: u8, rs2: u8, label: CpuLabel) -> usize {
        let instr = match cond {
            BranchCond::Eq => CpuInstr::Beq {
                rs1,
                rs2,
                target: 0,
            },
            BranchCond::Ne => CpuInstr::Bne {
                rs1,
                rs2,
                target: 0,
            },
            BranchCond::Lt => CpuInstr::Blt {
                rs1,
                rs2,
                target: 0,
            },
            BranchCond::Ge => CpuInstr::Bge {
                rs1,
                rs2,
                target: 0,
            },
        };
        let idx = self.push(instr);
        self.fixups.push((idx, label));
        idx
    }

    /// Appends an unconditional jump to `label`.
    pub fn jump(&mut self, label: CpuLabel) -> usize {
        let idx = self.push(CpuInstr::Jump { target: 0 });
        self.fixups.push((idx, label));
        idx
    }

    /// Resolves labels and returns the program.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidBranchTarget`] if a label is unbound or
    /// bound past the end of the program.
    pub fn build(mut self) -> Result<Vec<CpuInstr>> {
        for (idx, label) in &self.fixups {
            let target = self.labels[label.0].ok_or(SocError::InvalidBranchTarget {
                target: usize::MAX,
                len: self.instrs.len(),
            })?;
            if target >= self.instrs.len() {
                return Err(SocError::InvalidBranchTarget {
                    target,
                    len: self.instrs.len(),
                });
            }
            match &mut self.instrs[*idx] {
                CpuInstr::Beq { target: t, .. }
                | CpuInstr::Bne { target: t, .. }
                | CpuInstr::Blt { target: t, .. }
                | CpuInstr::Bge { target: t, .. }
                | CpuInstr::Jump { target: t } => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        Ok(self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpu;
    use crate::sram::Sram;

    #[test]
    fn forward_and_backward_labels() {
        let mut a = CpuAsm::new();
        let skip = a.new_label();
        a.push(CpuInstr::Li { rd: 1, imm: 1 });
        a.jump(skip);
        a.push(CpuInstr::Li { rd: 1, imm: 99 }); // skipped
        a.bind(skip);
        a.push(CpuInstr::Halt);
        let program = a.build().unwrap();
        let mut cpu = Cpu::new();
        let mut sram = Sram::with_words(256);
        cpu.run(&program, &mut sram).unwrap();
        assert_eq!(cpu.reg(1).unwrap(), 1);
    }

    #[test]
    fn unbound_label_is_error() {
        let mut a = CpuAsm::new();
        let l = a.new_label();
        a.jump(l);
        a.push(CpuInstr::Halt);
        assert!(a.build().is_err());
    }

    #[test]
    fn label_past_end_is_error() {
        let mut a = CpuAsm::new();
        let l = a.new_label();
        a.jump(l);
        a.bind(l);
        assert!(a.build().is_err());
    }

    #[test]
    fn len_and_empty() {
        let mut a = CpuAsm::new();
        assert!(a.is_empty());
        a.push(CpuInstr::Halt);
        assert_eq!(a.len(), 1);
    }
}
