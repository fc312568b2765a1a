//! Loop-control-unit (LCU) instructions.
//!
//! The LCU owns the column program counter: it generates branches and jumps,
//! executes loop bookkeeping with a small private register file, and notifies
//! the synchronizer when a kernel finishes (Sec. 3.3.3).  Giving the array
//! its own loop control is what lets VWR2A run whole applications, including
//! control-intensive code, without a host VLIW.

use serde::{Deserialize, Serialize};

/// Number of private LCU registers (loop counters / bounds).
pub const LCU_REGISTERS: usize = 4;

/// Branch condition codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LcuCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater than or equal (signed).
    Ge,
}

impl LcuCond {
    /// Evaluates the condition on two signed values.
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            LcuCond::Eq => a == b,
            LcuCond::Ne => a != b,
            LcuCond::Lt => a < b,
            LcuCond::Ge => a >= b,
        }
    }
}

/// Second operand of an LCU arithmetic or branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LcuSrc {
    /// Immediate value.
    Imm(i32),
    /// Private LCU register.
    Reg(u8),
    /// Scalar-register-file entry (counts as an SRF access).
    Srf(u8),
}

/// One LCU instruction.
///
/// # Example
///
/// ```
/// use vwr2a_core::isa::lcu::{LcuInstr, LcuCond, LcuSrc};
///
/// // The "i=0 … i++ … BLT PC=5" loop skeleton of Table 1.
/// let init = LcuInstr::Li { r: 0, value: 0 };
/// let incr = LcuInstr::Add { r: 0, src: LcuSrc::Imm(1) };
/// let back = LcuInstr::Branch { cond: LcuCond::Lt, a: 0, b: LcuSrc::Imm(16), target: 5 };
/// assert!(!init.is_nop());
/// assert_eq!(back.srf_accesses(), 0);
/// assert!(incr.srf_accesses() == 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum LcuInstr {
    /// No operation (PC advances to the next row).
    #[default]
    Nop,
    /// Load an immediate into a private register.
    Li {
        /// Destination register.
        r: u8,
        /// Immediate value.
        value: i32,
    },
    /// Add a source operand to a private register.
    Add {
        /// Destination (and first-operand) register.
        r: u8,
        /// Second operand.
        src: LcuSrc,
    },
    /// Copy an SRF entry into a private register (e.g. a loop bound set up
    /// by the host).
    LoadSrf {
        /// Destination register.
        r: u8,
        /// Source SRF entry.
        srf: u8,
    },
    /// Conditional branch: if `cond(reg[a], b)` the next PC is `target`.
    Branch {
        /// Condition code.
        cond: LcuCond,
        /// First operand: private register index.
        a: u8,
        /// Second operand.
        b: LcuSrc,
        /// Branch target row.
        target: u16,
    },
    /// Unconditional jump to a row.
    Jump(u16),
    /// End of kernel: the column halts and notifies the synchronizer.
    Exit,
}

impl LcuInstr {
    /// `true` if this is a no-operation.
    pub fn is_nop(&self) -> bool {
        matches!(self, LcuInstr::Nop)
    }

    /// Number of SRF accesses this instruction performs.
    pub fn srf_accesses(&self) -> usize {
        match self {
            LcuInstr::Add { src, .. } | LcuInstr::Branch { b: src, .. } => {
                usize::from(matches!(src, LcuSrc::Srf(_)))
            }
            LcuInstr::LoadSrf { .. } => 1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condition_evaluation() {
        assert!(LcuCond::Eq.eval(3, 3));
        assert!(!LcuCond::Eq.eval(3, 4));
        assert!(LcuCond::Ne.eval(3, 4));
        assert!(LcuCond::Lt.eval(-1, 0));
        assert!(!LcuCond::Lt.eval(0, 0));
        assert!(LcuCond::Ge.eval(0, 0));
        assert!(LcuCond::Ge.eval(5, -5));
    }

    #[test]
    fn srf_access_counting() {
        assert_eq!(LcuInstr::Nop.srf_accesses(), 0);
        assert_eq!(LcuInstr::LoadSrf { r: 0, srf: 1 }.srf_accesses(), 1);
        assert_eq!(
            LcuInstr::Branch {
                cond: LcuCond::Lt,
                a: 0,
                b: LcuSrc::Srf(2),
                target: 0
            }
            .srf_accesses(),
            1
        );
        assert_eq!(
            LcuInstr::Add {
                r: 0,
                src: LcuSrc::Imm(1)
            }
            .srf_accesses(),
            0
        );
    }

    #[test]
    fn control_flow_classification() {
        assert!(LcuInstr::default().is_nop());
    }
}
