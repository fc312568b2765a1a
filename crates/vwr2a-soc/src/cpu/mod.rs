//! Cortex-M4-like scalar CPU instruction-set simulator.
//!
//! The paper's CPU baseline is the platform's ARM Cortex-M4F running
//! CMSIS-DSP kernels on 16-bit `q15` data (Sec. 4.1, 5.1).  We do not have
//! the core RTL, so the substitute is a small in-order scalar ISS with a
//! RISC-like instruction set and an M4-style cycle model: single-cycle ALU
//! and multiply-accumulate, pipelined loads/stores, and a pipeline-refill
//! penalty on taken branches.  The baseline kernels of the paper (FIR, FFT,
//! delineation, feature extraction, SVM) are written against this ISA in
//! [`kernels`]; their outputs are validated against the `vwr2a-dsp` golden
//! models and their cycle counts provide the CPU columns of Tables 2, 4
//! and 5.
//!
//! The register file has 32 entries — more than the M4's 13 general
//! registers — because register pressure, not count, is what the cycle model
//! needs to approximate and the extra registers keep the hand-written
//! kernels readable.

pub mod asm;
pub mod kernels;

use crate::error::{Result, SocError};
use crate::sram::Sram;
use serde::{Deserialize, Serialize};

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 32;

/// One CPU instruction.
///
/// Memory operands are 32-bit **word** addresses into the SoC SRAM
/// (`address = reg[rs1] + offset`); `q15` samples occupy one word each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CpuInstr {
    /// `rd = imm`
    Li {
        /// Destination register.
        rd: u8,
        /// Immediate value.
        imm: i32,
    },
    /// `rd = rs`
    Mv {
        /// Destination register.
        rd: u8,
        /// Source register.
        rs: u8,
    },
    /// `rd = rs1 + rs2` (wrapping)
    Add {
        /// Destination register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
    },
    /// `rd = rs1 + imm` (wrapping)
    Addi {
        /// Destination register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Immediate.
        imm: i32,
    },
    /// `rd = rs1 - rs2` (wrapping)
    Sub {
        /// Destination register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
    },
    /// `rd = rs1 * rs2` (low 32 bits)
    Mul {
        /// Destination register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
    },
    /// `rd = rd + rs1 * rs2` (multiply-accumulate, single cycle on the M4)
    Mla {
        /// Destination and accumulator register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
    },
    /// `rd = rs1 / rs2` (signed, truncating; result 0 when `rs2 == 0`,
    /// matching the M4's `SDIV` with the divide-by-zero trap disabled)
    Div {
        /// Destination register.
        rd: u8,
        /// Dividend.
        rs1: u8,
        /// Divisor.
        rs2: u8,
    },
    /// `rd = rs1 & rs2`
    And {
        /// Destination register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
    },
    /// `rd = rs1 | rs2`
    Or {
        /// Destination register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
    },
    /// `rd = rs1 ^ rs2`
    Xor {
        /// Destination register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
    },
    /// `rd = rs1 << shamt` (logical)
    Sll {
        /// Destination register.
        rd: u8,
        /// Operand.
        rs1: u8,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// `rd = rs1 >> shamt` (logical)
    Srl {
        /// Destination register.
        rd: u8,
        /// Operand.
        rs1: u8,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// `rd = rs1 >> shamt` (arithmetic)
    Sra {
        /// Destination register.
        rd: u8,
        /// Operand.
        rs1: u8,
        /// Shift amount (0–31).
        shamt: u8,
    },
    /// `rd = (rs1 < rs2) ? 1 : 0` (signed)
    Slt {
        /// Destination register.
        rd: u8,
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
    },
    /// Signed saturation of `rs` to `bits` bits (like ARM `SSAT`).
    Ssat {
        /// Destination register.
        rd: u8,
        /// Source register.
        rs: u8,
        /// Saturation width in bits (1–32).
        bits: u8,
    },
    /// `rd = sram[reg[rs1] + offset]`
    Lw {
        /// Destination register.
        rd: u8,
        /// Base address register.
        rs1: u8,
        /// Word offset.
        offset: i32,
    },
    /// `sram[reg[rs1] + offset] = reg[rs2]`
    Sw {
        /// Value register.
        rs2: u8,
        /// Base address register.
        rs1: u8,
        /// Word offset.
        offset: i32,
    },
    /// Branch to `target` if `rs1 == rs2`.
    Beq {
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
        /// Target instruction index.
        target: usize,
    },
    /// Branch to `target` if `rs1 != rs2`.
    Bne {
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
        /// Target instruction index.
        target: usize,
    },
    /// Branch to `target` if `rs1 < rs2` (signed).
    Blt {
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
        /// Target instruction index.
        target: usize,
    },
    /// Branch to `target` if `rs1 >= rs2` (signed).
    Bge {
        /// First operand.
        rs1: u8,
        /// Second operand.
        rs2: u8,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Stop execution.
    Halt,
}

/// The M4-like cycle cost of each instruction class.
struct Cycles {
    /// ALU, move and compare instructions.
    alu: u64,
    /// Multiply and multiply-accumulate.
    mul: u64,
    /// A signed division (the M4's `SDIV` takes 2–12 cycles).
    div: u64,
    /// A load or store (pipelined back-to-back accesses on the M4
    /// effectively cost 1–2 cycles each).
    mem: u64,
    /// A non-taken branch.
    branch: u64,
    /// A taken branch or jump (pipeline refill).
    taken_branch: u64,
}

const CYCLES: Cycles = Cycles {
    alu: 1,
    mul: 1,
    div: 7,
    mem: 2,
    branch: 1,
    taken_branch: 3,
};

/// Execution statistics of one CPU program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CpuRunStats {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// ALU operations (including moves and compares).
    pub alu_ops: u64,
    /// Multiplications / multiply-accumulates.
    pub mul_ops: u64,
    /// Word loads.
    pub loads: u64,
    /// Word stores.
    pub stores: u64,
    /// Branch instructions executed.
    pub branches: u64,
    /// Branches that were taken.
    pub taken_branches: u64,
}

/// The CPU instruction-set simulator.
///
/// # Example
///
/// ```
/// use vwr2a_soc::cpu::{Cpu, CpuInstr};
/// use vwr2a_soc::sram::Sram;
///
/// # fn main() -> Result<(), vwr2a_soc::error::SocError> {
/// let mut cpu = Cpu::new();
/// let mut sram = Sram::paper();
/// // sram[10] = 2 + 40
/// let program = vec![
///     CpuInstr::Li { rd: 1, imm: 2 },
///     CpuInstr::Addi { rd: 1, rs1: 1, imm: 40 },
///     CpuInstr::Li { rd: 2, imm: 10 },
///     CpuInstr::Sw { rs2: 1, rs1: 2, offset: 0 },
///     CpuInstr::Halt,
/// ];
/// let stats = cpu.run(&program, &mut sram)?;
/// assert_eq!(sram.dump(10, 1)?[0], 42);
/// assert!(stats.cycles >= 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cpu {
    regs: [i32; NUM_REGS],
    cycle_limit: u64,
}

impl Cpu {
    /// Creates a CPU with the M4-like cycle model.
    pub fn new() -> Self {
        Self {
            regs: [0; NUM_REGS],
            cycle_limit: 500_000_000,
        }
    }

    /// Sets the cycle budget after which [`SocError::CycleLimitExceeded`] is
    /// reported.
    pub fn set_cycle_limit(&mut self, limit: u64) {
        self.cycle_limit = limit;
    }

    /// Reads a register (test/debug access).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidRegister`] for an out-of-range index.
    pub fn reg(&self, index: usize) -> Result<i32> {
        self.regs
            .get(index)
            .copied()
            .ok_or(SocError::InvalidRegister { reg: index })
    }

    /// Writes a register (used to pass arguments to a program).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidRegister`] for an out-of-range index.
    pub fn set_reg(&mut self, index: usize, value: i32) -> Result<()> {
        match self.regs.get_mut(index) {
            Some(r) => {
                *r = value;
                Ok(())
            }
            None => Err(SocError::InvalidRegister { reg: index }),
        }
    }

    fn r(&self, idx: u8) -> Result<i32> {
        self.reg(idx as usize)
    }

    fn w(&mut self, idx: u8, value: i32) -> Result<()> {
        self.set_reg(idx as usize, value)
    }

    /// Runs a program to completion (`Halt`), starting at instruction 0 with
    /// the current register contents.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::MissingHalt`] if execution runs past the last
    /// instruction, [`SocError::InvalidBranchTarget`] for a bad target,
    /// [`SocError::CycleLimitExceeded`] if the cycle budget is exhausted, or
    /// memory errors from the SRAM.
    pub fn run(&mut self, program: &[CpuInstr], sram: &mut Sram) -> Result<CpuRunStats> {
        let mut stats = CpuRunStats::default();
        let mut pc = 0usize;
        loop {
            let instr = *program.get(pc).ok_or(SocError::MissingHalt)?;
            stats.instructions += 1;
            let mut next_pc = pc + 1;
            match instr {
                CpuInstr::Li { rd, imm } => {
                    self.w(rd, imm)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Mv { rd, rs } => {
                    let v = self.r(rs)?;
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Add { rd, rs1, rs2 } => {
                    let v = self.r(rs1)?.wrapping_add(self.r(rs2)?);
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Addi { rd, rs1, imm } => {
                    let v = self.r(rs1)?.wrapping_add(imm);
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Sub { rd, rs1, rs2 } => {
                    let v = self.r(rs1)?.wrapping_sub(self.r(rs2)?);
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Mul { rd, rs1, rs2 } => {
                    let v = self.r(rs1)?.wrapping_mul(self.r(rs2)?);
                    self.w(rd, v)?;
                    stats.mul_ops += 1;
                    stats.cycles += CYCLES.mul;
                }
                CpuInstr::Mla { rd, rs1, rs2 } => {
                    let v = self
                        .r(rd)?
                        .wrapping_add(self.r(rs1)?.wrapping_mul(self.r(rs2)?));
                    self.w(rd, v)?;
                    stats.mul_ops += 1;
                    stats.cycles += CYCLES.mul;
                }
                CpuInstr::Div { rd, rs1, rs2 } => {
                    let b = self.r(rs2)?;
                    let v = if b == 0 {
                        0
                    } else {
                        self.r(rs1)?.wrapping_div(b)
                    };
                    self.w(rd, v)?;
                    stats.mul_ops += 1;
                    stats.cycles += CYCLES.div;
                }
                CpuInstr::And { rd, rs1, rs2 } => {
                    let v = self.r(rs1)? & self.r(rs2)?;
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Or { rd, rs1, rs2 } => {
                    let v = self.r(rs1)? | self.r(rs2)?;
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Xor { rd, rs1, rs2 } => {
                    let v = self.r(rs1)? ^ self.r(rs2)?;
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Sll { rd, rs1, shamt } => {
                    let v = ((self.r(rs1)? as u32) << (shamt & 31)) as i32;
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Srl { rd, rs1, shamt } => {
                    let v = ((self.r(rs1)? as u32) >> (shamt & 31)) as i32;
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Sra { rd, rs1, shamt } => {
                    let v = self.r(rs1)? >> (shamt & 31);
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Slt { rd, rs1, rs2 } => {
                    let v = i32::from(self.r(rs1)? < self.r(rs2)?);
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Ssat { rd, rs, bits } => {
                    let bits = bits.clamp(1, 32) as u32;
                    let max = if bits == 32 {
                        i32::MAX as i64
                    } else {
                        (1i64 << (bits - 1)) - 1
                    };
                    let min = if bits == 32 {
                        i32::MIN as i64
                    } else {
                        -(1i64 << (bits - 1))
                    };
                    let v = (self.r(rs)? as i64).clamp(min, max) as i32;
                    self.w(rd, v)?;
                    stats.alu_ops += 1;
                    stats.cycles += CYCLES.alu;
                }
                CpuInstr::Lw { rd, rs1, offset } => {
                    let addr = self.r(rs1)?.wrapping_add(offset);
                    if addr < 0 {
                        return Err(SocError::AddressOutOfRange {
                            addr: addr as usize,
                            capacity: sram.words(),
                        });
                    }
                    let v = sram.read_word(addr as usize)?;
                    self.w(rd, v)?;
                    stats.loads += 1;
                    stats.cycles += CYCLES.mem;
                }
                CpuInstr::Sw { rs2, rs1, offset } => {
                    let addr = self.r(rs1)?.wrapping_add(offset);
                    if addr < 0 {
                        return Err(SocError::AddressOutOfRange {
                            addr: addr as usize,
                            capacity: sram.words(),
                        });
                    }
                    sram.write_word(addr as usize, self.r(rs2)?)?;
                    stats.stores += 1;
                    stats.cycles += CYCLES.mem;
                }
                CpuInstr::Beq { rs1, rs2, target }
                | CpuInstr::Bne { rs1, rs2, target }
                | CpuInstr::Blt { rs1, rs2, target }
                | CpuInstr::Bge { rs1, rs2, target } => {
                    let a = self.r(rs1)?;
                    let b = self.r(rs2)?;
                    let taken = match instr {
                        CpuInstr::Beq { .. } => a == b,
                        CpuInstr::Bne { .. } => a != b,
                        CpuInstr::Blt { .. } => a < b,
                        _ => a >= b,
                    };
                    stats.branches += 1;
                    if taken {
                        if target >= program.len() {
                            return Err(SocError::InvalidBranchTarget {
                                target,
                                len: program.len(),
                            });
                        }
                        stats.taken_branches += 1;
                        stats.cycles += CYCLES.taken_branch;
                        next_pc = target;
                    } else {
                        stats.cycles += CYCLES.branch;
                    }
                }
                CpuInstr::Jump { target } => {
                    if target >= program.len() {
                        return Err(SocError::InvalidBranchTarget {
                            target,
                            len: program.len(),
                        });
                    }
                    stats.branches += 1;
                    stats.taken_branches += 1;
                    stats.cycles += CYCLES.taken_branch;
                    next_pc = target;
                }
                CpuInstr::Halt => {
                    stats.cycles += CYCLES.alu;
                    return Ok(stats);
                }
            }
            if stats.cycles > self.cycle_limit {
                return Err(SocError::CycleLimitExceeded {
                    limit: self.cycle_limit,
                });
            }
            pc = next_pc;
        }
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_program(program: &[CpuInstr]) -> (Cpu, Sram, CpuRunStats) {
        let mut cpu = Cpu::new();
        let mut sram = Sram::with_words(16 * 1024);
        let stats = cpu.run(program, &mut sram).unwrap();
        (cpu, sram, stats)
    }

    #[test]
    fn arithmetic_and_logic() {
        let program = vec![
            CpuInstr::Li { rd: 1, imm: 6 },
            CpuInstr::Li { rd: 2, imm: 7 },
            CpuInstr::Mul {
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            CpuInstr::Mla {
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            CpuInstr::Sub {
                rd: 4,
                rs1: 3,
                rs2: 1,
            },
            CpuInstr::And {
                rd: 5,
                rs1: 3,
                rs2: 2,
            },
            CpuInstr::Or {
                rd: 6,
                rs1: 5,
                rs2: 1,
            },
            CpuInstr::Xor {
                rd: 7,
                rs1: 6,
                rs2: 6,
            },
            CpuInstr::Sll {
                rd: 8,
                rs1: 2,
                shamt: 4,
            },
            CpuInstr::Sra {
                rd: 9,
                rs1: 8,
                shamt: 2,
            },
            CpuInstr::Slt {
                rd: 10,
                rs1: 1,
                rs2: 2,
            },
            CpuInstr::Ssat {
                rd: 11,
                rs: 8,
                bits: 6,
            },
            CpuInstr::Halt,
        ];
        let (cpu, _, stats) = run_program(&program);
        assert_eq!(cpu.reg(3).unwrap(), 84);
        assert_eq!(cpu.reg(4).unwrap(), 78);
        assert_eq!(cpu.reg(5).unwrap(), 84 & 7);
        assert_eq!(cpu.reg(7).unwrap(), 0);
        assert_eq!(cpu.reg(8).unwrap(), 112);
        assert_eq!(cpu.reg(9).unwrap(), 28);
        assert_eq!(cpu.reg(10).unwrap(), 1);
        assert_eq!(cpu.reg(11).unwrap(), 31, "saturated to 6-bit max");
        assert_eq!(stats.mul_ops, 2);
        assert_eq!(stats.instructions, 13);
    }

    #[test]
    fn loads_stores_and_loop() {
        // Sum sram[0..10] into r3.
        let program = vec![
            CpuInstr::Li { rd: 1, imm: 0 },  // i
            CpuInstr::Li { rd: 2, imm: 10 }, // n
            CpuInstr::Li { rd: 3, imm: 0 },  // acc
            // loop:
            CpuInstr::Lw {
                rd: 4,
                rs1: 1,
                offset: 0,
            },
            CpuInstr::Add {
                rd: 3,
                rs1: 3,
                rs2: 4,
            },
            CpuInstr::Addi {
                rd: 1,
                rs1: 1,
                imm: 1,
            },
            CpuInstr::Blt {
                rs1: 1,
                rs2: 2,
                target: 3,
            },
            CpuInstr::Halt,
        ];
        let mut cpu = Cpu::new();
        let mut sram = Sram::with_words(1024);
        sram.load(0, &(1..=10).collect::<Vec<i32>>()).unwrap();
        let stats = cpu.run(&program, &mut sram).unwrap();
        assert_eq!(cpu.reg(3).unwrap(), 55);
        assert_eq!(stats.loads, 10);
        assert_eq!(stats.taken_branches, 9);
        assert_eq!(stats.branches, 10);
    }

    #[test]
    fn cycle_model_weights_memory_and_branches() {
        let program = vec![
            CpuInstr::Li { rd: 1, imm: 5 },
            CpuInstr::Sw {
                rs2: 1,
                rs1: 0,
                offset: 0,
            },
            CpuInstr::Lw {
                rd: 2,
                rs1: 0,
                offset: 0,
            },
            CpuInstr::Jump { target: 4 },
            CpuInstr::Halt,
        ];
        let (_, _, stats) = run_program(&program);
        assert_eq!(
            stats.cycles,
            CYCLES.alu + 2 * CYCLES.mem + CYCLES.taken_branch + CYCLES.alu
        );
    }

    #[test]
    fn missing_halt_and_bad_targets_are_errors() {
        let mut cpu = Cpu::new();
        let mut sram = Sram::with_words(256);
        assert!(matches!(
            cpu.run(&[CpuInstr::Li { rd: 1, imm: 0 }], &mut sram),
            Err(SocError::MissingHalt)
        ));
        assert!(matches!(
            cpu.run(&[CpuInstr::Jump { target: 9 }], &mut sram),
            Err(SocError::InvalidBranchTarget { .. })
        ));
    }

    #[test]
    fn cycle_limit_detects_infinite_loops() {
        let mut cpu = Cpu::new();
        cpu.set_cycle_limit(1000);
        let mut sram = Sram::with_words(256);
        let program = vec![CpuInstr::Jump { target: 0 }, CpuInstr::Halt];
        assert!(matches!(
            cpu.run(&program, &mut sram),
            Err(SocError::CycleLimitExceeded { .. })
        ));
    }

    #[test]
    fn invalid_register_rejected() {
        let mut cpu = Cpu::new();
        assert!(cpu.set_reg(40, 1).is_err());
        assert!(cpu.reg(99).is_err());
    }

    #[test]
    fn negative_address_rejected() {
        let mut cpu = Cpu::new();
        let mut sram = Sram::with_words(256);
        let program = vec![
            CpuInstr::Lw {
                rd: 1,
                rs1: 0,
                offset: -5,
            },
            CpuInstr::Halt,
        ];
        assert!(cpu.run(&program, &mut sram).is_err());
    }
}
