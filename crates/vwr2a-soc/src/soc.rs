//! The biosignal-processing SoC, as the results read it.
//!
//! [`BiosignalSoc`] is the host side of the platform of Sec. 4.1: the
//! Cortex-M4-like CPU and its 192 KiB SRAM.  The CPU baselines of the
//! paper's tables and the CPU stages of the bioapp pipeline run here; the
//! energy model prices them from the CPU's own [`CpuRunStats`], and the
//! accelerators' completion interrupt costs [`crate::irq::latency`].  The
//! fixed-function FFT engine and VWR2A live in their own crates; the
//! `vwr2a-bioapp` crate wires them to this host for the application-level
//! experiments.

use crate::cpu::{Cpu, CpuInstr, CpuRunStats};
use crate::error::Result;
use crate::sram::Sram;

/// The host CPU and its SRAM.
///
/// # Example
///
/// ```
/// use vwr2a_soc::soc::BiosignalSoc;
/// use vwr2a_soc::cpu::CpuInstr;
///
/// # fn main() -> Result<(), vwr2a_soc::error::SocError> {
/// let mut soc = BiosignalSoc::new();
/// let program = vec![
///     CpuInstr::Li { rd: 1, imm: 7 },
///     CpuInstr::Sw { rs2: 1, rs1: 0, offset: 0 },
///     CpuInstr::Halt,
/// ];
/// let stats = soc.run_cpu_program(&program)?;
/// assert_eq!(soc.sram().dump(0, 1)?[0], 7);
/// assert!(stats.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BiosignalSoc {
    cpu: Cpu,
    sram: Sram,
}

impl BiosignalSoc {
    /// Creates the platform with the paper's configuration.
    pub fn new() -> Self {
        Self {
            cpu: Cpu::new(),
            sram: Sram::paper(),
        }
    }

    /// The SRAM.
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Mutable access to the SRAM (seeding inputs, reading results).
    pub fn sram_mut(&mut self) -> &mut Sram {
        &mut self.sram
    }

    /// Runs a CPU program to completion against the SRAM.
    ///
    /// # Errors
    ///
    /// Propagates CPU and SRAM errors.
    pub fn run_cpu_program(&mut self, program: &[CpuInstr]) -> Result<CpuRunStats> {
        self.cpu.run(program, &mut self.sram)
    }
}

impl Default for BiosignalSoc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::kernels::fir_q15_program;
    use vwr2a_dsp::fir::design_lowpass;
    use vwr2a_dsp::fixed::Q15;

    #[test]
    fn cpu_program_reads_and_writes_the_sram() {
        let mut soc = BiosignalSoc::new();
        let program = vec![
            CpuInstr::Li { rd: 1, imm: 3 },
            CpuInstr::Sw {
                rs2: 1,
                rs1: 0,
                offset: 5,
            },
            CpuInstr::Lw {
                rd: 2,
                rs1: 0,
                offset: 5,
            },
            CpuInstr::Sw {
                rs2: 2,
                rs1: 0,
                offset: 6,
            },
            CpuInstr::Halt,
        ];
        let stats = soc.run_cpu_program(&program).unwrap();
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 2);
        assert_eq!(soc.sram().dump(5, 2).unwrap(), vec![3, 3]);
    }

    #[test]
    fn fir_kernel_runs_end_to_end_on_the_soc() {
        let mut soc = BiosignalSoc::new();
        let n = 64;
        let taps = design_lowpass(11, 0.1).unwrap();
        let taps_q: Vec<i32> = taps.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
        let input: Vec<i32> = (0..n).map(|i| ((i % 16) as i32 - 8) * 100).collect();
        soc.sram_mut().load(0, &input).unwrap();
        soc.sram_mut().load(n, &taps_q).unwrap();
        let program = fir_q15_program(n, 11, 0, n, n + 16).unwrap();
        let stats = soc.run_cpu_program(&program).unwrap();
        assert!(stats.cycles > 1000);
        let out = soc.sram().dump(n + 16, n).unwrap();
        assert!(out.iter().any(|&v| v != 0));
    }
}
