//! CPU baseline: statistical and spectral feature extraction.
//!
//! MBioTracker's feature-extraction step computes time features (mean,
//! median and RMS of the inspiration/expiration intervals) and frequency
//! features from the FFT of the filtered signal (Sec. 4.4.2).  The programs
//! here implement those pieces on the scalar ISS: [`stats_program`] produces
//! mean/median/RMS of an integer array whose length is only known at run
//! time, and [`band_energy_program`] reduces an interleaved spectrum to
//! per-band energies.

use crate::cpu::asm::{BranchCond, CpuAsm};
use crate::cpu::CpuInstr;
use crate::error::Result;

const ZERO: u8 = 0;

/// Emits a bit-by-bit integer square root of register `value_reg` into
/// `result_reg` (clobbers `t0..t2`).
fn emit_isqrt(a: &mut CpuAsm, value_reg: u8, result_reg: u8, t0: u8, t1: u8) {
    // res = 0; bit = 1 << 30;
    a.push(CpuInstr::Li {
        rd: result_reg,
        imm: 0,
    });
    a.push(CpuInstr::Li {
        rd: t0,
        imm: 1 << 30,
    });
    // while bit > value: bit >>= 2
    let shrink = a.new_label();
    let shrink_done = a.new_label();
    a.bind(shrink);
    a.branch(BranchCond::Ge, value_reg, t0, shrink_done);
    a.push(CpuInstr::Srl {
        rd: t0,
        rs1: t0,
        shamt: 2,
    });
    a.branch(BranchCond::Ne, t0, ZERO, shrink);
    a.bind(shrink_done);
    // while bit != 0
    let loop_top = a.new_label();
    let loop_end = a.new_label();
    let else_branch = a.new_label();
    let after = a.new_label();
    a.bind(loop_top);
    a.branch(BranchCond::Eq, t0, ZERO, loop_end);
    // if value >= res + bit { value -= res + bit; res = (res >> 1) + bit }
    a.push(CpuInstr::Add {
        rd: t1,
        rs1: result_reg,
        rs2: t0,
    });
    a.branch(BranchCond::Lt, value_reg, t1, else_branch);
    a.push(CpuInstr::Sub {
        rd: value_reg,
        rs1: value_reg,
        rs2: t1,
    });
    a.push(CpuInstr::Srl {
        rd: result_reg,
        rs1: result_reg,
        shamt: 1,
    });
    a.push(CpuInstr::Add {
        rd: result_reg,
        rs1: result_reg,
        rs2: t0,
    });
    a.jump(after);
    a.bind(else_branch);
    a.push(CpuInstr::Srl {
        rd: result_reg,
        rs1: result_reg,
        shamt: 1,
    });
    a.bind(after);
    a.push(CpuInstr::Srl {
        rd: t0,
        rs1: t0,
        shamt: 2,
    });
    a.jump(loop_top);
    a.bind(loop_end);
}

/// Mean / median / RMS of an integer array whose length is stored in memory.
///
/// Memory layout (word addresses):
/// * `data_addr..` — input values (`*count_addr` of them),
/// * `count_addr` — element count (read at run time; a zero count writes
///   three zeros),
/// * `scratch_addr..` — scratch area at least as large as the input (used
///   by the insertion sort for the median),
/// * `out_addr..out_addr+3` — `[mean, median, rms]` (written).
///
/// # Errors
///
/// Returns an assembler error only on an internal generator bug.
pub fn stats_program(
    data_addr: usize,
    count_addr: usize,
    scratch_addr: usize,
    out_addr: usize,
) -> Result<Vec<CpuInstr>> {
    const DATA: u8 = 1;
    const COUNT: u8 = 2;
    const SCRATCH: u8 = 3;
    const OUT: u8 = 4;
    const I: u8 = 5;
    const J: u8 = 6;
    const SUM: u8 = 7;
    const SUMSQ: u8 = 8;
    const V: u8 = 9;
    const T0: u8 = 10;
    const T1: u8 = 11;
    const T2: u8 = 12;
    const MEAN: u8 = 13;
    const MEDIAN: u8 = 14;
    const RMS: u8 = 15;

    let mut a = CpuAsm::new();
    a.push(CpuInstr::Li { rd: ZERO, imm: 0 });
    a.push(CpuInstr::Li {
        rd: DATA,
        imm: data_addr as i32,
    });
    a.push(CpuInstr::Li {
        rd: SCRATCH,
        imm: scratch_addr as i32,
    });
    a.push(CpuInstr::Li {
        rd: OUT,
        imm: out_addr as i32,
    });
    a.push(CpuInstr::Li {
        rd: T0,
        imm: count_addr as i32,
    });
    a.push(CpuInstr::Lw {
        rd: COUNT,
        rs1: T0,
        offset: 0,
    });

    // Zero-length input: write three zeros and halt.
    let non_empty = a.new_label();
    a.branch(BranchCond::Ne, COUNT, ZERO, non_empty);
    a.push(CpuInstr::Sw {
        rs2: ZERO,
        rs1: OUT,
        offset: 0,
    });
    a.push(CpuInstr::Sw {
        rs2: ZERO,
        rs1: OUT,
        offset: 1,
    });
    a.push(CpuInstr::Sw {
        rs2: ZERO,
        rs1: OUT,
        offset: 2,
    });
    a.push(CpuInstr::Halt);
    a.bind(non_empty);

    // Pass 1: sum, sum of squares, and copy into the scratch buffer.
    a.push(CpuInstr::Li { rd: SUM, imm: 0 });
    a.push(CpuInstr::Li { rd: SUMSQ, imm: 0 });
    a.push(CpuInstr::Li { rd: I, imm: 0 });
    let pass1 = a.new_label();
    a.bind(pass1);
    a.push(CpuInstr::Add {
        rd: T0,
        rs1: DATA,
        rs2: I,
    });
    a.push(CpuInstr::Lw {
        rd: V,
        rs1: T0,
        offset: 0,
    });
    a.push(CpuInstr::Add {
        rd: SUM,
        rs1: SUM,
        rs2: V,
    });
    a.push(CpuInstr::Mla {
        rd: SUMSQ,
        rs1: V,
        rs2: V,
    });
    a.push(CpuInstr::Add {
        rd: T0,
        rs1: SCRATCH,
        rs2: I,
    });
    a.push(CpuInstr::Sw {
        rs2: V,
        rs1: T0,
        offset: 0,
    });
    a.push(CpuInstr::Addi {
        rd: I,
        rs1: I,
        imm: 1,
    });
    a.branch(BranchCond::Lt, I, COUNT, pass1);

    // mean = sum / count ; mean-square = sumsq / count ; rms = isqrt(...)
    a.push(CpuInstr::Div {
        rd: MEAN,
        rs1: SUM,
        rs2: COUNT,
    });
    a.push(CpuInstr::Div {
        rd: T2,
        rs1: SUMSQ,
        rs2: COUNT,
    });
    emit_isqrt(&mut a, T2, RMS, T0, T1);

    // Insertion sort of the scratch copy.
    a.push(CpuInstr::Li { rd: I, imm: 1 });
    let sort_outer = a.new_label();
    let sort_done = a.new_label();
    a.branch(BranchCond::Ge, I, COUNT, sort_done);
    a.bind(sort_outer);
    a.push(CpuInstr::Add {
        rd: T0,
        rs1: SCRATCH,
        rs2: I,
    });
    a.push(CpuInstr::Lw {
        rd: V,
        rs1: T0,
        offset: 0,
    });
    a.push(CpuInstr::Mv { rd: J, rs: I });
    let shift_loop = a.new_label();
    let shift_done = a.new_label();
    a.bind(shift_loop);
    a.branch(BranchCond::Eq, J, ZERO, shift_done);
    a.push(CpuInstr::Add {
        rd: T0,
        rs1: SCRATCH,
        rs2: J,
    });
    a.push(CpuInstr::Lw {
        rd: T1,
        rs1: T0,
        offset: -1,
    });
    a.branch(BranchCond::Ge, V, T1, shift_done);
    a.push(CpuInstr::Sw {
        rs2: T1,
        rs1: T0,
        offset: 0,
    });
    a.push(CpuInstr::Addi {
        rd: J,
        rs1: J,
        imm: -1,
    });
    a.jump(shift_loop);
    a.bind(shift_done);
    a.push(CpuInstr::Add {
        rd: T0,
        rs1: SCRATCH,
        rs2: J,
    });
    a.push(CpuInstr::Sw {
        rs2: V,
        rs1: T0,
        offset: 0,
    });
    a.push(CpuInstr::Addi {
        rd: I,
        rs1: I,
        imm: 1,
    });
    a.branch(BranchCond::Lt, I, COUNT, sort_outer);
    a.bind(sort_done);

    // median = sorted[count/2] for odd counts, average of the two middle
    // elements for even counts.
    a.push(CpuInstr::Srl {
        rd: T0,
        rs1: COUNT,
        shamt: 1,
    });
    a.push(CpuInstr::Add {
        rd: T1,
        rs1: SCRATCH,
        rs2: T0,
    });
    a.push(CpuInstr::Lw {
        rd: MEDIAN,
        rs1: T1,
        offset: 0,
    });
    // Even count: median = (sorted[mid-1] + sorted[mid]) / 2.
    a.push(CpuInstr::Sll {
        rd: T2,
        rs1: T0,
        shamt: 1,
    });
    let odd = a.new_label();
    a.branch(BranchCond::Ne, T2, COUNT, odd);
    a.push(CpuInstr::Lw {
        rd: T2,
        rs1: T1,
        offset: -1,
    });
    a.push(CpuInstr::Add {
        rd: MEDIAN,
        rs1: MEDIAN,
        rs2: T2,
    });
    a.push(CpuInstr::Sra {
        rd: MEDIAN,
        rs1: MEDIAN,
        shamt: 1,
    });
    a.bind(odd);

    a.push(CpuInstr::Sw {
        rs2: MEAN,
        rs1: OUT,
        offset: 0,
    });
    a.push(CpuInstr::Sw {
        rs2: MEDIAN,
        rs1: OUT,
        offset: 1,
    });
    a.push(CpuInstr::Sw {
        rs2: RMS,
        rs1: OUT,
        offset: 2,
    });
    a.push(CpuInstr::Halt);
    a.build()
}

/// Per-band spectral energy of an interleaved spectrum.
///
/// Memory layout (word addresses):
/// * `spec_addr..spec_addr+2*bins` — interleaved `q15` spectrum bins,
/// * `out_addr..out_addr+bands` — per-band energies
///   `Σ (re² + im²) >> 15` over equal-width bands (written).
///
/// # Errors
///
/// Returns an assembler error only on an internal generator bug.
pub fn band_energy_program(
    bins: usize,
    bands: usize,
    spec_addr: usize,
    out_addr: usize,
) -> Result<Vec<CpuInstr>> {
    const SPEC: u8 = 1;
    const OUT: u8 = 2;
    const BAND: u8 = 3;
    const I: u8 = 4;
    const END: u8 = 5;
    const ACC: u8 = 6;
    const RE: u8 = 7;
    const IM: u8 = 8;
    const T0: u8 = 9;
    const T1: u8 = 10;
    const NBANDS: u8 = 11;
    const PERBAND: u8 = 12;

    let per_band = (bins / bands).max(1);
    let mut a = CpuAsm::new();
    a.push(CpuInstr::Li { rd: ZERO, imm: 0 });
    a.push(CpuInstr::Li {
        rd: SPEC,
        imm: spec_addr as i32,
    });
    a.push(CpuInstr::Li {
        rd: OUT,
        imm: out_addr as i32,
    });
    a.push(CpuInstr::Li {
        rd: NBANDS,
        imm: bands as i32,
    });
    a.push(CpuInstr::Li {
        rd: PERBAND,
        imm: per_band as i32,
    });
    a.push(CpuInstr::Li { rd: BAND, imm: 0 });
    a.push(CpuInstr::Li { rd: I, imm: 0 });
    let band_loop = a.new_label();
    a.bind(band_loop);
    a.push(CpuInstr::Li { rd: ACC, imm: 0 });
    a.push(CpuInstr::Add {
        rd: END,
        rs1: I,
        rs2: PERBAND,
    });
    let bin_loop = a.new_label();
    a.bind(bin_loop);
    a.push(CpuInstr::Sll {
        rd: T0,
        rs1: I,
        shamt: 1,
    });
    a.push(CpuInstr::Add {
        rd: T0,
        rs1: T0,
        rs2: SPEC,
    });
    a.push(CpuInstr::Lw {
        rd: RE,
        rs1: T0,
        offset: 0,
    });
    a.push(CpuInstr::Lw {
        rd: IM,
        rs1: T0,
        offset: 1,
    });
    a.push(CpuInstr::Mul {
        rd: T1,
        rs1: RE,
        rs2: RE,
    });
    a.push(CpuInstr::Mla {
        rd: T1,
        rs1: IM,
        rs2: IM,
    });
    a.push(CpuInstr::Sra {
        rd: T1,
        rs1: T1,
        shamt: 15,
    });
    a.push(CpuInstr::Add {
        rd: ACC,
        rs1: ACC,
        rs2: T1,
    });
    a.push(CpuInstr::Addi {
        rd: I,
        rs1: I,
        imm: 1,
    });
    a.branch(BranchCond::Lt, I, END, bin_loop);
    a.push(CpuInstr::Add {
        rd: T0,
        rs1: OUT,
        rs2: BAND,
    });
    a.push(CpuInstr::Sw {
        rs2: ACC,
        rs1: T0,
        offset: 0,
    });
    a.push(CpuInstr::Addi {
        rd: BAND,
        rs1: BAND,
        imm: 1,
    });
    a.branch(BranchCond::Lt, BAND, NBANDS, band_loop);
    a.push(CpuInstr::Halt);
    a.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpu;
    use crate::sram::Sram;

    fn run(program: &[CpuInstr], seed: &[(usize, Vec<i32>)]) -> Sram {
        let mut cpu = Cpu::new();
        let mut sram = Sram::paper();
        for (addr, data) in seed {
            sram.load(*addr, data).unwrap();
        }
        cpu.run(program, &mut sram).unwrap();
        sram
    }

    #[test]
    fn stats_match_reference() {
        let data = vec![40i32, 10, 30, 20, 50, 60, 25];
        let n = data.len();
        let program = stats_program(0, 100, 200, 300).unwrap();
        let sram = run(&program, &[(0, data.clone()), (100, vec![n as i32])]);
        let out = sram.dump(300, 3).unwrap();
        let mean = data.iter().sum::<i32>() / n as i32;
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let median = sorted[n / 2];
        let meansq = data.iter().map(|&v| v as i64 * v as i64).sum::<i64>() / n as i64;
        let rms = (meansq as f64).sqrt().floor() as i32;
        assert_eq!(out[0], mean);
        assert_eq!(out[1], median);
        assert_eq!(out[2], rms);
    }

    #[test]
    fn stats_even_count_and_empty() {
        let data = vec![4i32, 1, 3, 2];
        let program = stats_program(0, 100, 200, 300).unwrap();
        let sram = run(&program, &[(0, data), (100, vec![4])]);
        assert_eq!(sram.dump(300, 3).unwrap()[1], 2, "interpolated median");

        let program = stats_program(0, 100, 200, 300).unwrap();
        let sram = run(&program, &[(100, vec![0])]);
        assert_eq!(sram.dump(300, 3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn band_energies_sum_squares() {
        // 8 bins, 2 bands; only bin 1 (band 0) and bin 6 (band 1) are non-zero.
        let mut spec = vec![0i32; 16];
        spec[2] = 1000;
        spec[3] = 2000;
        spec[12] = -3000;
        let program = band_energy_program(8, 2, 0, 50).unwrap();
        let sram = run(&program, &[(0, spec)]);
        let out = sram.dump(50, 2).unwrap();
        assert_eq!(out[0], (1000 * 1000 + 2000 * 2000) >> 15);
        assert_eq!(out[1], (3000 * 3000) >> 15);
    }
}
