//! VWR2A mapping of the 11-tap FIR filter (Table 4, and the preprocessing
//! step of MBioTracker).
//!
//! Mapping summary (Sec. 4.4.1 of the paper: "our mapping uses two columns
//! of the reconfigurable array that work on different slices of the input
//! array"):
//!
//! * The host stages the input with a **10-sample overlap per RC slice**:
//!   each 32-word slice of a VWR line holds 10 halo samples followed by 22
//!   payload samples, so every RC computes 22 outputs without ever needing
//!   data from a neighbouring slice ("careful data placement", Sec. 3.3.2).
//! * The filter taps are baked into the program as immediates (they are
//!   kernel constants, exactly like the paper's manually mapped kernels).
//! * Each output sample is an 11-step multiply-accumulate in the RC local
//!   registers (standard multiply mode, 32-bit accumulator, final `>> 15`
//!   like `arm_fir_q15`); the MXCU index walks down the taps and back.
//! * Both columns run the same program on different input blocks; the block
//!   loop is driven by the host, which rewrites the two SRF line pointers
//!   and relaunches the kernel.  Under a [`vwr2a_runtime::Session`] only
//!   the very first launch of the session is cold — every later block, and
//!   every later window of a batch, reuses the resident configuration.

use crate::error::{KernelError, Result};
use vwr2a_core::builder::ColumnProgramBuilder;
use vwr2a_core::geometry::{Geometry, VwrId};
use vwr2a_core::isa::{
    LcuCond, LcuInstr, LcuSrc, LsuAddr, LsuInstr, MxcuInstr, RcDst, RcInstr, RcOpcode, RcSrc,
};
use vwr2a_core::program::KernelProgram;
use vwr2a_runtime::{Kernel, LaunchCtx, Offload, Resources, RuntimeError};
use vwr2a_soc::cpu::{Cpu, CpuInstr};
use vwr2a_soc::sram::Sram;

/// Payload samples produced per RC slice and per block pass.
const PAYLOAD_PER_SLICE: usize = 32 - 10;
/// Input line used by column `c` (SRF-addressed, but these are the SPM
/// locations the host stages into).
const IN_LINE: [u16; 2] = [0, 1];
/// Output line used by column `c`.
const OUT_LINE: [u16; 2] = [2, 3];

/// The 11-tap FIR kernel mapping.
///
/// # Example
///
/// ```
/// use vwr2a_kernels::fir::FirKernel;
/// use vwr2a_runtime::Session;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let taps = [1024i32; 11]; // a crude averaging filter in q15
/// let kernel = FirKernel::new(&taps, 256)?;
/// let input: Vec<i32> = (0..256).map(|i| ((i % 64) as i32 - 32) * 256).collect();
/// let mut session = Session::new();
/// let (output, report) = session.run(&kernel, &input)?;
/// assert_eq!(output.len(), 256);
/// assert!(report.cycles > 0);
/// // Re-running the same kernel is warm: no configuration reload.
/// let (_, warm) = session.run(&kernel, &input)?;
/// assert!(warm.cycles < report.cycles);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FirKernel {
    taps: Vec<i32>,
    n: usize,
    program: KernelProgram,
}

impl FirKernel {
    /// Builds the kernel for the given `q15` taps and input length.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidParameter`] if there are no taps, more
    /// than 11 taps (the slice overlap is sized for the paper's filter), a
    /// tap that does not fit the 16-bit immediate field, or a zero-length
    /// input.
    pub fn new(taps: &[i32], n: usize) -> Result<Self> {
        if taps.is_empty() || taps.len() > 11 {
            return Err(KernelError::InvalidParameter {
                what: format!("tap count must be 1..=11, got {}", taps.len()),
            });
        }
        if n == 0 {
            return Err(KernelError::InvalidParameter {
                what: "input length must be non-zero".into(),
            });
        }
        if let Some(bad) = taps
            .iter()
            .find(|t| **t > i16::MAX as i32 || **t < i16::MIN as i32)
        {
            return Err(KernelError::InvalidParameter {
                what: format!("tap {bad} does not fit the q15 immediate field"),
            });
        }
        let program = Self::build_program(taps)?;
        Ok(Self {
            taps: taps.to_vec(),
            n,
            program,
        })
    }

    /// The filter taps.
    pub fn taps(&self) -> &[i32] {
        &self.taps
    }

    /// The configured input length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the configured input length is zero (never true for a
    /// constructed kernel).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Outputs produced by one block launch (both columns).
    fn outputs_per_block() -> usize {
        2 * 4 * PAYLOAD_PER_SLICE
    }

    fn build_column_program(taps: &[i32]) -> Result<vwr2a_core::ColumnProgram> {
        let mut b = ColumnProgramBuilder::new(4);
        // Load the overlapped input line; line address in SRF[0].
        b.push(b.row().lsu(LsuInstr::LoadVwr {
            vwr: VwrId::A,
            line: LsuAddr::Srf(0),
        }));
        // w = 10 (first payload word of every slice).
        b.push(
            b.row()
                .mxcu(MxcuInstr::SetIdx(10))
                .lcu(LcuInstr::Li { r: 0, value: 10 }),
        );
        let outer = b.new_label();
        b.bind_label(outer);
        // Tap 0: start the accumulator, then walk the index down the taps.
        b.push(
            b.row()
                .rc_all(RcInstr::new(
                    RcOpcode::Mul,
                    RcDst::Reg(0),
                    RcSrc::Vwr(VwrId::A),
                    RcSrc::Imm(taps[0] as i16),
                ))
                .mxcu(MxcuInstr::AddIdx(-1)),
        );
        for (k, &tap) in taps.iter().enumerate().skip(1) {
            let last = k == taps.len() - 1;
            // Multiply at index w - k, stepping the index except on the last
            // tap, where it jumps back up to w.
            let step = if last {
                MxcuInstr::AddIdx((k) as i16)
            } else {
                MxcuInstr::AddIdx(-1)
            };
            b.push(
                b.row()
                    .rc_all(RcInstr::new(
                        RcOpcode::Mul,
                        RcDst::Reg(1),
                        RcSrc::Vwr(VwrId::A),
                        RcSrc::Imm(tap as i16),
                    ))
                    .mxcu(step),
            );
            b.push(b.row().rc_all(RcInstr::new(
                RcOpcode::Add,
                RcDst::Reg(0),
                RcSrc::Reg(0),
                RcSrc::Reg(1),
            )));
        }
        // y[w] = acc >> 15 (back to q15 scale, matching arm_fir_q15), then
        // advance w.
        b.push(
            b.row()
                .rc_all(RcInstr::new(
                    RcOpcode::Sra,
                    RcDst::Vwr(VwrId::C),
                    RcSrc::Reg(0),
                    RcSrc::Imm(15),
                ))
                .mxcu(MxcuInstr::AddIdx(1))
                .lcu(LcuInstr::Add {
                    r: 0,
                    src: LcuSrc::Imm(1),
                }),
        );
        b.push_branch(b.row(), LcuCond::Lt, 0, LcuSrc::Imm(32), outer);
        // Store the output line; line address in SRF[1].
        b.push(b.row().lsu(LsuInstr::StoreVwr {
            vwr: VwrId::C,
            line: LsuAddr::Srf(1),
        }));
        b.push_exit();
        Ok(b.build()?)
    }

    fn build_program(taps: &[i32]) -> Result<KernelProgram> {
        let col = Self::build_column_program(taps)?;
        Ok(KernelProgram::new("fir-11tap", vec![col.clone(), col])?)
    }

    /// Builds the overlapped input line for one column of one block.
    ///
    /// `base` is the index of the first payload sample of the column's first
    /// slice.
    fn stage_line(input: &[i32], base: i64) -> Vec<i32> {
        let mut line = vec![0i32; 128];
        for slice in 0..4usize {
            let payload_start = base + (slice * PAYLOAD_PER_SLICE) as i64;
            for w in 0..32usize {
                // Word w of the slice corresponds to sample payload_start + (w - 10).
                let idx = payload_start + w as i64 - 10;
                if idx >= 0 && (idx as usize) < input.len() {
                    line[slice * 32 + w] = input[idx as usize];
                }
            }
        }
        line
    }

    /// Emits the Cortex-M4 mirror of the column program: one `Lw`/`Li`/
    /// `Mla` triple per tap walking the same zero-padded window, the same
    /// final arithmetic `>> 15`, and a store per output sample.
    ///
    /// The SRAM image the program expects is `taps.len() - 1` zero words,
    /// the `n` input samples, then the `n`-word output region; all
    /// arithmetic is wrapping 32-bit in tap order, so the outputs are
    /// bit-identical to the array's reconfigurable-cell datapath.
    fn cpu_program(&self) -> Vec<CpuInstr> {
        let k = self.taps.len();
        let pad = (k - 1) as i32;
        let out_base = pad + self.n as i32;
        let mut prog = vec![
            CpuInstr::Li { rd: 1, imm: 0 },
            CpuInstr::Li {
                rd: 2,
                imm: self.n as i32,
            },
        ];
        let loop_top = prog.len();
        for (tap_idx, &tap) in self.taps.iter().enumerate() {
            // x[i - k] lives at word `i + (pad - k)` of the padded image.
            prog.push(CpuInstr::Lw {
                rd: 4,
                rs1: 1,
                offset: pad - tap_idx as i32,
            });
            prog.push(CpuInstr::Li { rd: 5, imm: tap });
            prog.push(if tap_idx == 0 {
                CpuInstr::Mul {
                    rd: 3,
                    rs1: 4,
                    rs2: 5,
                }
            } else {
                CpuInstr::Mla {
                    rd: 3,
                    rs1: 4,
                    rs2: 5,
                }
            });
        }
        prog.push(CpuInstr::Sra {
            rd: 3,
            rs1: 3,
            shamt: 15,
        });
        prog.push(CpuInstr::Sw {
            rs2: 3,
            rs1: 1,
            offset: out_base,
        });
        prog.push(CpuInstr::Addi {
            rd: 1,
            rs1: 1,
            imm: 1,
        });
        prog.push(CpuInstr::Blt {
            rs1: 1,
            rs2: 2,
            target: loop_top,
        });
        prog.push(CpuInstr::Halt);
        prog
    }
}

impl Kernel for FirKernel {
    type Input = [i32];
    type Output = Vec<i32>;

    fn name(&self) -> &str {
        "fir-11tap"
    }

    fn cache_key(&self) -> String {
        // The taps are baked into the program as immediates, so program
        // identity is exactly tap identity (the input length only affects
        // host-side staging).
        format!("fir:{:?}", self.taps)
    }

    fn resources(&self) -> Resources {
        Resources {
            columns: 2,
            spm_lines: 4,
            srf_slots: 2,
        }
    }

    fn program(&self, _geometry: &Geometry) -> vwr2a_runtime::Result<KernelProgram> {
        Ok(self.program.clone())
    }

    fn execute(&self, ctx: &mut LaunchCtx<'_>, input: &[i32]) -> vwr2a_runtime::Result<Vec<i32>> {
        if input.len() != self.n {
            return Err(KernelError::InvalidParameter {
                what: format!("expected {} samples, got {}", self.n, input.len()),
            }
            .into());
        }
        let mut output = vec![0i32; self.n];
        let per_block = Self::outputs_per_block();
        let blocks = self.n.div_ceil(per_block);
        for blk in 0..blocks {
            let block_base = (blk * per_block) as i64;
            for (col, (&in_line, &out_line)) in IN_LINE.iter().zip(&OUT_LINE).enumerate() {
                let base = block_base + (col * 4 * PAYLOAD_PER_SLICE) as i64;
                let line = Self::stage_line(input, base);
                ctx.dma_in(&line, in_line as usize * 128)?;
                ctx.write_param(col, 0, in_line as i32)?;
                ctx.write_param(col, 1, out_line as i32)?;
            }
            ctx.launch()?;
            for (col, &out_line) in OUT_LINE.iter().enumerate() {
                let line = ctx.dma_out(out_line as usize * 128, 128)?;
                let base = block_base + (col * 4 * PAYLOAD_PER_SLICE) as i64;
                for slice in 0..4usize {
                    for p in 0..PAYLOAD_PER_SLICE {
                        let out_idx = base + (slice * PAYLOAD_PER_SLICE + p) as i64;
                        if out_idx >= 0 && (out_idx as usize) < self.n {
                            output[out_idx as usize] = line[slice * 32 + 10 + p];
                        }
                    }
                }
            }
        }
        Ok(output)
    }

    fn offload(&self) -> Offload {
        // Per output: one load/immediate/MAC triple per tap plus the
        // shift/store/bump/branch epilogue.  A placement-grade estimate —
        // execution charges the ISS's actual cycle count.
        let per_output = 4 * self.taps.len() as u64 + 8;
        Offload {
            fft: None,
            cpu_cycles: Some(self.n as u64 * per_output + 8),
        }
    }

    fn execute_cpu(
        &self,
        cpu: &mut Cpu,
        sram: &mut Sram,
        input: &[i32],
    ) -> vwr2a_runtime::Result<(Vec<i32>, vwr2a_soc::cpu::CpuRunStats)> {
        if input.len() != self.n {
            return Err(KernelError::InvalidParameter {
                what: format!("expected {} samples, got {}", self.n, input.len()),
            }
            .into());
        }
        let as_runtime_err = |e: vwr2a_soc::SocError| RuntimeError::invalid_input(e.to_string());
        // The host SRAM persists across jobs, so (re)stage the whole image:
        // the zero halo the negative-index taps read, then the samples.
        let pad = self.taps.len() - 1;
        if pad > 0 {
            sram.load(0, &vec![0i32; pad]).map_err(as_runtime_err)?;
        }
        sram.load(pad, input).map_err(as_runtime_err)?;
        let stats = cpu.run(&self.cpu_program(), sram).map_err(as_runtime_err)?;
        let output = sram.dump(pad + self.n, self.n).map_err(as_runtime_err)?;
        Ok((output, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vwr2a_dsp::fir::{design_lowpass, fir_q15, PAPER_FIR_TAPS};
    use vwr2a_dsp::fixed::Q15;
    use vwr2a_runtime::Session;

    fn paper_taps() -> Vec<i32> {
        design_lowpass(PAPER_FIR_TAPS, 0.12)
            .unwrap()
            .iter()
            .map(|&v| Q15::from_f64(v).0 as i32)
            .collect()
    }

    #[test]
    fn matches_q15_reference_within_rounding() {
        let taps = paper_taps();
        let n = 256;
        let input_f: Vec<f64> = (0..n).map(|i| 0.6 * (i as f64 * 0.09).sin()).collect();
        let input: Vec<i32> = input_f.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
        let kernel = FirKernel::new(&taps, n).unwrap();
        let (output, _) = Session::new().run(&kernel, &input).unwrap();

        let taps_q: Vec<Q15> = taps.iter().map(|&t| Q15(t as i16)).collect();
        let input_q: Vec<Q15> = input.iter().map(|&v| Q15(v as i16)).collect();
        let reference = fir_q15(&taps_q, &input_q).unwrap();
        for (i, (o, r)) in output.iter().zip(reference.iter()).enumerate() {
            assert!(
                (o - r.0 as i32).abs() <= 4,
                "sample {i}: vwr2a {o} vs reference {}",
                r.0
            );
        }
    }

    #[test]
    fn cycle_count_is_in_the_papers_range_for_256_points() {
        // Table 4 reports 1849 cycles for 256 points; the mapping should be
        // within a factor ~1.6 of that.
        let kernel = FirKernel::new(&paper_taps(), 256).unwrap();
        let input: Vec<i32> = (0..256).map(|i| ((i * 37) % 8192) - 4096).collect();
        let mut session = Session::new();
        let (_, report) = session.run(&kernel, &input).unwrap();
        assert!(
            report.cycles > 1000 && report.cycles < 3200,
            "cycles {}",
            report.cycles
        );
    }

    #[test]
    fn cycles_scale_roughly_linearly_with_input_size() {
        let taps = paper_taps();
        let cycles = |n: usize| {
            let kernel = FirKernel::new(&taps, n).unwrap();
            let input: Vec<i32> = (0..n).map(|i| (i as i32 % 100) - 50).collect();
            let mut session = Session::new();
            session.run(&kernel, &input).unwrap().1.cycles as f64
        };
        let r = cycles(1024) / cycles(512);
        assert!(r > 1.7 && r < 2.3, "scaling ratio {r}");
    }

    #[test]
    fn warm_window_skips_the_configuration_load() {
        let kernel = FirKernel::new(&paper_taps(), 256).unwrap();
        let input: Vec<i32> = (0..256).map(|i| (i % 64) * 100 - 3200).collect();
        let mut session = Session::new();
        let (out_cold, cold) = session.run(&kernel, &input).unwrap();
        let (out_warm, warm) = session.run(&kernel, &input).unwrap();
        assert_eq!(out_cold, out_warm, "warm rerun must be bit-identical");
        assert_eq!(cold.cold_launches, 1);
        assert_eq!(warm.cold_launches, 0);
        assert!(warm.warm_launches >= 1);
        assert_eq!(
            cold.cycles - warm.cycles,
            cold.counters.config_words_loaded,
            "the warm saving is exactly the configuration streaming"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(FirKernel::new(&[], 128).is_err());
        assert!(FirKernel::new(&[1; 12], 128).is_err());
        assert!(FirKernel::new(&[40_000], 128).is_err());
        assert!(FirKernel::new(&[1], 0).is_err());
        let k = FirKernel::new(&[1, 2, 3], 64).unwrap();
        assert!(Session::new().run(&k, &[0; 32]).is_err());
        assert_eq!(k.taps(), &[1, 2, 3]);
        assert_eq!(k.len(), 64);
        assert!(!k.is_empty());
    }

    #[test]
    fn cpu_offload_matches_the_array_bit_exactly() {
        // Both datapaths compute (sum taps[k] * x[i-k]) >> 15 with wrapping
        // 32-bit arithmetic in tap order, so the ISS mirror must agree on
        // every word, including the zero-padded left edge.
        let taps = paper_taps();
        let kernel = FirKernel::new(&taps, 96).unwrap();
        let input: Vec<i32> = (0..96).map(|i| (i * 2731) % 65536 - 32768).collect();
        let (array_out, _) = Session::new().run(&kernel, &input).unwrap();
        let mut cpu = Cpu::new();
        let mut sram = Sram::paper();
        let (cpu_out, stats) = kernel.execute_cpu(&mut cpu, &mut sram, &input).unwrap();
        assert_eq!(cpu_out, array_out);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn cpu_offload_is_independent_of_prior_sram_contents() {
        // The hook contract: every word the program reads is reloaded, so
        // a dirty SRAM from an earlier job cannot leak into the output.
        let kernel = FirKernel::new(&[4096, -8192, 16384], 40).unwrap();
        let input: Vec<i32> = (0..40).map(|i| (i - 20) * 999).collect();
        let mut cpu = Cpu::new();
        let mut sram = Sram::paper();
        let (fresh, _) = kernel.execute_cpu(&mut cpu, &mut sram, &input).unwrap();
        let poison: Vec<i32> = (0..128).map(|i| i32::MIN + i).collect();
        sram.load(0, &poison).unwrap();
        let (dirty, _) = kernel.execute_cpu(&mut cpu, &mut sram, &input).unwrap();
        assert_eq!(dirty, fresh);
    }

    #[test]
    fn offload_declares_a_cpu_estimate_and_no_fft_shape() {
        let kernel = FirKernel::new(&paper_taps(), 64).unwrap();
        let offload = kernel.offload();
        assert!(offload.fft.is_none());
        let estimate = offload.cpu_cycles.expect("FIR advertises a CPU fallback");
        assert!(estimate > 64, "estimate scales with the sample count");
    }
}
