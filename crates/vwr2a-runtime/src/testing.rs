//! Minimal example kernels used by the runtime's own tests and doc
//! examples.
//!
//! Real kernel mappings live in `vwr2a-kernels`; [`ScaleKernel`] exists so
//! the runtime crate can demonstrate and test the [`crate::Session`]
//! machinery (cold/warm launches, batching, reports) without depending on
//! them.  [`BakedScaleKernel`] bakes its factor into the program as an
//! immediate — every factor is a distinct configuration-memory program, so
//! it exercises capacity pressure, eviction and stale-handle safety: if a
//! stale program were ever aliased, the output would be numerically wrong.

use vwr2a_core::builder::ColumnProgramBuilder;
use vwr2a_core::geometry::{Geometry, VwrId};
use vwr2a_core::isa::{
    LcuCond, LcuInstr, LcuSrc, LsuAddr, LsuInstr, MxcuInstr, RcDst, RcInstr, RcOpcode, RcSrc,
};
use vwr2a_core::program::KernelProgram;

use vwr2a_core::Vwr2a;

use crate::error::{Result, RuntimeError};
use crate::session::{Kernel, LaunchCtx, Resources, Session};

/// Builds `arrays` independent sessions whose configuration memories hold
/// exactly `config_words` words (paper geometry otherwise) — the shared
/// fixture of the capacity-pressure and pool tests, benches and examples:
/// a working set larger than `config_words` forces evictions on one array,
/// while a fleet of such arrays can still hold it collectively.
///
/// # Panics
///
/// Panics if the resulting geometry is rejected by the simulator.
pub fn constrained_sessions(arrays: usize, config_words: usize) -> Vec<Session> {
    let mut geometry = Geometry::paper();
    geometry.config_words = config_words;
    (0..arrays)
        .map(|_| {
            Session::with_accelerator(
                Vwr2a::with_geometry(geometry).expect("valid constrained geometry"),
            )
        })
        .collect()
}

/// Words per SPM line / VWR of the paper geometry.
const LINE: usize = 128;
/// SPM line holding the staged input.
const IN_LINE: usize = 0;
/// SPM line receiving the result.
const OUT_LINE: usize = 1;

/// Builds the shared one-column scale program: load the input line into
/// VWR A, multiply every word by `factor_src` into VWR C, store the result
/// line.  When `prefetch_srf` is set, the factor is first copied from that
/// SRF entry into every RC's `Reg(0)` (one RC at a time: single SRF port).
fn scale_program(
    geometry: &Geometry,
    name: &str,
    prefetch_srf: Option<u8>,
    factor_src: RcSrc,
) -> Result<KernelProgram> {
    let mut b = ColumnProgramBuilder::new(geometry.rcs_per_column);
    b.push(b.row().lsu(LsuInstr::LoadVwr {
        vwr: VwrId::A,
        line: LsuAddr::Imm(IN_LINE as u16),
    }));
    b.push(
        b.row()
            .lcu(LcuInstr::Li { r: 0, value: 0 })
            .mxcu(MxcuInstr::SetIdx(0)),
    );
    if let Some(srf) = prefetch_srf {
        for rc in 0..geometry.rcs_per_column {
            b.push(b.row().rc(rc, RcInstr::mov(RcDst::Reg(0), RcSrc::Srf(srf))));
        }
    }
    let top = b.new_label();
    b.bind_label(top);
    b.push(
        b.row()
            .lcu(LcuInstr::Add {
                r: 0,
                src: LcuSrc::Imm(1),
            })
            .mxcu(MxcuInstr::AddIdx(1))
            .rc_all(RcInstr::new(
                RcOpcode::Mul,
                RcDst::Vwr(VwrId::C),
                RcSrc::Vwr(VwrId::A),
                factor_src,
            )),
    );
    b.push_branch(
        b.row(),
        LcuCond::Lt,
        0,
        LcuSrc::Imm(geometry.slice_words() as i32),
        top,
    );
    b.push(b.row().lsu(LsuInstr::StoreVwr {
        vwr: VwrId::C,
        line: LsuAddr::Imm(OUT_LINE as u16),
    }));
    b.push_exit();
    Ok(KernelProgram::new(name, vec![b.build()?])?)
}

/// Stages one padded input line, launches, and reads the result line back,
/// truncated to the input length — the staging shared by both scale
/// kernels.
fn scale_execute(ctx: &mut LaunchCtx<'_>, name: &str, input: &[i32]) -> Result<Vec<i32>> {
    if input.is_empty() || input.len() > LINE {
        return Err(RuntimeError::invalid_input(format!(
            "{name} kernel takes 1..={LINE} words, got {}",
            input.len()
        )));
    }
    let mut line = input.to_vec();
    line.resize(LINE, 0);
    ctx.dma_in(&line, IN_LINE * LINE)?;
    ctx.launch()?;
    let mut out = ctx.dma_out(OUT_LINE * LINE, LINE)?;
    out.truncate(input.len());
    Ok(out)
}

/// Multiplies up to one VWR line of words by an integer factor read from
/// `SRF[0]`.
#[derive(Debug, Clone)]
pub struct ScaleKernel {
    factor: i32,
}

impl ScaleKernel {
    /// Creates a kernel scaling by `factor`.
    pub fn new(factor: i32) -> Self {
        Self { factor }
    }
}

impl Kernel for ScaleKernel {
    type Input = [i32];
    type Output = Vec<i32>;

    fn name(&self) -> &str {
        "scale"
    }

    fn resources(&self) -> Resources {
        Resources {
            columns: 1,
            spm_lines: 2,
            srf_slots: 1,
        }
    }

    fn program(&self, geometry: &Geometry) -> Result<KernelProgram> {
        // Fetch the factor from SRF[0] once per RC, multiply by Reg(0).
        scale_program(geometry, "scale", Some(0), RcSrc::Reg(0))
    }

    fn execute(&self, ctx: &mut LaunchCtx<'_>, input: &[i32]) -> Result<Vec<i32>> {
        ctx.write_param(0, 0, self.factor)?;
        scale_execute(ctx, "scale", input)
    }
}

/// Multiplies up to one VWR line of words by an integer factor baked into
/// the program as an immediate.
///
/// Unlike [`ScaleKernel`] (one shared program, factor passed through the
/// SRF), every factor here produces a *different* program with its own
/// [`crate::Kernel::cache_key`] — the runtime analogue of FIR kernels with
/// different baked-in taps.  A handful of these saturate a small
/// configuration memory, which makes the kernel the workhorse of the
/// capacity-pressure and eviction tests.
#[derive(Debug, Clone)]
pub struct BakedScaleKernel {
    factor: i16,
    key: String,
    cpu_cycles: Option<u64>,
}

impl BakedScaleKernel {
    /// Creates a kernel whose program multiplies by `factor`.
    pub fn new(factor: i16) -> Self {
        Self {
            factor,
            key: format!("baked-scale:{factor}"),
            cpu_cycles: None,
        }
    }

    /// Advertises the kernel's host-CPU implementation to heterogeneous
    /// pools at an estimated `cycles` per window
    /// ([`crate::backend::Offload::cpu_cycles`]), builder-style.  The
    /// CGRA path is unchanged; with the default `None` the kernel stays
    /// CGRA-only, so every homogeneous test and bench keeps its exact
    /// behaviour.
    #[must_use]
    pub fn with_cpu_offload(mut self, cycles: u64) -> Self {
        self.cpu_cycles = Some(cycles);
        self
    }

    /// The baked-in factor.
    pub fn factor(&self) -> i16 {
        self.factor
    }
}

impl Kernel for BakedScaleKernel {
    type Input = [i32];
    type Output = Vec<i32>;

    fn name(&self) -> &str {
        "baked-scale"
    }

    fn cache_key(&self) -> String {
        self.key.clone()
    }

    fn resources(&self) -> Resources {
        Resources {
            columns: 1,
            spm_lines: 2,
            srf_slots: 0,
        }
    }

    fn program(&self, geometry: &Geometry) -> Result<KernelProgram> {
        scale_program(geometry, &self.key, None, RcSrc::Imm(self.factor))
    }

    fn execute(&self, ctx: &mut LaunchCtx<'_>, input: &[i32]) -> Result<Vec<i32>> {
        scale_execute(ctx, "baked-scale", input)
    }

    fn offload(&self) -> crate::backend::Offload {
        crate::backend::Offload {
            fft: None,
            cpu_cycles: self.cpu_cycles,
        }
    }

    fn execute_cpu(
        &self,
        cpu: &mut vwr2a_soc::cpu::Cpu,
        sram: &mut vwr2a_soc::sram::Sram,
        input: &[i32],
    ) -> Result<(Vec<i32>, vwr2a_soc::cpu::CpuRunStats)> {
        use vwr2a_soc::cpu::CpuInstr;
        if input.is_empty() || input.len() > LINE {
            return Err(RuntimeError::invalid_input(format!(
                "baked-scale kernel takes 1..={LINE} words, got {}",
                input.len()
            )));
        }
        // Reload the window into SRAM every time: the host's memory
        // persists across jobs, and outputs must not depend on what ran
        // before.
        let n = input.len();
        sram.load(0, input)
            .map_err(|e| RuntimeError::invalid_input(e.to_string()))?;
        // r1 = factor, r2 = index, r3 = n; sram[n + i] = sram[i] * r1.
        // `Mul` keeps the low 32 bits, matching the RC datapath.
        let program = [
            CpuInstr::Li {
                rd: 1,
                imm: i32::from(self.factor),
            },
            CpuInstr::Li { rd: 2, imm: 0 },
            CpuInstr::Li {
                rd: 3,
                imm: n as i32,
            },
            CpuInstr::Lw {
                rd: 4,
                rs1: 2,
                offset: 0,
            },
            CpuInstr::Mul {
                rd: 4,
                rs1: 4,
                rs2: 1,
            },
            CpuInstr::Sw {
                rs2: 4,
                rs1: 2,
                offset: n as i32,
            },
            CpuInstr::Addi {
                rd: 2,
                rs1: 2,
                imm: 1,
            },
            CpuInstr::Blt {
                rs1: 2,
                rs2: 3,
                target: 3,
            },
            CpuInstr::Halt,
        ];
        let stats = cpu
            .run(&program, sram)
            .map_err(|e| RuntimeError::invalid_input(e.to_string()))?;
        let out = sram
            .dump(n, n)
            .map_err(|e| RuntimeError::invalid_input(e.to_string()))?;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    #[test]
    fn scales_and_reports_cold_then_warm() {
        let mut session = Session::new();
        let kernel = ScaleKernel::new(3);
        let input: Vec<i32> = (0..100).collect();

        let (out, cold) = session.run(&kernel, &input).unwrap();
        assert_eq!(out, (0..100).map(|v| v * 3).collect::<Vec<_>>());
        assert_eq!(cold.invocations, 1);
        assert_eq!(cold.cold_launches, 1);
        assert_eq!(cold.warm_launches, 0);
        assert!(cold.counters.config_words_loaded > 0);

        let (out2, warm) = session.run(&kernel, &input).unwrap();
        assert_eq!(out, out2);
        assert_eq!(warm.cold_launches, 0);
        assert_eq!(warm.warm_launches, 1);
        assert_eq!(warm.counters.config_words_loaded, 0);
        assert!(
            warm.cycles < cold.cycles,
            "warm {} vs cold {}",
            warm.cycles,
            cold.cycles
        );
        // The saving is exactly the configuration-word streaming.
        assert_eq!(cold.cycles - warm.cycles, cold.counters.config_words_loaded);
    }

    #[test]
    fn equal_cache_keys_share_residency() {
        let mut session = Session::new();
        let a = ScaleKernel::new(2);
        let b = ScaleKernel::new(2);
        let input = [1i32, 2, 3];
        session.run(&a, &input[..]).unwrap();
        assert!(session.is_warm(&b));
        assert_eq!(session.loaded_programs(), 1);
        let (_, report) = session.run(&b, &input[..]).unwrap();
        assert_eq!(report.warm_launches, 1);
    }

    #[test]
    fn batch_is_bit_identical_to_independent_cold_runs() {
        let kernel = ScaleKernel::new(-7);
        let windows: Vec<Vec<i32>> = (0..5)
            .map(|w| (0..64).map(|i| i * (w + 1)).collect())
            .collect();

        let mut session = Session::new();
        let (batch_out, report) = session
            .run_batch(&kernel, windows.iter().map(Vec::as_slice))
            .unwrap();
        assert_eq!(report.invocations, 5);
        assert_eq!(report.cold_launches, 1);
        assert_eq!(report.warm_launches, 4);

        for (window, batched) in windows.iter().zip(&batch_out) {
            let mut fresh = Session::new();
            let (cold_out, _) = fresh.run(&kernel, window).unwrap();
            assert_eq!(&cold_out, batched);
        }
    }

    #[test]
    fn stream_delivers_outputs_in_order() {
        let kernel = ScaleKernel::new(10);
        let windows: Vec<Vec<i32>> = (1..=4).map(|w| vec![w; 8]).collect();
        let mut session = Session::new();
        let mut firsts = Vec::new();
        let report = session
            .run_stream(&kernel, windows.iter().map(Vec::as_slice), |out| {
                firsts.push(out[0]);
                Ok(())
            })
            .unwrap();
        assert_eq!(firsts, vec![10, 20, 30, 40]);
        assert_eq!(report.launches(), 4);
        // Four windows through the pipelined engine: staging overlaps
        // compute, so the wall clock beats the serial phase sum.
        assert!(report.wall_cycles < report.serial_cycles());
        assert!(report.overlap_ratio() > 0.0);
    }

    #[test]
    fn invalid_input_is_rejected() {
        let mut session = Session::new();
        let kernel = ScaleKernel::new(1);
        let too_long = vec![0i32; 129];
        assert!(matches!(
            session.run(&kernel, &too_long[..]),
            Err(RuntimeError::InvalidInput { .. })
        ));
        assert!(session.run(&kernel, &[][..]).is_err());
    }

    #[test]
    fn oversized_resource_needs_are_rejected_up_front() {
        struct Greedy;
        impl Kernel for Greedy {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "greedy"
            }
            fn resources(&self) -> Resources {
                Resources {
                    columns: 99,
                    spm_lines: 1,
                    srf_slots: 1,
                }
            }
            fn program(&self, _g: &Geometry) -> Result<KernelProgram> {
                unreachable!("rejected before program construction")
            }
            fn execute(&self, _ctx: &mut LaunchCtx<'_>, _input: &()) -> Result<()> {
                unreachable!()
            }
        }
        let mut session = Session::new();
        assert!(matches!(
            session.run(&Greedy, &()),
            Err(RuntimeError::Resources { .. })
        ));
    }
}
