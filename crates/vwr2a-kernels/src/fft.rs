//! VWR2A mapping of the radix-2 FFT (complex and real-valued).
//!
//! The mapping follows Sec. 3.4 of the paper.  The complex transform uses
//! the **constant-geometry** (Pease) formulation of the radix-2 DIF FFT: at
//! every stage, butterfly `i` combines elements `i` and `i + N/2`, producing
//! a sum and a twiddled difference that are written to positions `2i` and
//! `2i + 1` of the next stage's array — exactly the "words interleaving"
//! operation of the shuffle unit.  All stages therefore run the *same*
//! column program; only the SRF-held SPM line pointers change between
//! launches, so within a [`vwr2a_runtime::Session`] every launch after the
//! session's first is warm — across stages, blocks *and* repeated
//! transforms.  The kernel output appears in bit-reversed order and is
//! reordered during the DMA read-back.
//!
//! Data layout: separate real and imaginary arrays of `Q15.16` words,
//! double-buffered in the SPM (ping/pong), with six scratch lines per
//! column and a per-stage twiddle region that the host DMAs in before each
//! stage (the 32 KiB SPM cannot hold the data, the ping-pong buffer and all
//! stage tables at once; EXPERIMENTS.md discusses the cycle cost of this
//! choice).
//!
//! The real-valued transform ([`RealFftKernel`]) packs even samples into
//! the real array and odd samples into the imaginary array, runs the
//! `N/2`-point complex flow, and finishes with an element-wise
//! recombination (split) whose two pass programs are cached session-wide
//! like any other kernel program.

use crate::error::{KernelError, Result};
use crate::ops::{
    emit_butterfly_pass, emit_ew_pass, emit_ew_pass_reuse_a, emit_interleave_pass, LineRef,
};
use crate::Spectrum;
use vwr2a_core::builder::ColumnProgramBuilder;
use vwr2a_core::geometry::Geometry;
use vwr2a_core::isa::RcOpcode;
use vwr2a_core::program::{ColumnProgram, KernelProgram};
use vwr2a_dsp::fft::bit_reverse;
use vwr2a_dsp::fixed::{from_q16, mul_fxp, to_q16};
use vwr2a_fftaccel::{FftAccelStats, FftAccelerator};
use vwr2a_runtime::{FftShape, Kernel, LaunchCtx, Offload, Resources};

/// Words per SPM line / VWR.
const LINE: usize = 128;

/// Per-stage twiddle factors of the constant-geometry radix-2 DIF FFT in
/// `Q15.16`: butterfly `i` of stage `s` uses `W_N^{(i >> s) << s}`.
pub fn stage_twiddles_q16(n: usize, stage: u32) -> (Vec<i32>, Vec<i32>) {
    let mut re = Vec::with_capacity(n / 2);
    let mut im = Vec::with_capacity(n / 2);
    for i in 0..n / 2 {
        let k = (i >> stage) << stage;
        let theta = -std::f64::consts::TAU * k as f64 / n as f64;
        re.push(to_q16(theta.cos()));
        im.push(to_q16(theta.sin()));
    }
    (re, im)
}

/// Host-side mirror of the kernel's arithmetic: the constant-geometry FFT on
/// `Q15.16` words with the exact operation ordering of the column program.
///
/// Returns the spectrum in **natural** bin order.  Used to validate the
/// simulated kernel bit-exactly and as the reference in the property tests.
pub fn constant_geometry_reference(re: &[i32], im: &[i32]) -> (Vec<i32>, Vec<i32>) {
    let n = re.len();
    assert!(
        n.is_power_of_two() && n >= 2,
        "length must be a power of two"
    );
    assert_eq!(re.len(), im.len());
    let mut xr = re.to_vec();
    let mut xi = im.to_vec();
    let stages = n.trailing_zeros();
    for s in 0..stages {
        let (twr, twi) = stage_twiddles_q16(n, s);
        let mut yr = vec![0i32; n];
        let mut yi = vec![0i32; n];
        for i in 0..n / 2 {
            let (ar, ai) = (xr[i], xi[i]);
            let (br, bi) = (xr[i + n / 2], xi[i + n / 2]);
            let sum_r = ar.wrapping_add(br);
            let sum_i = ai.wrapping_add(bi);
            let diff_r = ar.wrapping_sub(br);
            let diff_i = ai.wrapping_sub(bi);
            let t1_r = mul_fxp(diff_r, twr[i]).wrapping_sub(mul_fxp(diff_i, twi[i]));
            let t1_i = mul_fxp(diff_r, twi[i]).wrapping_add(mul_fxp(diff_i, twr[i]));
            yr[2 * i] = sum_r;
            yi[2 * i] = sum_i;
            yr[2 * i + 1] = t1_r;
            yi[2 * i + 1] = t1_i;
        }
        xr = yr;
        xi = yi;
    }
    // The constant-geometry flow leaves the spectrum in bit-reversed order.
    let bits = stages;
    let mut out_r = vec![0i32; n];
    let mut out_i = vec![0i32; n];
    for (m, (&r, &i)) in xr.iter().zip(xi.iter()).enumerate() {
        let k = bit_reverse(m, bits);
        out_r[k] = r;
        out_i[k] = i;
    }
    (out_r, out_i)
}

/// SPM line layout of the complex FFT kernel.
#[derive(Debug, Clone, Copy)]
struct Layout {
    lh: usize,
    ping_re: usize,
    ping_im: usize,
    pong_re: usize,
    pong_im: usize,
    scratch: [usize; 2],
    tw_re: usize,
    tw_im: usize,
}

impl Layout {
    fn lines_needed(n: usize) -> usize {
        let l = n / LINE;
        let lh = (n / 2) / LINE;
        4 * l + 12 + 2 * lh
    }

    fn new(n: usize, spm_lines: usize) -> Result<Self> {
        let l = n / LINE;
        let lh = (n / 2) / LINE;
        let layout = Self {
            lh,
            ping_re: 0,
            ping_im: l,
            pong_re: 2 * l,
            pong_im: 3 * l,
            scratch: [4 * l, 4 * l + 6],
            tw_re: 4 * l + 12,
            tw_im: 4 * l + 12 + lh,
        };
        if layout.tw_im + lh > spm_lines {
            return Err(KernelError::UnsupportedSize {
                what: format!(
                    "a {n}-point complex FFT needs {} SPM lines, only {spm_lines} available \
                     (the paper's 32 KiB SPM); use the real-valued flow or stream the data",
                    layout.tw_im + lh
                ),
            });
        }
        Ok(layout)
    }
}

fn validate_complex_size(n: usize) -> Result<()> {
    if !n.is_power_of_two() || !(256..=1024).contains(&n) {
        return Err(KernelError::UnsupportedSize {
            what: format!("complex FFT size must be a power of two in 256..=1024, got {n}"),
        });
    }
    Ok(())
}

fn stage_column_program(scratch_base: usize) -> Result<ColumnProgram> {
    let sb = scratch_base as u16;
    let sum_re = LineRef::Imm(sb);
    let sum_im = LineRef::Imm(sb + 1);
    let ta = LineRef::Imm(sb + 2);
    let tb = LineRef::Imm(sb + 3);
    let tc = LineRef::Imm(sb + 4);
    let td = LineRef::Imm(sb + 5);
    let mut b = ColumnProgramBuilder::new(4);
    // Real butterfly: sum -> scratch, diff stays in VWR A.
    emit_butterfly_pass(&mut b, LineRef::Srf(0), LineRef::Srf(1), sum_re);
    emit_ew_pass_reuse_a(&mut b, RcOpcode::MulFxp, LineRef::Srf(4), ta); // diff_re * w_re
    emit_ew_pass_reuse_a(&mut b, RcOpcode::MulFxp, LineRef::Srf(5), tb); // diff_re * w_im
                                                                         // Imaginary butterfly.
    emit_butterfly_pass(&mut b, LineRef::Srf(2), LineRef::Srf(3), sum_im);
    emit_ew_pass_reuse_a(&mut b, RcOpcode::MulFxp, LineRef::Srf(5), tc); // diff_im * w_im
    emit_ew_pass_reuse_a(&mut b, RcOpcode::MulFxp, LineRef::Srf(4), td); // diff_im * w_re
                                                                         // t1 = diff * w (complex).
    emit_ew_pass(&mut b, RcOpcode::Sub, ta, tc, ta); // t1_re
    emit_ew_pass(&mut b, RcOpcode::Add, tb, td, tb); // t1_im
                                                     // Interleave sum/t1 into the next stage's layout.
    emit_interleave_pass(&mut b, sum_re, ta, LineRef::Srf(6), None);
    emit_interleave_pass(&mut b, sum_im, tb, LineRef::Srf(7), None);
    b.push_exit();
    Ok(b.build()?)
}

fn stage_kernel(layout: &Layout, columns: usize) -> Result<KernelProgram> {
    let mut cols = Vec::with_capacity(columns);
    for c in 0..columns {
        cols.push(stage_column_program(layout.scratch[c])?);
    }
    Ok(KernelProgram::new("fft-stage", cols)?)
}

/// Builds the shared stage program for an `n`-point transform under the
/// given geometry (used by both FFT kernels' [`Kernel::program`]).
fn stage_program_for(n: usize, geometry: &Geometry) -> vwr2a_runtime::Result<KernelProgram> {
    let layout = Layout::new(n, geometry.spm_lines())?;
    let blocks = (n / 2) / LINE;
    let columns = blocks.min(geometry.columns).max(1);
    Ok(stage_kernel(&layout, columns)?)
}

fn stage_resources(n: usize) -> Resources {
    Resources {
        // The flow adapts to however many columns the geometry offers
        // (`stage_program_for`), so one column is the true minimum.
        columns: 1,
        spm_lines: Layout::lines_needed(n),
        srf_slots: 8,
    }
}

/// All per-stage twiddle tables of an `n`-point transform, precomputed once
/// per kernel instance (the tables depend only on `n`, so warm streaming
/// workloads must not pay the host trig per window).
fn all_stage_twiddles(n: usize) -> Vec<(Vec<i32>, Vec<i32>)> {
    (0..n.trailing_zeros())
        .map(|s| stage_twiddles_q16(n, s))
        .collect()
}

/// Runs the forward complex constant-geometry flow on staged `Q15.16`
/// arrays, returning the spectrum in natural bin order.  Shared by
/// [`FftKernel`] and [`RealFftKernel`]; every stage launch goes through the
/// context's primary program.
fn complex_flow(
    n: usize,
    twiddles: &[(Vec<i32>, Vec<i32>)],
    ctx: &mut LaunchCtx<'_>,
    re: &[i32],
    im: &[i32],
) -> vwr2a_runtime::Result<(Vec<i32>, Vec<i32>)> {
    let layout = Layout::new(n, ctx.geometry().spm_lines())?;
    ctx.dma_in(re, layout.ping_re * LINE)?;
    ctx.dma_in(im, layout.ping_im * LINE)?;

    let blocks = (n / 2) / LINE;
    let columns = blocks.min(ctx.geometry().columns).max(1);

    let stages = n.trailing_zeros();
    let (mut in_re, mut in_im) = (layout.ping_re, layout.ping_im);
    let (mut out_re, mut out_im) = (layout.pong_re, layout.pong_im);
    for s in 0..stages {
        let (twr, twi) = &twiddles[s as usize];
        ctx.dma_in(twr, layout.tw_re * LINE)?;
        ctx.dma_in(twi, layout.tw_im * LINE)?;
        let mut blk = 0usize;
        while blk < blocks {
            let active = columns.min(blocks - blk);
            for c in 0..active {
                let bb = blk + c;
                let params = [
                    (in_re + bb) as i32,
                    (in_re + bb + layout.lh) as i32,
                    (in_im + bb) as i32,
                    (in_im + bb + layout.lh) as i32,
                    (layout.tw_re + bb) as i32,
                    (layout.tw_im + bb) as i32,
                    (out_re + 2 * bb) as i32,
                    (out_im + 2 * bb) as i32,
                ];
                for (idx, value) in params.iter().enumerate() {
                    ctx.write_param(c, idx, *value)?;
                }
            }
            ctx.launch()?;
            blk += active;
        }
        std::mem::swap(&mut in_re, &mut out_re);
        std::mem::swap(&mut in_im, &mut out_im);
    }

    // Read back (the result now lives in the "in" buffers) and undo the
    // bit-reversed ordering during the copy out.
    let raw_re = ctx.dma_out(in_re * LINE, n)?;
    let raw_im = ctx.dma_out(in_im * LINE, n)?;
    let bits = stages;
    let mut nat_re = vec![0i32; n];
    let mut nat_im = vec![0i32; n];
    for m in 0..n {
        let k = bit_reverse(m, bits);
        nat_re[k] = raw_re[m];
        nat_im[k] = raw_im[m];
    }
    Ok((nat_re, nat_im))
}

/// The complex FFT kernel mapping.
///
/// # Example
///
/// ```
/// use vwr2a_kernels::fft::FftKernel;
/// use vwr2a_kernels::Spectrum;
/// use vwr2a_runtime::Session;
/// use vwr2a_dsp::fixed::to_q16;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let n = 256;
/// let kernel = FftKernel::new(n)?;
/// let signal = Spectrum::new(
///     (0..n).map(|i| to_q16((std::f64::consts::TAU * 8.0 * i as f64 / n as f64).cos() * 0.5)).collect(),
///     vec![0i32; n],
/// );
/// let mut session = Session::new();
/// let (spectrum, _report) = session.run(&kernel, &signal)?;
/// // Bin 8 dominates the magnitude spectrum.
/// let peak = (1..n / 2).max_by_key(|&k| {
///     (spectrum.re[k] as i64).pow(2) + (spectrum.im[k] as i64).pow(2)
/// }).unwrap();
/// assert_eq!(peak, 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftKernel {
    n: usize,
    twiddles: Vec<(Vec<i32>, Vec<i32>)>,
}

impl FftKernel {
    /// Creates a complex FFT kernel for `n` points, precomputing its
    /// per-stage twiddle tables.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnsupportedSize`] if `n` is not a power of two
    /// in `256..=1024` (the sizes whose working set fits the 32 KiB SPM with
    /// this mapping).
    pub fn new(n: usize) -> Result<Self> {
        validate_complex_size(n)?;
        Ok(Self {
            n,
            twiddles: all_stage_twiddles(n),
        })
    }

    /// The transform length in complex points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the transform length is zero (never the case).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

impl Kernel for FftKernel {
    type Input = Spectrum;
    type Output = Spectrum;

    fn name(&self) -> &str {
        "fft-complex"
    }

    fn cache_key(&self) -> String {
        // The stage program depends only on the transform length (via the
        // SPM layout), so complex and real kernels of matching length share
        // one resident program.
        format!("fft-stage:{}", self.n)
    }

    fn resources(&self) -> Resources {
        stage_resources(self.n)
    }

    fn program(&self, geometry: &Geometry) -> vwr2a_runtime::Result<KernelProgram> {
        stage_program_for(self.n, geometry)
    }

    fn execute(
        &self,
        ctx: &mut LaunchCtx<'_>,
        input: &Spectrum,
    ) -> vwr2a_runtime::Result<Spectrum> {
        let n = self.n;
        if input.re.len() != n || input.im.len() != n {
            return Err(KernelError::InvalidParameter {
                what: format!(
                    "expected {n} samples, got {}/{}",
                    input.re.len(),
                    input.im.len()
                ),
            }
            .into());
        }
        let (re, im) = complex_flow(n, &self.twiddles, ctx, &input.re, &input.im)?;
        Ok(Spectrum::new(re, im))
    }

    fn offload(&self) -> Offload {
        Offload {
            fft: Some(FftShape {
                points: self.n,
                real: false,
            }),
            cpu_cycles: None,
        }
    }

    fn execute_fft(
        &self,
        accel: &FftAccelerator,
        input: &Spectrum,
    ) -> vwr2a_runtime::Result<(Spectrum, FftAccelStats)> {
        let n = self.n;
        if input.re.len() != n || input.im.len() != n {
            return Err(KernelError::InvalidParameter {
                what: format!(
                    "expected {n} samples, got {}/{}",
                    input.re.len(),
                    input.im.len()
                ),
            }
            .into());
        }
        // The engine's Q15.16 entry returns the unnormalised DFT, the scale
        // of the array's stage flow.
        let (re, im, stats) = accel
            .run_complex_q16(&input.re, &input.im)
            .map_err(|e| vwr2a_runtime::RuntimeError::invalid_input(e.to_string()))?;
        Ok((Spectrum::new(re, im), stats))
    }
}

/// The real-valued FFT kernel of Sec. 3.4: even/odd packing, an `n/2`-point
/// complex transform and an element-wise recombination executed with the
/// same pass machinery.
///
/// The output has `n/2 + 1` spectrum bins (DC through Nyquist) in natural
/// order.
#[derive(Debug, Clone)]
pub struct RealFftKernel {
    /// Complex length of the packed transform (`n_real / 2`).
    half: usize,
    twiddles: Vec<(Vec<i32>, Vec<i32>)>,
    split_cos: Vec<i32>,
    split_sin: Vec<i32>,
}

impl RealFftKernel {
    /// Creates a real-valued FFT kernel for `n_real` samples, precomputing
    /// its stage and recombination twiddle tables.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnsupportedSize`] if `n_real / 2` is not a
    /// power of two in `256..=1024` (i.e. `n_real` outside `512..=2048`).
    pub fn new(n_real: usize) -> Result<Self> {
        if !n_real.is_multiple_of(2) {
            return Err(KernelError::UnsupportedSize {
                what: format!("real FFT length must be even, got {n_real}"),
            });
        }
        validate_complex_size(n_real / 2)?;
        let half = n_real / 2;
        let mut split_cos = Vec::with_capacity(half);
        let mut split_sin = Vec::with_capacity(half);
        for k in 0..half {
            let theta = -std::f64::consts::TAU * k as f64 / n_real as f64;
            split_cos.push(to_q16(theta.cos()));
            split_sin.push(to_q16(theta.sin()));
        }
        Ok(Self {
            half,
            twiddles: all_stage_twiddles(half),
            split_cos,
            split_sin,
        })
    }

    /// The transform length in real samples.
    pub fn len(&self) -> usize {
        2 * self.half
    }

    /// `true` if the transform length is zero (never the case).
    pub fn is_empty(&self) -> bool {
        self.half == 0
    }
}

/// SPM layout of the recombination (split) step: it works one 128-bin block
/// at a time through a fixed 14-line window (six staged operand lines, two
/// output lines and six scratch lines), so any size that survived the
/// complex flow also fits here.
mod split_layout {
    pub const ZF_RE: usize = 0;
    pub const ZF_IM: usize = 1;
    pub const ZR_RE: usize = 2;
    pub const ZR_IM: usize = 3;
    pub const COS: usize = 4;
    pub const SIN: usize = 5;
    pub const OUT_RE: usize = 6;
    pub const OUT_IM: usize = 7;
    pub const SCRATCH: usize = 8;
}

fn split_re_program() -> vwr2a_runtime::Result<KernelProgram> {
    use split_layout::*;
    let li = |base: usize| LineRef::Imm(base as u16);
    let s0 = li(SCRATCH);
    let s1 = li(SCRATCH + 1);
    let s2 = li(SCRATCH + 2);
    let s3 = li(SCRATCH + 3);
    let t0 = li(SCRATCH + 4);
    let t1 = li(SCRATCH + 5);
    let mut b = ColumnProgramBuilder::new(4);
    // 2·er, 2·ei, 2·or, 2·oi
    emit_ew_pass(&mut b, RcOpcode::Add, li(ZF_RE), li(ZR_RE), s0);
    emit_ew_pass(&mut b, RcOpcode::Sub, li(ZF_IM), li(ZR_IM), s1);
    emit_ew_pass(&mut b, RcOpcode::Add, li(ZF_IM), li(ZR_IM), s2);
    emit_ew_pass(&mut b, RcOpcode::Sub, li(ZR_RE), li(ZF_RE), s3);
    // 2·(c·or − s·oi) and out_re = (2·er + that) >> 1
    emit_ew_pass(&mut b, RcOpcode::MulFxp, s2, li(COS), t0);
    emit_ew_pass(&mut b, RcOpcode::MulFxp, s3, li(SIN), t1);
    emit_ew_pass(&mut b, RcOpcode::Sub, t0, t1, t0);
    emit_ew_pass(&mut b, RcOpcode::Add, s0, t0, t0);
    b.push_exit();
    Ok(KernelProgram::new(
        "rfft-split-re",
        vec![b.build().map_err(KernelError::from)?],
    )?)
}

fn split_im_program() -> vwr2a_runtime::Result<KernelProgram> {
    use split_layout::*;
    let li = |base: usize| LineRef::Imm(base as u16);
    let s1 = li(SCRATCH + 1);
    let s2 = li(SCRATCH + 2);
    let s3 = li(SCRATCH + 3);
    let t0 = li(SCRATCH + 4);
    let t1 = li(SCRATCH + 5);
    let mut b = ColumnProgramBuilder::new(4);
    // out_im = (2·ei + 2·(c·oi + s·or)) >> 1 — first the products.
    emit_ew_pass(&mut b, RcOpcode::MulFxp, s3, li(COS), t1);
    emit_ew_pass(&mut b, RcOpcode::MulFxp, s2, li(SIN), s2);
    emit_ew_pass(&mut b, RcOpcode::Add, t1, s2, t1);
    emit_ew_pass(&mut b, RcOpcode::Add, s1, t1, t1);
    // Halve both results and store them to the output regions.
    emit_ew_imm_shift(&mut b, t0, li(OUT_RE));
    emit_ew_imm_shift(&mut b, t1, li(OUT_IM));
    b.push_exit();
    Ok(KernelProgram::new(
        "rfft-split-im",
        vec![b.build().map_err(KernelError::from)?],
    )?)
}

impl Kernel for RealFftKernel {
    type Input = [i32];
    type Output = Spectrum;

    fn name(&self) -> &str {
        "fft-real"
    }

    fn cache_key(&self) -> String {
        // Same primary program as the complex kernel of the packed length.
        format!("fft-stage:{}", self.half)
    }

    fn resources(&self) -> Resources {
        stage_resources(self.half)
    }

    fn program(&self, geometry: &Geometry) -> vwr2a_runtime::Result<KernelProgram> {
        stage_program_for(self.half, geometry)
    }

    fn execute(&self, ctx: &mut LaunchCtx<'_>, input: &[i32]) -> vwr2a_runtime::Result<Spectrum> {
        let n = self.half; // complex length of the packed transform
        let n_real = 2 * n;
        if input.len() != n_real {
            return Err(KernelError::InvalidParameter {
                what: format!("expected {n_real} real samples, got {}", input.len()),
            }
            .into());
        }
        // Pack: even samples -> real array, odd samples -> imaginary array.
        let even: Vec<i32> = input.iter().step_by(2).copied().collect();
        let odd: Vec<i32> = input.iter().skip(1).step_by(2).copied().collect();
        let (z_re, z_im) = complex_flow(n, &self.twiddles, ctx, &even, &odd)?;

        // Stage the forward and index-reversed spectra plus the
        // precomputed split twiddles, then recombine element-wise on the
        // array.
        let zr_re: Vec<i32> = (0..n).map(|k| z_re[(n - k) % n]).collect();
        let zr_im: Vec<i32> = (0..n).map(|k| z_im[(n - k) % n]).collect();
        let (cos_t, sin_t) = (&self.split_cos, &self.split_sin);
        let lh = n / LINE;
        let mut out_re: Vec<i32> = Vec::with_capacity(n + 1);
        let mut out_im: Vec<i32> = Vec::with_capacity(n + 1);

        use split_layout::{COS, OUT_IM, OUT_RE, SIN, ZF_IM, ZF_RE, ZR_IM, ZR_RE};
        for blk in 0..lh {
            let slice = blk * LINE..(blk + 1) * LINE;
            ctx.dma_in(&z_re[slice.clone()], ZF_RE * LINE)?;
            ctx.dma_in(&z_im[slice.clone()], ZF_IM * LINE)?;
            ctx.dma_in(&zr_re[slice.clone()], ZR_RE * LINE)?;
            ctx.dma_in(&zr_im[slice.clone()], ZR_IM * LINE)?;
            ctx.dma_in(&cos_t[slice.clone()], COS * LINE)?;
            ctx.dma_in(&sin_t[slice], SIN * LINE)?;
            ctx.launch_aux("rfft-split-re", split_re_program)?;
            ctx.launch_aux("rfft-split-im", split_im_program)?;
            let block_re = ctx.dma_out(OUT_RE * LINE, LINE)?;
            let block_im = ctx.dma_out(OUT_IM * LINE, LINE)?;
            out_re.extend(block_re);
            out_im.extend(block_im);
        }
        // Nyquist bin: X[n] = Re(Z[0]) − Im(Z[0]).
        out_re.push(z_re[0].wrapping_sub(z_im[0]));
        out_im.push(0);
        Ok(Spectrum::new(out_re, out_im))
    }

    fn offload(&self) -> Offload {
        Offload {
            fft: Some(FftShape {
                points: 2 * self.half,
                real: true,
            }),
            cpu_cycles: None,
        }
    }

    fn execute_fft(
        &self,
        accel: &FftAccelerator,
        input: &[i32],
    ) -> vwr2a_runtime::Result<(Spectrum, FftAccelStats)> {
        let n_real = 2 * self.half;
        if input.len() != n_real {
            return Err(KernelError::InvalidParameter {
                what: format!("expected {n_real} real samples, got {}", input.len()),
            }
            .into());
        }
        let samples: Vec<f64> = input.iter().map(|&v| from_q16(v)).collect();
        let (bins, stats) = accel
            .run_real(&samples)
            .map_err(|e| vwr2a_runtime::RuntimeError::invalid_input(e.to_string()))?;
        // The engine's split flow lands on `X[k]/N`; restore the
        // unnormalised scale the array recombination produces.
        let scale = n_real as f64;
        let re = bins.iter().map(|c| to_q16(c.re * scale)).collect();
        let im = bins.iter().map(|c| to_q16(c.im * scale)).collect();
        Ok((Spectrum::new(re, im), stats))
    }
}

/// Emits a pass that arithmetic-shifts a line right by one and stores it to
/// `out` (the final ÷2 of the real-FFT recombination).
fn emit_ew_imm_shift(b: &mut ColumnProgramBuilder, a_line: LineRef, out_line: LineRef) {
    use vwr2a_core::geometry::VwrId;
    use vwr2a_core::isa::{
        LcuCond, LcuInstr, LcuSrc, LsuAddr, LsuInstr, MxcuInstr, RcDst, RcInstr, RcSrc,
    };
    let addr = |l: LineRef| match l {
        LineRef::Imm(v) => LsuAddr::Imm(v),
        LineRef::Srf(s) => LsuAddr::Srf(s),
    };
    b.push(b.row().lsu(LsuInstr::LoadVwr {
        vwr: VwrId::A,
        line: addr(a_line),
    }));
    b.push(
        b.row()
            .mxcu(MxcuInstr::SetIdx(0))
            .lcu(LcuInstr::Li { r: 0, value: 0 }),
    );
    let top = b.new_label();
    b.bind_label(top);
    b.push(
        b.row()
            .rc_all(RcInstr::new(
                RcOpcode::Sra,
                RcDst::Vwr(VwrId::C),
                RcSrc::Vwr(VwrId::A),
                RcSrc::Imm(1),
            ))
            .mxcu(MxcuInstr::AddIdx(1))
            .lcu(LcuInstr::Add {
                r: 0,
                src: LcuSrc::Imm(1),
            }),
    );
    b.push_branch(b.row(), LcuCond::Lt, 0, LcuSrc::Imm(32), top);
    b.push(b.row().lsu(LsuInstr::StoreVwr {
        vwr: VwrId::C,
        line: addr(out_line),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vwr2a_dsp::complex::Complex;
    use vwr2a_dsp::fft::{fft, rfft};
    use vwr2a_dsp::fixed::from_q16;
    use vwr2a_runtime::Session;

    fn q16_signal(n: usize, freq: f64) -> (Vec<i32>, Vec<i32>, Vec<Complex>) {
        let float: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::new(
                    0.45 * (std::f64::consts::TAU * freq * i as f64 / n as f64).cos(),
                    0.30 * (std::f64::consts::TAU * freq * i as f64 / n as f64).sin(),
                )
            })
            .collect();
        let re = float.iter().map(|c| to_q16(c.re)).collect();
        let im = float.iter().map(|c| to_q16(c.im)).collect();
        (re, im, float)
    }

    #[test]
    fn constant_geometry_reference_matches_float_fft() {
        let n = 256;
        let (re, im, float) = q16_signal(n, 9.0);
        let (out_re, out_im) = constant_geometry_reference(&re, &im);
        let reference = fft(&float).unwrap();
        for k in 0..n {
            let got_re = from_q16(out_re[k]);
            let got_im = from_q16(out_im[k]);
            assert!(
                (got_re - reference[k].re).abs() < 0.08 && (got_im - reference[k].im).abs() < 0.08,
                "bin {k}: ({got_re}, {got_im}) vs ({}, {})",
                reference[k].re,
                reference[k].im
            );
        }
    }

    #[test]
    fn kernel_matches_host_reference_bit_exactly() {
        let n = 256;
        let (re, im, _) = q16_signal(n, 5.0);
        let (ref_re, ref_im) = constant_geometry_reference(&re, &im);
        let kernel = FftKernel::new(n).unwrap();
        let mut session = Session::new();
        let (spectrum, report) = session.run(&kernel, &Spectrum::new(re, im)).unwrap();
        assert_eq!(spectrum.re, ref_re);
        assert_eq!(spectrum.im, ref_im);
        assert!(report.cycles > 1000);
        assert!(
            report.counters.shuffle_ops > 0,
            "the shuffle unit must be used"
        );
        // All stages share one program: exactly one cold launch.
        assert_eq!(report.cold_launches, 1);
        assert!(report.warm_launches > 0, "stage relaunches must be warm");
    }

    #[test]
    fn stage_launches_replay_after_one_recording_per_ping_pong_parameter_set() {
        // The interleave passes bump their output pointers (SRF[6]/[7])
        // in-kernel; those schedule-derived addresses replay.  Stages
        // alternate between two parameter sets (ping -> pong, pong ->
        // ping), so only the first two stage launches of the stream record.
        let n = 256;
        let kernel = FftKernel::new(n).unwrap();
        let windows: Vec<Spectrum> = (1..=3)
            .map(|f| {
                let (re, im, _) = q16_signal(n, f as f64);
                Spectrum::new(re, im)
            })
            .collect();
        let mut replay = Session::new();
        let mut interp = Session::new();
        interp.set_replay(false);
        let (out_replay, rep_replay) = replay.run_batch(&kernel, windows.iter()).unwrap();
        let (out_interp, rep_interp) = interp.run_batch(&kernel, windows.iter()).unwrap();
        assert_eq!(out_replay, out_interp);
        assert_eq!(rep_replay.counters, rep_interp.counters);
        assert_eq!(rep_replay.launches(), 3 * n.trailing_zeros() as u64);
        assert_eq!(rep_replay.replayed, rep_replay.launches() - 2);
    }

    #[test]
    fn five_hundred_twelve_point_complex_fft_runs_and_is_correct() {
        let n = 512;
        let (re, im, float) = q16_signal(n, 20.0);
        let kernel = FftKernel::new(n).unwrap();
        let mut session = Session::new();
        let (spectrum, report) = session.run(&kernel, &Spectrum::new(re, im)).unwrap();
        let reference = fft(&float).unwrap();
        for (k, r) in reference.iter().enumerate() {
            assert!((from_q16(spectrum.re[k]) - r.re).abs() < 0.2, "bin {k}");
        }
        // Table 2 reports 7125 cycles; the mapping should be within ~2x.
        assert!(
            report.cycles > 4_000 && report.cycles < 16_000,
            "cycles {}",
            report.cycles
        );
    }

    #[test]
    fn real_fft_matches_float_reference() {
        let n_real = 512;
        let signal_f: Vec<f64> = (0..n_real)
            .map(|i| 0.4 * (std::f64::consts::TAU * 12.0 * i as f64 / n_real as f64).sin())
            .collect();
        let signal_q: Vec<i32> = signal_f.iter().map(|&v| to_q16(v)).collect();
        let kernel = RealFftKernel::new(n_real).unwrap();
        let mut session = Session::new();
        let (spectrum, _) = session.run(&kernel, &signal_q).unwrap();
        let reference = rfft(&signal_f).unwrap();
        assert_eq!(spectrum.len(), n_real / 2 + 1);
        assert_eq!(spectrum.len(), kernel.len() / 2 + 1);
        for (k, r) in reference.iter().enumerate().take(n_real / 2) {
            assert!(
                (from_q16(spectrum.re[k]) - r.re).abs() < 0.3
                    && (from_q16(spectrum.im[k]) - r.im).abs() < 0.3,
                "bin {k}: ({}, {}) vs ({}, {})",
                from_q16(spectrum.re[k]),
                from_q16(spectrum.im[k]),
                r.re,
                r.im
            );
        }
    }

    #[test]
    fn real_and_complex_kernels_share_the_stage_program() {
        let real = RealFftKernel::new(512).unwrap();
        let complex = FftKernel::new(256).unwrap();
        assert_eq!(real.cache_key(), complex.cache_key());

        let mut session = Session::new();
        let signal: Vec<i32> = (0..512)
            .map(|i| to_q16(((i % 50) as f64 - 25.0) / 50.0))
            .collect();
        session.run(&real, &signal).unwrap();
        // The complex kernel now finds its stage program warm.
        assert!(session.is_warm(&complex));
        let (re, im, _) = q16_signal(256, 5.0);
        let (_, report) = session.run(&complex, &Spectrum::new(re, im)).unwrap();
        assert_eq!(report.cold_launches, 0);
    }

    #[test]
    fn unsupported_sizes_are_rejected() {
        assert!(FftKernel::new(100).is_err());
        assert!(FftKernel::new(128).is_err());
        assert!(FftKernel::new(2048).is_err());
        assert!(RealFftKernel::new(511).is_err());
        assert!(RealFftKernel::new(256).is_err());
        assert!(RealFftKernel::new(4096).is_err());
        let k = FftKernel::new(256).unwrap();
        assert_eq!(k.len(), 256);
        assert!(!k.is_empty());
        let mut session = Session::new();
        let too_short = Spectrum::new(vec![0; 16], vec![0; 16]);
        assert!(session.run(&k, &too_short).is_err());
        let r = RealFftKernel::new(512).unwrap();
        assert_eq!(r.len(), 512);
        assert!(!r.is_empty());
        assert!(session.run(&r, &[0i32; 100][..]).is_err());
    }

    #[test]
    fn accel_offload_tracks_the_golden_transform_and_is_bit_stable() {
        let n = 256;
        let (re, im, float) = q16_signal(n, 9.0);
        let kernel = FftKernel::new(n).unwrap();
        let shape = kernel.offload().fft.expect("complex FFT offloads");
        assert_eq!((shape.points, shape.real), (n, false));
        let accel = FftAccelerator::new();
        let input = Spectrum::new(re, im);
        let (spectrum, stats) = kernel.execute_fft(&accel, &input).unwrap();
        assert_eq!(spectrum.len(), n);
        assert_eq!(stats.cycles, accel.projected_cycles(n, false).unwrap());
        // The engine's 18-bit block-scaled datapath quantises, but the peak
        // bins must land where the golden model puts them.
        let reference = fft(&float).unwrap();
        for (k, golden) in reference.iter().enumerate() {
            assert!(
                (from_q16(spectrum.re[k]) - golden.re).abs() < 1.5,
                "bin {k}"
            );
        }
        // Same window on a fresh engine: bit-identical, as the scheduler's
        // replay guarantee requires.
        let (again, _) = kernel.execute_fft(&FftAccelerator::new(), &input).unwrap();
        assert_eq!(again.re, spectrum.re);
        assert_eq!(again.im, spectrum.im);
        // Length mismatches are rejected before touching the engine.
        let short = Spectrum::new(vec![0; 16], vec![0; 16]);
        assert!(kernel.execute_fft(&accel, &short).is_err());
    }

    #[test]
    fn real_accel_offload_produces_the_packed_spectrum_bins() {
        let n_real = 512;
        let (samples, _, _) = q16_signal(n_real, 20.0);
        let kernel = RealFftKernel::new(n_real).unwrap();
        let shape = kernel.offload().fft.expect("real FFT offloads");
        assert_eq!((shape.points, shape.real), (n_real, true));
        let accel = FftAccelerator::new();
        let (spectrum, stats) = kernel.execute_fft(&accel, &samples[..]).unwrap();
        assert_eq!(spectrum.len(), n_real / 2 + 1);
        assert_eq!(stats.cycles, accel.projected_cycles(n_real, true).unwrap());
        let float: Vec<f64> = samples.iter().map(|&v| from_q16(v)).collect();
        let reference = rfft(&float).unwrap();
        for (k, r) in reference.iter().enumerate() {
            assert!(
                (from_q16(spectrum.re[k]) - r.re).abs() < 2.0
                    && (from_q16(spectrum.im[k]) - r.im).abs() < 2.0,
                "bin {k}"
            );
        }
        assert!(kernel.execute_fft(&accel, &samples[..100]).is_err());
    }
}
