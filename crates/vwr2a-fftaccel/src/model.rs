//! The fixed-function FFT accelerator model.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;
use vwr2a_dsp::complex::Complex;
use vwr2a_dsp::fft::bit_reverse_permute;

/// Errors produced by the accelerator model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FftAccelError {
    /// The requested size is not supported by the engine.
    UnsupportedSize {
        /// The requested transform length.
        n: usize,
        /// The maximum supported length.
        max: usize,
    },
    /// The real and imaginary input slices differ in length.
    LengthMismatch {
        /// Length of the real slice.
        re: usize,
        /// Length of the imaginary slice.
        im: usize,
    },
}

impl fmt::Display for FftAccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftAccelError::UnsupportedSize { n, max } => write!(
                f,
                "fft size {n} not supported (power of two of 8..={max} required)"
            ),
            FftAccelError::LengthMismatch { re, im } => {
                write!(f, "fft input has {re} real but {im} imaginary words")
            }
        }
    }
}

impl Error for FftAccelError {}

// The engine's datapath and timing.  With at most `MAX_POINTS` points the
// largest cycle sum the model forms is 61127 (a 4096-point complex run:
// 60 setup + 44683 butterfly + 16384 IO cycles), so no sum can overflow.

/// Internal datapath width in bits (the MUSEIC engine uses 18).
const DATAPATH_BITS: u32 = 18;
/// Smallest supported transform size.
const MIN_POINTS: usize = 8;
/// Largest supported transform size.
const MAX_POINTS: usize = 4096;
/// Cycles to program the engine and start it (register writes from the CPU
/// over the slave port), paid on every run.
pub const SETUP_CYCLES: u64 = 60;
/// Radix-2-equivalent butterflies retired per cycle, averaged over the
/// mixed radix-2/4 passes and chosen so the cycle counts land in the
/// ranges of Table 2.
const RADIX2_BUTTERFLIES_PER_CYCLE: f64 = 0.55;
/// Cycles per input/output word moved through the dual-port memory.
const IO_CYCLES_PER_WORD: u64 = 1;
/// Largest input word magnitude of the floating-point entries, which clamp
/// every scaled sample to it.  Below it no first-stage product or sum can
/// overflow an `i64`: a block whose peak reaches 2^16 is halved before its
/// butterflies, to at most 2^46, and twiddles are at most 2^15.  Samples
/// below 2^31 in magnitude scale to less and are unchanged.
const MAX_INPUT_WORD: i64 = 1 << 47;

fn check_size(n: usize) -> Result<(), FftAccelError> {
    if n < MIN_POINTS || !n.is_power_of_two() || n > MAX_POINTS {
        return Err(FftAccelError::UnsupportedSize { n, max: MAX_POINTS });
    }
    Ok(())
}

/// Radix-2 butterflies of one `n`-point complex run: `n/2` per stage.
fn butterflies(n: usize) -> u64 {
    (n as u64 / 2) * u64::from(n.trailing_zeros())
}

/// The cycles of one `n`-point complex run: programming, butterfly passes
/// and IO.
fn complex_cycles(n: usize) -> u64 {
    // Odd log2 sizes need one extra radix-2 pass, which is slightly less
    // efficient (visible in Table 2 as the non-monotonic speed-up across
    // sizes).
    let stages = n.trailing_zeros();
    let butterflies = butterflies(n);
    let radix2_pass_penalty = if stages % 2 == 1 { 1.15 } else { 1.0 };
    let compute_cycles =
        (butterflies as f64 / RADIX2_BUTTERFLIES_PER_CYCLE * radix2_pass_penalty) as u64;
    let io_words = 4 * n as u64; // complex in + complex out
    SETUP_CYCLES + compute_cycles + io_words * IO_CYCLES_PER_WORD
}

/// Supported sizes: the powers of two from `MIN_POINTS` to `MAX_POINTS`.
const ROM_SIZES: usize = (MAX_POINTS.trailing_zeros() - MIN_POINTS.trailing_zeros() + 1) as usize;
/// One twiddle ROM per supported size, indexed by `log2 n - log2 MIN_POINTS`
/// and built on first use.
static TWIDDLE_ROMS: [OnceLock<Vec<(i64, i64)>>; ROM_SIZES] =
    [const { OnceLock::new() }; ROM_SIZES];

/// The twiddle ROM of a supported size `n`: entry `j < n/2` is `W_n^j` in
/// Q1.15, `(re, im)`.  Stage `len` reads entry `j * (n / len)`, which is
/// bit-identical to evaluating `W_len^j` itself: `-TAU / n` and `-TAU / len`
/// differ by an exact power of two, so both give the same angle.
fn twiddle_rom(n: usize) -> &'static [(i64, i64)] {
    let slot = (n.trailing_zeros() - MIN_POINTS.trailing_zeros()) as usize;
    TWIDDLE_ROMS[slot].get_or_init(|| {
        let step = -std::f64::consts::TAU / n as f64;
        (0..n / 2)
            .map(|j| {
                let w = Complex::from_angle(step * j as f64);
                ((w.re * 32768.0) as i64, (w.im * 32768.0) as i64)
            })
            .collect()
    })
}

/// The engine's datapath: an in-place radix-2 DIT FFT on `(re, im)` words
/// scaled by `2^(DATAPATH_BITS - 2)`, with 18-bit saturating butterflies and
/// per-stage block dynamic scaling.  Returns the block exponent (the output
/// is the DFT times `2^-exponent`) and the run's statistics.
fn transform(x: &mut [(i64, i64)]) -> Result<(u32, FftAccelStats), FftAccelError> {
    let n = x.len();
    check_size(n)?;
    let rom = twiddle_rom(n);
    let max = (1i64 << (DATAPATH_BITS - 1)) - 1;
    let min = -(1i64 << (DATAPATH_BITS - 1));
    // Dynamic scaling: if any word's magnitude reaches 2^16, a butterfly
    // could overflow the 18-bit range, so the stage halves the whole block
    // (each butterfly halves the words it reads).  Every stage writes every
    // word, so what its butterflies write decides the next stage, and only
    // the input needs a scan.  `peak` ORs the magnitudes together: it
    // reaches `limit`, a power of two, exactly when one of them does.
    let limit = 1u64 << (DATAPATH_BITS - 2);
    let magnitudes = |&(re, im): &(i64, i64)| re.unsigned_abs() | im.unsigned_abs();
    let mut peak = x.iter().fold(0, |peak, word| peak | magnitudes(word));
    let mut block_exponent = 0;

    bit_reverse_permute(x);
    let mut len = 2usize;
    while len <= n {
        let shift = u32::from(peak >= limit);
        block_exponent += shift;
        peak = 0;
        let (half, stride) = (len / 2, n / len);
        for block in x.chunks_exact_mut(len) {
            let (top, bottom) = block.split_at_mut(half);
            let twiddles = rom.iter().step_by(stride);
            for ((a, b), &(wr, wi)) in top.iter_mut().zip(bottom).zip(twiddles) {
                let (ar, ai) = (a.0 >> shift, a.1 >> shift);
                let (br, bi) = (b.0 >> shift, b.1 >> shift);
                let vr = (br * wr - bi * wi) >> 15;
                let vi = (br * wi + bi * wr) >> 15;
                *a = ((ar + vr).clamp(min, max), (ai + vi).clamp(min, max));
                *b = ((ar - vr).clamp(min, max), (ai - vi).clamp(min, max));
                peak |= magnitudes(a) | magnitudes(b);
            }
        }
        len <<= 1;
    }

    let butterflies = butterflies(n);
    let stats = FftAccelStats {
        // Cycle model: shared with `projected_cycles`, so scheduler
        // projections match executions.
        cycles: complex_cycles(n),
        butterflies,
        memory_accesses: 8 * butterflies,
        twiddle_reads: butterflies,
        io_words: 4 * n as u64,
        scaling_events: u64::from(block_exponent),
    };
    Ok((block_exponent, stats))
}

/// Activity statistics of one accelerator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FftAccelStats {
    /// Total cycles from start command to completion interrupt.
    pub cycles: u64,
    /// Radix-2-equivalent butterflies executed.
    pub butterflies: u64,
    /// Data-memory word accesses (reads + writes).
    pub memory_accesses: u64,
    /// Twiddle-ROM reads.
    pub twiddle_reads: u64,
    /// Words transferred in and out over the system bus.
    pub io_words: u64,
    /// Dynamic-scaling events (stages whose block exponent was bumped).
    pub scaling_events: u64,
}

/// The fixed-function FFT accelerator.
///
/// # Example
///
/// ```
/// use vwr2a_fftaccel::FftAccelerator;
///
/// # fn main() -> Result<(), vwr2a_fftaccel::FftAccelError> {
/// let accel = FftAccelerator::new();
/// let signal: Vec<f64> = (0..512)
///     .map(|i| (std::f64::consts::TAU * 10.0 * i as f64 / 512.0).cos())
///     .collect();
/// let (spectrum, stats) = accel.run_real(&signal)?;
/// // The 10-cycles-per-frame cosine dominates bin 10.
/// let peak = (1..spectrum.len()).max_by(|&a, &b| {
///     spectrum[a].abs().total_cmp(&spectrum[b].abs())
/// }).unwrap();
/// assert_eq!(peak, 10);
/// assert!(stats.cycles > 1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FftAccelerator;

impl FftAccelerator {
    /// Creates the accelerator.
    pub fn new() -> Self {
        Self
    }

    /// Projects the total cycles of one `n`-point run — setup, butterfly
    /// passes and IO, plus the recombination pass for the real-valued flow —
    /// without touching any data.  This is the accelerator's admission cost
    /// model: schedulers use it to price an FFT job against other backends.
    ///
    /// # Errors
    ///
    /// [`FftAccelError::UnsupportedSize`] for unsupported lengths.
    pub fn projected_cycles(&self, n: usize, real: bool) -> Result<u64, FftAccelError> {
        check_size(n)?;
        if real {
            // The real flow runs an n/2-point complex FFT plus one
            // recombination cycle per output bin (see `run_real`).
            let half = n / 2;
            check_size(half)?;
            Ok(complex_cycles(half) + half as u64 + 1)
        } else {
            Ok(complex_cycles(n))
        }
    }

    /// Runs a complex FFT on interleaved floating-point data (the host view
    /// of the q15 samples), returning the spectrum scaled by `1/N` (the
    /// engine's block-scaled output renormalised) and the run statistics.
    /// Samples saturate at 2^31 in magnitude (and `NaN` reads as zero), so
    /// no finite or infinite input overflows the datapath.
    ///
    /// # Errors
    ///
    /// Returns [`FftAccelError::UnsupportedSize`] for unsupported lengths.
    pub fn run_complex(
        &self,
        input: &[Complex],
    ) -> Result<(Vec<Complex>, FftAccelStats), FftAccelError> {
        let scale_in = (1 << (DATAPATH_BITS - 2)) as f64;
        let word = |v: f64| ((v * scale_in) as i64).clamp(-MAX_INPUT_WORD, MAX_INPUT_WORD);
        let mut x: Vec<(i64, i64)> = input.iter().map(|c| (word(c.re), word(c.im))).collect();
        let (block_exponent, stats) = transform(&mut x)?;

        // Renormalise to the mathematical DFT scaled by 1/N so callers can
        // compare against the golden model directly.
        let out_scale = (1 << block_exponent) as f64 / scale_in / input.len() as f64;
        let spectrum: Vec<Complex> = x
            .iter()
            .map(|&(r, i)| Complex::new(r as f64 * out_scale, i as f64 * out_scale))
            .collect();
        Ok((spectrum, stats))
    }

    /// Runs a complex FFT on `Q15.16` words and returns the unnormalised
    /// spectrum `X[k]` in `Q15.16` (the array FFT kernel's scale) and the
    /// run statistics.
    ///
    /// The result is exactly [`run_complex`](Self::run_complex)'s times `N`:
    /// a `Q15.16` word enters the datapath unchanged (its input scale is
    /// `2^16`), and an output word `r` with block exponent `e` becomes
    /// `r << e`, which fits an `i32` because `|r| <= 2^17` and `e <= 12`.
    ///
    /// # Errors
    ///
    /// [`FftAccelError::LengthMismatch`] if `re` and `im` differ in length;
    /// [`FftAccelError::UnsupportedSize`] for unsupported lengths.
    pub fn run_complex_q16(
        &self,
        re: &[i32],
        im: &[i32],
    ) -> Result<(Vec<i32>, Vec<i32>, FftAccelStats), FftAccelError> {
        if re.len() != im.len() {
            return Err(FftAccelError::LengthMismatch {
                re: re.len(),
                im: im.len(),
            });
        }
        let mut x: Vec<(i64, i64)> = re
            .iter()
            .zip(im)
            .map(|(&r, &i)| (i64::from(r), i64::from(i)))
            .collect();
        let (block_exponent, stats) = transform(&mut x)?;
        let (out_re, out_im) = x
            .into_iter()
            .map(|(r, i)| ((r << block_exponent) as i32, (i << block_exponent) as i32))
            .unzip();
        Ok((out_re, out_im, stats))
    }

    /// Runs the optimised real-valued flow: an `N/2`-point complex FFT plus
    /// the recombination pass, roughly halving both time and energy
    /// (Sec. 3.4 / 4.1).
    ///
    /// # Errors
    ///
    /// Returns [`FftAccelError::UnsupportedSize`] for unsupported lengths.
    pub fn run_real(&self, input: &[f64]) -> Result<(Vec<Complex>, FftAccelStats), FftAccelError> {
        let n = input.len();
        check_size(n)?;
        let packed: Vec<Complex> = (0..n / 2)
            .map(|i| Complex::new(input[2 * i], input[2 * i + 1]))
            .collect();
        let (z, mut stats) = self.run_complex(&packed)?;
        // Recombination (split) pass: done at one bin per cycle with two
        // memory reads and one write per bin.
        let half = n / 2;
        let mut out = Vec::with_capacity(half + 1);
        for k in 0..=half {
            let zk = if k == half { z[0] } else { z[k] };
            let znk = z[(half - k) % half].conj();
            let e = (zk + znk).scale(0.5);
            let o = (zk - znk).scale(0.5);
            let odd = Complex::new(o.im, -o.re);
            let w = Complex::from_angle(-std::f64::consts::TAU * k as f64 / n as f64);
            out.push((e + w * odd).scale(0.5));
        }
        stats.cycles += half as u64 + 1;
        stats.memory_accesses += 3 * (half as u64 + 1);
        stats.twiddle_reads += half as u64 + 1;
        stats.io_words += half as u64 + 1;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vwr2a_dsp::fft::{fft, rfft};
    use vwr2a_dsp::fixed::{from_q16, to_q16};

    /// Saturates `v` to a signed `bits`-wide integer range (the helper the
    /// reference loop below was written against).
    fn saturate(v: i64, bits: u32) -> i32 {
        let max = (1i64 << (bits - 1)) - 1;
        let min = -(1i64 << (bits - 1));
        v.clamp(min, max) as i32
    }

    /// The engine loop before the twiddle ROM, verbatim: a sine and a cosine
    /// per butterfly, a rescan of the block before every stage and
    /// per-butterfly counters.  The oracle the datapath is pinned against.
    fn reference_run_complex(
        input: &[Complex],
    ) -> Result<(Vec<Complex>, FftAccelStats), FftAccelError> {
        let n = input.len();
        check_size(n)?;
        let mut stats = FftAccelStats::default();

        // Fixed-point mirror of the datapath: 18-bit samples with block
        // dynamic scaling per stage.
        let scale_in = (1 << (DATAPATH_BITS - 2)) as f64;
        let mut re: Vec<i64> = input.iter().map(|c| (c.re * scale_in) as i64).collect();
        let mut im: Vec<i64> = input.iter().map(|c| (c.im * scale_in) as i64).collect();
        let mut block_exponent = 0i32;

        vwr2a_dsp::fft::bit_reverse_permute(&mut re);
        vwr2a_dsp::fft::bit_reverse_permute(&mut im);
        let mut len = 2usize;
        while len <= n {
            // Dynamic scaling: if any value risks overflowing the 18-bit
            // range after a butterfly, scale the whole block down by 2.
            let limit = 1i64 << (DATAPATH_BITS - 2);
            let needs_scale = re.iter().chain(im.iter()).any(|&v| v.abs() >= limit);
            if needs_scale {
                for v in re.iter_mut().chain(im.iter_mut()) {
                    *v >>= 1;
                }
                block_exponent += 1;
                stats.scaling_events += 1;
            }
            let ang = -std::f64::consts::TAU / len as f64;
            let mut i = 0;
            while i < n {
                for j in 0..len / 2 {
                    let w = Complex::from_angle(ang * j as f64);
                    let wr = (w.re * 32768.0) as i64;
                    let wi = (w.im * 32768.0) as i64;
                    let br = re[i + j + len / 2];
                    let bi = im[i + j + len / 2];
                    let vr = (br * wr - bi * wi) >> 15;
                    let vi = (br * wi + bi * wr) >> 15;
                    let ar = re[i + j];
                    let ai = im[i + j];
                    re[i + j] = saturate(ar + vr, DATAPATH_BITS) as i64;
                    im[i + j] = saturate(ai + vi, DATAPATH_BITS) as i64;
                    re[i + j + len / 2] = saturate(ar - vr, DATAPATH_BITS) as i64;
                    im[i + j + len / 2] = saturate(ai - vi, DATAPATH_BITS) as i64;
                    stats.butterflies += 1;
                    stats.memory_accesses += 8;
                    stats.twiddle_reads += 1;
                }
                i += len;
            }
            len <<= 1;
        }

        // Renormalise to the mathematical DFT scaled by 1/N so callers can
        // compare against the golden model directly.
        let out_scale = (1 << block_exponent) as f64 / scale_in / n as f64;
        let spectrum: Vec<Complex> = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| Complex::new(r as f64 * out_scale, i as f64 * out_scale))
            .collect();

        // Cycle model: shared with `projected_cycles`, so scheduler
        // projections match executions.
        stats.io_words = 4 * n as u64;
        stats.cycles = complex_cycles(n);
        Ok((spectrum, stats))
    }

    /// A deterministic xorshift64 stream for the bit-identity tests.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn bits(spectrum: &[Complex]) -> Vec<(u64, u64)> {
        spectrum
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    #[test]
    fn datapath_is_bit_identical_to_the_reference_loop() {
        // Per size, random inputs from far below the scaling threshold
        // (no dynamic scaling at all) up to 4x full scale, whose first
        // stage saturates, a constant 4x-full-scale block whose first-stage
        // sums saturate, and a unit impulse, whose words sit exactly on the
        // scaling threshold (2^16) at every stage.
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut events = Vec::new();
        for n in (3..=12).map(|log2| 1usize << log2) {
            let amplitudes = [0.25 / n as f64, 4.0 / n as f64, 0.05, 0.4, 1.0, 4.0];
            let mut inputs: Vec<Vec<Complex>> = amplitudes
                .iter()
                .map(|&a| {
                    let mut sample = || a * ((next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0);
                    (0..n).map(|_| Complex::new(sample(), sample())).collect()
                })
                .collect();
            inputs.push(vec![Complex::new(4.0, -4.0); n]);
            let mut impulse = vec![Complex::default(); n];
            impulse[0] = Complex::new(1.0, -1.0);
            inputs.push(impulse);
            for input in inputs {
                let (want, want_stats) = reference_run_complex(&input).unwrap();
                let (got, got_stats) = FftAccelerator::new().run_complex(&input).unwrap();
                assert_eq!(bits(&got), bits(&want), "n={n}");
                assert_eq!(got_stats, want_stats, "n={n}");
                events.push(want_stats.scaling_events);
            }
        }
        // The inputs cover zero, one and several scaling events.
        assert!(events.contains(&0) && events.contains(&1));
        assert!(events.iter().any(|&e| e >= 3));
    }

    #[test]
    fn q16_entry_is_bit_identical_to_the_float_path() {
        // The kernel hook before the Q15.16 entry: Q15.16 -> f64, the
        // reference loop, then `to_q16(X[k]/N * N)`.
        fn float_path(re: &[i32], im: &[i32]) -> (Vec<i32>, Vec<i32>, FftAccelStats) {
            let packed: Vec<Complex> = re
                .iter()
                .zip(im)
                .map(|(&r, &i)| Complex::new(from_q16(r), from_q16(i)))
                .collect();
            let (bins, stats) = reference_run_complex(&packed).unwrap();
            let scale = re.len() as f64;
            let out_re = bins.iter().map(|c| to_q16(c.re * scale)).collect();
            let out_im = bins.iter().map(|c| to_q16(c.im * scale)).collect();
            (out_re, out_im, stats)
        }
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        // A random word of a random magnitude: 1 to 32 significant bits.
        let mut word = || (next() as i32) >> (next() % 32);
        let extremes = [i32::MIN, i32::MAX, 0, -1];
        for n in (3..=12).map(|log2| 1usize << log2) {
            for case in 0..6 {
                let mut re: Vec<i32> = (0..n).map(|_| word()).collect();
                let mut im: Vec<i32> = (0..n).map(|_| word()).collect();
                if case == 0 {
                    // Every extreme in both halves of the block.
                    for (k, &v) in extremes.iter().enumerate() {
                        re[k] = v;
                        im[n - 1 - k] = v;
                    }
                } else if case == 1 {
                    re.fill(i32::MIN);
                    im.fill(i32::MAX);
                } else if case == 2 {
                    // Small words and one exactly on the scaling threshold.
                    re.iter_mut().chain(im.iter_mut()).for_each(|v| *v >>= 16);
                    re[n / 2] = 1 << 16;
                }
                let (got_re, got_im, got_stats) =
                    FftAccelerator::new().run_complex_q16(&re, &im).unwrap();
                let (want_re, want_im, want_stats) = float_path(&re, &im);
                assert_eq!((got_re, got_im), (want_re, want_im), "n={n} case={case}");
                assert_eq!(got_stats, want_stats, "n={n} case={case}");
            }
        }
    }

    #[test]
    fn mismatched_q16_halves_are_a_typed_error() {
        let accel = FftAccelerator::new();
        assert_eq!(
            accel.run_complex_q16(&[0; 8], &[0; 16]),
            Err(FftAccelError::LengthMismatch { re: 8, im: 16 })
        );
        assert_eq!(
            accel.run_complex_q16(&[0; 7], &[0; 8]),
            Err(FftAccelError::LengthMismatch { re: 7, im: 8 })
        );
        assert_eq!(
            accel.run_complex_q16(&[0; 4], &[0; 4]),
            Err(FftAccelError::UnsupportedSize { n: 4, max: 4096 })
        );
    }

    #[test]
    fn huge_inputs_saturate_instead_of_overflowing() {
        // Two samples that meet in one first-stage butterfly, one with its
        // imaginary half negative: at every magnitude from 1e10 up they
        // clamp to the words of a sample at 2^31, the clamp bound, and give
        // its spectrum, with outputs within the 18-bit full scale.
        let accel = FftAccelerator::new();
        let block = |m: f64| {
            let mut x = vec![Complex::default(); 8];
            x[0] = Complex::new(m, -m);
            x[4] = Complex::new(m, m);
            x
        };
        let (at_bound, _) = accel.run_complex(&block(2f64.powi(31))).unwrap();
        assert!(at_bound.iter().any(|c| c.re != 0.0 || c.im != 0.0));
        assert!(at_bound
            .iter()
            .all(|c| c.re.abs() <= 2.0 && c.im.abs() <= 2.0));
        let real = |m: f64| {
            let mut x = vec![0.0; 16];
            x[..2].copy_from_slice(&[m, -m]);
            x[8..10].copy_from_slice(&[m, m]);
            x
        };
        let (real_at_bound, _) = accel.run_real(&real(2f64.powi(31))).unwrap();
        for m in [1e10, 1e12, 1e15, f64::MAX, f64::INFINITY] {
            let (spectrum, _) = accel.run_complex(&block(m)).unwrap();
            assert_eq!(bits(&spectrum), bits(&at_bound), "{m}");
            let (spectrum, _) = accel.run_real(&real(m)).unwrap();
            assert_eq!(bits(&spectrum), bits(&real_at_bound), "{m}");
            let (spectrum, _) = accel.run_real(&real(-m)).unwrap();
            assert!(spectrum
                .iter()
                .all(|c| c.re.is_finite() && c.im.is_finite()));
        }
    }

    #[test]
    fn complex_output_matches_golden_model_within_quantisation() {
        let n = 256;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.4 * (i as f64 * 0.21).sin(), 0.2 * (i as f64 * 0.13).cos()))
            .collect();
        let accel = FftAccelerator::new();
        let (spectrum, stats) = accel.run_complex(&input).unwrap();
        let reference = fft(&input).unwrap();
        for (a, r) in spectrum.iter().zip(reference.iter()) {
            assert!((a.re - r.re / n as f64).abs() < 5e-3, "{a:?} vs {r:?}");
            assert!((a.im - r.im / n as f64).abs() < 5e-3);
        }
        assert_eq!(stats.butterflies, (n as u64 / 2) * 8);
        assert!(stats.cycles > 1000);
    }

    #[test]
    fn real_flow_matches_golden_model() {
        let n = 512;
        let input: Vec<f64> = (0..n)
            .map(|i| 0.4 * (std::f64::consts::TAU * 7.0 * i as f64 / n as f64).sin())
            .collect();
        let accel = FftAccelerator::new();
        let (spectrum, _) = accel.run_real(&input).unwrap();
        let reference = rfft(&input).unwrap();
        assert_eq!(spectrum.len(), reference.len());
        for (a, r) in spectrum.iter().zip(reference.iter()) {
            assert!((a.re - r.re / n as f64).abs() < 5e-3);
            assert!((a.im - r.im / n as f64).abs() < 5e-3);
        }
    }

    #[test]
    fn real_flow_is_roughly_twice_as_fast_as_complex() {
        let accel = FftAccelerator::new();
        let sig_c: Vec<Complex> = (0..512)
            .map(|i| Complex::new((i as f64).sin(), 0.0))
            .collect();
        let sig_r: Vec<f64> = (0..512).map(|i| (i as f64).sin()).collect();
        let (_, c) = accel.run_complex(&sig_c).unwrap();
        let (_, r) = accel.run_real(&sig_r).unwrap();
        let ratio = c.cycles as f64 / r.cycles as f64;
        assert!(ratio > 1.5 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn cycle_counts_land_in_the_paper_range() {
        // Table 2: 512-point complex ≈ 7099 cycles, 2048-point ≈ 31299;
        // the model should land within ~25 % of those.
        let accel = FftAccelerator::new();
        for (n, paper) in [(512usize, 7099u64), (1024, 13629), (2048, 31299)] {
            let sig: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).cos() * 0.3, 0.0))
                .collect();
            let (_, stats) = accel.run_complex(&sig).unwrap();
            let ratio = stats.cycles as f64 / paper as f64;
            assert!(
                ratio > 0.7 && ratio < 1.35,
                "n={n}: {} vs paper {paper}",
                stats.cycles
            );
        }
    }

    #[test]
    fn unsupported_sizes_rejected() {
        let accel = FftAccelerator::new();
        assert!(accel.run_complex(&[Complex::default(); 7]).is_err());
        assert!(accel.run_complex(&vec![Complex::default(); 8192]).is_err());
        assert!(accel.run_real(&[0.0; 4]).is_err());
    }

    #[test]
    fn dynamic_scaling_triggers_on_large_inputs() {
        let accel = FftAccelerator::new();
        let input: Vec<Complex> = (0..64).map(|_| Complex::new(0.99, -0.99)).collect();
        let (_, stats) = accel.run_complex(&input).unwrap();
        assert!(stats.scaling_events > 0);
    }

    #[test]
    fn datapath_quantisation_is_bit_exact() {
        // One 8-point run with one dynamic-scaling event, pinned exactly:
        // each output times N * 2^16 is the engine's integer result
        // rescaled by its block exponent, so another datapath width, or
        // another scaling threshold, moves these values.
        let input: Vec<Complex> = (0..8)
            .map(|i| Complex::new(0.9 - 0.23 * i as f64, 0.31 * (i as f64).sin()))
            .collect();
        let (spectrum, stats) = FftAccelerator::new().run_complex(&input).unwrap();
        let raw: Vec<(f64, f64)> = spectrum
            .iter()
            .map(|c| (c.re * 524288.0, c.im * 524288.0))
            .collect();
        assert_eq!(
            raw,
            [
                (49806.0, 11250.0),
                (102892.0, -96910.0),
                (41694.0, -88464.0),
                (54594.0, -42872.0),
                (60294.0, -16406.0),
                (65988.0, 7074.0),
                (78894.0, 32120.0),
                (17690.0, 194204.0),
            ]
        );
        assert_eq!(stats.scaling_events, 1);
    }

    #[test]
    fn projected_cycles_match_executed_cycles() {
        // Every supported size, so the largest cycle sums (the 61127-cycle
        // bound next to the constants) run too.
        let accel = FftAccelerator::new();
        for n in (3..=12).map(|log2| 1usize << log2) {
            let sig_c: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin() * 0.4, 0.0))
                .collect();
            let (_, stats) = accel.run_complex(&sig_c).unwrap();
            assert_eq!(accel.projected_cycles(n, false).unwrap(), stats.cycles);
            if n >= 16 {
                let sig_r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 0.4).collect();
                let (_, stats) = accel.run_real(&sig_r).unwrap();
                assert_eq!(accel.projected_cycles(n, true).unwrap(), stats.cycles);
            }
        }
        assert_eq!(accel.projected_cycles(MAX_POINTS, false), Ok(61127));
        let too_big = vec![Complex::default(); 8192];
        assert_eq!(
            accel.run_complex(&too_big),
            Err(FftAccelError::UnsupportedSize { n: 8192, max: 4096 })
        );
        assert!(accel.run_real(&vec![0.0; 8192]).is_err());
    }

    #[test]
    fn projected_cycles_reject_unsupported_sizes() {
        let accel = FftAccelerator::new();
        for n in [0usize, 4, 7, 100, 8192] {
            assert!(matches!(
                accel.projected_cycles(n, false),
                Err(FftAccelError::UnsupportedSize { .. })
            ));
        }
        // The real flow needs its half-size complex pass to be supported
        // too: n = 8 packs into a 4-point complex FFT, below the floor.
        assert!(matches!(
            accel.projected_cycles(8, true),
            Err(FftAccelError::UnsupportedSize { n: 4, .. })
        ));
    }

    #[test]
    fn error_displays_name_the_failure() {
        let err = FftAccelError::UnsupportedSize { n: 100, max: 4096 };
        assert_eq!(
            err.to_string(),
            "fft size 100 not supported (power of two of 8..=4096 required)"
        );
        let err = FftAccelError::LengthMismatch { re: 8, im: 16 };
        assert_eq!(
            err.to_string(),
            "fft input has 8 real but 16 imaginary words"
        );
    }
}
