//! Reference FIR filters.
//!
//! The paper's second standalone kernel is an 11-tap FIR filter (Sec. 4.4.1,
//! Table 4), also used as the preprocessing step of the MBioTracker
//! application (Sec. 4.4.2).  This module provides the floating-point golden
//! model and a `q15` version matching the CMSIS-DSP CPU baseline, plus a
//! low-pass designer used by the application pipeline.

use crate::error::DspError;
use crate::fixed::Q15;

/// Number of taps of the paper's FIR kernel.
pub const PAPER_FIR_TAPS: usize = 11;

/// Direct-form FIR filter, `f64` golden model.
///
/// Sample `y[n] = Σ_k h[k]·x[n-k]`, with `x[m] = 0` for `m < 0` (zero
/// initial state), which matches how both the CMSIS baseline and the VWR2A
/// kernel are run in the paper (one-shot over a buffer).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either `taps` or `input` is empty.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::fir::fir_f64;
///
/// # fn main() -> Result<(), vwr2a_dsp::DspError> {
/// // A moving-average filter smooths an impulse into a plateau.
/// let taps = [0.25; 4];
/// let mut x = vec![0.0; 8];
/// x[0] = 1.0;
/// let y = fir_f64(&taps, &x)?;
/// assert_eq!(&y[..4], &[0.25, 0.25, 0.25, 0.25]);
/// assert_eq!(y[5], 0.0);
/// # Ok(())
/// # }
/// ```
pub fn fir_f64(taps: &[f64], input: &[f64]) -> Result<Vec<f64>, DspError> {
    if taps.is_empty() || input.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mut out = vec![0.0; input.len()];
    for (n, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &h) in taps.iter().enumerate() {
            if n >= k {
                acc += h * input[n - k];
            }
        }
        *o = acc;
    }
    Ok(out)
}

/// Direct-form FIR in `q15`, accumulating in 32 bits with a final `>> 15`
/// like `arm_fir_q15`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either slice is empty.
pub fn fir_q15(taps: &[Q15], input: &[Q15]) -> Result<Vec<Q15>, DspError> {
    if taps.is_empty() || input.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mut out = vec![Q15::ZERO; input.len()];
    for (n, o) in out.iter_mut().enumerate() {
        let mut acc: i64 = 0;
        for (k, &h) in taps.iter().enumerate() {
            if n >= k {
                acc += h.0 as i64 * input[n - k].0 as i64;
            }
        }
        let v = (acc >> 15).clamp(i16::MIN as i64, i16::MAX as i64) as i16;
        *o = Q15(v);
    }
    Ok(out)
}

/// Designs a symmetric low-pass FIR filter by the windowed-sinc method
/// (Hamming window).
///
/// `cutoff` is the normalised cut-off frequency in `(0, 0.5)` (fraction of
/// the sample rate).  The paper's preprocessing step low-pass filters the
/// raw respiration signal before delineation.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `taps` is zero or even, or if
/// `cutoff` is outside `(0, 0.5)`.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::fir::design_lowpass;
///
/// # fn main() -> Result<(), vwr2a_dsp::DspError> {
/// let h = design_lowpass(11, 0.1)?;
/// assert_eq!(h.len(), 11);
/// // Unity DC gain.
/// let dc: f64 = h.iter().sum();
/// assert!((dc - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn design_lowpass(taps: usize, cutoff: f64) -> Result<Vec<f64>, DspError> {
    if taps == 0 || taps.is_multiple_of(2) {
        return Err(DspError::InvalidParameter {
            what: format!("tap count must be odd and non-zero, got {taps}"),
        });
    }
    if !(cutoff > 0.0 && cutoff < 0.5) {
        return Err(DspError::InvalidParameter {
            what: format!("cutoff must be in (0, 0.5), got {cutoff}"),
        });
    }
    let m = (taps - 1) as f64;
    let mut h: Vec<f64> = (0..taps)
        .map(|i| {
            let x = i as f64 - m / 2.0;
            let sinc = if x.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (std::f64::consts::TAU * cutoff * x).sin() / (std::f64::consts::PI * x)
            };
            let window = 0.54 - 0.46 * (std::f64::consts::TAU * i as f64 / m).cos();
            sinc * window
        })
        .collect();
    let sum: f64 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_response_reproduces_taps() {
        let taps = [0.5, -0.25, 0.125];
        let mut x = vec![0.0; 6];
        x[0] = 1.0;
        let y = fir_f64(&taps, &x).unwrap();
        assert_eq!(&y[..3], &taps);
        assert_eq!(&y[3..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn linearity() {
        let taps = [0.3, 0.4, 0.3];
        let a: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ya = fir_f64(&taps, &a).unwrap();
        let yb = fir_f64(&taps, &b).unwrap();
        let ysum = fir_f64(&taps, &sum).unwrap();
        for i in 0..32 {
            assert!((ysum[i] - (ya[i] + yb[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn q15_matches_float_within_quantisation() {
        let taps_f = design_lowpass(PAPER_FIR_TAPS, 0.12).unwrap();
        let x_f: Vec<f64> = (0..256).map(|i| 0.5 * (i as f64 * 0.05).sin()).collect();
        let taps_q: Vec<Q15> = taps_f.iter().map(|&v| Q15::from_f64(v)).collect();
        let x_q: Vec<Q15> = x_f.iter().map(|&v| Q15::from_f64(v)).collect();
        let y_f = fir_f64(&taps_f, &x_f).unwrap();
        let y_q = fir_q15(&taps_q, &x_q).unwrap();
        for (f, q) in y_f.iter().zip(y_q.iter()) {
            assert!((f - q.to_f64()).abs() < 2e-3);
        }
    }

    #[test]
    fn lowpass_attenuates_high_frequency() {
        let h = design_lowpass(31, 0.05).unwrap();
        let n = 512;
        let low: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * 0.01 * i as f64).sin())
            .collect();
        let high: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * 0.4 * i as f64).sin())
            .collect();
        let ylow = fir_f64(&h, &low).unwrap();
        let yhigh = fir_f64(&h, &high).unwrap();
        let rms = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        assert!(rms(&ylow[64..]) > 0.5);
        assert!(rms(&yhigh[64..]) < 0.05);
    }

    #[test]
    fn design_rejects_bad_parameters() {
        assert!(design_lowpass(0, 0.1).is_err());
        assert!(design_lowpass(10, 0.1).is_err());
        assert!(design_lowpass(11, 0.0).is_err());
        assert!(design_lowpass(11, 0.7).is_err());
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(fir_f64(&[], &[1.0]).is_err());
        assert!(fir_f64(&[1.0], &[]).is_err());
        assert!(fir_q15(&[], &[Q15::ZERO]).is_err());
    }
}
