//! Statistical feature extraction used by the MBioTracker application.
//!
//! The paper's feature-extraction step computes time features (mean, median
//! and RMS of inspiration/expiration intervals) and frequency features from
//! the FFT of the filtered signal (Sec. 4.4.2).  These reference functions
//! back both the CPU baseline programs and the validation of the VWR2A
//! feature-extraction kernel.

use crate::error::DspError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] on an empty slice.
///
/// ```
/// use vwr2a_dsp::stats::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5);
/// ```
pub fn mean(data: &[f64]) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Median (interpolated for even lengths).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] on an empty slice.
///
/// ```
/// use vwr2a_dsp::stats::median;
/// assert_eq!(median(&[5.0, 1.0, 3.0]).unwrap(), 3.0);
/// assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
/// ```
pub fn median(data: &[f64]) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        Ok(sorted[n / 2])
    } else {
        Ok((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0)
    }
}

/// Root-mean-square value.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] on an empty slice.
///
/// ```
/// use vwr2a_dsp::stats::rms;
/// assert!((rms(&[3.0, -4.0]).unwrap() - (12.5f64).sqrt()).abs() < 1e-12);
/// ```
pub fn rms(data: &[f64]) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok((data.iter().map(|v| v * v).sum::<f64>() / data.len() as f64).sqrt())
}

/// An extremum found by [`delineate_alternating`] on integer samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtremumI32 {
    /// Sample index of the extremum.
    pub index: usize,
    /// Signal value at the extremum.
    pub value: i32,
    /// `true` for a local maximum, `false` for a local minimum.
    pub is_max: bool,
}

/// Integer-domain delineation with strict max/min alternation.
///
/// This is the exact policy implemented by the CPU-baseline and VWR2A
/// delineation kernels: a candidate extremum is accepted only if it is of
/// the opposite kind to the previously accepted one and differs from it by
/// at least `min_prominence` (the first extremum uses `|value| >=
/// min_prominence`).  It never replaces an already accepted extremum,
/// which keeps the hardware kernels single-pass.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::stats::delineate_alternating;
///
/// let signal: Vec<i32> = (0..300)
///     .map(|i| (32768.0 * (std::f64::consts::TAU * i as f64 / 100.0).sin()) as i32)
///     .collect();
/// let extrema = delineate_alternating(&signal, 16_384);
/// assert!(extrema.len() >= 5);
/// for pair in extrema.windows(2) {
///     assert_ne!(pair[0].is_max, pair[1].is_max);
/// }
/// ```
pub fn delineate_alternating(signal: &[i32], min_prominence: i32) -> Vec<ExtremumI32> {
    let mut out: Vec<ExtremumI32> = Vec::new();
    if signal.len() < 3 {
        return out;
    }
    for i in 1..signal.len() - 1 {
        let (prev, cur, next) = (signal[i - 1], signal[i], signal[i + 1]);
        let is_max = cur >= prev && cur > next;
        let is_min = cur <= prev && cur < next;
        if !is_max && !is_min {
            continue;
        }
        match out.last() {
            None => {
                if cur.saturating_abs() >= min_prominence {
                    out.push(ExtremumI32 {
                        index: i,
                        value: cur,
                        is_max,
                    });
                }
            }
            Some(last) => {
                if last.is_max == is_max {
                    continue;
                }
                if (cur - last.value).saturating_abs() >= min_prominence {
                    out.push(ExtremumI32 {
                        index: i,
                        value: cur,
                        is_max,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&data).unwrap(), 5.0);
        assert_eq!(median(&data).unwrap(), 4.5);
        assert!((rms(&[1.0, 1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_rejected() {
        assert!(mean(&[]).is_err());
        assert!(median(&[]).is_err());
        assert!(rms(&[]).is_err());
    }

    #[test]
    fn median_single_element() {
        assert_eq!(median(&[42.0]).unwrap(), 42.0);
    }
}
