//! Double-precision reference FFTs.
//!
//! These are the golden models against which the CPU-baseline `q15` FFT, the
//! fixed-function accelerator model and the VWR2A FFT kernel mapping are all
//! validated.  The complex transform is the classic in-place iterative
//! radix-2 decimation-in-time algorithm of Cooley & Tukey (the same algorithm
//! the paper maps onto VWR2A, Sec. 3.4); the real-valued transform uses the
//! standard "pack N reals into N/2 complex points" trick described in the
//! same section.

use crate::complex::Complex;
use crate::error::DspError;

/// Returns `true` if `n` is a power of two (and non-zero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Reverses the lowest `bits` bits of `x` (`bits <= usize::BITS`); the bits
/// of `x` above them are ignored.
///
/// ```
/// use vwr2a_dsp::fft::bit_reverse;
/// assert_eq!(bit_reverse(0b0011, 4), 0b1100);
/// assert_eq!(bit_reverse(1, 3), 4);
/// ```
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Permutes `data` into bit-reversed index order in place.
pub fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    if n < 2 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// Forward complex FFT (radix-2 DIT), returning a newly allocated spectrum.
///
/// # Errors
///
/// Returns [`DspError::LengthNotPowerOfTwo`] if `input.len()` is not a power
/// of two, or [`DspError::EmptyInput`] if it is empty.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::complex::Complex;
/// use vwr2a_dsp::fft::fft;
///
/// # fn main() -> Result<(), vwr2a_dsp::DspError> {
/// // The FFT of an impulse is flat.
/// let mut x = vec![Complex::default(); 8];
/// x[0] = Complex::new(1.0, 0.0);
/// let spectrum = fft(&x)?;
/// for bin in spectrum {
///     assert!((bin.re - 1.0).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
pub fn fft(input: &[Complex]) -> Result<Vec<Complex>, DspError> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, false)?;
    Ok(data)
}

/// Inverse complex FFT, including the `1/N` normalisation.
///
/// # Errors
///
/// Same conditions as [`fft`].
pub fn ifft(input: &[Complex]) -> Result<Vec<Complex>, DspError> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, true)?;
    let n = data.len() as f64;
    for v in &mut data {
        *v = v.scale(1.0 / n);
    }
    Ok(data)
}

/// In-place radix-2 decimation-in-time FFT.
///
/// When `inverse` is true the conjugate twiddles are used and **no**
/// normalisation is applied (callers that want a true inverse should divide
/// by `N`, as [`ifft`] does).
///
/// # Errors
///
/// Returns [`DspError::LengthNotPowerOfTwo`] or [`DspError::EmptyInput`] as
/// appropriate.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) -> Result<(), DspError> {
    let n = data.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if !is_power_of_two(n) {
        return Err(DspError::LengthNotPowerOfTwo { len: n });
    }
    bit_reverse_permute(data);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex::from_angle(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
    Ok(())
}

/// Forward FFT of a real-valued signal using the `N/2`-point complex FFT
/// trick (Sec. 3.4 of the paper).
///
/// The returned spectrum has `N/2 + 1` bins (DC through Nyquist); the
/// remaining bins are the conjugate mirror and are not materialised.
///
/// # Errors
///
/// Returns [`DspError::LengthNotPowerOfTwo`] if `input.len()` is not a power
/// of two, [`DspError::EmptyInput`] if empty, or
/// [`DspError::InvalidParameter`] if the length is smaller than 2.
///
/// # Example
///
/// ```
/// use vwr2a_dsp::fft::rfft;
///
/// # fn main() -> Result<(), vwr2a_dsp::DspError> {
/// // A pure cosine shows up in exactly one bin.
/// let n = 256;
/// let x: Vec<f64> = (0..n).map(|i| (std::f64::consts::TAU * 8.0 * i as f64 / n as f64).cos()).collect();
/// let spec = rfft(&x)?;
/// let peak = spec.iter().enumerate().max_by(|a, b| a.1.abs().total_cmp(&b.1.abs())).map(|(i, _)| i);
/// assert_eq!(peak, Some(8));
/// # Ok(())
/// # }
/// ```
pub fn rfft(input: &[f64]) -> Result<Vec<Complex>, DspError> {
    let n = input.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if !is_power_of_two(n) {
        return Err(DspError::LengthNotPowerOfTwo { len: n });
    }
    if n < 2 {
        return Err(DspError::InvalidParameter {
            what: "real FFT length must be at least 2".into(),
        });
    }
    let half = n / 2;
    // Pack even samples into the real part and odd samples into the
    // imaginary part of an N/2-point complex sequence.
    let packed: Vec<Complex> = (0..half)
        .map(|i| Complex::new(input[2 * i], input[2 * i + 1]))
        .collect();
    let z = fft(&packed)?;
    // Unpack: X[k] = E[k] + e^{-2πik/N} O[k].
    let mut out = Vec::with_capacity(half + 1);
    for k in 0..=half {
        let zk = if k == half { z[0] } else { z[k] };
        let znk = z[(half - k) % half].conj();
        let e = (zk + znk).scale(0.5);
        let o = (zk - znk).scale(0.5);
        // o is i * Odd[k]; multiply by -i to recover Odd[k].
        let odd = Complex::new(o.im, -o.re);
        let w = Complex::from_angle(-std::f64::consts::TAU * k as f64 / n as f64);
        out.push(e + w * odd);
    }
    Ok(out)
}

/// Naive `O(N²)` DFT used only for cross-checking the fast algorithms in
/// tests.
pub fn dft_reference(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::default();
            for (j, x) in input.iter().enumerate() {
                let w = Complex::from_angle(-std::f64::consts::TAU * (k * j) as f64 / n as f64);
                acc = acc + *x * w;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    #[test]
    fn rejects_non_power_of_two() {
        let x = vec![Complex::default(); 6];
        assert!(matches!(
            fft(&x),
            Err(DspError::LengthNotPowerOfTwo { len: 6 })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(fft(&[]), Err(DspError::EmptyInput)));
    }

    #[test]
    fn single_point_is_identity() {
        let x = vec![Complex::new(3.5, -1.0)];
        assert_eq!(fft(&x).unwrap(), x);
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let fast = fft(&x).unwrap();
        let slow = dft_reference(&x);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!(close(*a, *b, 1e-9), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.2).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let back = ifft(&fft(&x).unwrap()).unwrap();
        for (a, b) in x.iter().zip(back.iter()) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let spec = fft(&x).unwrap();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    fn rfft_matches_complex_fft() {
        let n = 128;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin() + 0.2).collect();
        let complex_in: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let full = fft(&complex_in).unwrap();
        let half = rfft(&x).unwrap();
        assert_eq!(half.len(), n / 2 + 1);
        for k in 0..=n / 2 {
            assert!(close(half[k], full[k], 1e-9), "bin {k}");
        }
    }

    /// The bit-at-a-time loop `bit_reverse` replaced, kept as its oracle.
    fn bit_reverse_by_loop(x: usize, bits: u32) -> usize {
        let mut v = 0usize;
        for i in 0..bits {
            if x & (1 << i) != 0 {
                v |= 1 << (bits - 1 - i);
            }
        }
        v
    }

    #[test]
    fn bit_reverse_matches_the_bit_loop() {
        // Two bits above the width too: both must ignore them.
        for bits in 0..=16u32 {
            for x in 0..(1usize << (bits + 2)) {
                assert_eq!(
                    bit_reverse(x, bits),
                    bit_reverse_by_loop(x, bits),
                    "{x} {bits}"
                );
            }
        }
        for x in [
            0,
            1,
            2,
            0x8000_0000_0000_0000,
            0x0123_4567_89ab_cdef,
            usize::MAX,
        ] {
            assert_eq!(bit_reverse(x, 64), bit_reverse_by_loop(x, 64), "{x}");
        }
    }

    #[test]
    fn bit_reverse_is_involution() {
        for bits in 1..=10u32 {
            for x in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
            }
        }
    }

    #[test]
    fn bit_reverse_permute_small() {
        let mut v = vec![0, 1, 2, 3, 4, 5, 6, 7];
        bit_reverse_permute(&mut v);
        assert_eq!(v, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let x = vec![Complex::new(1.0, 0.0); 16];
        let spec = fft(&x).unwrap();
        assert!((spec[0].re - 16.0).abs() < 1e-12);
        for bin in &spec[1..] {
            assert!(bin.abs() < 1e-9);
        }
    }
}
