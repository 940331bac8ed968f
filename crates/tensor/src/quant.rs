//! Symmetric fixed-point quantization and software FP16 emulation.
//!
//! NSFlow evaluates mixed precision by quantizing NN kernels to INT8 and
//! symbolic kernels to INT4 (paper Sec. IV-D, Tab. IV). This module provides
//! the functional model of that datapath: per-tensor symmetric scaling for
//! integer formats and a round-through-bits emulation of IEEE binary16.
//!
//! Quantized execution in the reproduction uses *fake quantization*: values
//! are quantized and immediately dequantized, so downstream arithmetic sees
//! exactly the value lattice an integer datapath would produce, while the
//! host math stays in `f32`.

use crate::{DType, Result, TensorError};

/// Per-tensor symmetric quantization parameters.
///
/// # Examples
///
/// ```
/// use nsflow_tensor::{DType, quant::QuantParams};
/// let q = QuantParams::fit(&[-1.0, 0.5, 2.0], DType::Int8)?;
/// let v = q.fake_quantize(2.0);
/// assert!((v - 2.0).abs() < 0.02);
/// # Ok::<(), nsflow_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    dtype: DType,
    scale: f32,
}

impl QuantParams {
    /// Builds parameters with an explicit scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantInput`] if `scale` is not finite
    /// and positive, or if `dtype` is not an integer format.
    pub(crate) fn with_scale(dtype: DType, scale: f32) -> Result<Self> {
        if !dtype.is_integer() {
            return Err(TensorError::InvalidQuantInput(format!(
                "dtype {dtype} is not an integer format"
            )));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(TensorError::InvalidQuantInput(format!(
                "scale {scale} must be positive"
            )));
        }
        Ok(QuantParams { dtype, scale })
    }

    /// Fits symmetric parameters to cover the maximum absolute value of
    /// `values`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantInput`] if `values` is empty,
    /// contains non-finite entries, or `dtype` is not an integer format.
    pub fn fit(values: &[f32], dtype: DType) -> Result<Self> {
        if values.is_empty() {
            return Err(TensorError::InvalidQuantInput("empty input".into()));
        }
        let mut max_abs = 0.0f32;
        for &v in values {
            if !v.is_finite() {
                return Err(TensorError::InvalidQuantInput(format!(
                    "non-finite value {v}"
                )));
            }
            max_abs = max_abs.max(v.abs());
        }
        let qmax = dtype
            .integer_max()
            .ok_or_else(|| TensorError::InvalidQuantInput(format!("{dtype} is not integer")))?
            as f32;
        // An all-zero tensor still gets a valid (arbitrary) scale.
        let scale = if max_abs == 0.0 {
            1.0 / qmax
        } else {
            max_abs / qmax
        };
        QuantParams::with_scale(dtype, scale)
    }

    /// Quantizes one value to its integer code (round-to-nearest, saturating).
    #[must_use]
    pub fn quantize(&self, value: f32) -> i32 {
        let (lo, hi) = (
            self.dtype.integer_min().expect("integer dtype"),
            self.dtype.integer_max().expect("integer dtype"),
        );
        let q = (value / self.scale).round();
        // Saturate before casting so huge f32 values stay in range.
        q.clamp(lo as f32, hi as f32) as i32
    }

    /// Dequantizes an integer code to its real value.
    #[must_use]
    pub(crate) fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.scale
    }

    /// Quantize→dequantize round trip of one value.
    #[must_use]
    pub fn fake_quantize(&self, value: f32) -> f32 {
        self.dequantize(self.quantize(value))
    }
}

/// Rounds an `f32` through IEEE-754 binary16 (round-to-nearest-even),
/// emulating FP16 storage/compute without a hardware half type.
///
/// Values above the FP16 max (65504) saturate to ±max rather than overflow
/// to infinity — matching an FPGA datapath with saturating arithmetic.
///
/// # Examples
///
/// ```
/// use nsflow_tensor::quant::round_to_f16;
/// assert_eq!(round_to_f16(1.0), 1.0);
/// assert!((round_to_f16(0.1) - 0.1).abs() < 1e-4);
/// assert_eq!(round_to_f16(1.0e6), 65504.0);
/// ```
#[must_use]
pub fn round_to_f16(value: f32) -> f32 {
    const F16_MAX: f32 = 65504.0;
    if value.is_nan() {
        return value;
    }
    let clamped = value.clamp(-F16_MAX, F16_MAX);
    f16_bits_to_f32(f32_to_f16_bits(clamped))
}

fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf/NaN (clamped earlier, but keep a total function).
        return sign | 0x7c00 | if frac != 0 { 0x0200 } else { 0 };
    }
    // Re-bias exponent from 127 to 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7bff; // saturate to f16 max
    }
    if unbiased >= -14 {
        // Normal f16. Round-to-nearest-even on the 13 truncated bits.
        let mut half_exp = (unbiased + 15) as u32;
        let mut half_frac = frac >> 13;
        let round_bits = frac & 0x1fff;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half_frac & 1) == 1) {
            half_frac += 1;
            if half_frac == 0x400 {
                half_frac = 0;
                half_exp += 1;
                if half_exp >= 31 {
                    return sign | 0x7bff;
                }
            }
        }
        return sign | ((half_exp as u16) << 10) | (half_frac as u16);
    }
    if unbiased >= -24 {
        // Subnormal f16.
        let shift = (-14 - unbiased) as u32;
        let full = frac | 0x0080_0000; // implicit leading 1
        let shifted = full >> (13 + shift);
        let rem = full & ((1u32 << (13 + shift)) - 1);
        let halfway = 1u32 << (12 + shift);
        let mut half_frac = shifted;
        if rem > halfway || (rem == halfway && (half_frac & 1) == 1) {
            half_frac += 1;
        }
        return sign | (half_frac as u16);
    }
    sign // underflow to signed zero
}

fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let frac = (h & 0x3ff) as u32;
    let bits = if exp == 0 {
        if frac == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut e = -1i32;
            let mut f = frac;
            while f & 0x400 == 0 {
                f <<= 1;
                e -= 1;
            }
            f &= 0x3ff;
            sign | (((114 + e) as u32) << 23) | (f << 13)
        }
    } else if exp == 31 {
        sign | 0x7f80_0000 | (frac << 13)
    } else {
        sign | ((exp + 112) << 23) | (frac << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_rejects_bad_input() {
        assert!(QuantParams::fit(&[], DType::Int8).is_err());
        assert!(QuantParams::fit(&[f32::NAN], DType::Int8).is_err());
        assert!(QuantParams::fit(&[1.0], DType::Fp32).is_err());
        assert!(QuantParams::with_scale(DType::Int8, 0.0).is_err());
        assert!(QuantParams::with_scale(DType::Int8, -1.0).is_err());
        assert!(QuantParams::with_scale(DType::Fp16, 1.0).is_err());
    }

    #[test]
    fn fit_covers_max_abs() {
        let q = QuantParams::fit(&[-3.0, 1.0, 2.5], DType::Int8).unwrap();
        assert_eq!(q.quantize(-3.0), -127);
        assert_eq!(q.quantize(3.0), 127);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn all_zero_input_gets_valid_scale() {
        let q = QuantParams::fit(&[0.0, 0.0], DType::Int4).unwrap();
        assert!(q.dequantize(1) > 0.0);
        assert_eq!(q.fake_quantize(0.0), 0.0);
    }

    #[test]
    fn quantize_saturates() {
        let q = QuantParams::with_scale(DType::Int4, 1.0).unwrap();
        assert_eq!(q.quantize(100.0), 7);
        assert_eq!(q.quantize(-100.0), -8);
        assert_eq!(q.quantize(f32::MAX), 7);
    }

    #[test]
    fn fake_quantize_error_bounded_by_half_step() {
        let q = QuantParams::fit(&[-1.0, 1.0], DType::Int8).unwrap();
        let half_step = q.dequantize(1) / 2.0;
        for i in -100..=100 {
            let v = i as f32 / 100.0;
            let err = (q.fake_quantize(v) - v).abs();
            assert!(err <= half_step + 1e-7, "v={v} err={err}");
        }
    }

    #[test]
    fn int4_is_coarser_than_int8() {
        let values: Vec<f32> = (-50..=50).map(|i| i as f32 / 50.0).collect();
        let e8: f32 = {
            let q = QuantParams::fit(&values, DType::Int8).unwrap();
            values.iter().map(|&v| (q.fake_quantize(v) - v).abs()).sum()
        };
        let e4: f32 = {
            let q = QuantParams::fit(&values, DType::Int4).unwrap();
            values.iter().map(|&v| (q.fake_quantize(v) - v).abs()).sum()
        };
        assert!(e4 > e8, "INT4 total error {e4} must exceed INT8 {e8}");
    }

    #[test]
    fn f16_round_trip_exact_for_representable() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25, 1024.0] {
            assert_eq!(round_to_f16(v), v, "exactly representable {v}");
        }
    }

    #[test]
    fn f16_rounds_inexact_values() {
        let v = 0.1f32;
        let r = round_to_f16(v);
        assert_ne!(r, v);
        assert!((r - v).abs() < 1e-4);
    }

    #[test]
    fn f16_saturates_above_max() {
        assert_eq!(round_to_f16(1.0e9), 65504.0);
        assert_eq!(round_to_f16(-1.0e9), -65504.0);
    }

    #[test]
    fn f16_subnormals_preserved_approximately() {
        let v = 1.0e-5f32; // subnormal in f16 (min normal ≈ 6.1e-5)
        let r = round_to_f16(v);
        assert!(r > 0.0);
        assert!((r - v).abs() / v < 0.05, "v={v} r={r}");
    }

    #[test]
    fn f16_tiny_underflows_to_zero() {
        assert_eq!(round_to_f16(1.0e-12), 0.0);
        assert_eq!(round_to_f16(-1.0e-12), -0.0);
    }

    #[test]
    fn f16_nan_stays_nan() {
        assert!(round_to_f16(f32::NAN).is_nan());
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 2049 is between 2048 and 2050 in f16 (step = 2 at this magnitude);
        // round-to-even picks 2048.
        assert_eq!(round_to_f16(2049.0), 2048.0);
        assert_eq!(round_to_f16(2051.0), 2052.0);
    }
}
