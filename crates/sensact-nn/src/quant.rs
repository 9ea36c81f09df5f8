//! Fake quantization for precision-reconfigurable inference.
//!
//! HaLo-FL (paper §VII) selects per-client precisions for weights,
//! activations and gradients. This module provides symmetric uniform
//! quantize-dequantize ("fake quantization") so the accuracy impact of a
//! precision choice can be simulated in floating point, plus helpers to
//! quantize a whole layer stack in place.

use crate::layers::Layer;

/// Supported operand precisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// 2-bit signed fixed point.
    Int2,
    /// 4-bit signed fixed point.
    Int4,
    /// 8-bit signed fixed point.
    Int8,
    /// 16-bit signed fixed point.
    Int16,
    /// Full 64-bit float (reference, no quantization).
    Full,
}

impl Precision {
    /// Bit width of the representation (64 for `Full`).
    pub fn bits(self) -> u8 {
        match self {
            Precision::Int2 => 2,
            Precision::Int4 => 4,
            Precision::Int8 => 8,
            Precision::Int16 => 16,
            Precision::Full => 64,
        }
    }

    /// All fixed-point precisions, ascending.
    pub fn fixed_point() -> [Precision; 4] {
        [
            Precision::Int2,
            Precision::Int4,
            Precision::Int8,
            Precision::Int16,
        ]
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Full => write!(f, "FP64"),
            p => write!(f, "INT{}", p.bits()),
        }
    }
}

/// Result of quantizing a buffer: the scale used and the mean-squared
/// quantization error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QuantReport {
    /// Symmetric scale (max-abs / qmax).
    pub scale: f64,
    /// Mean squared error introduced.
    pub mse: f64,
}

/// Symmetric uniform fake-quantization of a buffer in place.
///
/// Values are mapped to the integer grid `[-2^(b-1)+1, 2^(b-1)-1]` scaled by
/// the buffer's max-abs, then dequantized back to floats. `Precision::Full`
/// is a no-op with zero error.
///
/// Non-finite entries (sensor dropouts, upstream NaN poisoning) are
/// **saturated, never propagated**: the scale is computed over the finite
/// entries only, NaN becomes `0.0` and ±∞ clamps to ±max-abs — exactly where
/// the grid would clamp any out-of-range finite value. (Previously a single
/// `inf` made the scale infinite and dequantized *every* entry to NaN via
/// `0 × ∞`.)
pub(crate) fn fake_quantize(buf: &mut [f64], precision: Precision) -> QuantReport {
    if precision == Precision::Full || buf.is_empty() {
        return QuantReport {
            scale: 1.0,
            mse: 0.0,
        };
    }
    let qmax = ((1i64 << (precision.bits() - 1)) - 1) as f64;
    let max_abs = buf
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f64, |m, x| m.max(x.abs()));
    for v in buf.iter_mut() {
        if !v.is_finite() {
            *v = if v.is_nan() {
                0.0
            } else {
                v.signum() * max_abs
            };
        }
    }
    if max_abs == 0.0 {
        return QuantReport {
            scale: 0.0,
            mse: 0.0,
        };
    }
    let scale = max_abs / qmax;
    let mut mse = 0.0;
    for v in buf.iter_mut() {
        let q = (*v / scale).round().clamp(-qmax, qmax);
        let dq = q * scale;
        mse += (*v - dq) * (*v - dq);
        *v = dq;
    }
    QuantReport {
        scale,
        mse: mse / buf.len() as f64,
    }
}

/// Quantize every weight buffer of a layer stack in place; returns the mean
/// of the per-buffer MSEs.
pub fn quantize_layer(layer: &mut dyn Layer, precision: Precision) -> f64 {
    let mut total = 0.0;
    let mut buffers = 0usize;
    layer.visit_params(&mut |p, _| {
        total += fake_quantize(p, precision).mse;
        buffers += 1;
    });
    if buffers == 0 {
        0.0
    } else {
        total / buffers as f64
    }
}

/// Quantization-aware copy: quantize a slice into a fresh vector, leaving the
/// original untouched.
pub fn quantized_copy(buf: &[f64], precision: Precision) -> Vec<f64> {
    let mut out = buf.to_vec();
    let _ = fake_quantize(&mut out, precision);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::Dense;

    #[test]
    fn full_precision_is_noop() {
        let mut buf = vec![0.1, -0.7, 0.33];
        let orig = buf.clone();
        let r = fake_quantize(&mut buf, Precision::Full);
        assert_eq!(buf, orig);
        assert_eq!(r.mse, 0.0);
    }

    #[test]
    fn error_decreases_with_precision() {
        let mut init = Initializer::new(0);
        let base: Vec<f64> = (0..256).map(|_| init.normal(0.0, 1.0)).collect();
        let mut prev = f64::INFINITY;
        for p in Precision::fixed_point() {
            let mut buf = base.clone();
            let r = fake_quantize(&mut buf, p);
            assert!(r.mse < prev, "{p}: mse {} not < {prev}", r.mse);
            prev = r.mse;
        }
    }

    #[test]
    fn int8_error_is_small() {
        let mut init = Initializer::new(1);
        let mut buf: Vec<f64> = (0..128).map(|_| init.uniform(-1.0, 1.0)).collect();
        let r = fake_quantize(&mut buf, Precision::Int8);
        assert!(r.mse < 1e-4, "INT8 mse {}", r.mse);
    }

    #[test]
    fn quantized_values_lie_on_grid() {
        let mut buf = vec![0.9, -0.3, 0.5, 0.05];
        let r = fake_quantize(&mut buf, Precision::Int4);
        for v in &buf {
            let q = v / r.scale;
            assert!((q - q.round()).abs() < 1e-9, "{v} not on grid");
        }
    }

    #[test]
    fn max_abs_preserved_by_symmetric_scheme() {
        let mut buf = vec![1.0, -0.5, 0.25];
        let _ = fake_quantize(&mut buf, Precision::Int8);
        assert!((buf[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_buffer_is_stable() {
        let mut buf = vec![0.0; 8];
        let r = fake_quantize(&mut buf, Precision::Int2);
        assert_eq!(r.mse, 0.0);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quantize_layer_changes_weights() {
        let mut init = Initializer::new(2);
        let mut d = Dense::new(8, 8, &mut init);
        let before = d.weights.clone();
        let mse = quantize_layer(&mut d, Precision::Int2);
        assert!(mse > 0.0);
        assert_ne!(d.weights, before);
    }

    #[test]
    fn quantized_copy_leaves_original() {
        let buf = vec![0.77, -0.21];
        let q = quantized_copy(&buf, Precision::Int4);
        assert_eq!(buf, vec![0.77, -0.21]);
        assert_ne!(q, buf);
    }

    #[test]
    fn non_finite_input_saturates_instead_of_poisoning_grid() {
        // Regression: one inf made scale = inf, so every entry dequantized
        // to 0 × inf = NaN — the whole buffer was silently destroyed.
        let mut buf = vec![0.5, f64::INFINITY, -0.25, f64::NAN, f64::NEG_INFINITY];
        let r = fake_quantize(&mut buf, Precision::Int8);
        assert!(buf.iter().all(|v| v.is_finite()), "poisoned output {buf:?}");
        assert!(r.scale.is_finite() && r.mse.is_finite());
        // Finite entries quantize exactly as they would without the poison.
        let mut clean = vec![0.5, -0.25];
        let rc = fake_quantize(&mut clean, Precision::Int8);
        assert_eq!(r.scale, rc.scale);
        assert_eq!(&buf[..1], &clean[..1]);
        assert_eq!(buf[2], clean[1]);
        // NaN zeroes out; ±inf saturates to ±max-abs.
        assert_eq!(buf[3], 0.0);
        assert_eq!(buf[1], 0.5);
        assert_eq!(buf[4], -0.5);
    }

    #[test]
    fn all_non_finite_buffer_zeroes_out() {
        let mut buf = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let r = fake_quantize(&mut buf, Precision::Int4);
        assert_eq!(buf, vec![0.0; 3]);
        assert_eq!(r.scale, 0.0);
        assert_eq!(r.mse, 0.0);
    }

    #[test]
    fn precision_display_and_bits() {
        assert_eq!(Precision::Int8.to_string(), "INT8");
        assert_eq!(Precision::Full.to_string(), "FP64");
        assert_eq!(Precision::Int4.bits(), 4);
        assert_eq!(Precision::Full.bits(), 64);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use sensact_math::rng::StdRng;

    /// Quantization error is bounded by half the step size, and the
    /// operation is idempotent.
    #[test]
    fn prop_quantization_bounded_and_idempotent() {
        let mut rng = StdRng::seed_from_u64(0x9A4701);
        for _ in 0..64 {
            let len = rng.random_range(1..64usize);
            let buf: Vec<f64> = (0..len).map(|_| rng.random_range(-10.0..10.0)).collect();
            for precision in Precision::fixed_point() {
                let mut q = buf.clone();
                let report = fake_quantize(&mut q, precision);
                for (orig, quant) in buf.iter().zip(&q) {
                    assert!(
                        (orig - quant).abs() <= report.scale / 2.0 + 1e-12,
                        "{precision}: error {} > half-step {}",
                        (orig - quant).abs(),
                        report.scale / 2.0
                    );
                }
                let mut q2 = q.clone();
                let second = fake_quantize(&mut q2, precision);
                assert!(second.mse < 1e-20, "not idempotent: {}", second.mse);
                assert_eq!(&q2, &q);
            }
        }
    }

    /// Poisoned buffers (random NaN/±inf injections) always quantize to a
    /// finite on-grid result.
    #[test]
    fn prop_poisoned_buffers_never_produce_nan() {
        let mut rng = StdRng::seed_from_u64(0xBADF00D);
        for _ in 0..64 {
            let len = rng.random_range(2..64usize);
            let mut buf: Vec<f64> = (0..len).map(|_| rng.random_range(-5.0..5.0)).collect();
            let poisons = rng.random_range(1..=len / 2 + 1);
            for _ in 0..poisons {
                let i = rng.random_range(0..len);
                buf[i] = match rng.random_range(0..3u32) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::NEG_INFINITY,
                };
            }
            for precision in [Precision::Int2, Precision::Int8, Precision::Int16] {
                let mut q = buf.clone();
                let report = fake_quantize(&mut q, precision);
                assert!(report.scale.is_finite() && report.mse.is_finite());
                for v in &q {
                    assert!(v.is_finite(), "poison leaked: {q:?}");
                    if report.scale > 0.0 {
                        let grid = v / report.scale;
                        assert!((grid - grid.round()).abs() < 1e-9, "{v} off-grid");
                    }
                }
            }
        }
    }
}
