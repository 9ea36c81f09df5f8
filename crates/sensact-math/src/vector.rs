//! Free functions on `&[f64]` slices used as mathematical vectors.
//!
//! These helpers are deliberately slice-based (rather than introducing a
//! `Vector` newtype) so that call sites anywhere in the workspace — point
//! clouds, feature embeddings, network activations — can use them without
//! conversions.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
///
/// ```
/// assert_eq!(sensact_math::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
///
/// ```
/// assert_eq!(sensact_math::vector::norm(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Scale a vector in place by `alpha`.
pub(crate) fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Normalize to unit L2 norm, returning the original norm.
///
/// Vectors with norm below `1e-12` are left untouched (returning their norm)
/// to avoid amplifying numerical noise.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x);
    if n > 1e-12 {
        scale(1.0 / n, x);
    }
    n
}

/// Numerically stable softmax.
///
/// Returns an empty `Vec` for empty input; output always sums to 1 otherwise.
pub fn softmax(a: &[f64]) -> Vec<f64> {
    if a.is_empty() {
        return Vec::new();
    }
    let m = norm_inf_signed_max(a);
    let exps: Vec<f64> = a.iter().map(|x| (x - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

fn norm_inf_signed_max(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn random_vec(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| rng.random_range(lo..hi)).collect()
    }

    #[test]
    fn dot_and_norms() {
        let a = [1.0, -2.0, 2.0];
        assert_eq!(dot(&a, &a), 9.0);
        assert_eq!(norm(&a), 3.0);
    }

    #[test]
    fn scale_in_place() {
        let mut y = [12.0, 24.0];
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_untouched() {
        let mut v = vec![0.0, 0.0];
        let n = normalize(&mut v);
        assert_eq!(n, 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for v in &p {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn prop_cauchy_schwarz() {
        let mut rng = StdRng::seed_from_u64(0x5EC01);
        for _ in 0..256 {
            let n = rng.random_range(1..16usize);
            let a = random_vec(&mut rng, n, -100.0, 100.0);
            let b = random_vec(&mut rng, n, -100.0, 100.0);
            let lhs = dot(&a, &b).abs();
            let rhs = norm(&a) * norm(&b);
            assert!(lhs <= rhs * (1.0 + 1e-9) + 1e-9);
        }
    }

    #[test]
    fn prop_softmax_is_distribution() {
        let mut rng = StdRng::seed_from_u64(0x5EC03);
        for _ in 0..256 {
            let n = rng.random_range(1..12usize);
            let a = random_vec(&mut rng, n, -50.0, 50.0);
            let p = softmax(&a);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn prop_normalize_idempotent_norm() {
        let mut rng = StdRng::seed_from_u64(0x5EC04);
        for _ in 0..256 {
            let n = rng.random_range(1..16usize);
            let mut v = random_vec(&mut rng, n, -100.0, 100.0);
            if norm(&v) <= 1e-6 {
                continue;
            }
            normalize(&mut v);
            assert!((norm(&v) - 1.0).abs() < 1e-9);
        }
    }
}
