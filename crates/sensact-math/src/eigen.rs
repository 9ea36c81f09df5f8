//! Eigenvalues of general real matrices: [`eigenvalues`] runs the Francis
//! double-shift QR on an upper-Hessenberg reduction and returns the full
//! complex spectrum, which is what the dense-Koopman stability analysis needs.

use crate::{Complex64, MathError, Matrix, Result};

/// Reduce a square matrix to upper-Hessenberg form by Householder reflections.
///
/// # Errors
///
/// [`MathError::NotSquare`] for non-square input.
pub(crate) fn hessenberg(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(MathError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        // Householder vector for column k, rows k+1..n.
        let mut x: Vec<f64> = (k + 1..n).map(|r| h[(r, k)]).collect();
        let alpha = -x[0].signum() * crate::vector::norm(&x);
        if alpha.abs() < 1e-300 {
            continue;
        }
        x[0] -= alpha;
        let vnorm = crate::vector::norm(&x);
        if vnorm < 1e-300 {
            continue;
        }
        for xi in x.iter_mut() {
            *xi /= vnorm;
        }
        // h = (I - 2vvᵀ) h (I - 2vvᵀ), applied to the trailing block.
        for c in 0..n {
            let mut s = 0.0;
            for (i, vi) in x.iter().enumerate() {
                s += vi * h[(k + 1 + i, c)];
            }
            for (i, vi) in x.iter().enumerate() {
                h[(k + 1 + i, c)] -= 2.0 * vi * s;
            }
        }
        for r in 0..n {
            let mut s = 0.0;
            for (i, vi) in x.iter().enumerate() {
                s += vi * h[(r, k + 1 + i)];
            }
            for (i, vi) in x.iter().enumerate() {
                h[(r, k + 1 + i)] -= 2.0 * vi * s;
            }
        }
    }
    // Zero out the mathematically-zero entries left by round-off.
    for r in 2..n {
        for c in 0..r - 1 {
            h[(r, c)] = 0.0;
        }
    }
    Ok(h)
}

/// Full complex spectrum of a general real square matrix via the Francis
/// double-shift QR algorithm on a Hessenberg reduction.
///
/// Eigenvalues are returned sorted by descending modulus; complex pairs appear
/// adjacently as conjugates.
///
/// # Errors
///
/// [`MathError::NotSquare`] for non-square input,
/// [`MathError::NoConvergence`] if an eigenvalue fails to deflate within the
/// iteration budget.
///
/// ```
/// use sensact_math::{Matrix, eigen::eigenvalues};
/// // Rotation by 90°: eigenvalues ±j.
/// let a = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
/// let ev = eigenvalues(&a).unwrap();
/// assert!((ev[0].abs() - 1.0).abs() < 1e-9);
/// assert!(ev[0].im.abs() > 0.99);
/// ```
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex64>> {
    let n = a.rows();
    if !a.is_square() {
        return Err(MathError::NotSquare { shape: a.shape() });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![Complex64::new(a[(0, 0)], 0.0)]);
    }
    let mut h = hessenberg(a)?;
    let mut eigs: Vec<Complex64> = Vec::with_capacity(n);
    let mut hi = n - 1;
    let mut iter_since_deflation = 0usize;
    let max_iter_per_eig = 120usize;
    let eps = 1e-13;

    loop {
        // Find the active block [lo..=hi]: walk up while subdiagonals are nonzero.
        let mut lo = hi;
        while lo > 0 {
            let s = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            if h[(lo, lo - 1)].abs() <= eps * s.max(1e-300) {
                h[(lo, lo - 1)] = 0.0;
                break;
            }
            lo -= 1;
        }

        if lo == hi {
            // 1x1 block deflates.
            eigs.push(Complex64::new(h[(hi, hi)], 0.0));
            if hi == 0 {
                break;
            }
            hi -= 1;
            iter_since_deflation = 0;
            continue;
        }
        if lo == hi - 1 {
            // 2x2 block deflates: quadratic formula.
            let (e1, e2) = eig2x2(
                h[(lo, lo)],
                h[(lo, lo + 1)],
                h[(lo + 1, lo)],
                h[(lo + 1, lo + 1)],
            );
            eigs.push(e1);
            eigs.push(e2);
            if lo == 0 {
                break;
            }
            hi = lo - 1;
            iter_since_deflation = 0;
            continue;
        }

        iter_since_deflation += 1;
        if iter_since_deflation > max_iter_per_eig {
            return Err(MathError::NoConvergence {
                iterations: max_iter_per_eig,
            });
        }

        // Francis double-shift from the trailing 2x2 (with exceptional shifts).
        let (mut s_tr, mut s_det) = {
            let p = h[(hi - 1, hi - 1)];
            let q = h[(hi - 1, hi)];
            let r = h[(hi, hi - 1)];
            let t = h[(hi, hi)];
            (p + t, p * t - q * r)
        };
        if iter_since_deflation.is_multiple_of(16) {
            // Exceptional (ad-hoc) shift to break symmetry-induced cycling.
            let w = h[(hi, hi - 1)].abs() + h[(hi - 1, hi - 2)].abs();
            s_tr = 1.5 * w;
            s_det = w * w;
        }

        // First column of (H - s1 I)(H - s2 I).
        let mut x = h[(lo, lo)] * h[(lo, lo)] + h[(lo, lo + 1)] * h[(lo + 1, lo)]
            - s_tr * h[(lo, lo)]
            + s_det;
        let mut y = h[(lo + 1, lo)] * (h[(lo, lo)] + h[(lo + 1, lo + 1)] - s_tr);
        let mut z = if lo + 2 <= hi {
            h[(lo + 1, lo)] * h[(lo + 2, lo + 1)]
        } else {
            0.0
        };

        for k in lo..hi - 1 {
            // 3-row Householder reflection annihilating (y, z) below x.
            let (v, beta) = householder3(x, y, z);
            if beta != 0.0 {
                // Apply P from the left to rows k..k+2.
                let cstart = k.saturating_sub(1).max(lo);
                for c in cstart..n {
                    let mut s = 0.0;
                    for i in 0..3 {
                        s += v[i] * h[(k + i, c)];
                    }
                    s *= beta;
                    for i in 0..3 {
                        h[(k + i, c)] -= v[i] * s;
                    }
                }
                // Apply P from the right to columns k..k+2.
                let rend = (k + 4).min(hi + 1);
                for r in 0..rend {
                    let mut s = 0.0;
                    for i in 0..3 {
                        s += v[i] * h[(r, k + i)];
                    }
                    s *= beta;
                    for i in 0..3 {
                        h[(r, k + i)] -= v[i] * s;
                    }
                }
            }
            if k > lo {
                h[(k + 1, k - 1)] = 0.0;
                h[(k + 2, k - 1)] = 0.0;
            }
            x = h[(k + 1, k)];
            y = h[(k + 2, k)];
            z = if k + 3 <= hi { h[(k + 3, k)] } else { 0.0 };
        }

        // Final 2-row reflection pushing the bulge off the bottom of the block.
        let (v, beta) = householder3(x, y, 0.0);
        if beta != 0.0 {
            let k = hi - 1;
            let cstart = k.saturating_sub(1).max(lo);
            for c in cstart..n {
                let s = beta * (v[0] * h[(k, c)] + v[1] * h[(k + 1, c)]);
                h[(k, c)] -= v[0] * s;
                h[(k + 1, c)] -= v[1] * s;
            }
            for r in 0..=hi {
                let s = beta * (v[0] * h[(r, k)] + v[1] * h[(r, k + 1)]);
                h[(r, k)] -= v[0] * s;
                h[(r, k + 1)] -= v[1] * s;
            }
        }
        if hi >= 2 {
            h[(hi, hi - 2)] = 0.0;
        }
    }

    eigs.sort_by(|a, b| b.abs().total_cmp(&a.abs()));
    Ok(eigs)
}

/// Eigenvalues of a real 2x2 `[[a, b], [c, d]]`.
fn eig2x2(a: f64, b: f64, c: f64, d: f64) -> (Complex64, Complex64) {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = tr * tr / 4.0 - det;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        (
            Complex64::new(tr / 2.0 + sq, 0.0),
            Complex64::new(tr / 2.0 - sq, 0.0),
        )
    } else {
        let sq = (-disc).sqrt();
        (Complex64::new(tr / 2.0, sq), Complex64::new(tr / 2.0, -sq))
    }
}

/// Householder vector (v, beta) such that (I - beta v vᵀ)[x,y,z]ᵀ = [±r,0,0]ᵀ.
fn householder3(x: f64, y: f64, z: f64) -> ([f64; 3], f64) {
    let alpha = (x * x + y * y + z * z).sqrt();
    if alpha < 1e-300 {
        return ([0.0; 3], 0.0);
    }
    let alpha = if x > 0.0 { -alpha } else { alpha };
    let v0 = x - alpha;
    let v = [v0, y, z];
    let vn2 = v0 * v0 + y * y + z * z;
    if vn2 < 1e-300 {
        return ([0.0; 3], 0.0);
    }
    (v, 2.0 / vn2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn sorted_real(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| b.total_cmp(a));
        v
    }

    #[test]
    fn hessenberg_preserves_spectrum_shape() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 2.0, 0.5],
            &[1.0, 3.0, 0.0, 1.0],
            &[2.0, 0.0, 1.0, 2.0],
            &[0.5, 1.0, 2.0, 5.0],
        ]);
        let h = hessenberg(&a).unwrap();
        // Hessenberg: zero below the first subdiagonal.
        for r in 2..4 {
            for c in 0..r - 1 {
                assert_eq!(h[(r, c)], 0.0);
            }
        }
        // Similarity preserves trace.
        assert!((h.trace().unwrap() - a.trace().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn eigenvalues_of_triangular() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, 0.0], &[0.0, 2.0, 5.0], &[0.0, 0.0, -1.0]]);
        let ev = eigenvalues(&a).unwrap();
        let got = sorted_real(ev.iter().map(|e| e.re).collect());
        assert!((got[0] - 3.0).abs() < 1e-8);
        assert!((got[1] - 2.0).abs() < 1e-8);
        assert!((got[2] + 1.0).abs() < 1e-8);
    }

    #[test]
    fn eigenvalues_rotation_complex_pair() {
        let t = 0.7f64;
        let a = Matrix::from_rows(&[&[t.cos(), -t.sin()], &[t.sin(), t.cos()]]);
        let ev = eigenvalues(&a).unwrap();
        assert_eq!(ev.len(), 2);
        for e in &ev {
            assert!((e.abs() - 1.0).abs() < 1e-9);
        }
        assert!((ev[0].arg().abs() - t).abs() < 1e-9);
    }

    #[test]
    fn eigenvalues_larger_matrix_with_complex_pairs() {
        // Block diagonal: rotation scaled by 0.9 + real eigenvalues 2, -0.5.
        let t = 1.1f64;
        let r = 0.9;
        let a = Matrix::from_rows(&[
            &[r * t.cos(), -r * t.sin(), 0.1, 0.0],
            &[r * t.sin(), r * t.cos(), 0.0, 0.2],
            &[0.0, 0.0, 2.0, 0.3],
            &[0.0, 0.0, 0.0, -0.5],
        ]);
        let ev = eigenvalues(&a).unwrap();
        assert_eq!(ev.len(), 4);
        // Largest modulus is 2.0 (real), then the 0.9 pair, then 0.5.
        assert!((ev[0].abs() - 2.0).abs() < 1e-7);
        assert!((ev[1].abs() - 0.9).abs() < 1e-7);
        assert!((ev[2].abs() - 0.9).abs() < 1e-7);
        assert!((ev[3].abs() - 0.5).abs() < 1e-7);
    }

    #[test]
    fn eigen_empty_and_single() {
        assert!(eigenvalues(&Matrix::zeros(0, 0)).unwrap().is_empty());
        let ev = eigenvalues(&Matrix::from_rows(&[&[7.0]])).unwrap();
        assert_eq!(ev[0], Complex64::new(7.0, 0.0));
    }

    fn rand_square(rng: &mut StdRng, n: usize) -> Matrix {
        Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|_| rng.random_range(-2.0..2.0)).collect(),
        )
    }

    #[test]
    fn prop_eigen_sum_matches_trace() {
        let mut rng = StdRng::seed_from_u64(0xE16E02);
        for _ in 0..32 {
            let m = rand_square(&mut rng, 5);
            let ev = eigenvalues(&m).unwrap();
            let sum_re: f64 = ev.iter().map(|e| e.re).sum();
            let sum_im: f64 = ev.iter().map(|e| e.im).sum();
            assert!((sum_re - m.trace().unwrap()).abs() < 1e-6);
            assert!(sum_im.abs() < 1e-6);
        }
    }

    #[test]
    fn prop_eigen_product_matches_det() {
        let mut rng = StdRng::seed_from_u64(0xE16E03);
        for _ in 0..32 {
            let m = rand_square(&mut rng, 4);
            let ev = eigenvalues(&m).unwrap();
            let mut prod = Complex64::new(1.0, 0.0);
            for e in &ev {
                prod = prod * *e;
            }
            let det = m.determinant().unwrap();
            assert!((prod.re - det).abs() < 1e-6 * det.abs().max(1.0));
            assert!(prod.im.abs() < 1e-6);
        }
    }
}
