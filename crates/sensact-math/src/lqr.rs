//! Discrete-time Linear Quadratic Regulator synthesis.
//!
//! RoboKoop (paper §IV) controls the cart-pole by solving an LQR problem in
//! the Koopman embedding space over a finite horizon. This module provides
//! both the finite-horizon backward Riccati recursion and an
//! infinite-horizon solver (iterate-to-fixpoint), plus a helper to build the
//! block-diagonal real dynamics matrix from a spectral (complex-eigenvalue)
//! parameterization.

use crate::{Complex64, MathError, Matrix, Result};

/// An LQR problem instance: minimize Σ xᵀQx + uᵀRu subject to x⁺ = Ax + Bu.
#[derive(Debug, Clone)]
pub struct LqrProblem {
    /// State transition matrix (n × n).
    pub a: Matrix,
    /// Input matrix (n × m).
    pub b: Matrix,
    /// State cost (n × n, positive semi-definite).
    pub q: Matrix,
    /// Input cost (m × m, positive definite).
    pub r: Matrix,
}

impl LqrProblem {
    /// Bundle the four matrices of a discrete-time LQR problem.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent (`a` not square, `b` row count,
    /// `q`/`r` dimensions).
    pub fn new(a: Matrix, b: Matrix, q: Matrix, r: Matrix) -> Self {
        let n = a.rows();
        assert!(a.is_square(), "A must be square");
        assert_eq!(b.rows(), n, "B must have as many rows as A");
        assert_eq!(q.shape(), (n, n), "Q must be n x n");
        assert_eq!(r.shape(), (b.cols(), b.cols()), "R must be m x m");
        LqrProblem { a, b, q, r }
    }
}

/// Solution of an LQR problem: `u = -K x` plus the cost-to-go matrix.
#[derive(Debug, Clone)]
pub struct LqrSolution {
    /// Feedback gain K (m × n).
    pub feedback: Matrix,
    /// Final Riccati cost-to-go matrix P (n × n).
    pub cost_to_go: Matrix,
    /// Riccati iterations performed.
    pub iterations: usize,
}

/// One backward Riccati step: returns (K_t, P_t) from P_{t+1}.
fn riccati_step(p: &LqrProblem, p_next: &Matrix) -> Result<(Matrix, Matrix)> {
    // Bᵀ P, computed once and shared by S and K (tr_matmul reads B as its
    // transpose, so no explicit transpose copies are made in this step).
    let btp = p.b.tr_matmul(p_next)?;
    // S = R + Bᵀ P B  (m × m)
    let s = p.r.add(&btp.matmul(&p.b)?)?;
    // K = S⁻¹ Bᵀ P A
    let k = s.solve_matrix(&btp.matmul(&p.a)?)?;
    // P = Q + Aᵀ P (A - B K)
    let abk = p.a.sub(&p.b.matmul(&k)?)?;
    let p_new = p.q.add(&p.a.tr_matmul(p_next)?.matmul(&abk)?)?;
    // Symmetrize to fight round-off drift.
    let p_sym = p_new.add(&p_new.transpose())?.scaled(0.5);
    Ok((k, p_sym))
}

/// Finite-horizon LQR: backward Riccati recursion over `horizon` steps.
///
/// Returns the sequence of time-varying gains `K_0 .. K_{horizon-1}` (apply
/// `K_0` first) and the initial cost-to-go.
///
/// # Errors
///
/// [`MathError::InvalidArgument`] if `horizon == 0`; otherwise propagates
/// linear-solve failures (e.g. `R + BᵀPB` singular).
pub fn dlqr_finite(problem: &LqrProblem, horizon: usize) -> Result<Vec<LqrSolution>> {
    if horizon == 0 {
        return Err(MathError::InvalidArgument("horizon must be positive"));
    }
    let mut p = problem.q.clone();
    let mut gains = Vec::with_capacity(horizon);
    for t in 0..horizon {
        let (k, p_new) = riccati_step(problem, &p)?;
        gains.push(LqrSolution {
            feedback: k,
            cost_to_go: p_new.clone(),
            iterations: t + 1,
        });
        p = p_new;
    }
    gains.reverse();
    Ok(gains)
}

/// Infinite-horizon LQR: iterate the Riccati recursion to a fixed point.
///
/// # Errors
///
/// [`MathError::NoConvergence`] if the recursion does not settle within
/// 10 000 iterations (typically means `(A, B)` is not stabilizable), plus any
/// linear-solve failure.
#[cfg(test)]
fn dlqr(problem: &LqrProblem) -> Result<LqrSolution> {
    let mut p = problem.q.clone();
    let max_iter = 10_000;
    for it in 0..max_iter {
        let (k, p_new) = riccati_step(problem, &p)?;
        let delta = p_new.sub(&p)?.max_abs();
        let scale = p_new.max_abs().max(1.0);
        p = p_new;
        if delta < 1e-10 * scale {
            return Ok(LqrSolution {
                feedback: k,
                cost_to_go: p,
                iterations: it + 1,
            });
        }
    }
    Err(MathError::NoConvergence {
        iterations: max_iter,
    })
}

/// Build the real block-diagonal dynamics matrix for a set of complex
/// eigenvalues (spectral Koopman parameterization).
///
/// Each eigenvalue with `im == 0` becomes a 1×1 block `[re]`; each with
/// `im != 0` becomes the 2×2 block `[[re, -im], [im, re]]` (pass only one
/// member of a conjugate pair). The resulting matrix has exactly the given
/// eigenvalues (plus conjugates).
///
/// ```
/// use sensact_math::{Complex64, lqr::spectral_dynamics};
/// let a = spectral_dynamics(&[Complex64::new(0.9, 0.1), Complex64::new(0.5, 0.0)]);
/// assert_eq!(a.shape(), (3, 3));
/// ```
pub fn spectral_dynamics(eigs: &[Complex64]) -> Matrix {
    let dim: usize = eigs.iter().map(|e| if e.im == 0.0 { 1 } else { 2 }).sum();
    let mut a = Matrix::zeros(dim, dim);
    let mut idx = 0;
    for e in eigs {
        if e.im == 0.0 {
            a[(idx, idx)] = e.re;
            idx += 1;
        } else {
            a[(idx, idx)] = e.re;
            a[(idx, idx + 1)] = -e.im;
            a[(idx + 1, idx)] = e.im;
            a[(idx + 1, idx + 1)] = e.re;
            idx += 2;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::eigenvalues;

    fn double_integrator(dt: f64) -> LqrProblem {
        LqrProblem::new(
            Matrix::from_rows(&[&[1.0, dt], &[0.0, 1.0]]),
            Matrix::from_rows(&[&[0.0], &[dt]]),
            Matrix::identity(2),
            Matrix::identity(1),
        )
    }

    #[test]
    fn dlqr_stabilizes_double_integrator() {
        let p = double_integrator(0.1);
        let sol = dlqr(&p).unwrap();
        // Closed loop A - BK must be Schur-stable.
        let acl = p.a.sub(&p.b.matmul(&sol.feedback).unwrap()).unwrap();
        assert!(eigenvalues(&acl).unwrap().iter().all(|e| e.abs() < 1.0));
    }

    #[test]
    fn dlqr_drives_state_to_zero() {
        let p = double_integrator(0.1);
        let sol = dlqr(&p).unwrap();
        let mut x = vec![1.0, 0.0];
        let predicted = crate::vector::dot(&x, &sol.cost_to_go.matvec(&x).unwrap());
        let mut cost = 0.0;
        for _ in 0..400 {
            let u: Vec<f64> = sol
                .feedback
                .matvec(&x)
                .unwrap()
                .iter()
                .map(|v| -v)
                .collect();
            cost += crate::vector::dot(&x, &p.q.matvec(&x).unwrap())
                + crate::vector::dot(&u, &p.r.matvec(&u).unwrap());
            let ax = p.a.matvec(&x).unwrap();
            let bu = p.b.matvec(&u).unwrap();
            x = ax.iter().zip(&bu).map(|(a, b)| a + b).collect();
        }
        assert!(
            crate::vector::norm(&x) < 1e-3,
            "state norm {}",
            crate::vector::norm(&x)
        );
        // The rolled-out quadratic cost is the Riccati cost-to-go x0ᵀ P x0.
        assert!(
            (cost - predicted).abs() < 1e-3 * predicted,
            "rolled out {cost} vs predicted {predicted}"
        );
    }

    #[test]
    fn finite_horizon_gains_converge_to_infinite() {
        let p = double_integrator(0.1);
        let inf = dlqr(&p).unwrap();
        let fin = dlqr_finite(&p, 300).unwrap();
        // The first gain of a long horizon matches the stationary gain.
        let diff = fin[0].feedback.sub(&inf.feedback).unwrap().max_abs();
        assert!(diff < 1e-6, "gain diff {diff}");
    }

    #[test]
    fn finite_horizon_len_and_zero_horizon() {
        let p = double_integrator(0.1);
        assert_eq!(dlqr_finite(&p, 5).unwrap().len(), 5);
        assert!(matches!(
            dlqr_finite(&p, 0),
            Err(MathError::InvalidArgument(_))
        ));
    }

    #[test]
    fn scalar_lqr_known_solution() {
        // x⁺ = x + u, Q = R = 1: algebraic Riccati p = 1 + p - p²/(1+p)
        // → p = (1+√5)/2 + ... known scalar solution p satisfies p = q + a²p - a²p²b²/(r+b²p)
        let p = LqrProblem::new(
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::identity(1),
            Matrix::identity(1),
        );
        let sol = dlqr(&p).unwrap();
        let pv = sol.cost_to_go[(0, 0)];
        // Fixed-point residual of the scalar DARE.
        let resid = (1.0 + pv - pv * pv / (1.0 + pv) - pv).abs();
        assert!(resid < 1e-8, "DARE residual {resid}");
        // Known: p = (1 + sqrt(5)) / 2 ≈ 1.618 (golden ratio).
        assert!((pv - 1.618_033_988_7).abs() < 1e-6);
    }

    #[test]
    fn spectral_dynamics_block_structure() {
        let a = spectral_dynamics(&[Complex64::new(0.9, 0.2), Complex64::new(0.7, 0.0)]);
        assert_eq!(a.shape(), (3, 3));
        let ev = crate::eigen::eigenvalues(&a).unwrap();
        // Spectrum: 0.9 ± 0.2j and 0.7.
        let max_mod = (0.9f64 * 0.9 + 0.2 * 0.2).sqrt();
        assert!((ev[0].abs() - max_mod).abs() < 1e-9);
        assert!((ev[2].abs() - 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "B must have as many rows as A")]
    fn problem_shape_validation() {
        let _ = LqrProblem::new(
            Matrix::identity(2),
            Matrix::zeros(3, 1),
            Matrix::identity(2),
            Matrix::identity(1),
        );
    }
}
