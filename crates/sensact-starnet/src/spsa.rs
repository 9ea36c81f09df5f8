//! Simultaneous Perturbation Stochastic Approximation.
//!
//! STARNet needs per-sample adaptation of the VAE encoder to compute
//! likelihood regret, but a full gradient pass is too expensive for low-power
//! edge devices. SPSA estimates the gradient from exactly **two** function
//! evaluations per iteration regardless of dimension: perturb all parameters
//! simultaneously along a random ±1 (Rademacher) direction.

use sensact_math::rng::StdRng;

/// Step-size stability constant `A`.
const BIG_A: f64 = 5.0;
/// Step-size decay exponent `α` (Spall's recommendation).
const ALPHA: f64 = 0.602;
/// Perturbation numerator `c`.
const C: f64 = 0.01;
/// Perturbation decay exponent `γ` (Spall's recommendation).
const GAMMA: f64 = 0.101;

/// SPSA gain schedule and iteration budget (Spall's standard form:
/// `aₖ = a / (k + 1 + A)^α`, `cₖ = c / (k + 1)^γ`, with `A = 5`,
/// `α = 0.602`, `c = 0.01` and `γ = 0.101`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpsaConfig {
    /// Step-size numerator `a`.
    pub a: f64,
    /// Number of iterations.
    pub iterations: usize,
}

impl Default for SpsaConfig {
    fn default() -> Self {
        SpsaConfig {
            a: 0.02,
            iterations: 30,
        }
    }
}

/// Result of an SPSA run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpsaResult {
    /// The optimized parameter vector.
    pub theta: Vec<f64>,
    /// Objective value at `theta` (one final evaluation).
    pub value: f64,
    /// Function evaluations spent (2 per iteration + 1 final).
    pub evaluations: usize,
}

/// Minimize `f` starting at `theta0` with SPSA.
///
/// # Panics
///
/// Panics if `theta0` is empty or `config.iterations == 0`.
pub(crate) fn spsa_minimize(
    mut f: impl FnMut(&[f64]) -> f64,
    theta0: &[f64],
    config: &SpsaConfig,
    seed: u64,
) -> SpsaResult {
    assert!(!theta0.is_empty(), "spsa: empty parameter vector");
    assert!(config.iterations > 0, "spsa: zero iterations");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut theta = theta0.to_vec();
    let mut evaluations = 0usize;
    let mut best = theta.clone();
    let mut best_val = f64::INFINITY;
    // One buffer each for the direction and the two probes, refilled every
    // iteration: a score allocates nothing per iteration.
    let mut delta = vec![0.0; theta.len()];
    let mut plus = vec![0.0; theta.len()];
    let mut minus = vec![0.0; theta.len()];

    for k in 0..config.iterations {
        let ak = config.a / ((k as f64 + 1.0 + BIG_A).powf(ALPHA));
        let ck = C / ((k as f64 + 1.0).powf(GAMMA));
        // Rademacher perturbation.
        for d in &mut delta {
            *d = if rng.random::<f64>() < 0.5 { -1.0 } else { 1.0 };
        }
        for (((p, m), t), d) in plus.iter_mut().zip(&mut minus).zip(&theta).zip(&delta) {
            *p = t + ck * d;
            *m = t - ck * d;
        }
        let f_plus = f(&plus);
        let f_minus = f(&minus);
        evaluations += 2;
        let diff = (f_plus - f_minus) / (2.0 * ck);
        for (t, d) in theta.iter_mut().zip(&delta) {
            // ĝᵢ = diff / δᵢ = diff · δᵢ (δᵢ = ±1).
            *t -= ak * diff * d;
        }
        // Track the best perturbation seen (cheap safeguarding).
        if f_plus < best_val {
            best_val = f_plus;
            best.copy_from_slice(&plus);
        }
        if f_minus < best_val {
            best_val = f_minus;
            best.copy_from_slice(&minus);
        }
    }
    let final_val = f(&theta);
    evaluations += 1;
    if final_val <= best_val {
        SpsaResult {
            theta,
            value: final_val,
            evaluations,
        }
    } else {
        SpsaResult {
            theta: best,
            value: best_val,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let f = |x: &[f64]| x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum::<f64>();
        let config = SpsaConfig {
            a: 0.3,
            iterations: 200,
        };
        let result = spsa_minimize(f, &[0.0, 0.0, 0.0], &config, 0);
        assert!(result.value < 0.05, "final value {}", result.value);
        for t in &result.theta {
            assert!((t - 1.0).abs() < 0.25, "theta {t}");
        }
    }

    #[test]
    fn two_evaluations_per_iteration() {
        let mut count = 0usize;
        let config = SpsaConfig {
            iterations: 10,
            ..SpsaConfig::default()
        };
        let _ = spsa_minimize(
            |x| {
                count += 1;
                x[0] * x[0]
            },
            &[1.0],
            &config,
            0,
        );
        assert_eq!(count, 21); // 2 per iteration + 1 final
    }

    #[test]
    fn deterministic_given_seed() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let cfg = SpsaConfig::default();
        let a = spsa_minimize(f, &[2.0, -1.0], &cfg, 9);
        let b = spsa_minimize(f, &[2.0, -1.0], &cfg, 9);
        assert_eq!(a.theta, b.theta);
        let c = spsa_minimize(f, &[2.0, -1.0], &cfg, 10);
        assert_ne!(a.theta, c.theta);
    }

    #[test]
    fn never_returns_worse_than_best_seen() {
        // Even on a nasty non-convex function, the safeguarding keeps the
        // reported value at the best evaluation.
        let f = |x: &[f64]| (x[0] * 10.0).sin() + 0.01 * x[0] * x[0];
        let result = spsa_minimize(f, &[3.0], &SpsaConfig::default(), 1);
        assert!(result.value <= f(&[3.0]) + 1e-12);
    }

    #[test]
    fn dimension_independent_cost() {
        // The whole point of SPSA: same evaluation count in 1-D and 100-D.
        let mut n1 = 0;
        let mut n100 = 0;
        let cfg = SpsaConfig {
            iterations: 5,
            ..SpsaConfig::default()
        };
        let _ = spsa_minimize(
            |x| {
                n1 += 1;
                x[0] * x[0]
            },
            &[1.0],
            &cfg,
            0,
        );
        let _ = spsa_minimize(
            |x| {
                n100 += 1;
                x.iter().map(|v| v * v).sum()
            },
            &vec![1.0; 100],
            &cfg,
            0,
        );
        assert_eq!(n1, n100);
    }

    #[test]
    #[should_panic(expected = "empty parameter")]
    fn empty_theta_panics() {
        let _ = spsa_minimize(|_| 0.0, &[], &SpsaConfig::default(), 0);
    }
}
