//! Likelihood regret via gradient-free encoder adaptation.
//!
//! Likelihood regret (Xiao et al., NeurIPS'20) scores how much a VAE's
//! posterior must be *adapted to one specific input* to explain it well:
//! `LR(x) = ELBO_adapted(x) − ELBO(x)`. In-distribution inputs are already
//! well explained (small regret); anomalous inputs need a large adjustment.
//!
//! STARNet's twist is computing the adaptation **gradient-free** with SPSA,
//! optionally restricted to a random low-rank subspace of the encoder
//! parameters — the LoRA-style trick that makes per-sample adaptation cheap
//! enough for edge devices.

use crate::spsa::{spsa_minimize, SpsaConfig};
use sensact_math::kernels;
use sensact_math::rng::StdRng;
use sensact_nn::vae::Vae;
use sensact_nn::Tensor;

/// Configuration of the regret computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegretConfig {
    /// SPSA schedule for the per-sample adaptation.
    pub spsa: SpsaConfig,
    /// Optional low-rank subspace dimension; `None` adapts the full encoder
    /// parameter vector.
    pub low_rank: Option<usize>,
    /// ELBO samples averaged per evaluation; `0` uses the deterministic
    /// (`z = μ`) ELBO, which is the recommended noise-free setting.
    pub elbo_samples: usize,
}

impl Default for RegretConfig {
    fn default() -> Self {
        RegretConfig {
            spsa: SpsaConfig::default(),
            low_rank: Some(16),
            elbo_samples: 0,
        }
    }
}

fn mean_elbo(vae: &mut Vae, x: &[f64], samples: usize) -> f64 {
    // `samples == 0` selects the deterministic (z = μ) ELBO — noise-free,
    // which makes the regret difference far better conditioned.
    if samples == 0 {
        return vae.elbo_deterministic(x);
    }
    let x_t = Tensor::from_vec(vec![1, x.len()], x.to_vec());
    let mut total = 0.0;
    for _ in 0..samples {
        total += vae.elbo(&x_t)[0];
    }
    total / samples as f64
}

/// Compute the likelihood regret of one feature vector under a trained VAE.
///
/// The VAE's encoder parameters are temporarily adapted (SPSA, optionally in
/// a low-rank subspace) to maximize the sample's ELBO, then restored. Returns
/// `max(0, ELBO_adapted − ELBO)`.
///
/// # Panics
///
/// Panics if `x.len()` differs from the VAE input dimension.
pub fn likelihood_regret(vae: &mut Vae, x: &[f64], config: &RegretConfig, seed: u64) -> f64 {
    regret_and_baseline(vae, x, config, seed).0
}

/// [`likelihood_regret`] together with the baseline ELBO it was measured
/// against: the ELBO at the trained parameters, which are restored by copy
/// afterwards, so the baseline is also the ELBO the VAE gives now.
///
/// Per score this costs `2·iterations + 2` ELBO evaluations (the baseline,
/// two per SPSA iteration, one at the final point). In the low-rank walk each
/// evaluation first forms `θ = θ₀ + U v` with [`kernels::sign_fold`].
pub(crate) fn regret_and_baseline(
    vae: &mut Vae,
    x: &[f64],
    config: &RegretConfig,
    seed: u64,
) -> (f64, f64) {
    assert_eq!(x.len(), vae.input_dim(), "feature dimension mismatch");
    let baseline = mean_elbo(vae, x, config.elbo_samples);
    let theta0 = vae.encoder_params_flat();

    let adapted_elbo = match config.low_rank {
        None => {
            // Full-parameter SPSA.
            let result = spsa_minimize(
                |theta| {
                    vae.set_encoder_params_flat(theta);
                    -mean_elbo(vae, x, config.elbo_samples)
                },
                &theta0,
                &config.spsa,
                seed,
            );
            -result.value
        }
        Some(rank) => {
            // Low-rank subspace: θ = θ₀ + U v with a fixed random ±scale
            // basis U, held as one sign bit per (direction, parameter).
            let p = theta0.len();
            let signs = sign_basis(rank, p, seed);
            let scale = 1.0 / (p as f64).sqrt();
            let mut steps = vec![0.0; rank];
            let mut theta = vec![0.0; p];
            let result = spsa_minimize(
                |v| {
                    for (s, vi) in steps.iter_mut().zip(v) {
                        *s = vi * scale;
                    }
                    kernels::sign_fold(&theta0, &steps, &signs, &mut theta);
                    vae.set_encoder_params_flat(&theta);
                    -mean_elbo(vae, x, config.elbo_samples)
                },
                &vec![0.0; rank],
                &config.spsa,
                seed,
            );
            -result.value
        }
    };

    // Restore the trained parameters.
    vae.set_encoder_params_flat(&theta0);
    ((adapted_elbo - baseline).max(0.0), baseline)
}

/// The `rank × p` basis of ±`1/√p` directions as the sign planes
/// [`kernels::sign_fold`] reads: bit `63 − i % 64` of word `(i / 64)·p + j`
/// is set where direction `i` is negative at parameter `j`. One `next_u64`
/// per entry from `seed ^ 0x10BA`, in row-major (direction, parameter)
/// order; an entry is negative where its draw's top bit is clear — exactly
/// where `gen_f64() < 0.5`, since `gen_f64 = (x >> 11)·2⁻⁵³` — so the
/// complemented draw's top bit, shifted down by `i % 64`, is the entry.
fn sign_basis(rank: usize, p: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10BA);
    let mut signs = vec![0u64; rank.div_ceil(64) * p];
    for i in 0..rank {
        for w in &mut signs[(i / 64) * p..][..p] {
            *w |= (!rng.next_u64() & 1 << 63) >> (i % 64);
        }
    }
    signs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_nn::optim::Adam;
    use sensact_nn::Initializer;

    /// Train a small VAE on a 1-D manifold in 6-D.
    fn trained_vae(seed: u64) -> (Vae, Initializer) {
        let mut vae = Vae::new(6, 16, 2, seed);
        let mut rng = Initializer::new(seed ^ 7);
        let mut rows = Vec::new();
        for _ in 0..96 {
            let t = rng.uniform(-1.0, 1.0);
            rows.push(
                (0..6)
                    .map(|d| t * (d as f64 + 1.0) / 6.0 + rng.normal(0.0, 0.02))
                    .collect::<Vec<f64>>(),
            );
        }
        let x = Tensor::stack_rows(&rows);
        let mut opt = Adam::new(0.01);
        for _ in 0..250 {
            let _ = vae.train_step(&x, &mut opt, 0.1);
        }
        (vae, rng)
    }

    #[test]
    fn regret_restores_parameters() {
        let (mut vae, _) = trained_vae(0);
        let before = vae.encoder_params_flat();
        let _ = likelihood_regret(&mut vae, &[0.1; 6], &RegretConfig::default(), 1);
        assert_eq!(vae.encoder_params_flat(), before);
    }

    #[test]
    fn regret_is_nonnegative() {
        let (mut vae, _) = trained_vae(1);
        let r = likelihood_regret(&mut vae, &[0.0; 6], &RegretConfig::default(), 2);
        assert!(r >= 0.0);
    }

    #[test]
    fn ood_has_higher_regret_than_in_distribution() {
        let (mut vae, mut rng) = trained_vae(2);
        let config = RegretConfig::default();
        // In-distribution samples.
        let mut in_scores = Vec::new();
        for i in 0..6 {
            let t = -0.8 + 0.3 * i as f64;
            let x: Vec<f64> = (0..6).map(|d| t * (d as f64 + 1.0) / 6.0).collect();
            in_scores.push(likelihood_regret(&mut vae, &x, &config, 10 + i as u64));
        }
        // Off-manifold samples.
        let mut ood_scores = Vec::new();
        for i in 0..6 {
            let x: Vec<f64> = (0..6).map(|_| rng.normal(0.0, 1.5)).collect();
            ood_scores.push(likelihood_regret(&mut vae, &x, &config, 20 + i as u64));
        }
        let mean_in: f64 = in_scores.iter().sum::<f64>() / in_scores.len() as f64;
        let mean_ood: f64 = ood_scores.iter().sum::<f64>() / ood_scores.len() as f64;
        assert!(
            mean_ood > mean_in,
            "ood {mean_ood} vs in-dist {mean_in} ({ood_scores:?} vs {in_scores:?})"
        );
    }

    #[test]
    fn low_rank_cheaper_than_full_but_same_order() {
        let (mut vae, _) = trained_vae(3);
        let x = [0.5; 6];
        let full = RegretConfig {
            low_rank: None,
            ..RegretConfig::default()
        };
        let lr = RegretConfig::default();
        let r_full = likelihood_regret(&mut vae, &x, &full, 5);
        let r_low = likelihood_regret(&mut vae, &x, &lr, 5);
        // Both should be finite, nonnegative, same order of magnitude.
        assert!(r_full.is_finite() && r_low.is_finite());
        assert!(r_low >= 0.0 && r_full >= 0.0);
    }

    /// The walk as it was before the sign planes, kept as the oracle: a
    /// `rank × p` basis of ±scale rows drawn with `gen_f64() < 0.5`, and a
    /// fresh `θ = θ₀ + Σᵢ vᵢ·Uᵢ` accumulated row by row per evaluation.
    fn oracle_regret(vae: &mut Vae, x: &[f64], config: &RegretConfig, seed: u64) -> f64 {
        let baseline = mean_elbo(vae, x, config.elbo_samples);
        let theta0 = vae.encoder_params_flat();
        let adapted_elbo = match config.low_rank {
            None => {
                let result = spsa_minimize(
                    |theta| {
                        vae.set_encoder_params_flat(theta);
                        -mean_elbo(vae, x, config.elbo_samples)
                    },
                    &theta0,
                    &config.spsa,
                    seed,
                );
                -result.value
            }
            Some(rank) => {
                let p = theta0.len();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x10BA);
                let scale = 1.0 / (p as f64).sqrt();
                let basis: Vec<Vec<f64>> = (0..rank)
                    .map(|_| {
                        (0..p)
                            .map(|_| {
                                if rng.random::<f64>() < 0.5 {
                                    -scale
                                } else {
                                    scale
                                }
                            })
                            .collect()
                    })
                    .collect();
                let result = spsa_minimize(
                    |v| {
                        let mut theta = theta0.clone();
                        for (vi, u) in v.iter().zip(&basis) {
                            for (t, ui) in theta.iter_mut().zip(u) {
                                *t += vi * ui;
                            }
                        }
                        vae.set_encoder_params_flat(&theta);
                        -mean_elbo(vae, x, config.elbo_samples)
                    },
                    &vec![0.0; rank],
                    &config.spsa,
                    seed,
                );
                -result.value
            }
        };
        vae.set_encoder_params_flat(&theta0);
        (adapted_elbo - baseline).max(0.0)
    }

    /// The sign-plane walk is `to_bits`-equal to the basis oracle: ranks on
    /// both sides of one sign plane, three seeds, an on-manifold and a zero
    /// feature vector, plus full-parameter SPSA and the sampled ELBO (which
    /// also checks both walks draw the VAE's noise stream alike).
    #[test]
    fn sign_plane_walk_matches_the_basis_oracle() {
        let xs = [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0.0; 6]];
        let mut cases = vec![];
        for rank in [1, 12, 16, 64, 65] {
            for seed in [3u64, 40, 0x5EED] {
                cases.push((Some(rank), 0, seed));
            }
        }
        cases.push((None, 0, 9));
        cases.push((Some(16), 2, 9));
        cases.push((None, 2, 9));
        for (low_rank, elbo_samples, seed) in cases {
            let config = RegretConfig {
                low_rank,
                elbo_samples,
                ..RegretConfig::default()
            };
            for x in &xs {
                // The sampled ELBO advances the VAE's noise stream: each side
                // gets its own identically trained VAE.
                let (mut twin, _) = trained_vae(5);
                let (mut vae, _) = trained_vae(5);
                let want = oracle_regret(&mut twin, x, &config, seed);
                let got = likelihood_regret(&mut vae, x, &config, seed);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{low_rank:?} samples={elbo_samples} seed={seed} x={x:?}: {got} vs {want}"
                );
            }
        }
    }

    /// The sign planes are the oracle's ±scale basis, bit for bit, across a
    /// plane boundary.
    #[test]
    fn sign_basis_is_the_drawn_basis() {
        let (rank, p) = (65, 37);
        let signs = sign_basis(rank, p, 11);
        let mut rng = StdRng::seed_from_u64(11 ^ 0x10BA);
        for i in 0..rank {
            for j in 0..p {
                let negative = rng.random::<f64>() < 0.5;
                assert_eq!(
                    signs[(i / 64) * p + j] << (i % 64) >> 63 == 1,
                    negative,
                    "({i}, {j})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let (mut vae, _) = trained_vae(4);
        let _ = likelihood_regret(&mut vae, &[0.0; 3], &RegretConfig::default(), 0);
    }
}
