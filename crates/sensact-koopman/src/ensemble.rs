//! Uncertainty-aware Koopman control (paper §IV, future work).
//!
//! "Incorporating uncertainty quantification within Koopman representations
//! to adjust sensing actions based on confidence estimates can help reduce
//! cascading errors in uncertain environments."
//!
//! The mechanism here is a deep ensemble: `K` independently-initialized
//! spectral Koopman models trained on the same data. Their latent
//! predictions agree where the data constrained them (the operating region)
//! and diverge where it did not — the disagreement is an epistemic
//! uncertainty estimate that costs `K` cheap spectral steps. A confidence
//! gate then scales control authority down (and flags the loop's monitor)
//! when the current state leaves the trusted region.

use crate::baselines::LatentModel;
use crate::encoder::SpectralKoopman;
use crate::train::Dataset;
use sensact_core::stage::Trust;

/// An ensemble of spectral Koopman models with disagreement-based
/// uncertainty.
pub struct KoopmanEnsemble {
    members: Vec<SpectralKoopman>,
}

impl KoopmanEnsemble {
    /// Build `k` members with distinct seeds.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (disagreement needs at least two opinions).
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "an ensemble needs at least 2 members");
        KoopmanEnsemble {
            members: (0..k)
                .map(|i| SpectralKoopman::new(seed.wrapping_add(1000 * i as u64 + 17)))
                .collect(),
        }
    }

    /// Train every member on the same dataset (they differ by init).
    pub fn train(&mut self, data: &Dataset, epochs: usize) {
        for (i, m) in self.members.iter_mut().enumerate() {
            for e in 0..epochs {
                m.train_epoch(data, e as u64 ^ (i as u64) << 8);
            }
        }
    }

    /// Borrow the first member (the "deployment" model).
    pub fn primary(&mut self) -> &mut SpectralKoopman {
        &mut self.members[0]
    }

    /// Mean one-step latent prediction and the ensemble disagreement
    /// (mean pairwise squared distance between member predictions, each in
    /// its own latent chart — members share the observation, not the chart,
    /// so predictions are compared through each member's state read-out).
    pub fn predict_with_uncertainty(&mut self, obs: &[f64], action: f64) -> ([f64; 4], f64) {
        let mut states: Vec<[f64; 4]> = Vec::with_capacity(self.members.len());
        for m in self.members.iter_mut() {
            let z = m.encode(obs);
            let zp = m.predict(&z, action);
            states.push(m.read_state(&zp));
        }
        let k = states.len() as f64;
        let mut mean = [0.0; 4];
        for s in &states {
            for (m, v) in mean.iter_mut().zip(s) {
                *m += v / k;
            }
        }
        let mut disagreement = 0.0;
        for s in &states {
            disagreement += s
                .iter()
                .zip(&mean)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        (mean, disagreement / k)
    }

    /// Confidence gate: map a disagreement value to a trust verdict given a
    /// calibration threshold (e.g. the 95th percentile of in-distribution
    /// disagreement).
    pub fn gate(disagreement: f64, threshold: f64) -> Trust {
        if disagreement <= threshold {
            Trust::Trusted
        } else if disagreement <= 4.0 * threshold {
            Trust::Suspect(((disagreement / threshold - 1.0) / 3.0).clamp(0.05, 1.0))
        } else {
            Trust::Untrusted
        }
    }

    /// Calibrate the gate threshold as the given quantile of disagreement
    /// over a dataset's observations.
    pub fn calibrate(&mut self, data: &Dataset, quantile: f64) -> f64 {
        let scores: Vec<f64> = data
            .transitions()
            .iter()
            .take(200)
            .map(|t| self.predict_with_uncertainty(&t.obs, t.action).1)
            .collect();
        sensact_math::stats::quantile(&scores, quantile).unwrap_or(f64::INFINITY)
    }
}

impl std::fmt::Debug for KoopmanEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KoopmanEnsemble")
            .field("members", &self.members.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cartpole::{observe_state, CartPoleConfig};
    use crate::train::collect_dataset;

    fn trained_ensemble() -> (KoopmanEnsemble, Dataset) {
        let data = collect_dataset(800, 60);
        let mut ensemble = KoopmanEnsemble::new(3, 7);
        ensemble.train(&data, 6);
        (ensemble, data)
    }

    #[test]
    fn out_of_distribution_raises_disagreement() {
        let (mut ensemble, data) = trained_ensemble();
        let threshold = ensemble.calibrate(&data, 0.95);
        assert!(threshold.is_finite() && threshold > 0.0);

        // In-distribution: near-upright states.
        let config = CartPoleConfig::default();
        let in_dist = observe_state(&[0.02, 0.0, 0.01, 0.0], &config);
        let (_, u_in) = ensemble.predict_with_uncertainty(&in_dist, 0.5);

        // Far out of distribution: pole fully horizontal, cart at the rail.
        let ood = observe_state(&[2.3, 3.0, 1.4, 5.0], &config);
        let (_, u_ood) = ensemble.predict_with_uncertainty(&ood, 0.5);

        assert!(
            u_ood > u_in * 3.0,
            "OOD disagreement {u_ood} not well above in-dist {u_in}"
        );
    }

    #[test]
    fn gate_maps_disagreement_to_trust() {
        assert_eq!(KoopmanEnsemble::gate(0.5, 1.0), Trust::Trusted);
        assert!(matches!(KoopmanEnsemble::gate(2.0, 1.0), Trust::Suspect(_)));
        assert_eq!(KoopmanEnsemble::gate(10.0, 1.0), Trust::Untrusted);
    }

    #[test]
    fn mean_prediction_reasonable_in_distribution() {
        let (mut ensemble, data) = trained_ensemble();
        // The ensemble-mean predicted state should be close to the true next
        // state for training-like transitions.
        let mut err = 0.0;
        for t in data.transitions().iter().take(50) {
            let (pred, _) = ensemble.predict_with_uncertainty(&t.obs, t.action);
            err += pred
                .iter()
                .zip(&t.next_state)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        err /= 50.0;
        assert!(err < 0.1, "ensemble mean prediction error {err}");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn singleton_ensemble_panics() {
        let _ = KoopmanEnsemble::new(1, 0);
    }
}
