//! The STARNet monitor: VAE + likelihood regret + trust thresholding.
//!
//! Scoring note: the paper scores streams by likelihood regret alone,
//! computed with a converged per-sample optimization. Our SPSA adaptation is
//! deliberately budgeted (edge constraint), so it realizes only part of the
//! achievable regret; the monitor therefore scores with
//! `LR + (−ELBO)` — the regret actually realized plus the residual misfit —
//! which converges to pure LR as the adaptation budget grows.

use crate::features::{extract_features, FEATURE_DIM};
use crate::regret::{likelihood_regret, RegretConfig};
use sensact_core::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use sensact_core::stage::{Monitor, StageContext, Trust};
use sensact_lidar::PointCloud;
use sensact_math::stats;
use sensact_nn::optim::Adam;
use sensact_nn::vae::Vae;
use sensact_nn::Tensor;

/// STARNet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarnetConfig {
    /// VAE hidden width.
    pub hidden_dim: usize,
    /// VAE latent dimension.
    pub latent_dim: usize,
    /// Training epochs over the clean feature set.
    pub train_epochs: usize,
    /// KL weight β.
    pub beta: f64,
    /// Likelihood-regret computation parameters.
    pub regret: RegretConfig,
    /// Calibration quantile for the suspect threshold (e.g. 0.95).
    pub suspect_quantile: f64,
    /// Multiplier over the suspect threshold for the untrusted verdict.
    pub untrusted_factor: f64,
}

impl Default for StarnetConfig {
    fn default() -> Self {
        StarnetConfig {
            hidden_dim: 32,
            latent_dim: 4,
            train_epochs: 300,
            beta: 0.1,
            regret: RegretConfig::default(),
            suspect_quantile: 0.95,
            untrusted_factor: 3.0,
        }
    }
}

/// The trained monitor.
pub struct Starnet {
    vae: Vae,
    config: StarnetConfig,
    suspect_threshold: f64,
    untrusted_threshold: f64,
    score_seed: u64,
    calls: u64,
}

impl Starnet {
    /// Train the monitor on clean feature vectors and calibrate thresholds
    /// on a held-out prefix of the same set.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 clean samples are provided or dimensions are
    /// inconsistent.
    pub fn train(clean_features: &[Vec<f64>], config: StarnetConfig, seed: u64) -> Self {
        assert!(
            clean_features.len() >= 8,
            "need at least 8 clean samples, got {}",
            clean_features.len()
        );
        let dim = clean_features[0].len();
        let mut vae = Vae::new(dim, config.hidden_dim, config.latent_dim, seed);
        let x = Tensor::stack_rows(clean_features);
        let mut opt = Adam::new(0.005);
        for _ in 0..config.train_epochs {
            let _ = vae.train_step(&x, &mut opt, config.beta);
        }
        let mut monitor = Starnet {
            vae,
            config,
            suspect_threshold: f64::INFINITY,
            untrusted_threshold: f64::INFINITY,
            score_seed: seed ^ 0x5AC0,
            calls: 0,
        };
        // Calibrate on the clean set.
        let scores: Vec<f64> = clean_features.iter().map(|f| monitor.score(f)).collect();
        let q = stats::quantile(&scores, config.suspect_quantile)
            .expect("non-empty calibration scores");
        let median = stats::median(&scores).expect("non-empty calibration scores");
        let span = (q - median).max(1e-6);
        monitor.suspect_threshold = q;
        monitor.untrusted_threshold = q + config.untrusted_factor * span;
        monitor
    }

    /// Anomaly score of a feature vector (higher = more anomalous):
    /// realized likelihood regret plus the residual negative ELBO.
    pub fn score(&mut self, features: &[f64]) -> f64 {
        self.calls += 1;
        let seed = self.score_seed.wrapping_add(self.calls);
        let lr = likelihood_regret(&mut self.vae, features, &self.config.regret, seed);
        let x = Tensor::from_vec(vec![1, features.len()], features.to_vec());
        let neg_elbo = -self.vae.elbo_deterministic(&x)[0];
        lr + neg_elbo
    }

    /// Score a raw point cloud (extracts the standard descriptor first).
    pub fn score_cloud(&mut self, cloud: &PointCloud) -> f64 {
        self.score(&extract_features(cloud))
    }

    /// Trust verdict for a feature vector. Non-finite features (NaN
    /// poisoning, overflow) are immediately [`Trust::Untrusted`] without
    /// scoring: a NaN would silently propagate through the VAE and produce a
    /// NaN score, which no threshold comparison can catch.
    pub fn assess_features(&mut self, features: &[f64]) -> Trust {
        if !features.iter().all(|x| x.is_finite()) {
            return Trust::Untrusted;
        }
        let s = self.score(features);
        if s <= self.suspect_threshold {
            Trust::Trusted
        } else if s <= self.untrusted_threshold {
            let span = (self.untrusted_threshold - self.suspect_threshold).max(1e-12);
            Trust::Suspect(((s - self.suspect_threshold) / span).clamp(0.05, 1.0))
        } else {
            Trust::Untrusted
        }
    }

    /// Calibrated suspect threshold.
    pub fn suspect_threshold(&self) -> f64 {
        self.suspect_threshold
    }
}

impl StageState for Starnet {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        // `calls` seeds each score's SPSA stream (`score_seed + calls`); the
        // VAE itself is restored in place by `likelihood_regret` after every
        // score, so the call counter is the only per-tick drift. Thresholds
        // and the seed travel too so a restore works onto a monitor trained
        // on different data.
        s.put_u64("calls", self.calls);
        s.put_u64("score_seed", self.score_seed);
        s.put_f64("suspect_threshold", self.suspect_threshold);
        s.put_f64("untrusted_threshold", self.untrusted_threshold);
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        self.calls = s.get_u64("calls")?;
        self.score_seed = s.get_u64("score_seed")?;
        self.suspect_threshold = s.get_f64("suspect_threshold")?;
        self.untrusted_threshold = s.get_f64("untrusted_threshold")?;
        Ok(())
    }
}

impl std::fmt::Debug for Starnet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Starnet")
            .field("suspect_threshold", &self.suspect_threshold)
            .field("untrusted_threshold", &self.untrusted_threshold)
            .finish()
    }
}

impl Monitor<Vec<f64>> for Starnet {
    fn assess(&mut self, features: &Vec<f64>, ctx: &mut StageContext) -> Trust {
        // Cost model: SPSA evaluations × VAE forward cost (~2 µJ each on an
        // edge NPU at this scale) and sub-millisecond latency.
        let evals = (self.config.regret.spsa.iterations * 2 + 1) as f64;
        ctx.charge(evals * 2e-6, evals * 2e-5);
        self.assess_features(features)
    }
}

/// Convenience: monitor over `FEATURE_DIM`-sized descriptors extracted from
/// clean clouds.
pub fn train_on_clouds(clouds: &[PointCloud], config: StarnetConfig, seed: u64) -> Starnet {
    let features: Vec<Vec<f64>> = clouds.iter().map(extract_features).collect();
    assert!(features.iter().all(|f| f.len() == FEATURE_DIM));
    Starnet::train(&features, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_lidar::corrupt::{Corruption, CorruptionKind};
    use sensact_lidar::raycast::{Lidar, LidarConfig};
    use sensact_lidar::scene::SceneGenerator;
    use sensact_math::metrics::roc_auc;

    fn clouds(n: usize, seed: u64) -> Vec<PointCloud> {
        let lidar = Lidar::new(LidarConfig::default());
        SceneGenerator::new(seed)
            .generate_many(n)
            .iter()
            .map(|s| lidar.scan(s))
            .collect()
    }

    fn fast_config() -> StarnetConfig {
        StarnetConfig {
            train_epochs: 300,
            regret: RegretConfig {
                spsa: crate::spsa::SpsaConfig {
                    iterations: 15,
                    ..crate::spsa::SpsaConfig::default()
                },
                low_rank: Some(12),
                elbo_samples: 0,
            },
            ..StarnetConfig::default()
        }
    }

    #[test]
    fn clean_data_mostly_trusted() {
        let train = clouds(12, 1);
        let mut monitor = train_on_clouds(&train, fast_config(), 0);
        let test = clouds(6, 99);
        let trusted = test
            .iter()
            .filter(|c| {
                matches!(
                    monitor.assess_features(&extract_features(c)),
                    Trust::Trusted | Trust::Suspect(_)
                )
            })
            .count();
        assert!(trusted >= 5, "only {trusted}/6 clean clouds trusted");
    }

    #[test]
    fn heavy_corruption_scores_higher_than_clean() {
        let train = clouds(32, 2);
        let mut monitor = train_on_clouds(&train, fast_config(), 0);
        let test = clouds(6, 77);
        let mut labels = Vec::new();
        let mut scores = Vec::new();
        for (i, c) in test.iter().enumerate() {
            scores.push(monitor.score_cloud(c));
            labels.push(false);
            let corrupted =
                Corruption::new(CorruptionKind::CrossSensorInterference, 5).apply(c, i as u64);
            scores.push(monitor.score_cloud(&corrupted));
            labels.push(true);
        }
        let auc = roc_auc(&labels, &scores);
        assert!(auc > 0.8, "cross-sensor AUC {auc} (scores {scores:?})");
    }

    #[test]
    fn assess_implements_core_monitor_with_cost() {
        let train = clouds(10, 3);
        let mut monitor = train_on_clouds(&train, fast_config(), 0);
        let mut ctx = StageContext::new();
        let features = extract_features(&clouds(1, 50)[0]);
        let _ = Monitor::assess(&mut monitor, &features, &mut ctx);
        assert!(ctx.energy_j() > 0.0);
        assert!(ctx.latency_s() > 0.0);
    }

    #[test]
    fn thresholds_calibrated_and_ordered() {
        let train = clouds(10, 4);
        let monitor = train_on_clouds(&train, fast_config(), 0);
        assert!(monitor.suspect_threshold().is_finite());
        assert!(monitor.untrusted_threshold > monitor.suspect_threshold);
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn too_few_samples_panics() {
        let samples = vec![vec![0.0; 4]; 3];
        let _ = Starnet::train(&samples, StarnetConfig::default(), 0);
    }

    /// The monitor's only per-tick drift is the score-call counter (it
    /// offsets each SPSA seed). Restoring it must make post-restore scores
    /// bit-identical to the uninterrupted sequence.
    #[test]
    fn checkpoint_resumes_score_stream_exactly() {
        let train = clouds(10, 6);
        let test: Vec<Vec<f64>> = clouds(8, 70).iter().map(extract_features).collect();
        let mut reference = train_on_clouds(&train, fast_config(), 0);
        let full: Vec<u64> = test.iter().map(|f| reference.score(f).to_bits()).collect();

        let mut a = train_on_clouds(&train, fast_config(), 0);
        for f in &test[..3] {
            let _ = a.score(f);
        }
        let mut ckpt = Checkpoint::new("starnet");
        a.save_state(&mut ckpt, "monitor");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
        let mut b = train_on_clouds(&train, fast_config(), 0);
        b.restore_state(&ckpt, "monitor").unwrap();
        let tail: Vec<u64> = test[3..].iter().map(|f| b.score(f).to_bits()).collect();
        assert_eq!(tail, full[3..], "score stream diverged after restore");
    }

    #[test]
    fn poisoned_features_are_untrusted_without_panic() {
        use sensact_core::fault::NanPoison;

        let train = clouds(10, 5);
        let mut monitor = train_on_clouds(&train, fast_config(), 0);
        // A fully NaN-poisoned cloud must come back Untrusted, not panic —
        // and must not advance the scorer (no NaN reaches the VAE).
        let mut cloud = clouds(1, 60).remove(0);
        cloud.poison();
        let features = extract_features(&cloud);
        assert_eq!(monitor.assess_features(&features), Trust::Untrusted);
        // A single NaN component is enough.
        let mut features = extract_features(&clouds(1, 61)[0]);
        features[0] = f64::NAN;
        assert_eq!(monitor.assess_features(&features), Trust::Untrusted);
        // Infinities are equally unusable.
        features[0] = f64::INFINITY;
        assert_eq!(monitor.assess_features(&features), Trust::Untrusted);
    }
}
