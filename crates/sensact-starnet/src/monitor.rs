//! The STARNet monitor: VAE + likelihood regret + trust thresholding.
//!
//! Scoring note: the paper scores streams by likelihood regret alone,
//! computed with a converged per-sample optimization. Our SPSA adaptation is
//! deliberately budgeted (edge constraint), so it realizes only part of the
//! achievable regret; the monitor therefore scores with
//! `LR + (−ELBO)` — the regret actually realized plus the residual misfit —
//! which converges to pure LR as the adaptation budget grows.

use crate::features::{extract_features, FEATURE_DIM};
use crate::regret::{regret_and_baseline, RegretConfig};
use sensact_core::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use sensact_core::stage::{Monitor, StageContext, Trust};
use sensact_lidar::PointCloud;
use sensact_math::stats;
use sensact_nn::optim::Adam;
use sensact_nn::vae::Vae;
use sensact_nn::Tensor;

/// VAE hidden width.
const HIDDEN_DIM: usize = 32;
/// VAE latent dimension.
const LATENT_DIM: usize = 4;
/// KL weight β.
const BETA: f64 = 0.1;
/// Calibration quantile for the suspect threshold.
const SUSPECT_QUANTILE: f64 = 0.95;
/// Multiplier over the suspect threshold's spread for the untrusted verdict.
const UNTRUSTED_FACTOR: f64 = 3.0;

/// STARNet configuration. The VAE is 32 wide with a 4-dimensional latent
/// and β = 0.1; the suspect threshold is the clean set's 0.95 quantile and
/// the untrusted one sits 3 quantile-to-median spans above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarnetConfig {
    /// Training epochs over the clean feature set.
    pub train_epochs: usize,
    /// Likelihood-regret computation parameters.
    pub regret: RegretConfig,
}

impl Default for StarnetConfig {
    fn default() -> Self {
        StarnetConfig {
            train_epochs: 300,
            regret: RegretConfig::default(),
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
        let mut vae = Vae::new(dim, HIDDEN_DIM, LATENT_DIM, seed);
        let x = Tensor::stack_rows(clean_features);
        let mut opt = Adam::new(0.005);
        for _ in 0..config.train_epochs {
            let _ = vae.train_step(&x, &mut opt, BETA);
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
        let q = stats::quantile(&scores, SUSPECT_QUANTILE).expect("non-empty calibration scores");
        let median = stats::median(&scores).expect("non-empty calibration scores");
        let span = (q - median).max(1e-6);
        monitor.suspect_threshold = q;
        monitor.untrusted_threshold = q + UNTRUSTED_FACTOR * span;
        monitor
    }

    /// Anomaly score of a feature vector (higher = more anomalous):
    /// realized likelihood regret plus the residual negative ELBO.
    pub fn score(&mut self, features: &[f64]) -> f64 {
        self.calls = self.calls.wrapping_add(1);
        let seed = self.score_seed.wrapping_add(self.calls);
        let (lr, baseline) =
            regret_and_baseline(&mut self.vae, features, &self.config.regret, seed);
        // The deterministic baseline is the ELBO at the restored parameters;
        // a sampled one is not the ELBO scored here.
        let elbo = if self.config.regret.elbo_samples == 0 {
            baseline
        } else {
            self.vae.elbo_deterministic(features)
        };
        lr - elbo
    }

    /// Score a raw point cloud (extracts the standard descriptor first).
    pub fn score_cloud(&mut self, cloud: &PointCloud) -> f64 {
        self.score(&extract_features(cloud))
    }

    /// Trust verdict for a feature vector. Non-finite features (NaN
    /// poisoning, overflow) are immediately [`Trust::Untrusted`] without
    /// scoring: a NaN would silently propagate through the VAE and produce a
    /// NaN score, which no threshold comparison can catch.
    pub(crate) fn assess_features(&mut self, features: &[f64]) -> Trust {
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
}

impl StageState for Starnet {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        // `calls` seeds each score's SPSA stream (`score_seed + calls`); the
        // VAE itself is restored in place by the regret walk after every
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
        let calls = s.get_u64("calls")?;
        let score_seed = s.get_u64("score_seed")?;
        let suspect_threshold = s.get_f64("suspect_threshold")?;
        let untrusted_threshold = s.get_f64("untrusted_threshold")?;
        // Every finite score compares false against a NaN threshold, which
        // would make every tick `Untrusted` without a word. ±∞ is legal: an
        // uncalibrated monitor holds +∞. An untrusted threshold below the
        // suspect one (or NaN) leaves no score in the `Suspect` band;
        // calibration never writes such a pair.
        s.check("suspect_threshold", !suspect_threshold.is_nan())?;
        s.check(
            "untrusted_threshold",
            untrusted_threshold >= suspect_threshold,
        )?;
        self.calls = calls;
        self.score_seed = score_seed;
        self.suspect_threshold = suspect_threshold;
        self.untrusted_threshold = untrusted_threshold;
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
        assert!(monitor.suspect_threshold.is_finite());
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

    /// The cargo-test twin of the `edge_loop` golden: sixteen scores of a
    /// `StarnetConfig::default()` monitor and its calibrated thresholds,
    /// recorded before the sign-plane walk and the scratch ELBO. Every
    /// kernel on the path is on a bitwise tier, so both ISA legs pin the
    /// same bits.
    #[test]
    fn score_stream_is_pinned() {
        let train = clouds(12, 8);
        let mut monitor = train_on_clouds(&train, StarnetConfig::default(), 0);
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for c in &clouds(16, 80) {
            fold = (fold ^ monitor.score_cloud(c).to_bits()).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(fold, 0x3ad0_dcd4_d648_4e1f, "score stream moved");
        assert_eq!(monitor.suspect_threshold.to_bits(), 0x3f8a_a687_8b5f_f184);
        assert_eq!(monitor.untrusted_threshold.to_bits(), 0x3f91_6bac_7960_d07e);
    }

    fn small_monitor() -> Starnet {
        let samples: Vec<Vec<f64>> = (0..8).map(|i| vec![0.1 * i as f64; 4]).collect();
        let config = StarnetConfig {
            train_epochs: 5,
            ..fast_config()
        };
        Starnet::train(&samples, config, 0)
    }

    /// What a restore may change, as bits.
    fn restorable(m: &Starnet) -> (u64, u64, u64, u64) {
        let (s, u) = (m.suspect_threshold, m.untrusted_threshold);
        (m.calls, m.score_seed, s.to_bits(), u.to_bits())
    }

    fn monitor_section(fields: &[(&str, f64)]) -> Checkpoint {
        let mut s = Section::new("monitor");
        s.put_u64("calls", 99);
        s.put_u64("score_seed", 7);
        for &(key, v) in fields {
            s.put_f64(key, v);
        }
        let mut ckpt = Checkpoint::new("starnet");
        ckpt.push(s);
        ckpt
    }

    /// A checkpoint missing a threshold is refused before anything is
    /// assigned: the score stream must not move under a failed restore.
    #[test]
    fn refused_restore_leaves_the_score_stream_untouched() {
        let mut m = small_monitor();
        let _ = m.score(&[0.2; 4]);
        let before = restorable(&m);
        let ckpt = monitor_section(&[("suspect_threshold", 1.0)]);
        assert!(matches!(
            m.restore_state(&ckpt, "monitor"),
            Err(CheckpointError::MissingField(_))
        ));
        assert_eq!(restorable(&m), before);
    }

    /// A NaN threshold would make every tick `Untrusted` silently: it is a
    /// `BadValue` and the monitor stays as it was. ±∞ restores.
    #[test]
    fn restore_rejects_a_nan_threshold() {
        let mut m = small_monitor();
        let before = restorable(&m);
        for key in ["suspect_threshold", "untrusted_threshold"] {
            let mut fields = [("suspect_threshold", 1.0), ("untrusted_threshold", 2.0)];
            fields.iter_mut().find(|f| f.0 == key).unwrap().1 = f64::NAN;
            let refused = CheckpointError::BadValue(format!("monitor.{key}"));
            assert_eq!(
                m.restore_state(&monitor_section(&fields), "monitor"),
                Err(refused)
            );
            assert_eq!(
                restorable(&m),
                before,
                "{key}: a refused restore changed the monitor"
            );
        }
        let fields = [
            ("suspect_threshold", f64::NEG_INFINITY),
            ("untrusted_threshold", f64::INFINITY),
        ];
        assert_eq!(
            m.restore_state(&monitor_section(&fields), "monitor"),
            Ok(())
        );
        assert_eq!(m.calls, 99);
        assert_eq!(m.untrusted_threshold, f64::INFINITY);
    }

    /// An untrusted threshold below the suspect one would leave the
    /// `Suspect` band unreachable: it is a `BadValue` on the untrusted key
    /// and the monitor stays as it was. An equal pair (two +∞ on an
    /// uncalibrated monitor) restores.
    #[test]
    fn restore_rejects_an_inverted_threshold_pair() {
        let mut m = small_monitor();
        let before = restorable(&m);
        for (suspect, untrusted) in [
            (2.0, 1.0),
            (f64::INFINITY, 1.0),
            (1.0, f64::NEG_INFINITY),
            (0.0, -0.5),
        ] {
            let fields = [
                ("suspect_threshold", suspect),
                ("untrusted_threshold", untrusted),
            ];
            assert_eq!(
                m.restore_state(&monitor_section(&fields), "monitor"),
                Err(CheckpointError::BadValue(
                    "monitor.untrusted_threshold".into()
                )),
                "{suspect} / {untrusted}"
            );
            assert_eq!(restorable(&m), before, "{suspect} / {untrusted}");
        }
        for (suspect, untrusted) in [(1.0, 1.0), (f64::INFINITY, f64::INFINITY)] {
            let fields = [
                ("suspect_threshold", suspect),
                ("untrusted_threshold", untrusted),
            ];
            assert_eq!(
                m.restore_state(&monitor_section(&fields), "monitor"),
                Ok(())
            );
            assert_eq!(m.untrusted_threshold, untrusted);
        }
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
