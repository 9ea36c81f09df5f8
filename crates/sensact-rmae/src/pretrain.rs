//! Masked-occupancy pre-training strategies (Table I rows).
//!
//! All variants train the same autoencoder to reconstruct full occupancy from
//! a masked view; they differ in the masking *distribution*:
//!
//! * [`Strategy::UniformMae`] — OccMAE-style: uniform random voxel masking.
//! * [`Strategy::AlsoLike`] — ALSO-style: milder uniform masking (the method
//!   learns from a denser self-supervision signal).
//! * [`Strategy::RadialMae`] — the paper's R-MAE: two-stage radial masking of
//!   the *rays*, matching exactly the masked-firing distribution the sensor
//!   uses at deployment — which is why it transfers best.

use crate::model::RmaeModel;
use sensact_lidar::mask::{RadialMask, RadialMaskConfig};
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::Scene;
use sensact_lidar::voxel::VoxelGrid;
use sensact_lidar::PointCloud;
use sensact_math::rng::StdRng;
use sensact_nn::optim::Adam;

/// Pre-training masking strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// No pre-training: the pipeline runs on the raw sparse scan.
    None,
    /// OccMAE-style uniform random voxel masking (keep ≈ 30 %).
    UniformMae,
    /// ALSO-style milder uniform masking (keep ≈ 50 %).
    AlsoLike,
    /// R-MAE two-stage radial ray masking (keep ≈ 10 %, matches deployment).
    RadialMae,
}

impl Strategy {
    /// All Table I variants in row order.
    pub fn table1_rows() -> [Strategy; 4] {
        [
            Strategy::None,
            Strategy::UniformMae,
            Strategy::AlsoLike,
            Strategy::RadialMae,
        ]
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::None => "baseline",
            Strategy::UniformMae => "+OccMAE",
            Strategy::AlsoLike => "+ALSO",
            Strategy::RadialMae => "+R-MAE",
        };
        write!(f, "{s}")
    }
}

/// Apply the deployment-time radial mask to a full scan (equivalent to masked
/// firing: stage 1 on azimuth segments, stage 2 Bernoulli on per-return range).
pub fn radial_masked_cloud(full: &PointCloud, seed: u64) -> PointCloud {
    let mut mask = RadialMask::sample(RadialMaskConfig::default(), 512, seed);
    full.iter()
        .filter(|p| mask.fire(p.azimuth, p.range))
        .copied()
        .collect()
}

/// Uniform per-pulse masking at a fixed keep probability — the DESIGN.md §5
/// ablation baseline for the two-stage radial mask (same expected coverage,
/// no angular structure, no range awareness).
pub fn uniform_masked_cloud(full: &PointCloud, keep: f64, seed: u64) -> PointCloud {
    let mut mask = sensact_lidar::mask::UniformMask::new(keep, seed);
    full.iter().filter(|_| mask.fire()).copied().collect()
}

/// Masked-occupancy pre-trainer.
pub struct Pretrainer {
    model: RmaeModel,
    strategy: Strategy,
    rng: StdRng,
    lidar: Lidar,
    opt: Adam,
}

impl Pretrainer {
    /// Wrap a model with a strategy and a seed for mask sampling.
    pub fn new(model: RmaeModel, strategy: Strategy, seed: u64) -> Self {
        Pretrainer {
            model,
            strategy,
            rng: StdRng::seed_from_u64(seed),
            lidar: Lidar::new(LidarConfig::default()),
            opt: Adam::new(0.005),
        }
    }

    /// Consume into the trained model.
    pub fn into_model(self) -> RmaeModel {
        self.model
    }

    /// Borrow the model (e.g. for reconstruction probes during training).
    pub fn model_mut(&mut self) -> &mut RmaeModel {
        &mut self.model
    }

    /// Build the (masked input, full target) occupancy pair for one scene
    /// under the strategy. `Strategy::None` returns the sparse radial view as
    /// both input and "reconstruction" (no model involved downstream).
    pub fn masked_pair(&mut self, full_cloud: &PointCloud) -> (Vec<f64>, Vec<f64>) {
        let grid_cfg = self.model.config().grid;
        let full_grid = VoxelGrid::from_cloud(grid_cfg, full_cloud);
        let full_flat = full_grid.occupancy_flat();
        let masked_flat = match self.strategy {
            Strategy::None | Strategy::RadialMae => {
                let seed = self.rng.random::<u64>();
                let masked = radial_masked_cloud(full_cloud, seed);
                VoxelGrid::from_cloud(grid_cfg, &masked).occupancy_flat()
            }
            Strategy::UniformMae => self.uniform_masked(&full_flat, 0.30),
            Strategy::AlsoLike => self.uniform_masked(&full_flat, 0.50),
        };
        (masked_flat, full_flat)
    }

    fn uniform_masked(&mut self, full: &[f64], keep: f64) -> Vec<f64> {
        full.iter()
            .map(|&v| {
                if v > 0.0 && self.rng.random::<f64>() < keep {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Pre-train on a set of scenes for `epochs` passes. Returns the mean
    /// loss of the final epoch (0.0 for `Strategy::None`, which has nothing
    /// to train).
    pub fn train(&mut self, scenes: &[Scene], epochs: usize) -> f64 {
        if self.strategy == Strategy::None || scenes.is_empty() {
            return 0.0;
        }
        // Scans are deterministic per scene; compute once.
        let clouds: Vec<PointCloud> = scenes.iter().map(|s| self.lidar.scan(s)).collect();
        let mut last_epoch_mean = 0.0;
        for _epoch in 0..epochs {
            let mut sum = 0.0;
            for cloud in &clouds {
                let (masked, full) = self.masked_pair(cloud);
                sum += self.model.train_step(&masked, &full, &mut self.opt);
            }
            last_epoch_mean = sum / clouds.len() as f64;
        }
        last_epoch_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RmaeConfig;
    use sensact_lidar::scene::SceneGenerator;

    fn scan_one(seed: u64) -> PointCloud {
        let scene = SceneGenerator::new(seed).generate();
        Lidar::new(LidarConfig::default()).scan(&scene)
    }

    #[test]
    fn radial_masked_cloud_keeps_small_fraction() {
        let full = scan_one(1);
        let masked = radial_masked_cloud(&full, 0);
        let ratio = masked.len() as f64 / full.len() as f64;
        assert!((0.02..0.25).contains(&ratio), "kept ratio {ratio}");
    }

    #[test]
    fn masked_pair_shapes_match_grid() {
        let mut t = Pretrainer::new(
            RmaeModel::new(RmaeConfig::small(), 0),
            Strategy::RadialMae,
            0,
        );
        let full = scan_one(2);
        let (masked, target) = t.masked_pair(&full);
        assert_eq!(masked.len(), 256);
        assert_eq!(target.len(), 256);
        // Masked occupancy is a subset of the target occupancy.
        for (m, t) in masked.iter().zip(&target) {
            assert!(*m <= *t, "masked voxel occupied where target empty");
        }
        let kept: f64 = masked.iter().sum();
        let total: f64 = target.iter().sum();
        assert!(kept < total, "mask removed nothing");
    }

    #[test]
    fn uniform_strategies_keep_expected_ratio() {
        let full = scan_one(3);
        for (strategy, keep) in [(Strategy::UniformMae, 0.30), (Strategy::AlsoLike, 0.50)] {
            let mut t = Pretrainer::new(RmaeModel::new(RmaeConfig::small(), 0), strategy, 7);
            let (masked, target) = t.masked_pair(&full);
            let ratio = masked.iter().sum::<f64>() / target.iter().sum::<f64>();
            assert!(
                (ratio - keep).abs() < 0.17,
                "{strategy}: kept {ratio} expected {keep}"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let scenes = SceneGenerator::new(10).generate_many(4);
        let mut t = Pretrainer::new(
            RmaeModel::new(RmaeConfig::small(), 1),
            Strategy::RadialMae,
            1,
        );
        let first = t.train(&scenes, 1);
        let later = t.train(&scenes, 6);
        assert!(later < first, "first {first} later {later}");
    }

    #[test]
    fn none_strategy_trains_nothing() {
        let scenes = SceneGenerator::new(10).generate_many(2);
        let mut t = Pretrainer::new(RmaeModel::new(RmaeConfig::small(), 1), Strategy::None, 1);
        assert_eq!(t.train(&scenes, 3), 0.0);
    }

    #[test]
    fn radial_pretraining_beats_mismatched_on_radial_eval() {
        // The Table I mechanism: a model pre-trained under the deployment
        // masking distribution reconstructs deployment inputs better.
        let scenes = SceneGenerator::new(20).generate_many(6);
        let epochs = 12;
        let mut radial = Pretrainer::new(
            RmaeModel::new(RmaeConfig::small(), 5),
            Strategy::RadialMae,
            5,
        );
        radial.train(&scenes, epochs);
        let mut uniform = Pretrainer::new(
            RmaeModel::new(RmaeConfig::small(), 5),
            Strategy::UniformMae,
            5,
        );
        uniform.train(&scenes, epochs);

        // Evaluate on a fresh scene with radial masking.
        let lidar = Lidar::new(LidarConfig::default());
        let eval_scene = SceneGenerator::new(99).generate();
        let full = lidar.scan(&eval_scene);
        let masked = radial_masked_cloud(&full, 123);
        let grid_cfg = radial.model_mut().config().grid;
        let masked_flat = VoxelGrid::from_cloud(grid_cfg, &masked).occupancy_flat();
        let full_flat = VoxelGrid::from_cloud(grid_cfg, &full).occupancy_flat();

        let iou_radial = radial
            .model_mut()
            .reconstruction_iou(&masked_flat, &full_flat, 0.5);
        let iou_uniform = uniform
            .model_mut()
            .reconstruction_iou(&masked_flat, &full_flat, 0.5);
        assert!(
            iou_radial > iou_uniform - 0.02,
            "radial {iou_radial} vs uniform {iou_uniform}"
        );
        assert!(
            iou_radial > 0.2,
            "radial reconstruction too weak: {iou_radial}"
        );
    }

    #[test]
    fn strategy_display_rows() {
        assert_eq!(Strategy::RadialMae.to_string(), "+R-MAE");
        assert_eq!(Strategy::table1_rows().len(), 4);
    }
}
