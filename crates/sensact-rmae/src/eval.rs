//! Table I / Table II evaluation harness pieces.
//!
//! The pipeline under evaluation is the paper's deployment path: radially
//! masked sparse scan → (optional) occupancy reconstruction → detection, with
//! AP measured per class against the scene's ground truth.
//!
//! Matching uses a center-distance criterion (nuScenes-style) rather than
//! strict KITTI IoU: at our 0.8 m voxel resolution, box-IoU thresholds would
//! measure quantization noise rather than detection quality. The *relative*
//! ordering of pre-training schemes — Table I's content — is preserved.

use crate::detect::{Detection3d, Detector};
use crate::model::RmaeModel;
use crate::pretrain::{radial_masked_cloud, Pretrainer, Strategy};
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::{ObjectClass, Scene};
use sensact_lidar::voxel::VoxelGrid;
use sensact_math::metrics::{average_precision, Aabb, Detection};

/// Occupancy threshold for turning decoder probabilities into voxels.
const OCCUPANCY_THRESHOLD: f64 = 0.5;
/// Match radius (metres) for cars.
const CAR_MATCH_M: f64 = 2.0;
/// Match radius (metres) for pedestrians and cyclists.
const SMALL_MATCH_M: f64 = 1.0;

/// Harness configuration. Decoder probabilities become voxels at 0.5; a
/// detection matches within 2 m for cars and 1 m for pedestrians and
/// cyclists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Pre-training epochs.
    pub pretrain_epochs: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            pretrain_epochs: 10,
        }
    }
}

/// One Table I row: per-class AP (fractions in `[0, 1]`) plus the raw
/// occupancy-reconstruction IoU of the pre-trained model (0 for the
/// no-pre-training baseline) — the direct measure of pre-training quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApRow {
    /// Pre-training strategy of this row.
    pub strategy: Strategy,
    /// AP for cars.
    pub car: f64,
    /// AP for pedestrians.
    pub pedestrian: f64,
    /// AP for cyclists.
    pub cyclist: f64,
    /// Mean raw reconstruction IoU against the full scan (0 when no model).
    pub recon_iou: f64,
}

impl std::fmt::Display for ApRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<10}  Car {:5.1}  Pedestrian {:5.1}  Cyclist {:5.1}  recon-IoU {:.3}",
            self.strategy.to_string(),
            self.car * 100.0,
            self.pedestrian * 100.0,
            self.cyclist * 100.0,
            self.recon_iou
        )
    }
}

/// Average precision with greedy center-distance matching: a prediction is a
/// true positive if an unclaimed ground-truth center lies within `max_dist`
/// (horizontal distance). Predictions are matched in descending
/// [`f64::total_cmp`] score order, the order the AP ranks them in, so a NaN
/// score ranks instead of panicking.
pub fn ap_at_center_distance(
    predictions: &[Detection3d],
    ground_truth: &[Aabb],
    max_dist: f64,
) -> f64 {
    let mut order: Vec<usize> = (0..predictions.len()).collect();
    order.sort_by(|&a, &b| predictions[b].score.total_cmp(&predictions[a].score));
    let mut claimed = vec![false; ground_truth.len()];
    let mut dets = Vec::with_capacity(predictions.len());
    for &pi in &order {
        let pc = predictions[pi].aabb.center();
        let mut best = f64::INFINITY;
        let mut best_gt = None;
        for (gi, gt) in ground_truth.iter().enumerate() {
            if claimed[gi] {
                continue;
            }
            let gc = gt.center();
            let d = ((pc[0] - gc[0]).powi(2) + (pc[1] - gc[1]).powi(2)).sqrt();
            if d < best {
                best = d;
                best_gt = Some(gi);
            }
        }
        let tp = best <= max_dist && best_gt.is_some();
        if tp {
            claimed[best_gt.unwrap()] = true;
        }
        dets.push(Detection {
            score: predictions[pi].score,
            true_positive: tp,
        });
    }
    average_precision(&dets, ground_truth.len())
}

/// Run the full pipeline for one strategy of Table I: one row per detector,
/// in the order given.
///
/// Pre-trains on `train_scenes` (skipped for [`Strategy::None`]), then
/// evaluates AP over `eval_scenes` with radially masked scans. Each scene is
/// reconstructed once and every detector scores that one grid, so a row is
/// what the detector would score alone.
pub fn evaluate_cell(
    strategy: Strategy,
    detectors: &[&Detector],
    train_scenes: &[Scene],
    eval_scenes: &[Scene],
    config: &PipelineConfig,
    seed: u64,
) -> Vec<ApRow> {
    let lidar = Lidar::new(LidarConfig::default());
    let rmae_config = crate::model::RmaeConfig::full();

    let mut model: Option<RmaeModel> = if strategy == Strategy::None {
        None
    } else {
        let mut trainer = Pretrainer::new(RmaeModel::new(rmae_config, seed), strategy, seed);
        trainer.train(train_scenes, config.pretrain_epochs);
        Some(trainer.into_model())
    };

    // Per-detector, per-class accumulation across scenes.
    let mut preds: Vec<[Vec<Detection3d>; 3]> = vec![Default::default(); detectors.len()];
    let mut n_gt = [0usize; 3];
    let classes = ObjectClass::detection_classes();

    let mut iou_sum = 0.0;
    for (i, scene) in eval_scenes.iter().enumerate() {
        let full = lidar.scan(scene);
        let masked = radial_masked_cloud(&full, seed ^ (i as u64 + 1));
        let observed_grid = VoxelGrid::from_cloud(rmae_config.grid, &masked);
        let grid = match model.as_mut() {
            None => observed_grid,
            Some(m) => {
                let full_grid = VoxelGrid::from_cloud(rmae_config.grid, &full);
                iou_sum += m.reconstruction_iou_above_ground(
                    &observed_grid.occupancy_flat(),
                    &full_grid.occupancy_flat(),
                    0.5,
                );
                m.reconstruct_guided(&observed_grid, OCCUPANCY_THRESHOLD)
            }
        };
        let dets: Vec<_> = detectors
            .iter()
            .map(|d| d.detect(&grid, Some(&masked)))
            .collect();
        // Evaluable ground truth: inside the detection region and touched by
        // the *masked* scan (deployment protocol: the sensing budget must
        // have seen the object at all; objects in fully-masked wedges are
        // "DontCare", exactly like KITTI's unlabeled regions).
        let in_box = |b: &Aabb| {
            let c = b.center();
            c[0] >= rmae_config.grid.min[0]
                && c[0] < rmae_config.grid.max[0]
                && c[1] >= rmae_config.grid.min[1]
                && c[1] < rmae_config.grid.max[1]
        };
        let in_region =
            |b: &Aabb, min_points: usize| in_box(b) && masked.points_in(b) >= min_points;
        // Offset scene index into prediction ids is unnecessary: AP pools all
        // detections against all GT of the same class per scene; to pool
        // across scenes, shift nothing — greedy matching is done per scene
        // below instead.
        for (ci, class) in classes.iter().enumerate() {
            let min_points = if *class == ObjectClass::Car { 8 } else { 4 };
            let all_gt = scene.ground_truth(*class);
            let class_gt: Vec<Aabb> = all_gt
                .iter()
                .filter(|b| in_region(b, min_points))
                .copied()
                .collect();
            // "DontCare": real objects in the region that are not evaluable
            // (too few budgeted points) — detections on them are ignored,
            // not punished as false positives.
            let ignore_gt: Vec<Aabb> = all_gt
                .iter()
                .filter(|b| in_box(b) && !in_region(b, min_points) && full.points_in(b) >= 1)
                .copied()
                .collect();
            // Match within the scene; store the matched flags and scores
            // globally by re-running the greedy matcher per scene and
            // collecting `Detection` records.
            let max_dist = if *class == ObjectClass::Car {
                CAR_MATCH_M
            } else {
                SMALL_MATCH_M
            };
            n_gt[ci] += class_gt.len();
            for (pooled, dets) in preds.iter_mut().zip(&dets) {
                let class_dets: Vec<Detection3d> =
                    dets.iter().filter(|d| d.class == *class).cloned().collect();
                pooled[ci].extend(match_scene(&class_dets, &class_gt, &ignore_gt, max_dist));
            }
        }
    }

    // Pooled AP: each detector's pools already carry per-scene TP flags
    // (stored in the Detection3d score sign-extension — see match_scene).
    let ap = |pooled: &[Vec<Detection3d>; 3], ci: usize| -> f64 {
        let dets: Vec<Detection> = pooled[ci]
            .iter()
            .map(|d| Detection {
                score: d.score.abs(),
                true_positive: d.score >= 0.0,
            })
            .collect();
        average_precision(&dets, n_gt[ci])
    };
    let recon_iou = if strategy == Strategy::None {
        0.0
    } else {
        iou_sum / eval_scenes.len().max(1) as f64
    };
    preds
        .iter()
        .map(|pooled| ApRow {
            strategy,
            car: ap(pooled, 0),
            pedestrian: ap(pooled, 1),
            cyclist: ap(pooled, 2),
            recon_iou,
        })
        .collect()
}

/// Greedy per-scene matching; encodes the TP flag in the score's sign
/// (negative = false positive) so results can be pooled across scenes.
fn match_scene(
    dets: &[Detection3d],
    gt: &[Aabb],
    ignore: &[Aabb],
    max_dist: f64,
) -> Vec<Detection3d> {
    let mut order: Vec<usize> = (0..dets.len()).collect();
    order.sort_by(|&a, &b| dets[b].score.total_cmp(&dets[a].score));
    let mut claimed = vec![false; gt.len()];
    let mut out = Vec::with_capacity(dets.len());
    for &di in &order {
        let pc = dets[di].aabb.center();
        let mut best = f64::INFINITY;
        let mut best_gt = None;
        for (gi, g) in gt.iter().enumerate() {
            if claimed[gi] {
                continue;
            }
            let gc = g.center();
            let d = ((pc[0] - gc[0]).powi(2) + (pc[1] - gc[1]).powi(2)).sqrt();
            if d < best {
                best = d;
                best_gt = Some(gi);
            }
        }
        let tp = best <= max_dist && best_gt.is_some();
        if tp {
            claimed[best_gt.unwrap()] = true;
        } else {
            // Detections over unscored ("DontCare") objects are dropped.
            let ignored = ignore.iter().any(|g| {
                let gc = g.center();
                ((pc[0] - gc[0]).powi(2) + (pc[1] - gc[1]).powi(2)).sqrt() <= max_dist
            });
            if ignored {
                continue;
            }
        }
        let mut d = dets[di].clone();
        // Score of exactly 0.0 counts as TP by the >= 0 rule; nudge FP scores
        // below zero even when the raw score is zero.
        d.score = if tp { d.score } else { -d.score - 1e-12 };
        out.push(d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_lidar::scene::{SceneConfig, SceneGenerator};

    fn det(class: ObjectClass, x: f64, y: f64, score: f64) -> Detection3d {
        let s = class.nominal_size();
        Detection3d {
            class,
            aabb: Aabb::from_center_size([x, y, s[2] / 2.0], s),
            score,
        }
    }

    #[test]
    fn center_distance_ap_perfect() {
        let gt = vec![Aabb::from_center_size([10.0, 0.0, 0.75], [4.2, 1.8, 1.5])];
        let preds = vec![det(ObjectClass::Car, 10.2, 0.1, 0.9)];
        assert!((ap_at_center_distance(&preds, &gt, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn center_distance_ap_miss() {
        let gt = vec![Aabb::from_center_size([10.0, 0.0, 0.75], [4.2, 1.8, 1.5])];
        let preds = vec![det(ObjectClass::Car, 20.0, 5.0, 0.9)];
        assert_eq!(ap_at_center_distance(&preds, &gt, 1.0), 0.0);
    }

    #[test]
    fn false_positive_ranked_above_tp_hurts() {
        let gt = vec![Aabb::from_center_size([10.0, 0.0, 0.75], [4.2, 1.8, 1.5])];
        let clean = vec![det(ObjectClass::Car, 10.0, 0.0, 0.9)];
        let noisy = vec![
            det(ObjectClass::Car, 30.0, 8.0, 0.95),
            det(ObjectClass::Car, 10.0, 0.0, 0.9),
        ];
        assert!(ap_at_center_distance(&noisy, &gt, 1.0) < ap_at_center_distance(&clean, &gt, 1.0));
    }

    /// A NaN detection score ranks (a positive NaN above every finite
    /// score, by `total_cmp`) instead of panicking the evaluation.
    #[test]
    fn a_nan_score_ranks_above_every_finite_score() {
        let gt = vec![Aabb::from_center_size([10.0, 0.0, 0.75], [4.2, 1.8, 1.5])];
        let ranked_first = vec![
            det(ObjectClass::Car, 10.0, 0.0, 0.9),
            det(ObjectClass::Car, 30.0, 8.0, 0.95),
        ];
        let nan = vec![
            det(ObjectClass::Car, 10.0, 0.0, 0.9),
            det(ObjectClass::Car, 30.0, 8.0, f64::NAN),
        ];
        let ap = ap_at_center_distance(&nan, &gt, 1.0);
        assert_eq!(ap, ap_at_center_distance(&ranked_first, &gt, 1.0));
        assert_eq!(ap, 0.5);
    }

    #[test]
    fn match_scene_sign_encoding_roundtrip() {
        let gt = vec![Aabb::from_center_size([5.0, 0.0, 0.9], [0.6, 0.6, 1.8])];
        let dets = vec![
            det(ObjectClass::Pedestrian, 5.1, 0.0, 0.8),
            det(ObjectClass::Pedestrian, 9.0, 4.0, 0.5),
        ];
        let out = match_scene(&dets, &gt, &[], 0.8);
        let tps = out.iter().filter(|d| d.score >= 0.0).count();
        assert_eq!(tps, 1);
        let fps = out.iter().filter(|d| d.score < 0.0).count();
        assert_eq!(fps, 1);
    }

    /// A fast, reduced-size end-to-end run of one Table I cell. The full
    /// harness (with enough scenes/epochs for the AP ordering to stabilize)
    /// lives in `sensact-bench`.
    #[test]
    fn pipeline_cell_runs_and_reports_sane_rows() {
        let mut generator = SceneGenerator::with_config(
            3,
            SceneConfig {
                cars: 4,
                pedestrians: 2,
                cyclists: 2,
                buildings_per_side: 2,
                max_range: 45.0,
            },
        );
        let train = generator.generate_many(4);
        let eval = generator.generate_many(3);
        let config = PipelineConfig { pretrain_epochs: 4 };
        let (second, pvrcnn) = (Detector::second_like(), Detector::pvrcnn_like());
        let both = [&second, &pvrcnn];
        let none = evaluate_cell(Strategy::None, &both, &train, &eval, &config, 1);
        let rows = evaluate_cell(Strategy::RadialMae, &both, &train, &eval, &config, 1);
        // A detector's row does not depend on the detectors beside it.
        let alone = evaluate_cell(Strategy::RadialMae, &[&pvrcnn], &train, &eval, &config, 1);
        assert_eq!(alone, [rows[1]]);
        let rmae = rows[1];
        // Sanity: APs are valid fractions; the baseline row has no model.
        for row in [&none[1], &rmae] {
            for v in [row.car, row.pedestrian, row.cyclist] {
                assert!((0.0..=1.0).contains(&v), "AP {v}");
            }
        }
        assert_eq!(none[1].recon_iou, 0.0);
        // Even at this tiny training budget the model reconstructs *some*
        // of the above-ground scene (the AP ordering needs the full-size
        // harness).
        assert!(rmae.recon_iou > 0.0, "recon IoU {}", rmae.recon_iou);
    }

    #[test]
    fn ap_row_display_percentages() {
        let row = ApRow {
            strategy: Strategy::RadialMae,
            car: 0.791,
            pedestrian: 0.469,
            cyclist: 0.677,
            recon_iou: 0.35,
        };
        let s = row.to_string();
        assert!(s.contains("79.1"));
        assert!(s.contains("46.9"));
    }
}
