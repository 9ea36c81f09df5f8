//! Trust-gated LiDAR filtering (the Fig. 7 experiment).
//!
//! Under snow, STARNet (a) detects the unreliable LiDAR stream from its
//! feature distribution and (b) gates a statistical clutter filter on that
//! verdict. The paper reports ~15 % object-detection accuracy recovered by
//! the filtering.

use crate::features::extract_features;
use crate::monitor::Starnet;
use sensact_core::stage::Trust;
use sensact_lidar::corrupt::{Corruption, CorruptionKind};
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::{ObjectClass, Scene};
use sensact_lidar::voxel::{VoxelGrid, VoxelizerConfig};
use sensact_lidar::PointCloud;
use sensact_math::metrics::Aabb;
use sensact_rmae::detect::Detector;
use sensact_rmae::eval::ap_at_center_distance;

/// Horizontal neighborhood radius (metres) for column support.
const COLUMN_RADIUS: f64 = 0.8;
/// Only points above this height need support.
const MIN_HEIGHT: f64 = 0.6;
/// Only points within this range are filtered (flurries are near-field).
const MAX_RANGE: f64 = 14.0;

/// Snow-clutter filter based on vertical continuity: a real elevated return
/// (pedestrian torso, car roof) is supported by returns at mid height in the
/// same column — objects grow up from the ground. An airborne flurry blob
/// floats: there is a vertical *gap* between it and whatever is below. Only
/// points above 0.6 m and within 14 m need support, looked for within 0.8 m.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SnowFilter;

impl SnowFilter {
    /// Filter a cloud, returning the cleaned copy. Applied to a fixed point:
    /// removing a blob's unsupported bottom strips the support of its top,
    /// so passes repeat until nothing changes (≤ 4 iterations).
    pub(crate) fn filter(&self, cloud: &PointCloud) -> PointCloud {
        let mut current = self.filter_once(cloud);
        for _ in 0..3 {
            let next = self.filter_once(&current);
            if next.len() == current.len() {
                break;
            }
            current = next;
        }
        current
    }

    fn filter_once(&self, cloud: &PointCloud) -> PointCloud {
        // Coarse (x, y) hash grid for neighborhood queries.
        let cell = COLUMN_RADIUS;
        let key = |x: f64, y: f64| ((x / cell).floor() as i64, (y / cell).floor() as i64);
        let mut grid: std::collections::HashMap<(i64, i64), Vec<[f64; 3]>> =
            std::collections::HashMap::new();
        for p in cloud {
            grid.entry(key(p.x, p.y)).or_default().push(p.position());
        }
        let mut out = PointCloud::new();
        for p in cloud {
            if p.z <= MIN_HEIGHT || p.range > MAX_RANGE {
                out.push(*p);
                continue;
            }
            // Mid-height support window: a real object has returns between
            // ~20 % and ~70 % of this point's height in its column.
            let lo = 0.2 * p.z;
            let hi = 0.7 * p.z;
            let (kx, ky) = key(p.x, p.y);
            let mut supported = false;
            'search: for dx in -1..=1 {
                for dy in -1..=1 {
                    if let Some(points) = grid.get(&(kx + dx, ky + dy)) {
                        for q in points {
                            let horiz = ((q[0] - p.x).powi(2) + (q[1] - p.y).powi(2)).sqrt();
                            if horiz <= COLUMN_RADIUS && q[2] >= lo && q[2] <= hi {
                                supported = true;
                                break 'search;
                            }
                        }
                    }
                }
            }
            if supported {
                out.push(*p);
            }
        }
        out
    }
}

/// One Fig. 7 row: detection accuracy at a snow severity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// Snow severity (0 = clean).
    pub severity: u8,
    /// Whether STARNet gating+filtering was active.
    pub with_starnet: bool,
    /// Car AP.
    pub car_ap: f64,
    /// Pedestrian AP.
    pub pedestrian_ap: f64,
    /// Cyclist AP (the class snow flurries imitate most).
    pub cyclist_ap: f64,
}

impl Fig7Row {
    /// Mean of the three class APs.
    pub fn mean(&self) -> f64 {
        (self.car_ap + self.pedestrian_ap + self.cyclist_ap) / 3.0
    }
}

/// Detection region shared by the Fig. 7 pipeline.
fn detection_grid() -> VoxelizerConfig {
    VoxelizerConfig {
        min: [0.0, -14.4, 0.0],
        max: [48.0, 14.4, 3.2],
        voxel_size: 0.8,
    }
}

/// Run the Fig. 7 pipeline on a set of scenes at one severity.
///
/// `monitor`: when `Some`, the cloud is scored; if not fully trusted the snow
/// filter is applied before detection (trust-gated filtering). When `None`,
/// detection runs on the corrupted cloud as-is.
pub fn evaluate_detection_under_snow(
    scenes: &[Scene],
    severity: u8,
    monitor: Option<&mut Starnet>,
    seed: u64,
) -> Fig7Row {
    let lidar = Lidar::new(LidarConfig::default());
    let detector = Detector::pvrcnn_like();
    let grid_cfg = detection_grid();
    let filter = SnowFilter;
    let mut monitor = monitor;

    let mut car_preds = Vec::new();
    let mut ped_preds = Vec::new();
    let mut cyc_preds = Vec::new();
    let mut car_gt = Vec::new();
    let mut ped_gt = Vec::new();
    let mut cyc_gt = Vec::new();

    for (i, scene) in scenes.iter().enumerate() {
        let clean = lidar.scan(scene);
        let cloud = Corruption::new(CorruptionKind::Snow, severity).apply(&clean, seed ^ i as u64);
        let cloud = match monitor.as_deref_mut() {
            Some(m) => {
                let verdict = m.assess_features(&extract_features(&cloud));
                if verdict == Trust::Trusted {
                    cloud
                } else {
                    filter.filter(&cloud)
                }
            }
            None => cloud,
        };
        let grid = VoxelGrid::from_cloud(grid_cfg, &cloud);
        let dets = detector.detect(&grid, Some(&cloud));
        let visible = |b: &Aabb, min_points: usize| {
            let c = b.center();
            c[0] < grid_cfg.max[0]
                && c[1].abs() < grid_cfg.max[1]
                && clean.points_in(b) >= min_points
        };
        // Offset scoring is per-scene; pool by running the matcher per scene
        // through `ap_at_center_distance` over the concatenated lists with a
        // scene-unique coordinate offset (keeps greedy matching scene-local).
        let offset = i as f64 * 1000.0;
        for d in &dets {
            let mut shifted = d.clone();
            let c = d.aabb.center();
            let size = [
                d.aabb.max[0] - d.aabb.min[0],
                d.aabb.max[1] - d.aabb.min[1],
                d.aabb.max[2] - d.aabb.min[2],
            ];
            shifted.aabb = Aabb::from_center_size([c[0] + offset, c[1], c[2]], size);
            match d.class {
                ObjectClass::Car => car_preds.push(shifted),
                ObjectClass::Pedestrian => ped_preds.push(shifted),
                ObjectClass::Cyclist => cyc_preds.push(shifted),
                ObjectClass::Building => {}
            }
        }
        for gt in scene.ground_truth(ObjectClass::Car) {
            if visible(&gt, 15) {
                let c = gt.center();
                let size = [
                    gt.max[0] - gt.min[0],
                    gt.max[1] - gt.min[1],
                    gt.max[2] - gt.min[2],
                ];
                car_gt.push(Aabb::from_center_size([c[0] + offset, c[1], c[2]], size));
            }
        }
        for gt in scene.ground_truth(ObjectClass::Pedestrian) {
            if visible(&gt, 6) {
                let c = gt.center();
                let size = [
                    gt.max[0] - gt.min[0],
                    gt.max[1] - gt.min[1],
                    gt.max[2] - gt.min[2],
                ];
                ped_gt.push(Aabb::from_center_size([c[0] + offset, c[1], c[2]], size));
            }
        }
        for gt in scene.ground_truth(ObjectClass::Cyclist) {
            if visible(&gt, 6) {
                let c = gt.center();
                let size = [
                    gt.max[0] - gt.min[0],
                    gt.max[1] - gt.min[1],
                    gt.max[2] - gt.min[2],
                ];
                cyc_gt.push(Aabb::from_center_size([c[0] + offset, c[1], c[2]], size));
            }
        }
    }
    Fig7Row {
        severity,
        with_starnet: monitor.is_some(),
        car_ap: ap_at_center_distance(&car_preds, &car_gt, 2.0),
        pedestrian_ap: ap_at_center_distance(&ped_preds, &ped_gt, 1.0),
        cyclist_ap: ap_at_center_distance(&cyc_preds, &cyc_gt, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{train_on_clouds, StarnetConfig};
    use crate::regret::RegretConfig;
    use crate::spsa::SpsaConfig;
    use sensact_lidar::scene::SceneGenerator;

    fn scan_scenes(n: usize, seed: u64) -> (Vec<Scene>, Vec<PointCloud>) {
        let scenes = SceneGenerator::new(seed).generate_many(n);
        let lidar = Lidar::new(LidarConfig::default());
        let clouds = scenes.iter().map(|s| lidar.scan(s)).collect();
        (scenes, clouds)
    }

    fn fast_config() -> StarnetConfig {
        StarnetConfig {
            train_epochs: 150,
            regret: RegretConfig {
                spsa: SpsaConfig {
                    iterations: 10,
                    ..SpsaConfig::default()
                },
                low_rank: Some(8),
                elbo_samples: 0,
            },
        }
    }

    #[test]
    fn snow_filter_removes_flurries_keeps_surfaces() {
        let (_, clouds) = scan_scenes(1, 1);
        let clean = &clouds[0];
        let snowy = Corruption::new(CorruptionKind::Snow, 5).apply(clean, 7);
        let filtered = SnowFilter.filter(&snowy);
        // Snow flurries are floating blobs at body height in the near field.
        let floating = |c: &PointCloud| c.iter().filter(|p| p.z >= 0.85 && p.range <= 12.5).count();
        let clean_float = floating(clean);
        let snowy_float = floating(&snowy);
        let filtered_float = floating(&filtered);
        assert!(
            snowy_float > clean_float + 100,
            "{snowy_float} vs {clean_float}"
        );
        assert!(
            filtered_float < clean_float + (snowy_float - clean_float) / 3,
            "filter left {filtered_float} floating points (clean {clean_float}, snowy {snowy_float})"
        );
        // Far surfaces are untouched (the filter only acts in the near field).
        let far = |c: &PointCloud| c.iter().filter(|p| p.range > 15.0).count();
        assert_eq!(far(&filtered), far(&snowy));
    }

    #[test]
    fn snow_hurts_detection_and_starnet_recovers() {
        let (scenes, clouds) = scan_scenes(10, 10);
        let (eval_scenes, _) = scan_scenes(4, 20);
        let _ = scenes;
        let mut monitor = train_on_clouds(&clouds, fast_config(), 0);

        let clean = evaluate_detection_under_snow(&eval_scenes, 0, None, 1);
        let snowy = evaluate_detection_under_snow(&eval_scenes, 5, None, 1);
        let recovered = evaluate_detection_under_snow(&eval_scenes, 5, Some(&mut monitor), 1);

        assert!(
            snowy.mean() < clean.mean() - 0.02,
            "snow did not hurt: clean {:.3} snowy {:.3}",
            clean.mean(),
            snowy.mean()
        );
        assert!(
            recovered.mean() > snowy.mean(),
            "STARNet did not help: snowy {:.3} recovered {:.3}",
            snowy.mean(),
            recovered.mean()
        );
    }

    #[test]
    fn filter_is_noop_on_clean_data() {
        let (_, clouds) = scan_scenes(1, 4);
        let filtered = SnowFilter.filter(&clouds[0]);
        let kept = filtered.len() as f64 / clouds[0].len() as f64;
        assert!(
            kept > 0.97,
            "filter dropped {:.1}% of clean points",
            (1.0 - kept) * 100.0
        );
    }
}
