//! Voxel-grid object detectors standing in for SECOND and PV-RCNN.
//!
//! Table I compares pre-training schemes on two backbones of different
//! capacity: SECOND (single-stage, voxel-only) and PV-RCNN (two-stage,
//! point-refined). The stand-ins here share that structure:
//!
//! * **single stage** ([`Detector::second_like`]): ground-filtered connected
//!   components over the occupancy grid, classified by footprint templates,
//!   boxes placed at voxel centroids — quantization-limited localization.
//! * **two stage** ([`Detector::pvrcnn_like`]): the same proposals refined
//!   with the raw (observed) points inside each proposal — sub-voxel centers
//!   and tighter boxes where point support exists.

use sensact_lidar::scene::ObjectClass;
use sensact_lidar::voxel::VoxelGrid;
use sensact_lidar::PointCloud;
use sensact_math::metrics::Aabb;

/// One detection: class, box and confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection3d {
    /// Predicted class.
    pub class: ObjectClass,
    /// Predicted box.
    pub aabb: Aabb,
    /// Confidence score (higher = more confident).
    pub score: f64,
}

/// Backbone capacity tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DetectorStage {
    /// Voxel-only single stage (SECOND-like).
    SingleStage,
    /// Point-refined two stage (PV-RCNN-like).
    TwoStage,
}

/// The detector.
#[derive(Debug, Clone)]
pub struct Detector {
    stage: DetectorStage,
    /// Minimum voxels per cluster to emit a detection.
    pub min_cluster: usize,
}

impl Detector {
    /// Single-stage (SECOND-like) detector.
    pub fn second_like() -> Self {
        Detector {
            stage: DetectorStage::SingleStage,
            min_cluster: 2,
        }
    }

    /// Two-stage (PV-RCNN-like) detector.
    pub fn pvrcnn_like() -> Self {
        Detector {
            stage: DetectorStage::TwoStage,
            min_cluster: 2,
        }
    }

    /// Detect objects in an occupancy grid. `points` (the raw observed
    /// returns) enables the two-stage refinement; the single stage ignores it.
    pub fn detect(&self, grid: &VoxelGrid, points: Option<&PointCloud>) -> Vec<Detection3d> {
        let clusters = cluster_objects(grid);
        let mut detections = Vec::new();
        let mut structures: Vec<Aabb> = Vec::new();
        for cluster in clusters {
            if cluster.len() < self.min_cluster {
                continue;
            }
            match classify(&cluster, grid) {
                Some(Classified::Object(mut det)) => {
                    if self.stage == DetectorStage::TwoStage {
                        if let Some(cloud) = points {
                            refine_with_points(&mut det, cloud);
                        }
                    }
                    detections.push(det);
                }
                Some(Classified::Structure(bbox)) => structures.push(bbox),
                None => {}
            }
        }
        // Class-aware non-maximum suppression: cluster splits (body/roof) or
        // partially-connected fragments produce duplicate detections of one
        // object; keep the highest-scoring detection per neighborhood.
        detections = nms(detections);
        // Structure-proximity suppression: person-sized fragments broken off
        // a façade by masking gaps imitate pedestrians/cyclists; anything
        // that small sitting against structure is discarded.
        detections.retain(|d| {
            if d.class == ObjectClass::Car {
                return true;
            }
            let c = d.aabb.center();
            !structures.iter().any(|s| {
                let dx = (c[0] - s.min[0].max(c[0].min(s.max[0]))).abs();
                let dy = (c[1] - s.min[1].max(c[1].min(s.max[1]))).abs();
                dx.hypot(dy) < 1.5
            })
        });
        detections
    }
}

/// Class-aware center-distance NMS: within each class, suppress detections
/// whose center lies within the class radius of a higher-scoring detection.
fn nms(mut detections: Vec<Detection3d>) -> Vec<Detection3d> {
    detections.sort_by(|a, b| b.score.total_cmp(&a.score));
    let radius = |class: ObjectClass| match class {
        ObjectClass::Car => 2.5,
        ObjectClass::Cyclist => 1.4,
        _ => 0.9,
    };
    let mut kept: Vec<Detection3d> = Vec::with_capacity(detections.len());
    for d in detections {
        let c = d.aabb.center();
        let clash = kept.iter().any(|k| {
            if k.class != d.class {
                return false;
            }
            let kc = k.aabb.center();
            ((c[0] - kc[0]).powi(2) + (c[1] - kc[1]).powi(2)).sqrt() < radius(d.class)
        });
        if !clash {
            kept.push(d);
        }
    }
    kept
}

/// Ground-filtered 26-connected components over occupied voxels: bottom-layer
/// voxels whose column holds nothing above are treated as ground and removed
/// before clustering.
fn cluster_objects(grid: &VoxelGrid) -> Vec<Vec<(usize, usize, usize)>> {
    let (nx, ny, nz) = grid.dims();
    let mut column_has_above = vec![false; nx * ny];
    for (ix, iy, iz) in grid.occupied_voxels() {
        if iz > 0 {
            column_has_above[iy * nx + ix] = true;
        }
    }
    let keep = |ix: usize, iy: usize, iz: usize| -> bool {
        grid.occupied(ix, iy, iz) && (iz > 0 || column_has_above[iy * nx + ix])
    };

    let flat = |ix: usize, iy: usize, iz: usize| (iz * ny + iy) * nx + ix;
    let mut visited = vec![false; nx * ny * nz];
    let mut clusters = Vec::new();
    for (sx, sy, sz) in grid.occupied_voxels() {
        if !keep(sx, sy, sz) || visited[flat(sx, sy, sz)] {
            continue;
        }
        visited[flat(sx, sy, sz)] = true;
        let mut stack = vec![(sx, sy, sz)];
        let mut voxels = Vec::new();
        while let Some((cx, cy, cz)) = stack.pop() {
            voxels.push((cx, cy, cz));
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        if dx == 0 && dy == 0 && dz == 0 {
                            continue;
                        }
                        let nx_i = cx as i64 + dx;
                        let ny_i = cy as i64 + dy;
                        let nz_i = cz as i64 + dz;
                        if nx_i < 0
                            || ny_i < 0
                            || nz_i < 0
                            || nx_i >= nx as i64
                            || ny_i >= ny as i64
                            || nz_i >= nz as i64
                        {
                            continue;
                        }
                        let (ux, uy, uz) = (nx_i as usize, ny_i as usize, nz_i as usize);
                        if keep(ux, uy, uz) && !visited[flat(ux, uy, uz)] {
                            visited[flat(ux, uy, uz)] = true;
                            stack.push((ux, uy, uz));
                        }
                    }
                }
            }
        }
        clusters.push(voxels);
    }
    clusters
}

/// Classification outcome of one cluster.
enum Classified {
    /// A detectable object.
    Object(Detection3d),
    /// Static structure (building façade) — kept for proximity suppression.
    Structure(Aabb),
}

/// Classify a cluster and produce a detection.
///
/// LiDAR only lights the sensor-facing surface of an object, so a cluster's
/// extent *along* the viewing ray is truncated and its centroid is biased
/// toward the sensor. Classification therefore looks at the cross-radial
/// extent (reliable) in addition to the total footprint, and the box center
/// is pushed back along the ray by half the unobserved depth of the chosen
/// class template.
fn classify(cluster: &[(usize, usize, usize)], grid: &VoxelGrid) -> Option<Classified> {
    let cfg = grid.config();
    let vs = cfg.voxel_size;
    let (mut min_x, mut max_x) = (usize::MAX, 0usize);
    let (mut min_y, mut max_y) = (usize::MAX, 0usize);
    let mut max_z = 0usize;
    let mut cx = 0.0;
    let mut cy = 0.0;
    for &(ix, iy, iz) in cluster {
        min_x = min_x.min(ix);
        max_x = max_x.max(ix);
        min_y = min_y.min(iy);
        max_y = max_y.max(iy);
        max_z = max_z.max(iz);
        let c = cfg.center_of(ix, iy, iz);
        cx += c[0];
        cy += c[1];
    }
    cx /= cluster.len() as f64;
    cy /= cluster.len() as f64;
    let ext_x = (max_x - min_x + 1) as f64 * vs;
    let ext_y = (max_y - min_y + 1) as f64 * vs;
    let long = ext_x.max(ext_y);
    let short = ext_x.min(ext_y);

    // Radial / cross-radial extents of the lit surface.
    let r = cx.hypot(cy).max(1e-6);
    let radial = [cx / r, cy / r];
    let cross = [-radial[1], radial[0]];
    let mut rmin = f64::INFINITY;
    let mut rmax = f64::NEG_INFINITY;
    let mut cmin = f64::INFINITY;
    let mut cmax = f64::NEG_INFINITY;
    for &(ix, iy, iz) in cluster {
        let c = cfg.center_of(ix, iy, iz);
        let tr = c[0] * radial[0] + c[1] * radial[1];
        let tc = c[0] * cross[0] + c[1] * cross[1];
        rmin = rmin.min(tr);
        rmax = rmax.max(tr);
        cmin = cmin.min(tc);
        cmax = cmax.max(tc);
    }
    let ext_r = rmax - rmin + vs;
    let ext_c = cmax - cmin + vs;

    // Structure rejection: building façades are oversized in footprint OR
    // reach the top of the grid (cars top out at ~1.7 m, pedestrians at
    // ~2 m; walls fill the z range). Fragmented walls under masking would
    // otherwise imitate car footprints.
    let top_m = (max_z as f64 + 1.0) * vs + cfg.min[2];
    let footprint = Aabb::new(
        [
            cfg.min[0] + min_x as f64 * vs,
            cfg.min[1] + min_y as f64 * vs,
            cfg.min[2],
        ],
        [
            cfg.min[0] + (max_x + 1) as f64 * vs,
            cfg.min[1] + (max_y + 1) as f64 * vs,
            top_m,
        ],
    );
    if long > 8.0 || short > 4.0 || top_m > 2.6 {
        return Some(Classified::Structure(footprint));
    }
    // Wall-profile rejection: a near façade fragment is occupied through the
    // visible z range (3+ layers per footprint column), while cars show at
    // most two (body + roof). Applies only to car-sized clusters —
    // pedestrians/cyclists are legitimately tall and thin.
    let mut columns: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    for &(ix, iy, _) in cluster {
        *columns.entry((ix, iy)).or_insert(0) += 1;
    }
    let mean_depth = cluster.len() as f64 / columns.len().max(1) as f64;
    if long >= 2.8 && mean_depth >= 2.75 {
        return Some(Classified::Structure(footprint));
    }
    // Classification: a side-viewed car shows its length; an end-on car shows
    // only its ~1.8 m-wide tail — wider across the ray than a pedestrian and,
    // unlike pedestrians/cyclists (~1.75 m tall), no taller than ~1.6 m.
    let tall = (max_z as f64 + 1.0) * vs + cfg.min[2] > 1.7;
    let end_on_car = !tall && ext_c >= 1.4 && ext_r < 2.8;
    let class = if long >= 2.8 || end_on_car {
        ObjectClass::Car
    } else if long >= 1.4 {
        ObjectClass::Cyclist
    } else {
        ObjectClass::Pedestrian
    };
    let nominal = class.nominal_size();
    // Template orientation: along the footprint's long axis, except for an
    // end-on car whose hidden length runs along the viewing ray.
    let long_on_x = if end_on_car && long < 2.8 {
        radial[0].abs() >= radial[1].abs()
    } else {
        ext_x >= ext_y
    };
    let (sx, sy) = if long_on_x {
        (nominal[0], nominal[1])
    } else {
        (nominal[1], nominal[0])
    };
    // Shadow de-bias: push the center away from the sensor by half the
    // unobserved depth of the template.
    let tmpl_r = sx * radial[0].abs() + sy * radial[1].abs();
    let shift = ((tmpl_r - ext_r) / 2.0).clamp(0.0, tmpl_r / 2.0);
    let cx = cx + shift * radial[0];
    let cy = cy + shift * radial[1];
    let aabb = Aabb::from_center_size([cx, cy, nominal[2] / 2.0], [sx, sy, nominal[2]]);

    // Confidence: cross-extent-template agreement × voxel support. The
    // cross-radial extent is the shadow-free measurement.
    let expected_c = (sx * cross[0].abs() + sy * cross[1].abs()).max(vs);
    let ratio = (ext_c / (expected_c + vs)).min((expected_c + vs) / ext_c);
    let support = 1.0 - (-(cluster.len() as f64) / 4.0).exp();
    Some(Classified::Object(Detection3d {
        class,
        aabb,
        score: ratio * support,
    }))
}

/// Two-stage refinement: re-center (and for well-supported clusters,
/// re-size) the box from raw points inside the dilated proposal.
fn refine_with_points(det: &mut Detection3d, cloud: &PointCloud) {
    let dilate = 0.6;
    let region = Aabb::new(
        [
            det.aabb.min[0] - dilate,
            det.aabb.min[1] - dilate,
            det.aabb.min[2] - dilate,
        ],
        [
            det.aabb.max[0] + dilate,
            det.aabb.max[1] + dilate,
            det.aabb.max[2] + dilate,
        ],
    );
    let inside: Vec<[f64; 3]> = cloud
        .iter()
        .filter(|p| region.contains(p.position()))
        .map(|p| p.position())
        .collect();
    if inside.len() < 3 {
        return; // no point support (masked region) — keep the proposal
    }
    let n = inside.len() as f64;
    let px = inside.iter().map(|p| p[0]).sum::<f64>() / n;
    let py = inside.iter().map(|p| p[1]).sum::<f64>() / n;
    let old = det.aabb.center();
    let size = [
        det.aabb.max[0] - det.aabb.min[0],
        det.aabb.max[1] - det.aabb.min[1],
        det.aabb.max[2] - det.aabb.min[2],
    ];
    // Cars suffer shadow bias: their points lie on the sensor-facing surface,
    // so pulling the center to the point centroid would undo the proposal's
    // radial de-bias. Refine cars only across the viewing ray; small objects
    // (shallower than a voxel) refine fully.
    let (cx, cy) = if det.class == ObjectClass::Car {
        let r = old[0].hypot(old[1]).max(1e-6);
        let cross = [-old[1] / r, old[0] / r];
        let delta_c = (px - old[0]) * cross[0] + (py - old[1]) * cross[1];
        (old[0] + delta_c * cross[0], old[1] + delta_c * cross[1])
    } else {
        (px, py)
    };
    det.aabb = Aabb::from_center_size([cx, cy, size[2] / 2.0], size);
    // Point support sharpens confidence.
    det.score = (det.score * 1.2 + 0.1 * (1.0 - (-n / 10.0).exp())).min(1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_lidar::raycast::{Lidar, LidarConfig};
    use sensact_lidar::scene::{Scene, SceneGenerator, SceneObject};
    use sensact_lidar::voxel::VoxelizerConfig;
    use sensact_math::metrics::iou_aabb;

    fn fine_grid() -> VoxelizerConfig {
        VoxelizerConfig {
            min: [0.0, -14.4, 0.0],
            max: [48.0, 14.4, 3.2],
            voxel_size: 0.8,
        }
    }

    fn scan_scene(scene: &Scene) -> PointCloud {
        Lidar::new(LidarConfig::default()).scan(scene)
    }

    fn single_object_scene(class: ObjectClass, center: [f64; 3]) -> Scene {
        let size = class.nominal_size();
        Scene::from_objects(vec![SceneObject::new(
            class,
            Aabb::from_center_size([center[0], center[1], size[2] / 2.0], size),
        )])
    }

    #[test]
    fn detects_single_car() {
        let scene = single_object_scene(ObjectClass::Car, [12.0, 0.0, 0.0]);
        let cloud = scan_scene(&scene);
        let grid = VoxelGrid::from_cloud(fine_grid(), &cloud);
        let dets = Detector::second_like().detect(&grid, None);
        let cars: Vec<_> = dets
            .iter()
            .filter(|d| d.class == ObjectClass::Car)
            .collect();
        assert!(!cars.is_empty(), "no car detected; got {dets:?}");
        let gt = &scene.objects()[0].aabb;
        let best = cars
            .iter()
            .map(|d| iou_aabb(&d.aabb, gt))
            .fold(0.0f64, f64::max);
        // Single-stage localization is quantization/shadow limited (that is
        // the SECOND-vs-PV-RCNN gap Table I shows); 0.2 IoU at 0.8 m voxels.
        assert!(best > 0.2, "best car IoU {best}");
    }

    #[test]
    fn detects_pedestrian_with_sensible_center() {
        let scene = single_object_scene(ObjectClass::Pedestrian, [10.0, 3.0, 0.0]);
        let cloud = scan_scene(&scene);
        let grid = VoxelGrid::from_cloud(fine_grid(), &cloud);
        let dets = Detector::second_like().detect(&grid, None);
        assert!(!dets.is_empty(), "nothing detected");
        let d = &dets[0];
        let c = d.aabb.center();
        let err = ((c[0] - 10.0f64).powi(2) + (c[1] - 3.0).powi(2)).sqrt();
        assert!(err < 1.2, "center error {err} for {d:?}");
    }

    #[test]
    fn two_stage_refines_center_with_points() {
        let scene = single_object_scene(ObjectClass::Pedestrian, [10.0, 3.0, 0.0]);
        let cloud = scan_scene(&scene);
        let grid = VoxelGrid::from_cloud(fine_grid(), &cloud);
        let d1 = Detector::second_like().detect(&grid, None);
        let d2 = Detector::pvrcnn_like().detect(&grid, Some(&cloud));
        assert!(!d1.is_empty() && !d2.is_empty());
        let err = |d: &Detection3d| {
            let c = d.aabb.center();
            ((c[0] - 10.0f64).powi(2) + (c[1] - 3.0).powi(2)).sqrt()
        };
        let e1 = d1.iter().map(err).fold(f64::INFINITY, f64::min);
        let e2 = d2.iter().map(err).fold(f64::INFINITY, f64::min);
        assert!(e2 <= e1 + 1e-9, "refined {e2} vs raw {e1}");
        assert!(e2 < 0.5, "refined center error {e2}");
    }

    #[test]
    fn ground_only_grid_yields_nothing() {
        let cloud = scan_scene(&Scene::new());
        let grid = VoxelGrid::from_cloud(fine_grid(), &cloud);
        let dets = Detector::second_like().detect(&grid, None);
        assert!(dets.is_empty(), "ground misdetected: {dets:?}");
    }

    #[test]
    fn buildings_are_not_reported() {
        let scene = single_object_scene(ObjectClass::Building, [20.0, 10.0, 0.0]);
        let cloud = scan_scene(&scene);
        let grid = VoxelGrid::from_cloud(fine_grid(), &cloud);
        let dets = Detector::second_like().detect(&grid, None);
        assert!(
            dets.iter()
                .all(|d| d.class != ObjectClass::Car || d.score < 0.9),
            "building produced confident car: {dets:?}"
        );
    }

    #[test]
    fn full_scene_detects_most_cars() {
        let scene = SceneGenerator::new(5).generate();
        let cloud = scan_scene(&scene);
        let grid = VoxelGrid::from_cloud(fine_grid(), &cloud);
        let dets = Detector::pvrcnn_like().detect(&grid, Some(&cloud));
        let gt_cars = scene.ground_truth(ObjectClass::Car);
        // Count visible GT cars (inside the region, with real point support —
        // the KITTI "DontCare" rule) matched within 1.5 m.
        let in_region = |b: &Aabb| {
            let c = b.center();
            c[0] < 48.0 && c[1].abs() < 14.4 && cloud.points_in(b) >= 20
        };
        let matched = gt_cars
            .iter()
            .filter(|gt| in_region(gt))
            .filter(|gt| {
                dets.iter().any(|d| {
                    let dc = d.aabb.center();
                    let gc = gt.center();
                    ((dc[0] - gc[0]).powi(2) + (dc[1] - gc[1]).powi(2)).sqrt() < 1.5
                })
            })
            .count();
        let total = gt_cars.iter().filter(|gt| in_region(gt)).count();
        assert!(
            matched * 2 >= total,
            "matched only {matched}/{total} in-region cars"
        );
    }

    #[test]
    fn scores_in_unit_interval() {
        let scene = SceneGenerator::new(6).generate();
        let cloud = scan_scene(&scene);
        let grid = VoxelGrid::from_cloud(fine_grid(), &cloud);
        for d in Detector::pvrcnn_like().detect(&grid, Some(&cloud)) {
            assert!((0.0..=1.0).contains(&d.score), "score {}", d.score);
        }
    }

    #[test]
    fn min_cluster_filters_specks() {
        let scene = single_object_scene(ObjectClass::Pedestrian, [10.0, 3.0, 0.0]);
        let cloud = scan_scene(&scene);
        let grid = VoxelGrid::from_cloud(fine_grid(), &cloud);
        let mut detector = Detector::second_like();
        detector.min_cluster = 1000;
        assert!(detector.detect(&grid, None).is_empty());
    }
}
