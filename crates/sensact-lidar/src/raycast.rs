//! Spinning multi-beam LiDAR ray-casting.
//!
//! The sensor sits at the origin at `mount_height` above the ground plane
//! `z = 0`. Beams fan vertically between `fov_down` and `fov_up` (radians);
//! each revolution takes `azimuth_steps` pulses. A pulse returns the nearest
//! intersection with a scene box (slab method) or the ground plane, if within
//! `max_range`.

use crate::pointcloud::{Point, PointCloud};
use crate::scene::Scene;
use sensact_math::metrics::Aabb;

/// Geometry and sampling configuration of the simulated LiDAR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LidarConfig {
    /// Number of vertical beams (channels).
    pub beams: u16,
    /// Azimuth steps per 360° revolution.
    pub azimuth_steps: u16,
    /// Lowest beam elevation (radians, negative = down).
    pub fov_down: f64,
    /// Highest beam elevation (radians).
    pub fov_up: f64,
    /// Maximum measurable range (metres).
    pub max_range: f64,
    /// Sensor height above ground (metres).
    pub mount_height: f64,
}

impl Default for LidarConfig {
    /// A 64-beam, 512-azimuth sensor resembling the KITTI HDL-64E geometry.
    fn default() -> Self {
        LidarConfig {
            beams: 64,
            azimuth_steps: 512,
            fov_down: -0.4363, // -25°
            fov_up: 0.0524,    // +3°
            max_range: 80.0,
            mount_height: 1.73,
        }
    }
}

impl LidarConfig {
    /// Total pulses per revolution.
    pub fn pulses_per_scan(&self) -> usize {
        self.beams as usize * self.azimuth_steps as usize
    }

    /// Unit direction of pulse `(beam, azimuth)`.
    #[cfg(test)]
    pub(crate) fn direction(&self, beam: u16, azimuth: u16) -> [f64; 3] {
        let (el, az) = (self.elevation(beam), self.azimuth_angle(azimuth));
        [el.cos() * az.cos(), el.cos() * az.sin(), el.sin()]
    }

    /// Elevation of a beam (radians).
    fn elevation(&self, beam: u16) -> f64 {
        if self.beams <= 1 {
            self.fov_down
        } else {
            self.fov_down + (self.fov_up - self.fov_down) * beam as f64 / (self.beams - 1) as f64
        }
    }

    /// Azimuth angle of an azimuth step (radians).
    fn azimuth_angle(&self, azimuth: u16) -> f64 {
        2.0 * std::f64::consts::PI * azimuth as f64 / self.azimuth_steps as f64
    }
}

/// Ray/axis-aligned-box intersection by the slab method. Returns the entry
/// distance `t >= 0` if the ray hits.
pub(crate) fn ray_aabb(origin: [f64; 3], dir: [f64; 3], aabb: &Aabb) -> Option<f64> {
    let mut t_near = 0.0f64;
    let mut t_far = f64::INFINITY;
    for i in 0..3 {
        if dir[i].abs() < 1e-12 {
            if origin[i] < aabb.min[i] || origin[i] > aabb.max[i] {
                return None;
            }
            continue;
        }
        let inv = 1.0 / dir[i];
        let mut t0 = (aabb.min[i] - origin[i]) * inv;
        let mut t1 = (aabb.max[i] - origin[i]) * inv;
        if t0 > t1 {
            std::mem::swap(&mut t0, &mut t1);
        }
        t_near = t_near.max(t0);
        t_far = t_far.min(t1);
        if t_near > t_far {
            return None;
        }
    }
    Some(t_near)
}

/// The simulated sensor.
#[derive(Debug, Clone)]
pub struct Lidar {
    config: LidarConfig,
    /// `(cos, sin)` of each beam's elevation.
    beam_trig: Vec<(f64, f64)>,
    /// `(cos, sin)` of each azimuth step's angle.
    azimuth_trig: Vec<(f64, f64)>,
}

impl Lidar {
    /// Sensor with the given configuration. The per-beam and per-azimuth
    /// sines and cosines a scan multiplies are computed here, once, with
    /// the arithmetic of `LidarConfig::direction`.
    pub fn new(config: LidarConfig) -> Self {
        let trig = |angle: f64| (angle.cos(), angle.sin());
        Lidar {
            beam_trig: (0..config.beams)
                .map(|b| trig(config.elevation(b)))
                .collect(),
            azimuth_trig: (0..config.azimuth_steps)
                .map(|a| trig(config.azimuth_angle(a)))
                .collect(),
            config,
        }
    }

    /// The sensor configuration.
    pub fn config(&self) -> &LidarConfig {
        &self.config
    }

    /// Cast one pulse; returns the hit point if any surface is within range.
    /// The reference path: the direction comes from
    /// [`LidarConfig::direction`], not from the scan's tables.
    #[cfg(test)]
    pub(crate) fn cast(&self, scene: &Scene, beam: u16, azimuth: u16) -> Option<Point> {
        let dir = self.config.direction(beam, azimuth);
        self.cast_over(scene.objects().iter(), beam, azimuth, dir)
    }

    /// [`LidarConfig::direction`] from the tables: the same factors,
    /// multiplied the same way, without a libm call.
    fn table_direction(&self, beam: u16, azimuth: u16) -> [f64; 3] {
        let (cos_el, sin_el) = self.beam_trig[beam as usize];
        let (cos_az, sin_az) = self.azimuth_trig[azimuth as usize];
        [cos_el * cos_az, cos_el * sin_az, sin_el]
    }

    /// Cast one pulse along `dir` against an explicit candidate-object
    /// iterator. The candidates must preserve scene order so
    /// first-seen-wins ties match the unfiltered [`Lidar::cast`].
    fn cast_over<'a>(
        &self,
        objects: impl Iterator<Item = &'a crate::scene::SceneObject>,
        beam: u16,
        azimuth: u16,
        dir: [f64; 3],
    ) -> Option<Point> {
        let origin = [0.0, 0.0, self.config.mount_height];
        let mut best_t = f64::INFINITY;

        // Ground plane z = 0.
        if dir[2] < -1e-12 {
            let t = -origin[2] / dir[2];
            if t > 0.0 {
                best_t = t;
            }
        }
        // Scene boxes.
        for obj in objects {
            if let Some(t) = ray_aabb(origin, dir, &obj.aabb) {
                if t > 1e-9 && t < best_t {
                    best_t = t;
                }
            }
        }
        if best_t.is_finite() && best_t <= self.config.max_range {
            Some(Point {
                x: origin[0] + best_t * dir[0],
                y: origin[1] + best_t * dir[1],
                z: origin[2] + best_t * dir[2],
                range: best_t,
                beam,
                azimuth,
            })
        } else {
            None
        }
    }

    /// The azimuth broad phase as one flat index: column `k`'s candidates
    /// are `ids[offs[k]..offs[k + 1]]`, the indices (in scene order) of the
    /// objects whose horizontal angular extent covers column `k`.
    ///
    /// The xy-projection of a pulse from the origin points at exactly the
    /// column's azimuth angle, so a box can only be hit from columns inside
    /// its angular interval — computed from the four xy-corners (the extent
    /// of a convex region not containing the origin is attained at its
    /// vertices) and dilated by one column on each side against rounding.
    /// Culling is therefore exact: casting against a column's candidates
    /// returns bit-identical results to casting against the whole scene.
    ///
    /// Built per scan in at most three allocations whatever the scene: each
    /// object's run of columns, then the counts summed into `offs`, then
    /// `ids` filled from the back so each column keeps scene order.
    fn column_index(&self, scene: &Scene) -> (Vec<u32>, Vec<u32>) {
        use std::f64::consts::{PI, TAU};
        let steps = self.config.azimuth_steps as usize;
        let everywhere = (0, steps as i64 - 1);
        // Object `i` covers columns `runs[i].0..=runs[i].1`, each taken
        // modulo `steps`; a run never wraps onto itself.
        let mut runs = Vec::with_capacity(scene.objects().len());
        for obj in scene.objects() {
            let bb = &obj.aabb;
            // The sensor axis pierces the box's xy footprint: all azimuths.
            if bb.min[0] <= 0.0 && bb.max[0] >= 0.0 && bb.min[1] <= 0.0 && bb.max[1] >= 0.0 {
                runs.push(everywhere);
                continue;
            }
            let center = (0.5 * (bb.min[1] + bb.max[1])).atan2(0.5 * (bb.min[0] + bb.max[0]));
            let mut dmin = 0.0f64;
            let mut dmax = 0.0f64;
            for &x in &[bb.min[0], bb.max[0]] {
                for &y in &[bb.min[1], bb.max[1]] {
                    let mut d = y.atan2(x) - center;
                    if d > PI {
                        d -= TAU;
                    } else if d < -PI {
                        d += TAU;
                    }
                    dmin = dmin.min(d);
                    dmax = dmax.max(d);
                }
            }
            let k0 = ((center + dmin) / TAU * steps as f64).floor() as i64 - 1;
            let k1 = ((center + dmax) / TAU * steps as f64).ceil() as i64 + 1;
            if k1 - k0 + 1 >= steps as i64 {
                runs.push(everywhere);
            } else {
                runs.push((k0, k1));
            }
        }
        let column = |k: i64| k.rem_euclid(steps as i64) as usize;
        // `offs[k]` counts column `k`'s candidates, then (summed) ends them.
        let mut offs = vec![0u32; steps + 1];
        for &(k0, k1) in &runs {
            for k in k0..=k1 {
                offs[column(k)] += 1;
            }
        }
        let mut total = 0;
        for end in &mut offs[..steps] {
            total += *end;
            *end = total;
        }
        offs[steps] = total;
        // Last object first, each placed just below its column's end: the
        // column's ends walk down to its starts and scene order holds.
        let mut ids = vec![0u32; total as usize];
        for (idx, &(k0, k1)) in runs.iter().enumerate().rev() {
            for k in k0..=k1 {
                let at = &mut offs[column(k)];
                *at -= 1;
                ids[*at as usize] = idx as u32;
            }
        }
        (offs, ids)
    }

    /// Full 360° scan: every (beam, azimuth) pulse, beam-major, over the
    /// azimuth broad phase. Bit-identical to casting every pulse against
    /// every scene object.
    pub fn scan(&self, scene: &Scene) -> PointCloud {
        self.scan_masked(scene, |_, _| true).0
    }

    /// Naive full scan: every pulse tested against every scene object, no
    /// broad phase. Ground truth for the equivalence tests.
    #[cfg(test)]
    pub(crate) fn scan_reference(&self, scene: &Scene) -> PointCloud {
        let mut cloud = PointCloud::new();
        for beam in 0..self.config.beams {
            for az in 0..self.config.azimuth_steps {
                if let Some(p) = self.cast(scene, beam, az) {
                    cloud.push(p);
                }
            }
        }
        cloud
    }

    /// Masked scan: fire only the pulses the mask selects; returns the cloud
    /// plus how many pulses were actually fired.
    ///
    /// `fire(beam, azimuth)` is called exactly once per pulse, beam-major
    /// and in azimuth order, whatever it answers, so a stateful mask (a
    /// [`RadialMask`](crate::mask::RadialMask) drawing from its RNG) sees
    /// the same sequence as a per-pulse loop. The cloud holds the fired
    /// pulses' returns in that same order, each bit-identical to casting
    /// the pulse against every scene object. Casting scales with the
    /// pulses fired: each beam first collects its fired azimuths, then
    /// casts only those against their columns' candidates.
    pub fn scan_masked(
        &self,
        scene: &Scene,
        mut fire: impl FnMut(u16, u16) -> bool,
    ) -> (PointCloud, usize) {
        let (offs, ids) = self.column_index(scene);
        let objects = scene.objects();
        let mut cloud = PointCloud::new();
        let mut fired = 0usize;
        // One beam's fired azimuths. Every azimuth is written and the count
        // advances by the answer, so the walk has no branch on it (a mask's
        // answers are close to random).
        let mut lit = vec![0u16; self.config.azimuth_steps as usize];
        for beam in 0..self.config.beams {
            let mut n = 0;
            for az in 0..self.config.azimuth_steps {
                lit[n] = az;
                n += usize::from(fire(beam, az));
            }
            fired += n;
            for &az in &lit[..n] {
                let column = &ids[offs[az as usize] as usize..offs[az as usize + 1] as usize];
                let candidates = column.iter().map(|&i| &objects[i as usize]);
                let dir = self.table_direction(beam, az);
                if let Some(p) = self.cast_over(candidates, beam, az, dir) {
                    cloud.push(p);
                }
            }
        }
        (cloud, fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{ObjectClass, SceneGenerator, SceneObject};
    use sensact_math::metrics::Aabb;

    fn single_box_scene() -> Scene {
        Scene::from_objects(vec![SceneObject::new(
            ObjectClass::Car,
            Aabb::from_center_size([10.0, 0.0, 0.75], [4.0, 1.8, 1.5]),
        )])
    }

    #[test]
    fn ray_aabb_direct_hit() {
        let aabb = Aabb::new([5.0, -1.0, -1.0], [7.0, 1.0, 1.0]);
        let t = ray_aabb([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], &aabb).unwrap();
        assert!((t - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ray_aabb_miss() {
        let aabb = Aabb::new([5.0, 2.0, -1.0], [7.0, 4.0, 1.0]);
        assert!(ray_aabb([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], &aabb).is_none());
    }

    #[test]
    fn ray_aabb_parallel_axis_inside_slab() {
        let aabb = Aabb::new([5.0, -1.0, -1.0], [7.0, 1.0, 1.0]);
        // Parallel to y with origin inside the y-slab: hit.
        assert!(ray_aabb([0.0, 0.5, 0.0], [1.0, 0.0, 0.0], &aabb).is_some());
        // Outside the y-slab: miss.
        assert!(ray_aabb([0.0, 2.0, 0.0], [1.0, 0.0, 0.0], &aabb).is_none());
    }

    #[test]
    fn forward_beam_hits_box_at_expected_range() {
        let lidar = Lidar::new(LidarConfig {
            beams: 1,
            azimuth_steps: 4,
            fov_down: 0.0,
            fov_up: 0.0,
            max_range: 50.0,
            mount_height: 0.75,
        });
        let p = lidar.cast(&single_box_scene(), 0, 0).unwrap();
        // Box near face at x = 8.
        assert!((p.range - 8.0).abs() < 1e-9, "range {}", p.range);
        assert!((p.x - 8.0).abs() < 1e-9);
    }

    #[test]
    fn downward_beam_hits_ground() {
        let lidar = Lidar::new(LidarConfig {
            beams: 1,
            azimuth_steps: 4,
            fov_down: -0.5,
            fov_up: -0.5,
            max_range: 50.0,
            mount_height: 1.73,
        });
        let p = lidar.cast(&Scene::new(), 0, 1).unwrap(); // az=1 → +y direction
        assert!(p.z.abs() < 1e-9, "ground hit z {}", p.z);
        assert!(p.range > 1.73);
    }

    #[test]
    fn upward_beam_into_empty_sky_misses() {
        let lidar = Lidar::new(LidarConfig {
            beams: 1,
            azimuth_steps: 4,
            fov_down: 0.3,
            fov_up: 0.3,
            max_range: 50.0,
            mount_height: 1.73,
        });
        assert!(lidar.cast(&Scene::new(), 0, 0).is_none());
    }

    #[test]
    fn out_of_range_surface_missed() {
        let lidar = Lidar::new(LidarConfig {
            beams: 1,
            azimuth_steps: 4,
            fov_down: 0.0,
            fov_up: 0.0,
            max_range: 5.0,
            mount_height: 0.75,
        });
        assert!(lidar.cast(&single_box_scene(), 0, 0).is_none());
    }

    #[test]
    fn full_scan_produces_dense_cloud() {
        let scene = SceneGenerator::new(11).generate();
        let lidar = Lidar::new(LidarConfig::default());
        let cloud = lidar.scan(&scene);
        // Most downward beams hit ground or objects.
        assert!(
            cloud.len() > lidar.config().pulses_per_scan() / 3,
            "only {} returns",
            cloud.len()
        );
        // All ranges within the sensor limit.
        assert!(cloud
            .iter()
            .all(|p| p.range <= lidar.config().max_range + 1e-9));
    }

    #[test]
    fn masked_scan_fires_subset() {
        let scene = SceneGenerator::new(11).generate();
        let lidar = Lidar::new(LidarConfig::default());
        let (cloud_all, fired_all) = lidar.scan_masked(&scene, |_, _| true);
        let (cloud_half, fired_half) = lidar.scan_masked(&scene, |_, az| az % 2 == 0);
        assert_eq!(fired_all, lidar.config().pulses_per_scan());
        assert_eq!(fired_half, fired_all / 2);
        assert!(cloud_half.len() < cloud_all.len());
        assert!(cloud_half.len() > cloud_all.len() / 3);
    }

    #[test]
    fn direction_unit_norm_and_coverage() {
        let cfg = LidarConfig::default();
        for &(b, a) in &[(0u16, 0u16), (31, 100), (63, 511)] {
            let d = cfg.direction(b, a);
            let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
        // Beam 0 points down, top beam points up.
        assert!(cfg.direction(0, 0)[2] < 0.0);
        assert!(cfg.direction(63, 0)[2] > 0.0);
    }

    /// The scan's tables give [`LidarConfig::direction`]'s bits for every
    /// pulse: the default sensor, one beam (the `fov_down` branch) and an
    /// odd azimuth count.
    #[test]
    fn table_directions_are_the_config_directions() {
        for config in [
            LidarConfig::default(),
            LidarConfig {
                beams: 1,
                ..LidarConfig::default()
            },
            LidarConfig {
                beams: 5,
                azimuth_steps: 333,
                ..LidarConfig::default()
            },
        ] {
            let lidar = Lidar::new(config);
            for beam in 0..config.beams {
                for az in 0..config.azimuth_steps {
                    let (want, got) = (config.direction(beam, az), lidar.table_direction(beam, az));
                    assert_eq!(
                        want.map(f64::to_bits),
                        got.map(f64::to_bits),
                        "({beam}, {az})"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_is_deterministic() {
        let scene = SceneGenerator::new(2).generate();
        let lidar = Lidar::new(LidarConfig::default());
        assert_eq!(lidar.scan(&scene), lidar.scan(&scene));
    }

    #[test]
    fn scan_matches_reference_bit_for_bit() {
        // Default config: 64×512 = 32768 pulses.
        for seed in [1u64, 2, 3, 11, 42] {
            let scene = SceneGenerator::new(seed).generate();
            let lidar = Lidar::new(LidarConfig::default());
            assert_eq!(lidar.scan(&scene), lidar.scan_reference(&scene));
        }
    }

    #[test]
    fn small_scan_matches_reference() {
        let scene = SceneGenerator::new(7).generate();
        let lidar = Lidar::new(LidarConfig {
            beams: 8,
            azimuth_steps: 32,
            ..LidarConfig::default()
        });
        assert_eq!(lidar.scan(&scene), lidar.scan_reference(&scene));
    }

    #[test]
    fn masked_scan_matches_reference_per_pulse() {
        let scene = SceneGenerator::new(5).generate();
        let lidar = Lidar::new(LidarConfig::default());
        let (bucketed, fired) = lidar.scan_masked(&scene, |b, az| (b + az) % 3 == 0);
        let mut reference = PointCloud::new();
        for beam in 0..lidar.config().beams {
            for az in 0..lidar.config().azimuth_steps {
                if (beam + az) % 3 != 0 {
                    continue;
                }
                if let Some(p) = lidar.cast(&scene, beam, az) {
                    reference.push(p);
                }
            }
        }
        assert!(fired > 0);
        assert_eq!(bucketed, reference);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::scene::{ObjectClass, Scene, SceneObject};
    use sensact_math::metrics::Aabb;
    use sensact_math::rng::StdRng;

    /// The slab test agrees with analytic point-marching: if the ray hits,
    /// the reported entry point lies on the box boundary (within eps) and
    /// no earlier point along the ray is inside the box.
    #[test]
    fn prop_ray_aabb_entry_point_on_boundary() {
        let mut rng = StdRng::seed_from_u64(0x4AA801);
        for _ in 0..64 {
            let cx = rng.random_range(4.0..30.0);
            let cy = rng.random_range(-10.0..10.0);
            let cz = rng.random_range(0.5..3.0);
            let sx = rng.random_range(0.5..4.0);
            let sy = rng.random_range(0.5..4.0);
            let sz = rng.random_range(0.5..2.0);
            let dir_az = rng.random_range(0.0..std::f64::consts::TAU);
            let dir_el = rng.random_range(-0.4..0.2);
            let aabb = Aabb::from_center_size([cx, cy, cz], [sx, sy, sz]);
            let dir = [
                dir_el.cos() * dir_az.cos(),
                dir_el.cos() * dir_az.sin(),
                dir_el.sin(),
            ];
            let origin = [0.0, 0.0, 1.73];
            if let Some(t) = ray_aabb(origin, dir, &aabb) {
                let p = [
                    origin[0] + t * dir[0],
                    origin[1] + t * dir[1],
                    origin[2] + t * dir[2],
                ];
                // Entry point is inside the (slightly dilated) box…
                let eps = 1e-6;
                for ((&pi, &lo), &hi) in p.iter().zip(&aabb.min).zip(&aabb.max) {
                    assert!(pi >= lo - eps && pi <= hi + eps);
                }
                // …and the midpoint of the segment before entry is outside
                // (unless the origin itself is inside).
                if !aabb.contains(origin) && t > 1e-6 {
                    let half = t / 2.0;
                    let q = [
                        origin[0] + half * dir[0],
                        origin[1] + half * dir[1],
                        origin[2] + half * dir[2],
                    ];
                    assert!(!aabb.contains(q), "entered earlier than reported");
                }
            }
        }
    }

    /// The azimuth broad phase is exact: scans of random box soups —
    /// including boxes straddling the ±π azimuth seam and boxes whose
    /// footprint covers the sensor axis — equal the cull-free reference
    /// bit for bit.
    #[test]
    fn prop_bucketed_scan_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x4AA803);
        for case in 0..24 {
            let nobj = rng.random_range(1..12usize);
            let mut objects = Vec::new();
            for _ in 0..nobj {
                let (cx, cy) = if case % 3 == 0 {
                    // Cluster around the -x axis: angular wrap at ±π.
                    (rng.random_range(-30.0..-4.0), rng.random_range(-3.0..3.0))
                } else {
                    (rng.random_range(-20.0..40.0), rng.random_range(-20.0..20.0))
                };
                objects.push(SceneObject::new(
                    ObjectClass::Car,
                    Aabb::from_center_size(
                        [cx, cy, rng.random_range(0.2..2.0)],
                        [
                            rng.random_range(0.5..8.0),
                            rng.random_range(0.5..8.0),
                            rng.random_range(0.5..3.0),
                        ],
                    ),
                ));
            }
            let scene = Scene::from_objects(objects);
            let lidar = Lidar::new(LidarConfig {
                beams: rng.random_range(2..8u16),
                azimuth_steps: rng.random_range(16..128u16),
                ..LidarConfig::default()
            });
            assert_eq!(lidar.scan(&scene), lidar.scan_reference(&scene));
        }
    }

    /// A random box soup for case `case`: every third case clusters its
    /// boxes on the ±π azimuth seam, and every fourth adds a box whose
    /// footprint covers the sensor axis (low, high, or around the sensor).
    fn random_scene(rng: &mut StdRng, case: usize) -> Scene {
        let mut objects = Vec::new();
        for _ in 0..rng.random_range(0..10usize) {
            let (cx, cy) = if case.is_multiple_of(3) {
                (rng.random_range(-30.0..-3.0), rng.random_range(-3.0..3.0))
            } else {
                (rng.random_range(-40.0..40.0), rng.random_range(-30.0..30.0))
            };
            let center = [cx, cy, rng.random_range(0.2..2.5)];
            let size = [
                rng.random_range(0.3..9.0),
                rng.random_range(0.3..9.0),
                rng.random_range(0.3..3.0),
            ];
            objects.push(SceneObject::new(
                ObjectClass::Car,
                Aabb::from_center_size(center, size),
            ));
        }
        if case % 4 == 1 {
            let center = [
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-0.5..4.0),
            ];
            let size = [
                rng.random_range(2.5..12.0),
                rng.random_range(2.5..12.0),
                rng.random_range(0.2..2.0),
            ];
            let at = rng.random_range(0..=objects.len());
            objects.insert(
                at,
                SceneObject::new(ObjectClass::Car, Aabb::from_center_size(center, size)),
            );
        }
        Scene::from_objects(objects)
    }

    /// A random sensor: one beam every fifth case, 333 azimuth steps every
    /// fourth.
    fn random_config(rng: &mut StdRng, case: usize) -> LidarConfig {
        LidarConfig {
            beams: if case.is_multiple_of(5) {
                1
            } else {
                rng.random_range(2..12u16)
            },
            azimuth_steps: if case.is_multiple_of(4) {
                333
            } else {
                rng.random_range(1..200u16)
            },
            fov_down: rng.random_range(-0.6..-0.05),
            fov_up: rng.random_range(-0.05..0.3),
            max_range: rng.random_range(5.0..90.0),
            mount_height: rng.random_range(0.3..3.0),
        }
    }

    /// `scan_masked` under `fire` against a per-pulse loop under `oracle`
    /// (its twin, in the same state), which casts each fired pulse against
    /// every scene object: the same cloud, the same fired count, and
    /// `fire` called once per pulse in beam-major order.
    fn assert_scan_contract(
        lidar: &Lidar,
        scene: &Scene,
        what: &str,
        mut fire: impl FnMut(u16, u16) -> bool,
        mut oracle: impl FnMut(u16, u16) -> bool,
    ) {
        let config = *lidar.config();
        let mut calls = Vec::new();
        let (cloud, fired) = lidar.scan_masked(scene, |beam, az| {
            calls.push((beam, az));
            fire(beam, az)
        });
        let (mut want, mut want_fired) = (PointCloud::new(), 0);
        for beam in 0..config.beams {
            for az in 0..config.azimuth_steps {
                if oracle(beam, az) {
                    want_fired += 1;
                    if let Some(p) = lidar.cast(scene, beam, az) {
                        want.push(p);
                    }
                }
            }
        }
        assert_eq!(fired, want_fired, "{what}: fired count, {config:?}");
        assert_eq!(cloud, want, "{what}: cloud, {config:?}");
        let pulses = (0..config.beams).flat_map(|b| (0..config.azimuth_steps).map(move |a| (b, a)));
        assert!(
            calls.into_iter().eq(pulses),
            "{what}: call sequence, {config:?}"
        );
    }

    /// The scan contract over `cases` seeded random scenes and sensors,
    /// under four closures: a stateful radial mask (whose RNG must end
    /// where its per-pulse twin's does), a beam-dependent mask fed a prior
    /// scan's ranges as `table2` does, all-false and all-true.
    fn check_scan_contract(seed: u64, cases: usize) {
        use crate::mask::{RadialMask, RadialMaskConfig};
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..cases {
            let scene = random_scene(&mut rng, case);
            let lidar = Lidar::new(random_config(&mut rng, case));
            let steps = lidar.config().azimuth_steps;
            let mask_config = RadialMaskConfig {
                segment_keep: rng.random_range(0.03..1.0),
            };
            let mask_seed = rng.next_u64();
            let range = rng.random_range(0.0..60.0);

            let mut mask = RadialMask::sample(mask_config, steps, mask_seed);
            let mut twin = RadialMask::sample(mask_config, steps, mask_seed);
            assert_scan_contract(
                &lidar,
                &scene,
                "radial mask",
                |_, az| mask.fire(az, range),
                |_, az| twin.fire(az, range),
            );
            assert_eq!(mask.rng_state(), twin.rng_state(), "case {case}");

            let full = lidar.scan_reference(&scene);
            let prior: HashMap<(u16, u16), f64> = full
                .iter()
                .map(|p| ((p.beam, p.azimuth), p.range))
                .collect();
            let expected = |beam, az| prior.get(&(beam, az)).copied().unwrap_or(full.mean_range());
            let mut mask = RadialMask::sample(mask_config, steps, !mask_seed);
            let mut twin = RadialMask::sample(mask_config, steps, !mask_seed);
            assert_scan_contract(
                &lidar,
                &scene,
                "prior-range mask",
                |beam, az| mask.fire(az, expected(beam, az)),
                |beam, az| twin.fire(az, expected(beam, az)),
            );
            assert_eq!(mask.rng_state(), twin.rng_state(), "case {case}");

            assert_scan_contract(&lidar, &scene, "all-false", |_, _| false, |_, _| false);
            assert_scan_contract(&lidar, &scene, "all-true", |_, _| true, |_, _| true);
        }
    }

    /// `scan_masked` keeps its contract (see [`check_scan_contract`]).
    #[test]
    fn prop_masked_scan_matches_the_per_pulse_oracle() {
        check_scan_contract(0x4AA804, 48);
    }

    /// Long mode of [`prop_masked_scan_matches_the_per_pulse_oracle`]:
    /// `cargo test -p sensact-lidar --lib masked_scan -- --ignored`.
    #[test]
    #[ignore]
    fn prop_masked_scan_matches_the_per_pulse_oracle_long() {
        check_scan_contract(0x4AA805, 20_000);
    }

    /// Every return of a scan lies within max range and at/above ground.
    #[test]
    fn prop_scan_returns_within_physical_bounds() {
        let mut rng = StdRng::seed_from_u64(0x4AA802);
        for _ in 0..16 {
            let x = rng.random_range(6.0..40.0);
            let y = rng.random_range(-8.0..8.0);
            let beams = rng.random_range(4..16u16);
            let scene = Scene::from_objects(vec![SceneObject::new(
                ObjectClass::Car,
                Aabb::from_center_size([x, y, 0.75], [4.0, 1.8, 1.5]),
            )]);
            let lidar = Lidar::new(LidarConfig {
                beams,
                azimuth_steps: 64,
                ..LidarConfig::default()
            });
            for p in &lidar.scan(&scene) {
                assert!(p.range <= lidar.config().max_range + 1e-9);
                assert!(p.z >= -1e-9, "below ground: {}", p.z);
                // Consistency: |position − origin| == range.
                let d = (p.x * p.x + p.y * p.y + (p.z - 1.73) * (p.z - 1.73)).sqrt();
                assert!((d - p.range).abs() < 1e-9);
            }
        }
    }
}
