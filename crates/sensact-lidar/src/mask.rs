//! R-MAE's two-stage radial masking (paper §III, Fig. 3).
//!
//! Stage 1 groups the azimuth sweep into angular segments and keeps a random
//! subset of segments. Stage 2 applies a range-dependent keep probability
//! within the kept segments: because pulse energy scales as `R⁴`, *distant*
//! returns are the expensive ones, so the keep probability decays with the
//! expected range of the ray. The overall kept fraction lands around the
//! paper's 8–10 % of the scene.

use sensact_math::rng::StdRng;

/// Number of angular segments per revolution (stage 1 granularity).
const SEGMENTS: u16 = 32;
/// Keep probability at zero range for stage 2, in `(0, 1]`.
const KEEP_AT_ZERO: f64 = 0.7;
/// Range (metres) at which the stage-2 keep probability halves.
const HALF_RANGE: f64 = 20.0;

/// Configuration of the two-stage radial mask: 32 angular segments, and a
/// stage-2 keep probability of 0.7 at zero range that halves every 20 m.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadialMaskConfig {
    /// Fraction of segments kept by stage 1, in `(0, 1]`.
    pub segment_keep: f64,
}

impl Default for RadialMaskConfig {
    /// Defaults calibrated so a KITTI-like scan keeps roughly 10 % of pulses.
    fn default() -> Self {
        RadialMaskConfig { segment_keep: 0.25 }
    }
}

/// A sampled mask over (beam, azimuth) pulses.
#[derive(Debug)]
pub struct RadialMask {
    azimuth_steps: u16,
    kept_segments: Vec<bool>,
    /// Stage-1 verdict of each azimuth step below `azimuth_steps`.
    kept_azimuths: Vec<bool>,
    /// The last `(expected_range.to_bits(), keep_probability)` pair `fire`
    /// used: a sweep asks for the same range pulse after pulse.
    last_keep: (u64, f64),
    rng: StdRng,
}

impl RadialMask {
    /// Sample a mask for a sensor with `azimuth_steps` pulses per revolution.
    ///
    /// # Panics
    ///
    /// Panics if `segment_keep` is outside `(0, 1]`.
    pub fn sample(config: RadialMaskConfig, azimuth_steps: u16, seed: u64) -> Self {
        assert!(
            config.segment_keep > 0.0 && config.segment_keep <= 1.0,
            "segment_keep must be in (0,1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Stage 1: keep a fixed-size random subset of segments.
        let n_keep = ((SEGMENTS as f64 * config.segment_keep).round() as usize).max(1);
        let mut order: Vec<usize> = (0..SEGMENTS as usize).collect();
        // Fisher–Yates.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut kept = vec![false; SEGMENTS as usize];
        for &s in order.iter().take(n_keep) {
            kept[s] = true;
        }
        let mut mask = RadialMask {
            azimuth_steps,
            kept_segments: kept,
            kept_azimuths: Vec::new(),
            last_keep: (0, 0.0),
            rng,
        };
        mask.kept_azimuths = (0..azimuth_steps)
            .map(|az| mask.kept_segments[mask.segment_of(az)])
            .collect();
        mask.last_keep = (0.0f64.to_bits(), mask.keep_probability(0.0));
        mask
    }

    /// Segment index of an azimuth step.
    pub(crate) fn segment_of(&self, azimuth: u16) -> usize {
        (azimuth as usize * SEGMENTS as usize / self.azimuth_steps as usize)
            .min(SEGMENTS as usize - 1)
    }

    /// Stage-1 decision: is the segment of this azimuth kept?
    #[inline]
    pub(crate) fn segment_kept(&self, azimuth: u16) -> bool {
        match self.kept_azimuths.get(azimuth as usize) {
            Some(&kept) => kept,
            None => self.kept_segments[self.segment_of(azimuth)],
        }
    }

    /// Stage-2 keep probability at an expected range (exponential decay with
    /// a 20 m half-life).
    pub(crate) fn keep_probability(&self, expected_range: f64) -> f64 {
        KEEP_AT_ZERO * 0.5f64.powf(expected_range.max(0.0) / HALF_RANGE)
    }

    /// Full two-stage decision for one pulse: stage 1 on the azimuth segment,
    /// stage 2 Bernoulli on the expected range. Mutates the internal RNG.
    ///
    /// Inlinable across crates: a scan calls it once per pulse, and most
    /// pulses return at the stage-1 table lookup.
    #[inline]
    pub fn fire(&mut self, azimuth: u16, expected_range: f64) -> bool {
        if !self.segment_kept(azimuth) {
            return false;
        }
        let bits = expected_range.to_bits();
        if bits != self.last_keep.0 {
            self.last_keep = (bits, self.keep_probability(expected_range));
        }
        self.rng.random::<f64>() < self.last_keep.1
    }

    /// The stage-2 RNG's state, for tests that compare draw streams.
    #[cfg(test)]
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }
}

/// A uniform (non-radial) random mask used as the ablation baseline: every
/// pulse fires independently with probability `keep`.
#[derive(Debug)]
pub struct UniformMask {
    keep: f64,
    rng: StdRng,
}

impl UniformMask {
    /// Uniform mask keeping each pulse with probability `keep`.
    ///
    /// # Panics
    ///
    /// Panics unless `keep ∈ (0, 1]`.
    pub fn new(keep: f64, seed: u64) -> Self {
        assert!(keep > 0.0 && keep <= 1.0, "keep must be in (0,1]");
        UniformMask {
            keep,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Independent Bernoulli decision for a pulse.
    pub fn fire(&mut self) -> bool {
        self.rng.random::<f64>() < self.keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raycast::{Lidar, LidarConfig};
    use crate::scene::SceneGenerator;

    #[test]
    fn stage1_keeps_configured_fraction() {
        let mask = RadialMask::sample(RadialMaskConfig::default(), 512, 0);
        let frac = (0..512).filter(|&az| mask.segment_kept(az)).count() as f64 / 512.0;
        assert!((frac - 0.25).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn segment_mapping_covers_all_azimuths() {
        let mask = RadialMask::sample(RadialMaskConfig::default(), 512, 1);
        for az in [0u16, 100, 255, 511] {
            assert!(mask.segment_of(az) < 32);
        }
        // Azimuths in the same 16-step window share a segment.
        assert_eq!(mask.segment_of(0), mask.segment_of(15));
        assert_ne!(mask.segment_of(0), mask.segment_of(16));
    }

    #[test]
    fn keep_probability_decays_with_range() {
        let mask = RadialMask::sample(RadialMaskConfig::default(), 512, 2);
        let p0 = mask.keep_probability(0.0);
        let p20 = mask.keep_probability(20.0);
        let p40 = mask.keep_probability(40.0);
        assert!((p0 - 0.7).abs() < 1e-12);
        assert!((p20 - 0.35).abs() < 1e-12, "half-range decay: {p20}");
        assert!((p40 - 0.175).abs() < 1e-12);
    }

    #[test]
    fn masked_pulses_skip_dropped_segments() {
        let mut mask = RadialMask::sample(RadialMaskConfig::default(), 512, 3);
        for az in 0..512u16 {
            if !mask.segment_kept(az) {
                assert!(!mask.fire(az, 0.0));
            }
        }
    }

    #[test]
    fn overall_keep_ratio_near_ten_percent() {
        // End-to-end: masked scan of a real scene keeps ~8–12 % of pulses.
        let scene = SceneGenerator::new(5).generate();
        let lidar = Lidar::new(LidarConfig::default());
        let full = lidar.scan(&scene);
        let mut mask = RadialMask::sample(RadialMaskConfig::default(), 512, 4);
        // Expected range per pulse approximated by the full scan's mean range.
        let expected = full.mean_range();
        let (_, fired) = lidar.scan_masked(&scene, |_, az| mask.fire(az, expected));
        let ratio = fired as f64 / lidar.config().pulses_per_scan() as f64;
        assert!(
            (0.02..0.20).contains(&ratio),
            "masked fire ratio {ratio} out of expected band"
        );
    }

    /// `fire` as it was before the per-azimuth table and the memo: the
    /// oracle.
    fn fire_unmemoised(mask: &mut RadialMask, azimuth: u16, expected_range: f64) -> bool {
        if !mask.kept_segments[mask.segment_of(azimuth)] {
            return false;
        }
        let p = mask.keep_probability(expected_range);
        mask.rng.random::<f64>() < p
    }

    /// The table and the memo change no decision and no RNG draw: repeats,
    /// a change, NaN, a negative range and both zeros (equal values with
    /// different bits), over every azimuth of an odd sensor and past its
    /// last step.
    #[test]
    fn memoised_fire_matches_the_unmemoised_stream() {
        let ranges = [25.0, 25.0, 3.0, f64::NAN, -1.0, -0.0, 0.0, 25.0];
        let mut fast = RadialMask::sample(RadialMaskConfig::default(), 300, 12);
        let mut oracle = RadialMask::sample(RadialMaskConfig::default(), 300, 12);
        for az in 0..310u16 {
            for &r in &ranges {
                let want = fire_unmemoised(&mut oracle, az, r);
                assert_eq!(fast.fire(az, r), want, "az {az} range {r}");
            }
        }
        assert_eq!(fast.rng.state(), oracle.rng.state());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RadialMask::sample(RadialMaskConfig::default(), 512, 9);
        let b = RadialMask::sample(RadialMaskConfig::default(), 512, 9);
        assert_eq!(a.kept_segments, b.kept_segments);
    }

    #[test]
    fn uniform_mask_ratio() {
        let mut m = UniformMask::new(0.3, 0);
        let fired = (0..10_000).filter(|_| m.fire()).count();
        let ratio = fired as f64 / 10_000.0;
        assert!((ratio - 0.3).abs() < 0.03, "uniform ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "segment_keep")]
    fn invalid_segment_keep_panics() {
        let cfg = RadialMaskConfig { segment_keep: 0.0 };
        let _ = RadialMask::sample(cfg, 512, 0);
    }
}

/// Scene-change estimate between two scans: the symmetric-difference ratio of
/// their occupancy on a coarse comparison grid, in `[0, 1]` (0 = identical).
///
/// This is the signal the adaptive mask consumes: static scenes need little
/// fresh sensing, dynamic ones need more (paper §III future work).
pub fn scene_change(previous: &crate::PointCloud, current: &crate::PointCloud) -> f64 {
    let config = crate::voxel::VoxelizerConfig {
        min: [-40.0, -40.0, 0.0],
        max: [40.0, 40.0, 4.0],
        voxel_size: 2.0,
    };
    let a = crate::voxel::VoxelGrid::from_cloud(config, previous);
    let b = crate::voxel::VoxelGrid::from_cloud(config, current);
    1.0 - a.occupancy_iou(&b)
}

/// Adaptive two-stage mask (paper §III, future work): the kept-segment
/// fraction tracks scene activity between bounds, so a parked robot senses a
/// trickle while a moving one ramps back toward full coverage.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveMask {
    /// Minimum segment-keep fraction (idle floor).
    pub min_keep: f64,
    /// Maximum segment-keep fraction (fully dynamic scenes).
    pub max_keep: f64,
    /// Exponential smoothing gain in `(0, 1]`.
    pub gain: f64,
    activity: f64,
}

impl AdaptiveMask {
    /// A mask whose segment-keep fraction moves between these bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_keep <= max_keep <= 1`.
    pub fn new(min_keep: f64, max_keep: f64) -> Self {
        assert!(
            min_keep > 0.0 && min_keep <= max_keep && max_keep <= 1.0,
            "keep bounds must satisfy 0 < min <= max <= 1"
        );
        AdaptiveMask {
            min_keep,
            max_keep,
            gain: 0.5,
            activity: 0.5,
        }
    }

    /// Feed a scene-change observation in `[0, 1]` (see [`scene_change`]).
    pub fn update_activity(&mut self, change: f64) {
        let target = change.clamp(0.0, 1.0);
        self.activity += self.gain * (target - self.activity);
    }

    /// Current effective segment-keep fraction.
    pub fn segment_keep(&self) -> f64 {
        self.min_keep + (self.max_keep - self.min_keep) * self.activity
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use crate::raycast::{Lidar, LidarConfig};
    use crate::scene::{ObjectClass, Scene, SceneGenerator, SceneObject};
    use sensact_math::metrics::Aabb;

    #[test]
    fn scene_change_zero_for_identical() {
        let cloud = Lidar::new(LidarConfig::default()).scan(&SceneGenerator::new(1).generate());
        assert!(scene_change(&cloud, &cloud) < 1e-9);
    }

    #[test]
    fn scene_change_grows_with_difference() {
        let lidar = Lidar::new(LidarConfig::default());
        let base = SceneGenerator::new(2).generate();
        let cloud_a = lidar.scan(&base);
        // Same scene with one car moved 10 m.
        let mut moved = Scene::new();
        for (i, o) in base.objects().iter().enumerate() {
            let mut aabb = o.aabb;
            if i == 0 {
                aabb = Aabb::new(
                    [aabb.min[0] + 10.0, aabb.min[1], aabb.min[2]],
                    [aabb.max[0] + 10.0, aabb.max[1], aabb.max[2]],
                );
            }
            moved.push(SceneObject::new(o.class, aabb));
        }
        let cloud_b = lidar.scan(&moved);
        let different = lidar.scan(&SceneGenerator::new(99).generate());
        let small = scene_change(&cloud_a, &cloud_b);
        let large = scene_change(&cloud_a, &different);
        assert!(small > 0.0);
        assert!(large > small, "large {large} vs small {small}");
        let _ = ObjectClass::Car;
    }

    #[test]
    fn adaptive_mask_tracks_activity() {
        let mut mask = AdaptiveMask::new(0.1, 0.8);
        for _ in 0..20 {
            mask.update_activity(0.0);
        }
        assert!(
            (mask.segment_keep() - 0.1).abs() < 0.02,
            "idle keep {}",
            mask.segment_keep()
        );
        for _ in 0..20 {
            mask.update_activity(1.0);
        }
        assert!(
            (mask.segment_keep() - 0.8).abs() < 0.02,
            "busy keep {}",
            mask.segment_keep()
        );
    }

    #[test]
    fn adaptive_mask_saves_pulses_when_idle() {
        let lidar = Lidar::new(LidarConfig::default());
        let scene = SceneGenerator::new(5).generate();
        let mut idle = AdaptiveMask::new(0.08, 0.8);
        let mut busy = idle;
        for _ in 0..20 {
            idle.update_activity(0.0);
            busy.update_activity(1.0);
        }
        let sample = |mask: AdaptiveMask| {
            let config = RadialMaskConfig {
                segment_keep: mask.segment_keep(),
            };
            RadialMask::sample(config, 512, 3)
        };
        let (mut m_idle, mut m_busy) = (sample(idle), sample(busy));
        let (_, fired_idle) = lidar.scan_masked(&scene, |_, az| m_idle.fire(az, 25.0));
        let (_, fired_busy) = lidar.scan_masked(&scene, |_, az| m_busy.fire(az, 25.0));
        assert!(
            fired_idle * 3 < fired_busy,
            "idle {fired_idle} vs busy {fired_busy}"
        );
    }

    #[test]
    #[should_panic(expected = "keep bounds")]
    fn invalid_bounds_panic() {
        let _ = AdaptiveMask::new(0.5, 0.2);
    }
}
