//! KITTI-C-style point-cloud corruptions (paper §V).
//!
//! STARNet is evaluated against natural corruptions (snow, rain, fog),
//! external disruptions (beam missing, motion blur) and internal sensor
//! failures (crosstalk, cross-sensor interference). Each corruption here is a
//! parametric, seeded transformation of a clean point cloud whose intensity
//! grows with `severity ∈ 1..=5`.

use crate::pointcloud::{Point, PointCloud};
use sensact_core::fault::{FiniteCheck, NanPoison};
use sensact_math::rng::StdRng;

/// The corruption families of the KITTI-C benchmark reproduced here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionKind {
    /// Airborne snow: near-sensor clutter returns plus attenuation dropout.
    Snow,
    /// Rain: range jitter and mild dropout.
    Rain,
    /// Fog: strong range-dependent attenuation (far points vanish).
    Fog,
    /// Whole vertical beams silently missing.
    BeamMissing,
    /// Motion blur: azimuth-correlated position smear.
    MotionBlur,
    /// Multi-LiDAR crosstalk: ghost returns at random ranges along real rays.
    Crosstalk,
    /// Cross-sensor interference: periodic spurious returns in structured
    /// azimuth stripes.
    CrossSensorInterference,
}

impl CorruptionKind {
    /// All corruption kinds, in benchmark order.
    pub fn all() -> [CorruptionKind; 7] {
        [
            CorruptionKind::Snow,
            CorruptionKind::Rain,
            CorruptionKind::Fog,
            CorruptionKind::BeamMissing,
            CorruptionKind::MotionBlur,
            CorruptionKind::Crosstalk,
            CorruptionKind::CrossSensorInterference,
        ]
    }
}

impl std::fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CorruptionKind::Snow => "snow",
            CorruptionKind::Rain => "rain",
            CorruptionKind::Fog => "fog",
            CorruptionKind::BeamMissing => "beam-missing",
            CorruptionKind::MotionBlur => "motion-blur",
            CorruptionKind::Crosstalk => "crosstalk",
            CorruptionKind::CrossSensorInterference => "cross-sensor",
        };
        write!(f, "{s}")
    }
}

/// A corruption instance: kind + severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Corruption {
    /// Corruption family.
    pub kind: CorruptionKind,
    /// Severity level `1..=5` (0 = identity).
    pub severity: u8,
}

impl Corruption {
    /// Construct, clamping severity to `0..=5`.
    pub fn new(kind: CorruptionKind, severity: u8) -> Self {
        Corruption {
            kind,
            severity: severity.min(5),
        }
    }

    /// Severity as a `[0, 1]` intensity.
    pub(crate) fn intensity(&self) -> f64 {
        self.severity as f64 / 5.0
    }

    /// Apply the corruption to a cloud, returning the corrupted copy.
    /// `severity == 0` returns the input unchanged.
    pub fn apply(&self, cloud: &PointCloud, seed: u64) -> PointCloud {
        if self.severity == 0 {
            return cloud.clone();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (self.severity as u64) << 32);
        let s = self.intensity();
        match self.kind {
            CorruptionKind::Snow => snow(cloud, s, &mut rng),
            CorruptionKind::Rain => rain(cloud, s, &mut rng),
            CorruptionKind::Fog => fog(cloud, s, &mut rng),
            CorruptionKind::BeamMissing => beam_missing(cloud, s, &mut rng),
            CorruptionKind::MotionBlur => motion_blur(cloud, s, &mut rng),
            CorruptionKind::Crosstalk => crosstalk(cloud, s, &mut rng),
            CorruptionKind::CrossSensorInterference => cross_sensor(cloud, s, &mut rng),
        }
    }
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.kind, self.severity)
    }
}

/// NaN poisoning of a whole cloud — the fault a
/// [`sensact_core::fault::FaultInjector`] injects on a wrapped lidar sensor.
/// Every coordinate and range of every point becomes NaN; beam/azimuth
/// indices are untouched (the failure corrupts the measurement, not the
/// firing schedule).
impl NanPoison for PointCloud {
    fn poison(&mut self) {
        for p in self.points_mut() {
            p.x = f64::NAN;
            p.y = f64::NAN;
            p.z = f64::NAN;
            p.range = f64::NAN;
        }
    }
}

/// Finiteness check over every coordinate and range in the cloud. An empty
/// cloud is vacuously finite (emptiness is a dropout, not a poisoning).
impl FiniteCheck for PointCloud {
    fn all_finite(&self) -> bool {
        self.iter()
            .all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite() && p.range.is_finite())
    }
}

/// Sensor mount height assumed by the ray geometry (matches
/// [`crate::raycast::LidarConfig::default`]).
const MOUNT_HEIGHT: f64 = 1.73;

fn rescale_to_range(p: &Point, new_range: f64) -> Point {
    // Move the point along its ray *from the sensor* to a new range.
    let scale = if p.range > 1e-9 {
        new_range / p.range
    } else {
        0.0
    };
    Point {
        x: p.x * scale,
        y: p.y * scale,
        z: MOUNT_HEIGHT + (p.z - MOUNT_HEIGHT) * scale,
        range: new_range,
        beam: p.beam,
        azimuth: p.azimuth,
    }
}

fn snow(cloud: &PointCloud, s: f64, rng: &mut StdRng) -> PointCloud {
    let mut out = PointCloud::new();
    for p in cloud {
        // Attenuation: heavy snow strongly limits visibility; drop
        // probability grows quadratically with range.
        let p_drop = s * ((p.range / 50.0) * (p.range / 50.0)).min(0.9);
        if rng.random::<f64>() < p_drop {
            continue;
        }
        out.push(*p);
    }
    // Airborne clutter arrives in *clumps* (flurries / spray): compact
    // floating blobs at roughly body height that imitate small objects —
    // the failure mode that actually breaks detectors in snow.
    let bursts = (12.0 * s) as usize;
    for _ in 0..bursts {
        let az = rng.random::<f64>() * std::f64::consts::TAU;
        let range = 3.0 + 9.0 * rng.random::<f64>();
        let cx = range * az.cos();
        let cy = range * az.sin();
        let cz = 0.9 + 1.1 * rng.random::<f64>();
        let n = 15 + rng.random_range(0..30);
        for _ in 0..n {
            let px = cx + (rng.random::<f64>() - 0.5) * 0.7;
            let py = cy + (rng.random::<f64>() - 0.5) * 0.7;
            let pz = (cz + (rng.random::<f64>() - 0.5) * 0.7).max(0.85);
            let dr = (px * px + py * py + (pz - MOUNT_HEIGHT) * (pz - MOUNT_HEIGHT)).sqrt();
            // Approximate the (beam, azimuth) indices from the geometry of
            // the default sensor so the feature extractor sees a coherent
            // stream.
            let az_idx = ((py.atan2(px).rem_euclid(std::f64::consts::TAU)) / std::f64::consts::TAU
                * 512.0) as u16
                % 512;
            let el = ((pz - MOUNT_HEIGHT) / dr).asin();
            let beam = (((el + 0.4363) / (0.4363 + 0.0524)) * 63.0).clamp(0.0, 63.0) as u16;
            out.push(Point {
                x: px,
                y: py,
                z: pz,
                range: dr,
                beam,
                azimuth: az_idx,
            });
        }
    }
    out
}

fn rain(cloud: &PointCloud, s: f64, rng: &mut StdRng) -> PointCloud {
    let mut out = PointCloud::new();
    for p in cloud {
        if rng.random::<f64>() < 0.15 * s {
            continue;
        }
        // Range jitter up to ±0.5 m at severity 5.
        let jitter = (rng.random::<f64>() - 0.5) * s;
        out.push(rescale_to_range(p, (p.range + jitter).max(0.1)));
    }
    out
}

fn fog(cloud: &PointCloud, s: f64, rng: &mut StdRng) -> PointCloud {
    let mut out = PointCloud::new();
    // Visibility shrinks from max range down to ~15 m at severity 5.
    let visibility = 80.0 * (1.0 - 0.8 * s);
    for p in cloud {
        let p_drop = 1.0 - (-p.range / visibility * 2.0).exp();
        if rng.random::<f64>() < p_drop * s {
            continue;
        }
        out.push(*p);
    }
    out
}

fn beam_missing(cloud: &PointCloud, s: f64, rng: &mut StdRng) -> PointCloud {
    let max_beam = cloud.iter().map(|p| p.beam).max().unwrap_or(0) as usize + 1;
    let n_missing = ((max_beam as f64) * 0.5 * s) as usize;
    let mut missing = vec![false; max_beam];
    for _ in 0..n_missing {
        let b = rng.random_range(0..max_beam);
        missing[b] = true;
    }
    let mut out = cloud.clone();
    out.retain(|p| !missing[p.beam as usize]);
    out
}

fn motion_blur(cloud: &PointCloud, s: f64, rng: &mut StdRng) -> PointCloud {
    // Ego motion during a revolution smears points tangentially; the smear
    // grows with azimuth (later in the revolution) and severity.
    let mut out = PointCloud::new();
    let max_az = cloud.iter().map(|p| p.azimuth).max().unwrap_or(1) as f64;
    for p in cloud {
        let phase = p.azimuth as f64 / max_az;
        let smear = s * 1.5 * phase;
        out.push(Point {
            x: p.x + rng.random::<f64>() * smear,
            y: p.y + (rng.random::<f64>() - 0.5) * smear,
            z: p.z,
            range: p.range,
            beam: p.beam,
            azimuth: p.azimuth,
        });
    }
    out
}

fn crosstalk(cloud: &PointCloud, s: f64, rng: &mut StdRng) -> PointCloud {
    // A fraction of rays report a ghost range (another sensor's pulse).
    let mut out = PointCloud::new();
    for p in cloud {
        if rng.random::<f64>() < 0.25 * s {
            let ghost = 1.0 + 60.0 * rng.random::<f64>();
            out.push(rescale_to_range(p, ghost));
        } else {
            out.push(*p);
        }
    }
    out
}

fn cross_sensor(cloud: &PointCloud, s: f64, rng: &mut StdRng) -> PointCloud {
    // Structured interference: azimuth stripes with spurious returns at a
    // fixed offset range (periodic pattern, unlike random crosstalk).
    let stripe_period = 16u16;
    let interference_range = 5.0 + 20.0 * rng.random::<f64>();
    let mut out = PointCloud::new();
    for p in cloud {
        if p.azimuth % stripe_period == 0 && rng.random::<f64>() < 0.8 * s {
            out.push(rescale_to_range(p, interference_range));
        } else {
            out.push(*p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raycast::{Lidar, LidarConfig};
    use crate::scene::SceneGenerator;

    fn clean_cloud() -> PointCloud {
        let scene = SceneGenerator::new(1).generate();
        Lidar::new(LidarConfig::default()).scan(&scene)
    }

    #[test]
    fn severity_zero_is_identity() {
        let c = clean_cloud();
        for kind in CorruptionKind::all() {
            let out = Corruption::new(kind, 0).apply(&c, 7);
            assert_eq!(out, c, "{kind} at severity 0 changed the cloud");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let c = clean_cloud();
        let a = Corruption::new(CorruptionKind::Snow, 3).apply(&c, 42);
        let b = Corruption::new(CorruptionKind::Snow, 3).apply(&c, 42);
        assert_eq!(a, b);
        let d = Corruption::new(CorruptionKind::Snow, 3).apply(&c, 43);
        assert_ne!(a, d);
    }

    #[test]
    fn snow_adds_near_clutter() {
        let c = clean_cloud();
        let out = Corruption::new(CorruptionKind::Snow, 5).apply(&c, 1);
        // Attenuation only removes original points (copied bitwise), so any
        // point in the output that is not in the input is airborne clutter.
        let originals: std::collections::HashSet<(u64, u64, u64)> = c
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
            .collect();
        let clutter: Vec<_> = out
            .iter()
            .filter(|p| !originals.contains(&(p.x.to_bits(), p.y.to_bits(), p.z.to_bits())))
            .collect();
        assert!(!clutter.is_empty(), "severity-5 snow added no clutter");
        // Clutter blobs sit near the sensor (centres within 12 m).
        assert!(
            clutter.iter().all(|p| p.range < 13.0),
            "clutter beyond near field"
        );
    }

    #[test]
    fn fog_removes_far_points() {
        let c = clean_cloud();
        let out = Corruption::new(CorruptionKind::Fog, 5).apply(&c, 1);
        let far_before = c.iter().filter(|p| p.range > 40.0).count();
        let far_after = out.iter().filter(|p| p.range > 40.0).count();
        assert!(
            (far_after as f64) < far_before as f64 * 0.5,
            "fog kept {far_after}/{far_before} far points"
        );
    }

    #[test]
    fn beam_missing_removes_entire_beams() {
        let c = clean_cloud();
        let out = Corruption::new(CorruptionKind::BeamMissing, 4).apply(&c, 2);
        let beams_before: std::collections::HashSet<u16> = c.iter().map(|p| p.beam).collect();
        let beams_after: std::collections::HashSet<u16> = out.iter().map(|p| p.beam).collect();
        assert!(beams_after.len() < beams_before.len());
        // Surviving beams keep all their points.
        for b in &beams_after {
            let n_before = c.iter().filter(|p| p.beam == *b).count();
            let n_after = out.iter().filter(|p| p.beam == *b).count();
            assert_eq!(n_before, n_after);
        }
    }

    #[test]
    fn severity_monotone_for_dropout_kinds() {
        let c = clean_cloud();
        for kind in [CorruptionKind::Fog, CorruptionKind::Rain] {
            let mild = Corruption::new(kind, 1).apply(&c, 3).len();
            let severe = Corruption::new(kind, 5).apply(&c, 3).len();
            assert!(severe < mild, "{kind}: severe {severe} !< mild {mild}");
        }
    }

    #[test]
    fn crosstalk_perturbs_ranges() {
        let c = clean_cloud();
        let out = Corruption::new(CorruptionKind::Crosstalk, 5).apply(&c, 4);
        assert_eq!(out.len(), c.len());
        let changed = c
            .iter()
            .zip(out.iter())
            .filter(|(a, b)| (a.range - b.range).abs() > 0.5)
            .count();
        assert!(changed > c.len() / 10, "only {changed} ghosts");
    }

    #[test]
    fn cross_sensor_hits_periodic_stripes() {
        let c = clean_cloud();
        let out = Corruption::new(CorruptionKind::CrossSensorInterference, 5).apply(&c, 5);
        // Only azimuths divisible by 16 may change.
        for (a, b) in c.iter().zip(out.iter()) {
            if a.azimuth % 16 != 0 {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn motion_blur_preserves_count_but_moves_points() {
        let c = clean_cloud();
        let out = Corruption::new(CorruptionKind::MotionBlur, 5).apply(&c, 6);
        assert_eq!(out.len(), c.len());
        let moved = c
            .iter()
            .zip(out.iter())
            .filter(|(a, b)| (a.x - b.x).abs() > 0.01 || (a.y - b.y).abs() > 0.01)
            .count();
        assert!(moved > c.len() / 4);
    }

    #[test]
    fn display_formats() {
        let c = Corruption::new(CorruptionKind::Fog, 3);
        assert_eq!(c.to_string(), "fog@3");
        assert_eq!(CorruptionKind::all().len(), 7);
    }

    #[test]
    fn severity_clamped() {
        let c = Corruption::new(CorruptionKind::Rain, 9);
        assert_eq!(c.severity, 5);
        assert_eq!(c.intensity(), 1.0);
    }

    #[test]
    fn nan_poison_and_finite_check_on_clouds() {
        let mut c = clean_cloud();
        assert!(c.all_finite(), "clean scan must be finite");
        let beams: Vec<u16> = c.iter().map(|p| p.beam).collect();
        c.poison();
        assert!(!c.all_finite());
        assert!(c
            .iter()
            .all(|p| p.x.is_nan() && p.y.is_nan() && p.z.is_nan() && p.range.is_nan()));
        // Indices survive poisoning.
        assert_eq!(c.iter().map(|p| p.beam).collect::<Vec<_>>(), beams);
        // A single NaN taints the whole cloud.
        let mut one_bad = clean_cloud();
        one_bad.points_mut()[0].range = f64::NAN;
        assert!(!one_bad.all_finite());
        // Emptiness is not poisoning.
        assert!(PointCloud::new().all_finite());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::raycast::{Lidar, LidarConfig};
    use crate::scene::SceneGenerator;
    use sensact_math::rng::StdRng;

    /// Corruptions are deterministic in (kind, severity, seed) and only
    /// ever *add* points for the additive kinds / *remove* for the
    /// subtractive ones.
    #[test]
    fn prop_corruption_determinism() {
        let mut rng = StdRng::seed_from_u64(0xC08801);
        let cloud = Lidar::new(LidarConfig {
            beams: 8,
            azimuth_steps: 64,
            ..LidarConfig::default()
        })
        .scan(&SceneGenerator::new(3).generate());
        for _ in 0..12 {
            let severity = rng.random_range(1..=5u8);
            let seed = rng.random_range(0..64u64);
            for kind in CorruptionKind::all() {
                let c = Corruption::new(kind, severity);
                assert_eq!(c.apply(&cloud, seed), c.apply(&cloud, seed));
            }
        }
    }

    /// Subtractive corruptions never invent points.
    #[test]
    fn prop_subtractive_kinds_only_remove() {
        let mut rng = StdRng::seed_from_u64(0xC08802);
        let cloud = Lidar::new(LidarConfig {
            beams: 8,
            azimuth_steps: 64,
            ..LidarConfig::default()
        })
        .scan(&SceneGenerator::new(4).generate());
        for _ in 0..12 {
            let severity = rng.random_range(1..=5u8);
            let seed = rng.random_range(0..32u64);
            for kind in [
                CorruptionKind::Fog,
                CorruptionKind::Rain,
                CorruptionKind::BeamMissing,
            ] {
                let out = Corruption::new(kind, severity).apply(&cloud, seed);
                assert!(out.len() <= cloud.len(), "{kind} grew the cloud");
            }
        }
    }
}
