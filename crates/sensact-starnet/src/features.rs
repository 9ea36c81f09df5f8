//! Intermediate feature extraction from LiDAR streams.
//!
//! STARNet monitors the *feature* distribution of the primary task, not raw
//! data. The descriptor here summarizes a point cloud with the statistics
//! that the KITTI-C corruption families perturb: range/height histograms,
//! beam coverage, azimuth periodicity (cross-sensor stripes) and local range
//! roughness (jitter/blur).

use sensact_lidar::PointCloud;

/// Dimension of the feature descriptor.
pub(crate) const FEATURE_DIM: usize = 19;

/// Extract the `FEATURE_DIM`-dimensional (19) normalized feature
/// descriptor of a cloud.
///
/// An empty cloud maps to the zero vector.
pub fn extract_features(cloud: &PointCloud) -> Vec<f64> {
    let mut f = vec![0.0; FEATURE_DIM];
    let n = cloud.len();
    if n == 0 {
        return f;
    }
    let nf = n as f64;

    // [0..8): range histogram over 0–80 m.
    for p in cloud {
        let bin = ((p.range / 80.0 * 8.0) as usize).min(7);
        f[bin] += 1.0 / nf;
    }
    // [8..12): height histogram over 0–4 m (clamped).
    for p in cloud {
        let z = p.z.clamp(0.0, 3.999);
        let bin = 8 + (z as usize).min(3);
        f[bin] += 1.0 / nf;
    }
    // [12]: log point count.
    f[12] = (1.0 + nf).ln() / 12.0;
    // [13], [14]: mean and std of range.
    let mean_r = cloud.mean_range();
    f[13] = mean_r / 80.0;
    let var_r = cloud
        .iter()
        .map(|p| (p.range - mean_r) * (p.range - mean_r))
        .sum::<f64>()
        / nf;
    f[14] = var_r.sqrt() / 40.0;
    // [15]: beam coverage.
    let max_beam = cloud.iter().map(|p| p.beam).max().unwrap_or(0) as f64 + 1.0;
    f[15] = distinct_beams(cloud) as f64 / max_beam;
    // [16]: azimuth-stripe score (fraction of returns at azimuth % 16 == 0;
    // nominal 1/16, inflated by periodic cross-sensor interference... or
    // rather, the *range statistics* of those azimuths shift). We use the
    // mean range deviation of stripe azimuths from the global mean.
    let stripe: Vec<f64> = cloud
        .iter()
        .filter(|p| p.azimuth % 16 == 0)
        .map(|p| p.range)
        .collect();
    if !stripe.is_empty() {
        let stripe_mean = stripe.iter().sum::<f64>() / stripe.len() as f64;
        f[16] = (stripe_mean - mean_r).abs() / 40.0;
    }
    // [17]: local range roughness — mean |Δrange| between azimuth-adjacent
    // returns of the same beam.
    let mut sorted: Vec<(u16, u16, f64)> =
        cloud.iter().map(|p| (p.beam, p.azimuth, p.range)).collect();
    sorted.sort_by_key(|a| (a.0, a.1));
    let mut rough = 0.0;
    let mut pairs = 0usize;
    for w in sorted.windows(2) {
        if w[0].0 == w[1].0 && w[1].1 - w[0].1 <= 2 {
            rough += (w[1].2 - w[0].2).abs();
            pairs += 1;
        }
    }
    if pairs > 0 {
        f[17] = (rough / pairs as f64 / 10.0).min(1.0);
    }
    // [18]: geometric consistency — |implied range from (x,y,z) − reported
    // range| (motion blur and similar position smears break this relation).
    let mount = 1.73;
    let incons: f64 = cloud
        .iter()
        .map(|p| {
            let implied = (p.x * p.x + p.y * p.y + (p.z - mount) * (p.z - mount)).sqrt();
            (implied - p.range).abs()
        })
        .sum::<f64>()
        / nf;
    f[18] = (incons / 5.0).min(1.0);
    f
}

/// Number of distinct beam indices in a cloud, on a set of one bit per
/// possible `u16` beam (8 KiB on the stack, no hashing).
fn distinct_beams(cloud: &PointCloud) -> usize {
    let mut seen = [0u64; 1 << 10];
    let mut distinct = 0;
    for p in cloud {
        let (word, bit) = (usize::from(p.beam >> 6), 1u64 << (p.beam & 63));
        distinct += usize::from(seen[word] & bit == 0);
        seen[word] |= bit;
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_lidar::corrupt::{Corruption, CorruptionKind};
    use sensact_lidar::raycast::{Lidar, LidarConfig};
    use sensact_lidar::scene::SceneGenerator;

    fn clean_cloud(seed: u64) -> PointCloud {
        let scene = SceneGenerator::new(seed).generate();
        Lidar::new(LidarConfig::default()).scan(&scene)
    }

    #[test]
    fn feature_dim_and_bounds() {
        let f = extract_features(&clean_cloud(1));
        assert_eq!(f.len(), FEATURE_DIM);
        for (i, v) in f.iter().enumerate() {
            assert!((0.0..=1.5).contains(v), "feature {i} = {v}");
        }
    }

    /// The beam bitset counts what a `HashSet<u16>` (the descriptor's old
    /// set) counts, at both word edges and the top of the `u16` range.
    #[test]
    fn beam_bitset_matches_the_hash_set() {
        use sensact_lidar::Point;
        let cloud = |beams: &[u16]| {
            PointCloud::from_points(
                beams
                    .iter()
                    .map(|&beam| Point {
                        x: 1.0,
                        y: 0.0,
                        z: 0.0,
                        range: 1.0,
                        beam,
                        azimuth: 0,
                    })
                    .collect(),
            )
        };
        let clouds = [
            PointCloud::new(),
            cloud(&[0, 63, 64, 65_535]),
            cloud(&[65_535, 0, 65_535, 64, 63, 63, 127, 128]),
            clean_cloud(9),
        ];
        for c in &clouds {
            let oracle: std::collections::HashSet<u16> = c.iter().map(|p| p.beam).collect();
            assert_eq!(distinct_beams(c), oracle.len());
        }
    }

    #[test]
    fn empty_cloud_is_zero() {
        assert_eq!(extract_features(&PointCloud::new()), vec![0.0; FEATURE_DIM]);
    }

    #[test]
    fn histograms_sum_to_one() {
        let f = extract_features(&clean_cloud(2));
        let range_sum: f64 = f[0..8].iter().sum();
        let z_sum: f64 = f[8..12].iter().sum();
        assert!((range_sum - 1.0).abs() < 1e-9);
        assert!((z_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let c = clean_cloud(3);
        assert_eq!(extract_features(&c), extract_features(&c));
    }

    #[test]
    fn every_corruption_moves_the_features() {
        let clean = clean_cloud(4);
        let f_clean = extract_features(&clean);
        for kind in CorruptionKind::all() {
            let corrupted = Corruption::new(kind, 5).apply(&clean, 9);
            let f_cor = extract_features(&corrupted);
            let dist: f64 = f_clean
                .iter()
                .zip(&f_cor)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(dist > 0.01, "{kind}: feature distance only {dist}");
        }
    }

    #[test]
    fn beam_missing_lowers_coverage_feature() {
        let clean = clean_cloud(5);
        let corrupted = Corruption::new(CorruptionKind::BeamMissing, 5).apply(&clean, 3);
        let f_clean = extract_features(&clean);
        let f_cor = extract_features(&corrupted);
        assert!(f_cor[15] < f_clean[15]);
    }

    #[test]
    fn snow_shifts_range_histogram_to_near_bins() {
        let clean = clean_cloud(6);
        let corrupted = Corruption::new(CorruptionKind::Snow, 5).apply(&clean, 3);
        let f_clean = extract_features(&clean);
        let f_cor = extract_features(&corrupted);
        assert!(
            f_cor[0] > f_clean[0],
            "near bin {} vs {}",
            f_cor[0],
            f_clean[0]
        );
    }

    #[test]
    fn motion_blur_breaks_geometric_consistency() {
        let clean = clean_cloud(8);
        let corrupted = Corruption::new(CorruptionKind::MotionBlur, 5).apply(&clean, 3);
        let f_clean = extract_features(&clean);
        let f_cor = extract_features(&corrupted);
        assert!(
            f_cor[18] > f_clean[18] + 0.01,
            "consistency {} vs {}",
            f_cor[18],
            f_clean[18]
        );
    }

    #[test]
    fn crosstalk_raises_roughness() {
        let clean = clean_cloud(7);
        let corrupted = Corruption::new(CorruptionKind::Crosstalk, 5).apply(&clean, 3);
        let f_clean = extract_features(&clean);
        let f_cor = extract_features(&corrupted);
        assert!(
            f_cor[17] > f_clean[17] + 0.02,
            "roughness {} vs {}",
            f_cor[17],
            f_clean[17]
        );
    }
}
