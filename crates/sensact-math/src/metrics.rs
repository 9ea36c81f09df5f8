//! Evaluation metrics used by the paper's experiments.
//!
//! * [`roc_auc`] — STARNet anomaly-detection AUC (§V).
//! * [`average_precision`] — KITTI-style detection AP (Table I).
//! * [`endpoint_error`] — optical-flow AEE (Fig. 9).
//! * [`iou_aabb`] — axis-aligned 3-D box overlap used by the detectors.

/// Area under the ROC curve for binary `labels` (true = positive) and
/// real-valued `scores` (higher = more positive).
///
/// Computed via the rank-sum (Mann–Whitney) formulation with midrank tie
/// handling. Returns `0.5` when either class is absent.
///
/// Ranking uses [`f64::total_cmp`], so NaN scores never panic: a positive NaN
/// ranks above every finite score (it reads as "maximally positive"), which
/// keeps the AUC defined — and in `[0, 1]` — when a faulted monitor poisons
/// some scores.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// use sensact_math::metrics::roc_auc;
/// let auc = roc_auc(&[false, false, true, true], &[0.1, 0.4, 0.35, 0.8]);
/// assert!((auc - 0.75).abs() < 1e-12);
/// ```
pub fn roc_auc(labels: &[bool], scores: &[f64]) -> f64 {
    assert_eq!(labels.len(), scores.len(), "roc_auc: length mismatch");
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Midranks.
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[idx[k]] = midrank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = labels
        .iter()
        .zip(&ranks)
        .filter(|(&l, _)| l)
        .map(|(_, &r)| r)
        .sum();
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos * n_neg) as f64
}

/// A single detection with a confidence score and whether it matched ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Detector confidence (higher = more confident).
    pub score: f64,
    /// Whether this detection was matched to an unclaimed ground-truth object.
    pub true_positive: bool,
}

/// Average precision over a ranked detection list, with `num_gt` ground-truth
/// objects, using the continuous (all-points) interpolation that KITTI's
/// "40 recall positions" protocol approximates.
///
/// Ranking uses [`f64::total_cmp`] (descending), so NaN confidences never
/// panic: a positive NaN ranks as the *most* confident detection.
///
/// Returns `0.0` when `num_gt == 0`.
pub fn average_precision(detections: &[Detection], num_gt: usize) -> f64 {
    if num_gt == 0 {
        return 0.0;
    }
    let mut dets = detections.to_vec();
    dets.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(dets.len());
    for d in &dets {
        if d.true_positive {
            tp += 1;
        } else {
            fp += 1;
        }
        let recall = tp as f64 / num_gt as f64;
        let precision = tp as f64 / (tp + fp) as f64;
        points.push((recall, precision));
    }
    // Interpolated precision: max precision at any recall >= r.
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for i in 0..points.len() {
        let (r, _) = points[i];
        if r > prev_recall {
            let max_p = points[i..].iter().map(|&(_, p)| p).fold(0.0f64, f64::max);
            ap += (r - prev_recall) * max_p;
            prev_recall = r;
        }
    }
    ap
}

/// An axis-aligned 3-D bounding box `[min, max]` per axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner (x, y, z).
    pub min: [f64; 3],
    /// Maximum corner (x, y, z).
    pub max: [f64; 3],
}

impl Aabb {
    /// Construct from corners, normalizing so `min <= max` per axis.
    pub fn new(a: [f64; 3], b: [f64; 3]) -> Self {
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for i in 0..3 {
            min[i] = a[i].min(b[i]);
            max[i] = a[i].max(b[i]);
        }
        Aabb { min, max }
    }

    /// Construct from a center point and full sizes per axis.
    pub fn from_center_size(center: [f64; 3], size: [f64; 3]) -> Self {
        Aabb::new(
            [
                center[0] - size[0] / 2.0,
                center[1] - size[1] / 2.0,
                center[2] - size[2] / 2.0,
            ],
            [
                center[0] + size[0] / 2.0,
                center[1] + size[1] / 2.0,
                center[2] + size[2] / 2.0,
            ],
        )
    }

    /// Box volume.
    pub(crate) fn volume(&self) -> f64 {
        (self.max[0] - self.min[0]) * (self.max[1] - self.min[1]) * (self.max[2] - self.min[2])
    }

    /// Center point.
    pub fn center(&self) -> [f64; 3] {
        [
            (self.min[0] + self.max[0]) / 2.0,
            (self.min[1] + self.max[1]) / 2.0,
            (self.min[2] + self.max[2]) / 2.0,
        ]
    }

    /// Whether a point lies inside (inclusive).
    pub fn contains(&self, p: [f64; 3]) -> bool {
        (0..3).all(|i| p[i] >= self.min[i] && p[i] <= self.max[i])
    }
}

/// Intersection-over-union of two axis-aligned 3-D boxes, in `[0, 1]`.
pub fn iou_aabb(a: &Aabb, b: &Aabb) -> f64 {
    let mut inter = 1.0;
    for i in 0..3 {
        let lo = a.min[i].max(b.min[i]);
        let hi = a.max[i].min(b.max[i]);
        if hi <= lo {
            return 0.0;
        }
        inter *= hi - lo;
    }
    let union = a.volume() + b.volume() - inter;
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Average endpoint error between predicted and ground-truth 2-D flow fields.
///
/// Both fields are flat slices of `(u, v)` pairs. This is the AEE metric of
/// Fig. 9.
///
/// # Panics
///
/// Panics if the fields have different lengths or zero length.
pub fn endpoint_error(pred: &[(f64, f64)], truth: &[(f64, f64)]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "endpoint_error: length mismatch");
    assert!(!pred.is_empty(), "endpoint_error: empty flow field");
    let sum: f64 = pred
        .iter()
        .zip(truth)
        .map(|(p, t)| ((p.0 - t.0).powi(2) + (p.1 - t.1).powi(2)).sqrt())
        .sum();
    sum / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    #[test]
    fn auc_perfect_and_inverted() {
        let labels = [false, false, true, true];
        assert_eq!(roc_auc(&labels, &[0.1, 0.2, 0.8, 0.9]), 1.0);
        assert_eq!(roc_auc(&labels, &[0.9, 0.8, 0.2, 0.1]), 0.0);
    }

    #[test]
    fn auc_with_ties_is_half_credit() {
        let labels = [false, true];
        assert_eq!(roc_auc(&labels, &[0.5, 0.5]), 0.5);
    }

    #[test]
    fn auc_degenerate_classes() {
        assert_eq!(roc_auc(&[true, true], &[0.1, 0.2]), 0.5);
        assert_eq!(roc_auc(&[false, false], &[0.1, 0.2]), 0.5);
    }

    #[test]
    fn auc_tolerates_nan_scores() {
        // A NaN anomaly score from a faulted monitor must not abort the
        // experiment: NaN ranks above every finite score.
        let labels = [false, false, true, true];
        let auc = roc_auc(&labels, &[0.1, 0.2, f64::NAN, 0.9]);
        assert!((0.0..=1.0).contains(&auc), "auc {auc}");
        // NaN on a positive sample reads as "maximally anomalous": a
        // detector that poisons only positives still scores perfectly.
        assert_eq!(auc, 1.0);
        // NaN on a negative sample outranks both true positives.
        let auc_bad = roc_auc(&labels, &[0.1, f64::NAN, 0.8, 0.9]);
        assert_eq!(auc_bad, 0.5);
        // All-NaN scores collapse to a defined (if useless) ranking.
        let all_nan = [f64::NAN; 4];
        assert!((0.0..=1.0).contains(&roc_auc(&labels, &all_nan)));
    }

    #[test]
    fn average_precision_tolerates_nan_scores() {
        let dets = vec![
            Detection {
                score: f64::NAN,
                true_positive: false,
            },
            Detection {
                score: 0.9,
                true_positive: true,
            },
        ];
        let ap = average_precision(&dets, 1);
        // The NaN false positive ranks first, halving precision at recall 1.
        assert!((ap - 0.5).abs() < 1e-12, "ap {ap}");
    }

    #[test]
    fn average_precision_perfect_detector() {
        let dets = vec![
            Detection {
                score: 0.9,
                true_positive: true,
            },
            Detection {
                score: 0.8,
                true_positive: true,
            },
        ];
        assert!((average_precision(&dets, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_precision_misses_cost_recall() {
        let dets = vec![Detection {
            score: 0.9,
            true_positive: true,
        }];
        // One of two objects found: AP = 0.5 (precision 1 up to recall 0.5).
        assert!((average_precision(&dets, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn average_precision_false_positive_hurts() {
        let good = vec![
            Detection {
                score: 0.9,
                true_positive: true,
            },
            Detection {
                score: 0.8,
                true_positive: true,
            },
        ];
        let with_fp = vec![
            Detection {
                score: 0.95,
                true_positive: false,
            },
            Detection {
                score: 0.9,
                true_positive: true,
            },
            Detection {
                score: 0.8,
                true_positive: true,
            },
        ];
        assert!(average_precision(&with_fp, 2) < average_precision(&good, 2));
    }

    #[test]
    fn average_precision_empty_gt() {
        assert_eq!(average_precision(&[], 0), 0.0);
    }

    #[test]
    fn iou_identical_and_disjoint() {
        let a = Aabb::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        assert!((iou_aabb(&a, &a) - 1.0).abs() < 1e-12);
        let b = Aabb::new([2.0, 2.0, 2.0], [3.0, 3.0, 3.0]);
        assert_eq!(iou_aabb(&a, &b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = Aabb::new([0.0, 0.0, 0.0], [2.0, 1.0, 1.0]);
        let b = Aabb::new([1.0, 0.0, 0.0], [3.0, 1.0, 1.0]);
        // intersection 1, union 3.
        assert!((iou_aabb(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn aabb_helpers() {
        let a = Aabb::from_center_size([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]);
        assert_eq!(a.min, [0.0, 0.0, 0.0]);
        assert_eq!(a.volume(), 8.0);
        assert_eq!(a.center(), [1.0, 1.0, 1.0]);
        assert!(a.contains([1.0, 0.5, 1.5]));
        assert!(!a.contains([3.0, 0.0, 0.0]));
        // Corner normalization.
        let b = Aabb::new([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]);
        assert_eq!(b.min, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn endpoint_error_zero_and_unit() {
        let t = vec![(1.0, 0.0), (0.0, 1.0)];
        assert_eq!(endpoint_error(&t, &t), 0.0);
        let p = vec![(2.0, 0.0), (0.0, 2.0)];
        assert!((endpoint_error(&p, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prop_auc_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(0x3E7201);
        for _ in 0..256 {
            let n = rng.random_range(4..40usize);
            let scores: Vec<f64> = (0..n).map(|_| rng.gen_f64()).collect();
            let seed = rng.random_range(0..1000u64);
            let labels: Vec<bool> = (0..n)
                .map(|i| (i as u64 + seed).is_multiple_of(3))
                .collect();
            let auc = roc_auc(&labels, &scores);
            assert!((0.0..=1.0).contains(&auc));
        }
    }

    #[test]
    fn prop_auc_invariant_to_monotone_transform() {
        let mut rng = StdRng::seed_from_u64(0x3E7202);
        for _ in 0..256 {
            let n = rng.random_range(4..32usize);
            let scores: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..5.0)).collect();
            let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let a1 = roc_auc(&labels, &scores);
            let transformed: Vec<f64> = scores.iter().map(|s| s.exp()).collect();
            let a2 = roc_auc(&labels, &transformed);
            assert!((a1 - a2).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_iou_symmetric_and_bounded() {
        let mut rng = StdRng::seed_from_u64(0x3E7203);
        for _ in 0..256 {
            let mut center = || {
                [
                    rng.random_range(-5.0..5.0),
                    rng.random_range(-5.0..5.0),
                    rng.random_range(-5.0..5.0),
                ]
            };
            let (ca, cb) = (center(), center());
            let s1 = rng.random_range(0.1..3.0);
            let s2 = rng.random_range(0.1..3.0);
            let a = Aabb::from_center_size(ca, [s1, s1, s1]);
            let b = Aabb::from_center_size(cb, [s2, s2, s2]);
            let i1 = iou_aabb(&a, &b);
            let i2 = iou_aabb(&b, &a);
            assert!((i1 - i2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&i1));
        }
    }

    #[test]
    fn prop_ap_bounded() {
        let mut rng = StdRng::seed_from_u64(0x3E7204);
        for _ in 0..256 {
            let n_tp = rng.random_range(0..10usize);
            let n_fp = rng.random_range(0..10usize);
            let gt = rng.random_range(1..12usize);
            let mut dets = Vec::new();
            for i in 0..n_tp.min(gt) {
                dets.push(Detection {
                    score: 1.0 - i as f64 * 0.01,
                    true_positive: true,
                });
            }
            for i in 0..n_fp {
                dets.push(Detection {
                    score: 0.5 - i as f64 * 0.01,
                    true_positive: false,
                });
            }
            let ap = average_precision(&dets, gt);
            assert!((0.0..=1.0 + 1e-12).contains(&ap));
        }
    }
}
