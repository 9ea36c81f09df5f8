//! Streaming and batch statistics.
//!
//! STARNet (paper §V) calibrates its alarm thresholds on score quantiles
//! (the batch helpers here), and the paper tables summarise per-seed columns
//! with the Welford-style [`RunningStats`] accumulator.

/// Numerically stable streaming mean/variance accumulator (Welford).
///
/// ```
/// use sensact_math::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count = self.count.wrapping_add(1);
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; `0.0` with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observed value; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Batch mean; `0.0` for empty input.
#[cfg(test)]
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Batch unbiased variance; `0.0` for fewer than two samples.
#[cfg(test)]
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Median (linear interpolation between middle elements for even counts);
/// `None` for empty input.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; `None` for empty input or
/// out-of-range `q`.
///
/// Sorting uses [`f64::total_cmp`], so NaN inputs never panic: positive NaNs
/// order above `+inf` (and negative NaNs below `-inf`), which pushes poisoned
/// samples into the extreme quantiles instead of aborting the experiment.
/// A NaN that lands in the interpolation window propagates to the result.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn random_vec(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| rng.random_range(lo..hi)).collect()
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: RunningStats = xs.iter().copied().collect();
        assert!((s.mean() - mean(&xs)).abs() < 1e-12);
        assert!((s.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
    }

    #[test]
    fn quantile_tolerates_nan_inputs() {
        // A faulted monitor can emit NaN scores; the quantile must not panic.
        // total_cmp sorts positive NaN above every number, so low/mid
        // quantiles of mostly-finite data stay finite.
        let xs = [1.0, f64::NAN, 3.0, 2.0, f64::NAN];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&xs), Some(3.0));
        // The top quantile lands on a poisoned sample and propagates NaN.
        assert!(quantile(&xs, 1.0).unwrap().is_nan());
        // All-NaN input still returns without panicking.
        assert!(median(&[f64::NAN, f64::NAN]).unwrap().is_nan());
    }

    #[test]
    fn prop_running_matches_batch() {
        let mut rng = StdRng::seed_from_u64(0x57A701);
        for _ in 0..256 {
            let n = rng.random_range(2..64usize);
            let xs = random_vec(&mut rng, n, -1e3, 1e3);
            let s: RunningStats = xs.iter().copied().collect();
            assert!((s.mean() - mean(&xs)).abs() < 1e-8);
            assert!((s.variance() - variance(&xs)).abs() < 1e-6);
        }
    }

    #[test]
    fn prop_quantile_monotone() {
        let mut rng = StdRng::seed_from_u64(0x57A703);
        for _ in 0..256 {
            let n = rng.random_range(1..32usize);
            let xs = random_vec(&mut rng, n, -100.0, 100.0);
            let q1 = rng.gen_f64();
            let q2 = rng.gen_f64();
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let a = quantile(&xs, lo).unwrap();
            let b = quantile(&xs, hi).unwrap();
            assert!(a <= b + 1e-12);
        }
    }
}
