//! Metrics primitives: counters, gauges, log-bucketed histograms, and a
//! registry keyed by static metric names.
//!
//! The histogram is HDR-style: values are bucketed by exponent plus the top
//! mantissa bits of their IEEE-754 representation, so recording is O(1) with
//! no transcendental math, bucket edges are *exact* binary values (a value
//! exactly on an edge always lands in the bucket whose lower bound it
//! equals), and quantile queries return a guaranteed upper bound within one
//! bucket width (≤ 12.5 % relative error at 8 sub-buckets per octave).
//!
//! Naming convention (see DESIGN.md §10): `<subsystem>.<object>.<metric>_<unit>`,
//! e.g. `stage.sense.latency_s`, `loop.energy_j`, `bus.published_total`.
//! Registry keys are `&'static str` so hot paths never allocate.

use std::collections::BTreeMap;

use crate::checkpoint::{CheckpointError, Section};

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power of two.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Smallest bucketed exponent: values below 2^MIN_EXP fall in the zero
/// bucket (≈ 9.1e-13 — well under a nanosecond or a nanojoule).
const MIN_EXP: i32 = -40;
/// Largest bucketed exponent: values ≥ 2^(MAX_EXP+1) (≈ 3.4e7) are clamped
/// into the overflow bucket, as are `+inf` outliers.
const MAX_EXP: i32 = 24;
/// Main (log-linear) bucket count.
const MAIN_BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * SUBS;
/// Total buckets: zero/underflow + main + overflow.
const BUCKETS: usize = 1 + MAIN_BUCKETS + 1;

/// A log-bucketed histogram of non-negative `f64` samples.
///
/// O(1) record, exact bucket edges, bounded-error quantiles. NaN samples are
/// ignored; negative samples and zeros fall into the zero bucket; `+inf` and
/// values above the top edge are clamped into the overflow bucket.
///
/// Only the *window* from the lowest non-empty bucket to the highest is
/// allocated, and nothing before the first sample: a loop's latency
/// histogram whose samples share one bucket owns one word, not 522.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Counts of buckets `base..base + counts.len()`. Empty exactly when
    /// `count == 0`; otherwise its first and last entries are non-zero.
    counts: Box<[u64]>,
    base: usize,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram (allocates nothing).
    pub fn new() -> Self {
        Histogram {
            counts: Box::default(),
            base: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for a sample (NaN handled by the caller).
    #[inline]
    fn bucket_index(v: f64) -> usize {
        if v < f64::from_bits(((MIN_EXP + 1023) as u64) << 52) {
            // Zero, negative, or below the smallest edge: the zero bucket.
            return 0;
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp > MAX_EXP {
            return BUCKETS - 1; // overflow bucket (also +inf)
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        1 + ((exp - MIN_EXP) as usize) * SUBS + sub
    }

    /// `[lower, upper)` value bounds of bucket `idx`.
    fn bucket_bounds(idx: usize) -> (f64, f64) {
        let edge = |i: usize| -> f64 {
            // Edge i (0-based over main buckets): 2^(MIN_EXP + i/SUBS) * (1 + (i%SUBS)/SUBS).
            let exp = MIN_EXP + (i / SUBS) as i32;
            let frac = 1.0 + (i % SUBS) as f64 / SUBS as f64;
            frac * f64::from_bits(((exp + 1023) as u64) << 52)
        };
        if idx == 0 {
            (0.0, edge(0))
        } else if idx >= BUCKETS - 1 {
            (edge(MAIN_BUCKETS), f64::INFINITY)
        } else {
            (edge(idx - 1), edge(idx))
        }
    }

    /// Record one sample. NaN is ignored.
    #[inline]
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = Self::bucket_index(v);
        match self.counts.get_mut(idx.wrapping_sub(self.base)) {
            Some(c) => *c += 1,
            None => self.record_outside(idx),
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The first sample of bucket `idx`, which lies outside the window.
    #[cold]
    fn record_outside(&mut self, idx: usize) {
        self.widen(idx, idx);
        self.counts[idx - self.base] = 1;
    }

    /// Grow the window to the union of itself and buckets `lo..=hi`.
    fn widen(&mut self, lo: usize, hi: usize) {
        let (lo, hi) = match self.counts.len() {
            0 => (lo, hi),
            n => (lo.min(self.base), hi.max(self.base + n - 1)),
        };
        if (lo, hi + 1 - lo) == (self.base, self.counts.len()) {
            return;
        }
        let mut counts = vec![0; hi + 1 - lo].into_boxed_slice();
        if !self.counts.is_empty() {
            counts[self.base - lo..][..self.counts.len()].copy_from_slice(&self.counts);
        }
        self.counts = counts;
        self.base = lo;
    }

    /// Bytes the bucket window has allocated.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        8 * self.counts.len()
    }

    /// The window as `(bucket index, count)` pairs, ascending.
    fn window(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (self.base..).zip(self.counts.iter().copied())
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded. When this is true,
    /// [`Histogram::min`] and [`Histogram::max`] return the benign `0.0`
    /// placeholder, *not* a real sample bound — rollups must check this
    /// before folding those values into fleet-level extrema.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Quantile upper bound: the smallest bucket upper edge (clamped to the
    /// exact max) such that at least `ceil(q·count)` samples fall at or
    /// below it. The true quantile is ≤ the returned value, within one
    /// bucket width. Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, c) in self.window() {
            seen += c;
            if seen >= rank {
                let (_, upper) = Self::bucket_bounds(idx);
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub(crate) fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th-percentile upper bound.
    pub(crate) fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(lower, upper, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        self.window()
            .filter(|&(_, c)| c > 0)
            .map(|(i, c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// Merge another histogram into this one (bucket-wise; the window
    /// becomes the union of both).
    ///
    /// An empty source is a no-op: it contributes no buckets, and skipping
    /// it outright guarantees its placeholder bounds can never perturb this
    /// histogram's exact `min`/`max`, even for future samplers that tighten
    /// the empty-state representation.
    pub fn merge(&mut self, other: &Histogram) {
        if other.is_empty() {
            return;
        }
        self.widen(other.base, other.base + other.counts.len() - 1);
        let at = other.base - self.base;
        for (mine, theirs) in self.counts[at..].iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serialize into `section` under `prefix` (sparse buckets plus the
    /// exact running aggregates, all bit-exact).
    pub(crate) fn save_into(&self, section: &mut Section, prefix: &str) {
        let mut sparse = Vec::new();
        for (idx, c) in self.window().filter(|&(_, c)| c > 0) {
            sparse.push(idx as u64);
            sparse.push(c);
        }
        section.put_u64s(&format!("{prefix}_buckets"), &sparse);
        section.put_u64(&format!("{prefix}_count"), self.count);
        section.put_f64(&format!("{prefix}_sum"), self.sum);
        section.put_f64(&format!("{prefix}_min"), self.min);
        section.put_f64(&format!("{prefix}_max"), self.max);
    }

    /// Rebuild a histogram saved with [`Histogram::save_into`], bit-exactly
    /// (the ±∞ empty-state sentinels travel as raw bit patterns).
    ///
    /// Only what a sample stream produces restores. The bucket list must be
    /// the canonical one `save_into` writes: strictly ascending in-range
    /// indices, non-zero counts, summing exactly to `count` (anything else
    /// would alias buckets or overflow the running rank of
    /// [`Histogram::quantile`] and the exporter's cumulative sums). An empty
    /// histogram carries sum `+0.0`, min `+∞` and max `−∞`; a non-empty one
    /// a non-NaN `min ≤ max` whose buckets are the first and last listed.
    pub(crate) fn restore_from(section: &Section, prefix: &str) -> Result<Self, CheckpointError> {
        let [buckets, count, sum, min, max] =
            ["buckets", "count", "sum", "min", "max"].map(|k| format!("{prefix}_{k}"));
        let sparse = section.get_u64s(&buckets)?;
        section.check(&buckets, sparse.len().is_multiple_of(2))?;
        let (mut next, mut total) = (0u64, 0u64);
        for pair in sparse.chunks_exact(2) {
            let (idx, c) = (pair[0], pair[1]);
            section.check(&buckets, idx >= next && idx < BUCKETS as u64 && c > 0)?;
            total = total.checked_add(c).ok_or_else(|| section.bad(&buckets))?;
            next = idx + 1;
        }
        let mut h = Histogram::new();
        h.count = section.get_u64(&count)?;
        section.check(&buckets, total == h.count)?;
        h.sum = section.get_f64(&sum)?;
        h.min = section.get_f64(&min)?;
        h.max = section.get_f64(&max)?;
        if h.count == 0 {
            section.check(&sum, h.sum.to_bits() == 0)?;
            section.check(&min, h.min == f64::INFINITY)?;
            section.check(&max, h.max == f64::NEG_INFINITY)?;
            return Ok(h);
        }
        // `count > 0`, so the list holds at least one pair.
        let (lo, hi) = (sparse[0] as usize, sparse[sparse.len() - 2] as usize);
        section.check(&min, !h.min.is_nan() && Self::bucket_index(h.min) == lo)?;
        section.check(
            &max,
            !h.max.is_nan() && Self::bucket_index(h.max) == hi && h.min <= h.max,
        )?;
        h.widen(lo, hi);
        for pair in sparse.chunks_exact(2) {
            h.counts[pair[0] as usize - lo] = pair[1];
        }
        Ok(h)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A registry of counters, gauges and histograms keyed by static names.
///
/// Iteration order is deterministic (sorted by key), so text reports and
/// exports are reproducible. Lookups never allocate; the expected usage is
/// static keys like `StageId::latency_key`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment counter `name` by 1.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `delta`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set counter `name` to an absolute value (last write wins).
    ///
    /// Exporters that re-publish a snapshot (e.g. a scrape endpoint reading
    /// the same fleet report twice) use this instead of
    /// [`MetricsRegistry::add`] so re-export is idempotent.
    pub fn set_counter(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// Counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record `value` into histogram `name` (created on first use).
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Histogram by name, if any samples were observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Install a pre-populated histogram under `name` (replacing any
    /// existing one) — used to export a loop's internal histograms.
    pub fn install_histogram(&mut self, name: &'static str, hist: Histogram) {
        self.histograms.insert(name, hist);
    }

    /// All counters, sorted by name.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All gauges, sorted by name.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms, sorted by name.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Whether nothing has been recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merge another registry into this one: counters add, gauges add, and
    /// histograms merge bucket-wise in O(buckets).
    ///
    /// This is the fleet-rollup primitive: per-loop registries fold into one
    /// fleet-level registry whose totals equal what a single registry would
    /// have recorded had every loop written into it directly. Gauges are
    /// *summed* (additive rollup — energy, busy time); rollups that need a
    /// different gauge semantic (e.g. last-write) should overwrite after
    /// merging.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in other.counters() {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in other.gauges() {
            *self.gauges.entry(name).or_insert(0.0) += v;
        }
        for (name, hist) in other.histograms() {
            // Skip empty sources entirely: cloning one in would create an
            // entry whose min()/max() read as the 0.0 empty placeholder —
            // a fake sample bound in rollup reports.
            if hist.is_empty() {
                continue;
            }
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name, hist.clone());
                }
            }
        }
    }
}

impl std::fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, v) in self.counters() {
            writeln!(f, "{name:<36} {v}")?;
        }
        for (name, v) in self.gauges() {
            writeln!(f, "{name:<36} {v:.6e}")?;
        }
        for (name, h) in self.histograms() {
            writeln!(
                f,
                "{name:<36} n={} mean={:.3e} p50={:.3e} p99={:.3e} max={:.3e}",
                h.count(),
                h.mean(),
                h.p50(),
                h.p99(),
                h.max()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn exact_stats_track_samples() {
        let mut h = Histogram::new();
        for v in [1e-3, 2e-3, 4e-3, 8e-3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 15e-3).abs() < 1e-15);
        assert!((h.mean() - 3.75e-3).abs() < 1e-15);
        assert_eq!(h.min(), 1e-3);
        assert_eq!(h.max(), 8e-3);
    }

    #[test]
    fn quantile_bounds_are_upper_bounds_within_a_bucket() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-4); // 0.1 ms .. 100 ms
        }
        for q in [0.5, 0.9, 0.99] {
            let true_q = 1e-4 * (q * 1000.0_f64).ceil();
            let est = h.quantile(q);
            assert!(est >= true_q, "q{q}: est {est} < true {true_q}");
            assert!(est <= true_q * 1.125 + 1e-12, "q{q}: est {est} too loose");
        }
        assert_eq!(h.quantile(1.0), h.max());
        // q=0 clamps to rank 1: an upper bound on the minimum.
        assert!(h.quantile(0.0) >= 1e-4);
    }

    #[test]
    fn bucket_edges_are_exact() {
        // A value exactly on a bucket edge must land in the bucket whose
        // *lower* bound it equals: [edge, next_edge).
        for &edge in &[1.0, 1.125, 1.25, 2.0, 0.5, 0.625, 256.0, 7.0 / 4.0] {
            let idx = Histogram::bucket_index(edge);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert_eq!(lo, edge, "edge {edge} not a lower bound (got [{lo},{hi}))");
            assert!(edge < hi);
            // The value just below the edge belongs to the previous bucket.
            let below = f64::from_bits(edge.to_bits() - 1);
            let (lo2, hi2) = Histogram::bucket_bounds(Histogram::bucket_index(below));
            assert_eq!(hi2, edge, "just-below {below} not capped by edge");
            assert!(lo2 < edge);
        }
    }

    #[test]
    fn zero_and_tiny_values_fall_in_zero_bucket() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(1e-300); // far below 2^-40
        h.record(-1.0); // clamped (negative charges are rejected upstream)
        assert_eq!(h.count(), 3);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 1);
        let (lo, hi, c) = buckets[0];
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 1e-11);
        assert_eq!(c, 3);
        // Quantiles of an all-zero-bucket histogram clamp to the exact max.
        assert_eq!(h.p50(), 1e-300_f64.max(0.0));
    }

    #[test]
    fn inf_clamped_outliers_land_in_overflow_bucket() {
        let mut h = Histogram::new();
        h.record(f64::INFINITY);
        h.record(1e300); // far above 2^25
        h.record(1.0);
        assert_eq!(h.count(), 3);
        let buckets = h.nonzero_buckets();
        // One main bucket (the 1.0) + the overflow bucket.
        assert_eq!(buckets.len(), 2);
        let (lo, hi, c) = *buckets.last().unwrap();
        assert!(lo.is_finite());
        assert!(hi.is_infinite());
        assert_eq!(c, 2);
        // Quantiles in the overflow bucket clamp to the exact max, so a
        // finite outlier never reports as +inf...
        let mut finite = Histogram::new();
        finite.record(1e300);
        assert_eq!(finite.p99(), 1e300);
        // ...while a true +inf sample reports +inf.
        assert!(h.p99().is_infinite());
        assert!(h.max().is_infinite());
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        h.record(2.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 2.0);
    }

    #[test]
    fn merge_combines_bucket_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 100.0);
        assert_eq!(a.min(), 1.0);
        let total: u64 = a.nonzero_buckets().iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.inc("loop.ticks_total");
        r.add("loop.ticks_total", 2);
        r.set("loop.energy_j", 0.5);
        r.set("loop.energy_j", 0.75);
        r.observe("stage.sense.latency_s", 1e-3);
        r.observe("stage.sense.latency_s", 2e-3);
        assert_eq!(r.counter("loop.ticks_total"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("loop.energy_j"), Some(0.75));
        assert_eq!(r.gauge("missing"), None);
        assert_eq!(r.histogram("stage.sense.latency_s").unwrap().count(), 2);
        assert!(r.histogram("missing").is_none());
        let text = r.to_string();
        assert!(text.contains("loop.ticks_total"));
        assert!(text.contains("stage.sense.latency_s"));
    }

    #[test]
    fn registry_iteration_is_sorted() {
        let mut r = MetricsRegistry::new();
        r.inc("b.second");
        r.inc("a.first");
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "b.second"]);
    }

    #[test]
    fn set_counter_is_idempotent_overwrite() {
        let mut r = MetricsRegistry::new();
        r.set_counter("fleet.ticks_total", 10);
        r.set_counter("fleet.ticks_total", 10);
        assert_eq!(r.counter("fleet.ticks_total"), 10);
        r.set_counter("fleet.ticks_total", 7);
        assert_eq!(r.counter("fleet.ticks_total"), 7);
    }

    /// SplitMix64 — a tiny seeded generator for property tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        sensact_math::rng::splitmix64_finalize(*state)
    }

    /// A positive sample spanning many octaves (~1e-9 .. ~1e5), plus
    /// occasional zeros and edge-exact powers of two.
    fn sample(state: &mut u64) -> f64 {
        let r = splitmix(state);
        match r % 16 {
            0 => 0.0,
            1 => (1u64 << ((r >> 8) % 20)) as f64, // exact edge values
            _ => {
                let mag = ((r >> 16) % 47) as i32 - 30; // 2^-30 .. 2^16
                let frac = 1.0 + ((r >> 32) & 0xFFFF) as f64 / 65536.0;
                frac * (mag as f64).exp2()
            }
        }
    }

    fn hist_of(seed: u64, n: usize) -> (Histogram, Vec<f64>) {
        let mut state = seed;
        let mut h = Histogram::new();
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            let v = sample(&mut state);
            h.record(v);
            vals.push(v);
        }
        (h, vals)
    }

    fn assert_hist_eq(a: &Histogram, b: &Histogram) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.min().to_bits(), b.min().to_bits());
        assert_eq!(a.max().to_bits(), b.max().to_bits());
        assert_eq!(a.nonzero_buckets(), b.nonzero_buckets());
        // Sums accumulate in different orders, so compare with a tolerance.
        assert!((a.sum() - b.sum()).abs() <= 1e-9 * a.sum().abs().max(1.0));
    }

    #[test]
    fn merge_matches_recording_all_samples_into_one() {
        // Merging shard histograms must preserve exact bucket bounds and
        // counts against the ground truth of one histogram that saw every
        // sample directly.
        for seed in [1u64, 99, 0xDEAD] {
            let (a, va) = hist_of(seed, 500);
            let (b, vb) = hist_of(seed ^ 0xF0F0, 700);
            let (c, vc) = hist_of(seed.rotate_left(17), 300);
            let mut truth = Histogram::new();
            for v in va.iter().chain(&vb).chain(&vc) {
                truth.record(*v);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            merged.merge(&c);
            assert_hist_eq(&merged, &truth);
            // Quantiles of the merged histogram are identical to the truth's
            // (same buckets, same counts, same exact max).
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(merged.quantile(q).to_bits(), truth.quantile(q).to_bits());
            }
        }
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, _) = hist_of(11, 400);
        let (b, _) = hist_of(22, 400);
        let (c, _) = hist_of(33, 400);

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_hist_eq(&ab, &ba);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_hist_eq(&ab_c, &a_bc);

        // Identity: merging an empty histogram changes nothing.
        let mut id = a.clone();
        id.merge(&Histogram::new());
        assert_hist_eq(&id, &a);
    }

    #[test]
    fn empty_histogram_merge_cannot_leak_placeholder_bounds() {
        // Regression: an empty histogram's min()/max() read as the 0.0
        // placeholder. Merging one must be a strict no-op, and a registry
        // rollup must not materialize empty entries whose placeholder
        // bounds would masquerade as real sample extrema.
        let mut a = Histogram::new();
        a.record(3.0);
        a.record(7.0);
        a.merge(&Histogram::new());
        assert_eq!(a.min(), 3.0);
        assert_eq!(a.max(), 7.0);
        assert_eq!(a.count(), 2);

        let mut fleet = MetricsRegistry::new();
        let mut quiet = MetricsRegistry::new();
        quiet.observe("stage.sense.latency_s", f64::NAN); // NaN ignored: stays empty
        assert!(quiet.histogram("stage.sense.latency_s").unwrap().is_empty());
        fleet.merge(&quiet);
        // The empty source must not appear in the rollup at all.
        assert!(fleet.histogram("stage.sense.latency_s").is_none());

        let mut busy = MetricsRegistry::new();
        busy.observe("stage.sense.latency_s", 2e-3);
        fleet.merge(&busy);
        fleet.merge(&quiet);
        let h = fleet.histogram("stage.sense.latency_s").unwrap();
        assert_eq!(h.min(), 2e-3, "empty merge perturbed the rollup min");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_checkpoint_round_trips_bit_exactly() {
        use crate::checkpoint::Section;
        let (h, _) = hist_of(0xC0FFEE, 800);
        let mut s = Section::new("hist");
        h.save_into(&mut s, "lat");
        let back = Histogram::restore_from(&s, "lat").expect("restores");
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum().to_bits(), h.sum().to_bits());
        assert_eq!(back.min().to_bits(), h.min().to_bits());
        assert_eq!(back.max().to_bits(), h.max().to_bits());
        assert_eq!(back.nonzero_buckets(), h.nonzero_buckets());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(back.quantile(q).to_bits(), h.quantile(q).to_bits());
        }

        // Empty histograms round-trip too (±inf internal sentinels travel
        // as bit patterns) and still report the benign empty-state values.
        let empty = Histogram::new();
        let mut s2 = Section::new("hist");
        empty.save_into(&mut s2, "lat");
        let back2 = Histogram::restore_from(&s2, "lat").expect("restores");
        assert!(back2.is_empty());
        assert_eq!(back2.min(), 0.0);
        let mut again = back2;
        again.record(5.0);
        assert_eq!(again.min(), 5.0);

        // Corrupt bucket indices are typed errors, not panics.
        let mut s3 = Section::new("hist");
        empty.save_into(&mut s3, "lat");
        s3.put_u64s("lat_buckets", &[9999, 1]);
        assert!(matches!(
            Histogram::restore_from(&s3, "lat"),
            Err(crate::checkpoint::CheckpointError::BadValue(_))
        ));
        let mut s4 = Section::new("hist");
        empty.save_into(&mut s4, "lat");
        s4.put_u64s("lat_buckets", &[3]); // odd-length pair list
        assert!(Histogram::restore_from(&s4, "lat").is_err());
    }

    /// One hostile bucket list per non-canonical class, each naming `count`
    /// consistently otherwise: all are `BadValue` on the bucket key.
    #[test]
    fn non_canonical_bucket_lists_are_bad_value() {
        use crate::checkpoint::{CheckpointError, Section};
        let (a, b) = (
            Histogram::bucket_index(1.0) as u64,
            Histogram::bucket_index(2.0) as u64,
        );
        assert!(a < b);
        let big = u64::MAX / 2 + 1;
        let rows = [
            ("duplicate index", vec![a, 1, a, 1], 2),
            ("descending indices", vec![b, 1, a, 1], 2),
            ("zero count", vec![a, 0, b, 2], 2),
            ("counts short of count", vec![a, 1, b, 1], 3),
            ("counts overflow u64", vec![a, big, b, big], u64::MAX),
        ];
        for (what, buckets, count) in rows {
            let mut s = Section::new("hist");
            Histogram::new().save_into(&mut s, "lat");
            s.put_u64s("lat_buckets", &buckets);
            s.put_u64("lat_count", count);
            match Histogram::restore_from(&s, "lat") {
                Err(CheckpointError::BadValue(key)) => {
                    assert_eq!(key, "hist.lat_buckets", "{what}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn registry_merge_rolls_up_counters_gauges_histograms() {
        let mut a = MetricsRegistry::new();
        a.add("loop.ticks_total", 5);
        a.set("loop.energy_j", 1.5);
        a.observe("stage.sense.latency_s", 1e-3);

        let mut b = MetricsRegistry::new();
        b.add("loop.ticks_total", 3);
        b.add("loop.faults_total", 2);
        b.set("loop.energy_j", 0.5);
        b.observe("stage.sense.latency_s", 2e-3);
        b.observe("stage.act.latency_s", 4e-3);

        a.merge(&b);
        assert_eq!(a.counter("loop.ticks_total"), 8);
        assert_eq!(a.counter("loop.faults_total"), 2);
        assert_eq!(a.gauge("loop.energy_j"), Some(2.0));
        assert_eq!(a.histogram("stage.sense.latency_s").unwrap().count(), 2);
        assert_eq!(a.histogram("stage.act.latency_s").unwrap().count(), 1);
        // b is unchanged (merge borrows).
        assert_eq!(b.counter("loop.ticks_total"), 3);
    }

    /// The dense histogram this module kept before the bucket window: every
    /// bucket allocated up front, every walk over all 522 of them.
    mod oracle {
        use super::super::{Histogram, BUCKETS};
        use crate::checkpoint::{CheckpointError, Section};

        #[derive(Debug, Clone)]
        pub struct Dense {
            pub counts: Vec<u64>,
            pub count: u64,
            pub sum: f64,
            pub min: f64,
            pub max: f64,
        }

        impl Dense {
            pub(super) fn new() -> Self {
                Dense {
                    counts: vec![0; BUCKETS],
                    count: 0,
                    sum: 0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                }
            }

            pub(super) fn record(&mut self, v: f64) {
                if v.is_nan() {
                    return;
                }
                self.counts[Histogram::bucket_index(v)] += 1;
                self.count += 1;
                self.sum += v;
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }

            pub(super) fn quantile(&self, q: f64) -> f64 {
                if self.count == 0 {
                    return 0.0;
                }
                let q = q.clamp(0.0, 1.0);
                let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
                let mut seen = 0u64;
                for (idx, &c) in self.counts.iter().enumerate() {
                    seen += c;
                    if seen >= rank {
                        let (_, upper) = Histogram::bucket_bounds(idx);
                        return upper.min(self.max);
                    }
                }
                self.max
            }

            pub(super) fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
                self.counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        let (lo, hi) = Histogram::bucket_bounds(i);
                        (lo, hi, c)
                    })
                    .collect()
            }

            pub(super) fn merge(&mut self, other: &Dense) {
                if other.count == 0 {
                    return;
                }
                for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                    *mine += theirs;
                }
                self.count += other.count;
                self.sum += other.sum;
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }

            pub(super) fn save_into(&self, section: &mut Section, prefix: &str) {
                let mut sparse = Vec::new();
                for (idx, &c) in self.counts.iter().enumerate() {
                    if c > 0 {
                        sparse.push(idx as u64);
                        sparse.push(c);
                    }
                }
                section.put_u64s(&format!("{prefix}_buckets"), &sparse);
                section.put_u64(&format!("{prefix}_count"), self.count);
                section.put_f64(&format!("{prefix}_sum"), self.sum);
                section.put_f64(&format!("{prefix}_min"), self.min);
                section.put_f64(&format!("{prefix}_max"), self.max);
            }

            pub(super) fn restore_from(
                section: &Section,
                prefix: &str,
            ) -> Result<Self, CheckpointError> {
                let bad =
                    || CheckpointError::BadValue(format!("{}.{prefix}_buckets", section.id()));
                let sparse = section.get_u64s(&format!("{prefix}_buckets"))?;
                if !sparse.len().is_multiple_of(2) {
                    return Err(bad());
                }
                let mut h = Dense::new();
                let (mut next, mut total) = (0u64, 0u64);
                for pair in sparse.chunks_exact(2) {
                    let (idx, c) = (pair[0], pair[1]);
                    if idx < next || idx >= BUCKETS as u64 || c == 0 {
                        return Err(bad());
                    }
                    total = total.checked_add(c).ok_or_else(bad)?;
                    h.counts[idx as usize] = c;
                    next = idx + 1;
                }
                h.count = section.get_u64(&format!("{prefix}_count"))?;
                if total != h.count {
                    return Err(bad());
                }
                h.sum = section.get_f64(&format!("{prefix}_sum"))?;
                h.min = section.get_f64(&format!("{prefix}_min"))?;
                h.max = section.get_f64(&format!("{prefix}_max"))?;
                Ok(h)
            }
        }
    }

    use oracle::Dense;

    /// The window runs exactly from the lowest non-empty bucket to the
    /// highest, and nothing is allocated while the histogram is empty.
    fn assert_window_invariant(h: &Histogram, ctx: &str) {
        assert_eq!(h.count == 0, h.counts.is_empty(), "{ctx}: allocation");
        if let (Some(&first), Some(&last)) = (h.counts.first(), h.counts.last()) {
            assert!(first > 0 && last > 0, "{ctx}: window {:?}", h.counts);
            assert!(
                h.base + h.counts.len() <= BUCKETS,
                "{ctx}: window past the top"
            );
        }
    }

    fn saved_bytes(save: impl Fn(&mut Section)) -> String {
        let mut s = Section::new("hist");
        save(&mut s);
        let mut ckpt = crate::checkpoint::Checkpoint::new("h");
        ckpt.push(s);
        ckpt.to_jsonl()
    }

    /// Every observable of the windowed histogram against the dense oracle:
    /// the raw aggregates as bits, quantiles, non-empty buckets and the
    /// checkpoint bytes.
    fn assert_matches_oracle(h: &Histogram, o: &Dense, ctx: &str) {
        assert_window_invariant(h, ctx);
        assert_eq!(h.count, o.count, "{ctx}: count");
        assert_eq!(h.sum.to_bits(), o.sum.to_bits(), "{ctx}: sum");
        assert_eq!(h.min.to_bits(), o.min.to_bits(), "{ctx}: min");
        assert_eq!(h.max.to_bits(), o.max.to_bits(), "{ctx}: max");
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(
                h.quantile(q).to_bits(),
                o.quantile(q).to_bits(),
                "{ctx}: q{q}"
            );
        }
        assert_eq!(h.nonzero_buckets(), o.nonzero_buckets(), "{ctx}: buckets");
        assert_eq!(
            saved_bytes(|s| h.save_into(s, "lat")),
            saved_bytes(|s| o.save_into(s, "lat")),
            "{ctx}: save_into"
        );
    }

    /// The sample classes the window must treat like the dense buckets:
    /// named streams plus one seeded random stream.
    fn oracle_streams() -> Vec<(&'static str, Vec<f64>)> {
        let tiny = f64::from_bits(((MIN_EXP + 1023) as u64) << 52);
        let mut edges = Vec::new();
        for idx in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(idx);
            edges.push(lo);
            if hi.is_finite() {
                edges.push(f64::from_bits(hi.to_bits() - 1));
            }
        }
        let mut state = 0x5EED;
        let random = (0..2000).map(|_| sample(&mut state)).collect();
        vec![
            ("none", vec![]),
            ("NaN only", vec![f64::NAN, -f64::NAN, f64::NAN]),
            ("±0", vec![0.0, -0.0, 0.0]),
            ("-0 first", vec![-0.0, 0.0, 1.0]),
            ("subnormal", vec![f64::from_bits(1), 5e-324, 1.0, tiny]),
            ("every bucket edge", edges.clone()),
            (
                "every bucket edge, descending",
                edges.into_iter().rev().collect(),
            ),
            ("+∞", vec![f64::INFINITY, 1.0, f64::INFINITY]),
            (
                "above 2^24",
                vec![16_777_216.0, 3.4e7, 1e10, f64::MAX, 2.0, 33_554_432.0],
            ),
            ("negative", vec![-1.0, f64::NEG_INFINITY, 3.0, -0.0]),
            ("seeded random", random),
        ]
    }

    #[test]
    fn windowed_histogram_matches_the_dense_oracle_sample_by_sample() {
        for (name, stream) in oracle_streams() {
            let (mut h, mut o) = (Histogram::new(), Dense::new());
            assert_matches_oracle(&h, &o, name);
            for (i, &v) in stream.iter().enumerate() {
                h.record(v);
                o.record(v);
                // Every sample of the short streams; a sparse check on the
                // long ones keeps the test quick.
                if stream.len() < 64 || i % 97 == 0 {
                    assert_matches_oracle(&h, &o, &format!("{name} after {i}"));
                }
            }
            assert_matches_oracle(&h, &o, name);
        }
    }

    #[test]
    fn windowed_merge_and_restore_match_the_dense_oracle() {
        let build = |stream: &[f64]| {
            let (mut h, mut o) = (Histogram::new(), Dense::new());
            for &v in stream {
                h.record(v);
                o.record(v);
            }
            (h, o)
        };
        let low = [1e-9, 2e-9, 1.5e-9];
        let high = [1e3, 4e3, 2.5e3];
        let mid = [1e-3, 1e3, 0.0];
        let pairs: [(&str, &[f64], &[f64]); 7] = [
            ("empty <- empty", &[], &[]),
            ("empty <- full", &[], &mid),
            ("full <- empty", &mid, &[]),
            ("low <- high (disjoint, above)", &low, &high),
            ("high <- low (disjoint, below)", &high, &low),
            ("mid <- low (overlap)", &mid, &low),
            ("low <- mid (covering)", &low, &mid),
        ];
        for (name, a, b) in pairs {
            let (mut h, mut o) = build(a);
            let (hb, ob) = build(b);
            h.merge(&hb);
            o.merge(&ob);
            assert_matches_oracle(&h, &o, name);
            assert_matches_oracle(&hb, &ob, &format!("{name}: source"));
        }
        for (name, stream) in oracle_streams() {
            let (h, o) = build(&stream);
            let mut s = Section::new("hist");
            h.save_into(&mut s, "lat");
            let back = Histogram::restore_from(&s, "lat").expect("restores");
            let back_o = Dense::restore_from(&s, "lat").expect("oracle restores");
            assert_matches_oracle(&back, &back_o, &format!("{name}: restored"));
            assert_matches_oracle(&back, &o, &format!("{name}: restored vs live"));
            // The window restores to the live one, not merely equal buckets.
            assert_eq!((back.base, &back.counts), (h.base, &h.counts), "{name}");
        }
    }

    /// One row per class of aggregate that no sample stream produces, each
    /// beside a canonical bucket list (`n` samples in the bucket of 1.0):
    /// all are `BadValue` on the aggregate's key. Every row restored before
    /// the aggregates were checked.
    #[test]
    fn aggregates_no_sample_stream_produces_are_bad_value() {
        use crate::checkpoint::CheckpointError;
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let rows: [(&str, &str, u64, [f64; 3]); 9] = [
            ("NaN min", "min", 1, [1.0, nan, 1.0]),
            ("+∞ min with one sample", "min", 1, [1.0, inf, 1.0]),
            ("max far past its bucket", "max", 1, [1.0, 1.0, 1e9]),
            ("NaN max", "max", 1, [1.0, 1.0, nan]),
            ("min above max", "max", 2, [2.1, 1.1, 1.0]),
            ("sum without samples", "sum", 0, [5.0, inf, -inf]),
            ("-0 sum without samples", "sum", 0, [-0.0, inf, -inf]),
            ("finite min without samples", "min", 0, [0.0, 0.0, -inf]),
            ("finite max without samples", "max", 0, [0.0, inf, 0.0]),
        ];
        for (what, key, n, [sum, min, max]) in rows {
            let mut s = Section::new("hist");
            let buckets = [Histogram::bucket_index(1.0) as u64, n];
            s.put_u64s("lat_buckets", if n == 0 { &[] } else { &buckets });
            s.put_u64("lat_count", n);
            s.put_f64("lat_sum", sum);
            s.put_f64("lat_min", min);
            s.put_f64("lat_max", max);
            match Histogram::restore_from(&s, "lat") {
                Err(CheckpointError::BadValue(k)) => {
                    assert_eq!(k, format!("hist.lat_{key}"), "{what}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }
}
