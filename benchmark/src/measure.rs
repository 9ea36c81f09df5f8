//! Measurement method: fixed-work segments, the quiet quartile, and the
//! small helpers every workload shares (hash fold, replay stopwatch, RSS).
//!
//! Noise on a shared host is additive and bursty: identical half-second
//! segments of one workload ranged 120k–212k ops/s inside one run while the
//! quiet ones held within 2 %. So a run is cut into fixed-work segments and
//! the reported value is the **quiet quartile**: of the quarter of segments
//! with the highest throughput (at most five), `ops_per_s` is the lowest
//! throughput and each latency percentile is the lowest value that
//! percentile took in any of those segments. Segments are short (~0.1 s) because the slow state
//! comes in plateaus of 0.3–5 s: a short segment is either inside one or not.

use std::time::Instant;

/// Quiet-quartile size is `segments / 4`, clamped to this range. The upper
/// end bounds how many latency pools a run keeps alive, and lets a run that
/// spent most of its time in slow plateaus still report its quiet moments.
const QUIET_MIN: usize = 1;
const QUIET_MAX: usize = 5;

/// A workload is *unresolved* when fewer than five segments (or its whole
/// quiet quartile, if that is smaller) lie within this share of the best.
const RESOLVED_WITHIN: f64 = 0.03;
const RESOLVED_COUNT: usize = 5;

/// Order-sensitive 64-bit fold (FNV-1a constants, one step per word) of
/// every action value a workload produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold(pub u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0xCBF2_9CE4_8422_2325)
    }
}

impl Fold {
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// What one timed segment did.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegCounts {
    /// Ops issued (each expects a reply).
    pub attempted: u64,
    /// Ops the system refused by design of the workload (shed, rejected).
    pub refused: u64,
    /// Ops that failed unexpectedly (error frame, drop, output mismatch).
    pub failed: u64,
}

/// Counters that repeat exactly for a seed: read after a fixed number of
/// segments, so they do not depend on how many segments the time limit
/// allowed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact {
    pub ops: u64,
    pub refused: u64,
    pub failed: u64,
    /// Energy the loops' own telemetry charged (joules, modelled).
    pub energy_j: f64,
    pub hash: u64,
}

/// Keeps the latency pools of the best segments seen so far.
#[derive(Default)]
pub struct SegmentLog {
    /// (ops/s, ops) of every segment, in run order.
    pub segments: Vec<(f64, u64)>,
    /// Latency pools (ns) of the `QUIET_MAX` fastest segments.
    best: Vec<(f64, Vec<u32>)>,
    spare: Vec<Vec<u32>>,
    pub counts: SegCounts,
}

impl SegmentLog {
    /// An empty latency buffer for the next segment (reused storage).
    pub fn buffer(&mut self) -> Vec<u32> {
        let mut b = self.spare.pop().unwrap_or_default();
        b.clear();
        b
    }

    /// Log one segment: its wall time, what it did, and its per-op
    /// latencies.
    pub fn push(&mut self, wall_ns: u64, c: SegCounts, lat: Vec<u32>) {
        let done = c.attempted - c.failed;
        let thr = done as f64 / (wall_ns.max(1) as f64 * 1e-9);
        self.segments.push((thr, done));
        self.counts.attempted += c.attempted;
        self.counts.refused += c.refused;
        self.counts.failed += c.failed;
        self.best.push((thr, lat));
        self.best
            .sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite throughput"));
        if self.best.len() > QUIET_MAX {
            let (_, dropped) = self.best.pop().expect("non-empty");
            self.spare.push(dropped);
        }
    }

    fn quiet_len(&self) -> usize {
        (self.segments.len() / 4).clamp(QUIET_MIN, QUIET_MAX)
    }

    /// The quiet-quartile summary of the logged segments.
    pub fn summary(&self) -> Summary {
        let q = self.quiet_len().min(self.best.len());
        let quiet = &self.best[..q];
        let ops_per_s = quiet.last().map(|s| s.0).unwrap_or(0.0);
        // Percentiles per quiet segment, then the lowest across segments:
        // the tail of the cleanest quiet segment. One host hiccup per 40 ms
        // is common here, and it would otherwise set every segment's p99.
        let (mut p50, mut p99, mut pool) = (f64::INFINITY, f64::INFINITY, 0);
        for (_, lat) in quiet {
            let mut sorted = lat.clone();
            sorted.sort_unstable();
            p50 = p50.min(percentile(&sorted, 0.50) as f64 / 1e3);
            p99 = p99.min(percentile(&sorted, 0.99) as f64 / 1e3);
            pool += sorted.len();
        }
        let mut thr: Vec<f64> = self.segments.iter().map(|s| s.0).collect();
        thr.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
        let mid = thr[thr.len() / 2];
        let best = *thr.last().expect("at least one segment");
        let near_best = thr
            .iter()
            .filter(|&&t| t >= best * (1.0 - RESOLVED_WITHIN))
            .count();
        Summary {
            ops_per_s,
            op_p50_us: if pool > 0 { p50 } else { 0.0 },
            op_p99_us: if pool > 0 { p99 } else { 0.0 },
            pool,
            segments: self.segments.len(),
            quiet: q,
            noise_pct: 100.0 * (ops_per_s - mid) / ops_per_s.max(f64::MIN_POSITIVE),
            resolved: near_best >= q.min(RESOLVED_COUNT),
        }
    }
}

/// Quiet-quartile numbers of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub op_p99_us: f64,
    /// Latency samples behind the percentiles.
    pub pool: usize,
    pub segments: usize,
    pub quiet: usize,
    /// How far the median segment sits below the quiet quartile.
    pub noise_pct: f64,
    pub resolved: bool,
}

/// Nearest-rank percentile of a sorted slice (`0` when empty).
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Clamp a nanosecond interval into the `u32` latency pool (4.29 s cap).
#[inline]
pub fn lat_ns(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}

/// Replay stopwatch: call `f` in batches of `batch` until `budget_s` has
/// passed (at least three batches) and return the fastest batch's seconds
/// per call — the quiet-quartile idea for a micro-replay, where the floor is
/// the layer's cost and everything above it is the neighbour's.
pub fn replay_s(budget_s: f64, batch: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut batches = 0;
    while batches < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / batch as f64);
        batches += 1;
    }
    best
}

/// `VmHWM` of this process in MiB (peak resident set), from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(log: &mut SegmentLog, ops: u64, wall_ms: u64, lat_us: u32) {
        let counts = SegCounts {
            attempted: ops,
            ..SegCounts::default()
        };
        log.push(
            wall_ms * 1_000_000,
            counts,
            vec![lat_us * 1000; ops as usize],
        );
    }

    #[test]
    fn quiet_quartile_ignores_slow_segments() {
        let mut log = SegmentLog::default();
        // 20 segments of 1000 ops: 14 slow (160 ms), 6 quiet (100–102 ms).
        for i in 0..20u64 {
            if i % 3 == 0 && i < 18 {
                seg(&mut log, 1000, 100 + i / 9, 100);
            } else {
                seg(&mut log, 1000, 160, 160);
            }
        }
        let s = log.summary();
        assert_eq!((s.segments, s.quiet), (20, 5));
        // Fifth-best of the six quiet segments, never a slow one.
        assert!(s.ops_per_s > 9_800.0 && s.ops_per_s <= 10_000.0, "{s:?}");
        assert_eq!((s.op_p50_us, s.op_p99_us), (100.0, 100.0));
        assert_eq!(s.pool, 5000);
        assert!(s.noise_pct > 30.0);
        assert!(s.resolved);
    }

    #[test]
    fn a_lone_fast_segment_is_unresolved() {
        let mut log = SegmentLog::default();
        seg(&mut log, 1000, 80, 80);
        for _ in 0..19 {
            seg(&mut log, 1000, 100, 100);
        }
        assert!(!log.summary().resolved);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v[..1], 0.99), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn failed_ops_do_not_count_as_throughput() {
        let mut log = SegmentLog::default();
        let counts = SegCounts {
            attempted: 100,
            refused: 10,
            failed: 50,
        };
        log.push(1_000_000_000, counts, vec![1; 50]);
        assert_eq!(log.summary().ops_per_s, 50.0);
        assert_eq!(log.counts.refused, 10);
    }
}
