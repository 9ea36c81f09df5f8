//! The interface every workload implements, and the per-layer table the
//! traced pass fills.

use crate::measure::{Exact, SegCounts};
use crate::trace::Drained;

/// One output check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: String) -> Self {
        Check { name, pass, detail }
    }
}

/// Per-layer metrics of one workload: `(name, value, calls)`. Values are
/// busy µs per workload op unless the name says otherwise; a layer that is
/// not on the workload's path is simply absent (reads 0).
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(&'static str, f64, u64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, calls: u64) {
        match self.0.iter_mut().find(|(n, ..)| *n == name) {
            Some(slot) => *slot = (name, value, calls),
            None => self.0.push((name, value, calls)),
        }
    }

    pub fn get(&self, name: &str) -> (f64, u64) {
        self.0
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(_, v, c)| (v, c))
            .unwrap_or((0.0, 0))
    }

    /// Record a wrapped span as busy µs per op.
    pub fn wrapped(&mut self, spans: &Drained, name: &'static str, ops: u64) {
        let t = spans.totals_of(name);
        if t.calls > 0 {
            self.set(name, t.total_ns as f64 / 1e3 / ops.max(1) as f64, t.calls);
        }
    }
}

/// A closed-loop workload: every op waits for its reply before the next
/// dependent op is issued, and arrival time is a virtual clock.
pub trait Workload {
    /// Run one fixed-work segment, pushing one latency (ns) per completed
    /// op: input handed to the system → action available to the caller.
    fn segment(&mut self, lat: &mut Vec<u32>) -> SegCounts;

    /// Exact counters since set-up (the harness reads them after a fixed
    /// number of segments, so they repeat for a seed).
    fn exact(&mut self) -> Exact;

    /// Output checks, run after the timed phase.
    fn check(&mut self) -> Vec<Check>;

    /// Fill the per-layer table after the traced segments: wrapped spans
    /// from `spans` (recorded over `traced_ops` ops), then replays of the
    /// same inputs through each layer's public functions, each given about
    /// `budget_s` seconds.
    fn layers(&mut self, spans: &Drained, traced_ops: u64, budget_s: f64, out: &mut Layers);
}

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Reduced fleets and segments (`--smoke`).
    pub smoke: bool,
}

/// A named workload and how to build it from a seed.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// What one op is.
    pub op: &'static str,
    pub build: fn(seed: u64, sizing: Sizing) -> Box<dyn Workload>,
}
