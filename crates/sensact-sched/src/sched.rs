//! The fleet scheduler: deadline-aware multiplexing of N loops over W
//! workers.
//!
//! Time here is *virtual* — the same simulated seconds every stage charges
//! through [`StageContext`](sensact_core::StageContext). A loop with period
//! `p` releases its k-th tick at `k·p` (stretched by the energy arbiter
//! when the fleet is over its watts cap); the tick *starts* once its
//! release is due and the loop's previous tick has completed (a loop is
//! sequential), and *completes* at `start + charged latency`. A completion
//! later than `release + latency budget` is a deadline miss, surfaced
//! through the loop's own
//! [`StageError::Timeout`](sensact_core::StageError) fault path.
//!
//! There is one event loop: an EDF heap over a set of loops, simulating a
//! number of *virtual* workers — a tick additionally waits for the
//! earliest-free one, so makespan reflects worker capacity. EDF ties break
//! by seeded per-release keys and the execution trace is folded into
//! [`FleetReport::trace_hash`], so two runs can be compared tick-for-tick.
//!
//! * [`FleetScheduler::run_deterministic`] is that loop over the whole
//!   fleet on W virtual workers under a caller-provided [`SimClock`]: a
//!   pure function of the fleet and the seed.
//! * [`FleetScheduler::run`] is W OS threads, each running that loop over
//!   its own contiguous partition of the fleet on one virtual worker. The
//!   threads share only the energy arbiter, so absent a watts cap the run
//!   repeats as well.

use crate::arbiter::EnergyArbiter;
use crate::handle::{DynLoop, LoopHandle, TickOutcome};
use crate::queue::{tie_break, Release};
use sensact_core::checkpoint::{Checkpoint, CheckpointError, Section};
use sensact_core::export::{fnv1a_words, FNV_OFFSET};
use sensact_core::health::{classify, encode_transition};
use sensact_core::trace::{trace_mix, SimClock};
use sensact_core::{
    CausalSpan, FleetHealth, FleetTracer, HealthSignals, HealthStatus, Histogram, LoopTelemetry,
    MetricsRegistry, SpanKind, TraceContext,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Default bound on a loop's pending-tick backlog.
pub(crate) const DEFAULT_QUEUE_CAPACITY: usize = 4;

/// Salt mixed into scheduler-owned trace ids, keeping tick traces disjoint
/// from the federated round traces derived from the same fleet seed.
const SCHED_TRACE_SALT: u64 = 0x5C4E_D71C;

/// Bound on flight-recorder incidents one run will capture.
pub(crate) const MAX_INCIDENTS: usize = 8;

/// A member loop's timing contract with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopSpec {
    /// Tick release period (virtual seconds, > 0).
    pub period_s: f64,
    /// Response-time budget per tick; a completion later than
    /// `release + budget` is a deadline miss. `None` uses the period as an
    /// implicit deadline for EDF ordering and disables miss accounting.
    pub latency_budget_s: Option<f64>,
    /// Bound on the backlog of released-but-unexecuted ticks; beyond it the
    /// *oldest* pending releases are dropped (and counted), keeping the loop
    /// fresh instead of arbitrarily late.
    pub queue_capacity: usize,
}

impl LoopSpec {
    /// A periodic loop with no explicit latency budget.
    pub fn periodic(period_s: f64) -> Self {
        LoopSpec {
            period_s,
            latency_budget_s: None,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }

    /// Set the per-tick latency budget (reusing the loop's
    /// [`EnergyBudget`](sensact_core::EnergyBudget) latency notion).
    pub fn with_budget(mut self, latency_budget_s: f64) -> Self {
        self.latency_budget_s = Some(latency_budget_s);
        self
    }

    /// Set the pending-tick queue bound (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Absolute completion deadline of a tick released at `release_s`: the
    /// latency budget past the release, or one period when no explicit
    /// budget is set. Public so admission-control layers (the serving
    /// front-end) can run the same arithmetic the scheduler enforces.
    pub(crate) fn deadline_s(&self, release_s: f64) -> f64 {
        release_s + self.latency_budget_s.unwrap_or(self.period_s)
    }
}

impl Default for LoopSpec {
    fn default() -> Self {
        LoopSpec::periodic(1e-2)
    }
}

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Worker count: virtual workers in [`FleetScheduler::run_deterministic`],
    /// OS threads of one virtual worker each in [`FleetScheduler::run`].
    /// Clamped to ≥ 1.
    pub workers: usize,
    /// Optional fleet-average power cap (watts) enforced by the
    /// [`EnergyArbiter`].
    pub watts_cap: Option<f64>,
    /// Seed for the EDF tie-break keys — the knob that makes deterministic
    /// runs reproducible and distinguishable.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            watts_cap: None,
            seed: 0,
        }
    }
}

/// Identifier of a registered loop (index order of registration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopId(pub usize);

/// Scheduler-side accounting for one member loop (cumulative across runs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Pending releases dropped by backpressure (drop-oldest).
    pub drops: u64,
    /// Deadline misses (also surfaced as `Timeout` faults in the loop).
    pub deadline_misses: u64,
    /// Stage faults reported by the loop itself.
    pub faults: u64,
    /// Energy charged (joules).
    pub energy_j: f64,
    /// Charged latency executed (virtual seconds).
    pub busy_s: f64,
    /// Off-worker communication tail time (virtual seconds): in-flight
    /// network time after compute finished. Counts toward the loop's
    /// sequential timeline and deadlines, never toward worker busy time.
    pub comm_s: f64,
}

#[derive(Debug)]
struct Slot {
    handle: LoopHandle,
    spec: LoopSpec,
    stats: LoopStats,
    /// Completion time of the loop's latest tick this run (virtual seconds).
    /// A loop is sequential: tick k+1 can never start before tick k
    /// completed, whichever worker runs it.
    last_completion_s: f64,
    /// The member was retired ([`FleetScheduler::retire_member`]): run loops
    /// skip it, reports omit it, and [`FleetScheduler::register`] may reuse
    /// the slot (so [`LoopId`]s stay dense under membership churn).
    retired: bool,
    /// Count of externally-driven releases
    /// ([`FleetScheduler::tick_member_at`]) — the release index space of a
    /// serving-mode member.
    ext_releases: u64,
}

/// Placeholder occupying a retired slot until [`FleetScheduler::register`]
/// reuses it. Never ticked: run modes skip retired slots.
struct TombstoneLoop {
    telemetry: LoopTelemetry,
}

impl DynLoop for TombstoneLoop {
    fn name(&self) -> &str {
        "<retired>"
    }

    fn tick_once(&mut self) -> TickOutcome {
        unreachable!("retired slot must never tick")
    }

    fn telemetry(&self) -> &LoopTelemetry {
        &self.telemetry
    }

    fn record_deadline_miss(&mut self, _latency_s: f64, _budget_s: f64) {}
}

/// Per-loop summary embedded in a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSummary {
    /// Loop name.
    pub name: String,
    /// Cumulative stats at the end of the run.
    pub stats: LoopStats,
}

/// Why a flight-recorder dump was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentReason {
    /// Most of one worker's recent completions missed their deadlines
    /// (6 of its last 8).
    MissStorm,
    /// A loop's health scorer transitioned into [`HealthStatus::Critical`]
    /// (trust collapse, sustained SLO violation).
    HealthCollapse,
}

impl IncidentReason {
    /// Short static name for reports.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            IncidentReason::MissStorm => "miss_storm",
            IncidentReason::HealthCollapse => "health_collapse",
        }
    }
}

/// A flight-recorder dump: the last few causal spans a worker executed
/// before an invariant tripped, frozen for post-mortem without keeping the
/// whole trace stream around.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Virtual worker whose recorder was dumped.
    pub worker: usize,
    /// Loop whose completion tripped the invariant.
    pub loop_idx: usize,
    /// Virtual time of the trip.
    pub at_s: f64,
    /// Which invariant tripped.
    pub reason: IncidentReason,
    /// The recorder's contents, oldest first (at most its capacity).
    pub spans: Vec<CausalSpan>,
}

/// What one fleet run did.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Virtual-time horizon the fleet ran to.
    pub horizon_s: f64,
    /// Worker count.
    pub workers: usize,
    /// Ticks executed this run.
    pub ticks: u64,
    /// Pending releases dropped by backpressure this run.
    pub drops: u64,
    /// Deadline misses this run.
    pub deadline_misses: u64,
    /// Completions that observed an over-cap fleet.
    pub throttle_events: u64,
    /// Fleet virtual makespan: the latest tick completion, including
    /// off-worker communication tails (seconds).
    pub makespan_s: f64,
    /// Summed charged energy this run (joules).
    pub energy_j: f64,
    /// Wall-clock duration of the run (seconds).
    pub wall_s: f64,
    /// Per-worker executed charged latency (virtual seconds).
    pub worker_busy_s: Vec<f64>,
    /// Ready-queue depth sampled at every pop.
    pub queue_depth: Histogram,
    /// Order-sensitive FNV-1a fold of the execution trace
    /// `(loop, release, worker, completion)`. A threaded run folds each
    /// partition's trace, then the partitions' hashes in worker order.
    pub trace_hash: u64,
    /// Per-loop summaries (cumulative stats, registration order).
    pub loops: Vec<LoopSummary>,
    /// End-of-run per-loop health classification (whole-run rates through
    /// [`classify`], registration order).
    pub loop_health: Vec<HealthStatus>,
    /// Fleet-level roll-up of `loop_health`.
    pub health: FleetHealth,
    /// Flight-recorder dumps captured when an invariant tripped (tracing
    /// enabled; bounded by `MAX_INCIDENTS`).
    pub incidents: Vec<Incident>,
}

impl FleetReport {
    /// `x` per virtual second of makespan (0 when the run took no time).
    fn per_makespan_s(&self, x: f64) -> f64 {
        if self.makespan_s > 0.0 {
            x / self.makespan_s
        } else {
            0.0
        }
    }

    /// Fleet throughput in virtual time (ticks per simulated second).
    pub(crate) fn throughput_ticks_per_vs(&self) -> f64 {
        self.per_makespan_s(self.ticks as f64)
    }

    /// Utilization of worker `w`: executed latency over makespan.
    pub(crate) fn utilization(&self, w: usize) -> f64 {
        self.per_makespan_s(self.worker_busy_s.get(w).copied().unwrap_or(0.0))
    }

    /// Mean worker utilization.
    pub(crate) fn mean_utilization(&self) -> f64 {
        let workers = self.worker_busy_s.len();
        (0..workers).map(|w| self.utilization(w)).sum::<f64>() / workers.max(1) as f64
    }

    /// Fleet average power over the run (watts).
    pub(crate) fn watts(&self) -> f64 {
        self.per_makespan_s(self.energy_j)
    }

    /// Export scheduler-level metrics under `sched.*` names: counters for
    /// ticks/drops/deadline-misses/throttles, gauges for
    /// makespan/energy/watts and health, and histograms for queue depth and
    /// per-worker utilization.
    ///
    /// The export is *idempotent*: every sample describes this report's
    /// totals (`set_counter`/`set`/`install_histogram`, never accumulation),
    /// so re-exporting the same report — a scrape loop rendering the same
    /// run twice — cannot double-count.
    pub fn export_into(&self, registry: &mut MetricsRegistry) {
        registry.set_counter("sched.ticks_total", self.ticks);
        registry.set_counter("sched.drops_total", self.drops);
        registry.set_counter("sched.deadline_miss_total", self.deadline_misses);
        registry.set_counter("sched.throttle_total", self.throttle_events);
        registry.set_counter("sched.incidents_total", self.incidents.len() as u64);
        registry.set_counter("sched.health.healthy", self.health.healthy as u64);
        registry.set_counter("sched.health.degraded", self.health.degraded as u64);
        registry.set_counter("sched.health.critical", self.health.critical as u64);
        registry.set("sched.health.status_code", self.health.status.code() as f64);
        registry.set("sched.workers", self.workers as f64);
        registry.set("sched.makespan_s", self.makespan_s);
        registry.set("sched.fleet_energy_j", self.energy_j);
        registry.set("sched.fleet_watts", self.watts());
        registry.install_histogram("sched.queue.depth", self.queue_depth.clone());
        let mut util = Histogram::new();
        for w in 0..self.worker_busy_s.len() {
            util.record(self.utilization(w));
        }
        registry.install_histogram("sched.worker.utilization_frac", util);
    }

    /// Render the ASCII fleet dashboard: the report summary (fleet rollups,
    /// health states, per-loop rows, incidents) plus the fleet-wide tick
    /// latency distribution from a rolled-up registry
    /// ([`FleetScheduler::rollup_metrics`]) — the
    /// [`text_report`](sensact_core::export::text_report)-style companion to
    /// the Prometheus exposition.
    pub fn dashboard(&self, rollup: &MetricsRegistry) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{self}");
        for (key, title) in [
            ("loop.tick.latency_s", "tick latency (s)"),
            ("sched.worker.utilization_frac", "worker utilization"),
        ] {
            if let Some(hist) = rollup.histogram(key) {
                let _ = writeln!(out, "  {title}, {} samples:", hist.count());
                out.push_str(&sensact_core::export::ascii_histogram(hist, 8, 40));
            }
        }
        out
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} loops over {} workers, horizon {:.4} s (virtual)",
            self.loops.len(),
            self.workers,
            self.horizon_s
        )?;
        writeln!(
            f,
            "  ticks {}  drops {}  deadline-misses {}  throttles {}",
            self.ticks, self.drops, self.deadline_misses, self.throttle_events
        )?;
        writeln!(
            f,
            "  makespan {:.4} s  throughput {:.1} ticks/vs  energy {:.3e} J ({:.3e} W)  util {:.0}%",
            self.makespan_s,
            self.throughput_ticks_per_vs(),
            self.energy_j,
            self.watts(),
            100.0 * self.mean_utilization()
        )?;
        writeln!(
            f,
            "  health {}: {} healthy / {} degraded / {} critical  incidents {}",
            self.health.status,
            self.health.healthy,
            self.health.degraded,
            self.health.critical,
            self.incidents.len()
        )?;
        writeln!(
            f,
            "  {:<20} {:>8} {:>7} {:>7} {:>7}  health",
            "loop", "ticks", "drops", "misses", "faults"
        )?;
        // `finish_run` classifies every loop it summarises.
        for (s, health) in self.loops.iter().zip(&self.loop_health) {
            writeln!(
                f,
                "  {:<20} {:>8} {:>7} {:>7} {:>7}  {}",
                s.name,
                s.stats.ticks,
                s.stats.drops,
                s.stats.deadline_misses,
                s.stats.faults,
                health
            )?;
        }
        for inc in &self.incidents {
            writeln!(
                f,
                "  incident {} worker {} loop {} at {:.4} s ({} spans)",
                inc.reason.name(),
                inc.worker,
                inc.loop_idx,
                inc.at_s,
                inc.spans.len()
            )?;
        }
        Ok(())
    }
}

/// Clamp a charged latency to something a virtual clock can advance by.
fn sane_latency(latency_s: f64) -> f64 {
    if latency_s.is_finite() && latency_s > 0.0 {
        latency_s
    } else {
        0.0
    }
}

/// What executing one release did on the virtual timeline — scheduled by a
/// run mode or driven externally ([`FleetScheduler::tick_member_at`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberTickOutcome {
    /// When the tick started: the release time, or later if the member's
    /// previous tick had not yet completed (a loop is sequential) or — in a
    /// run — its virtual worker was still busy.
    pub start_s: f64,
    /// When compute finished and the *worker* is free again
    /// (`start + charged latency`).
    pub busy_end_s: f64,
    /// When the tick fully completed (`busy_end + comm tail`) — the
    /// member's new sequential frontier, and what deadlines and the fleet
    /// makespan use.
    pub completion_s: f64,
    /// Energy the tick charged (joules), as reported.
    pub energy_j: f64,
    /// Whether the completion blew the member's latency budget (also
    /// recorded in its stats and fault telemetry).
    pub missed: bool,
}

/// Execute one release on a slot: run `tick` on the loop, advance accounting,
/// check the deadline. A tick starts when its release is due, its loop's
/// previous tick has completed (a loop is sequential), and its assigned
/// virtual worker is free (`worker_avail_s`; an externally-driven tick passes
/// `0`, its caller being the capacity). The worker is
/// occupied only for the charged compute latency; a communication tail
/// ([`TickOutcome::comm_s`](crate::handle::TickOutcome)) extends the loop's
/// completion — and its deadline check — without burning worker capacity.
///
/// With tracing enabled the tick's SchedTick span (plus a CommTail child when
/// it had an off-worker tail) is recorded and returned, so a run's
/// [`LaneWatch`] can also feed its flight recorder. Its context re-derives
/// from `(seed, loop, release)` ([`sched_tick_context`]); the loop is handed
/// none.
fn execute_release(
    slot: &mut Slot,
    release: &Release,
    worker_avail_s: f64,
    seed: u64,
    tracer: &FleetTracer,
    tick: impl FnOnce(&mut dyn DynLoop) -> TickOutcome,
) -> (MemberTickOutcome, Option<(CausalSpan, Option<CausalSpan>)>) {
    let start_s = worker_avail_s
        .max(release.release_s)
        .max(slot.last_completion_s);
    slot.handle.set_tick_start(start_s);
    let ctx = tracer
        .is_enabled()
        .then(|| sched_tick_context(seed, release.loop_idx, release.release_idx));
    let out = tick(&mut *slot.handle);
    let latency_s = sane_latency(out.latency_s);
    let comm_s = sane_latency(out.comm_s);
    let busy_end_s = start_s + latency_s;
    let completion_s = busy_end_s + comm_s;
    slot.last_completion_s = completion_s;
    slot.stats.ticks = slot.stats.ticks.wrapping_add(1);
    slot.stats.faults = slot.stats.faults.wrapping_add(out.faults as u64);
    slot.stats.busy_s += latency_s;
    slot.stats.comm_s += comm_s;
    if out.energy_j.is_finite() && out.energy_j > 0.0 {
        slot.stats.energy_j += out.energy_j;
    }
    let mut missed = false;
    if let Some(budget_s) = slot.spec.latency_budget_s {
        let response_s = completion_s - release.release_s;
        if response_s > budget_s {
            missed = true;
            slot.stats.deadline_misses = slot.stats.deadline_misses.wrapping_add(1);
            slot.handle.record_deadline_miss(response_s, budget_s);
        }
    }
    let exec = MemberTickOutcome {
        start_s,
        busy_end_s,
        completion_s,
        energy_j: out.energy_j,
        missed,
    };
    let span = |ctx: TraceContext, kind, start_s, end_s| {
        let node = release.loop_idx as u64;
        let span = ctx.span(kind, node, release.release_idx, start_s, end_s, !missed);
        tracer.record(span);
        span
    };
    let spans = ctx.map(|ctx| {
        let tick = span(ctx, SpanKind::SchedTick, start_s, busy_end_s);
        let tail = (completion_s > busy_end_s).then(|| {
            let child = ctx.child(&[SpanKind::CommTail.tag()]);
            span(child, SpanKind::CommTail, busy_end_s, completion_s)
        });
        (tick, tail)
    });
    (exec, spans)
}

/// The root context of one release's scheduler tick trace. Pure function of
/// `(seed, loop, release)`, so any participant — the loop itself, a test
/// reconstructing the tree — can re-derive it without a handoff.
fn sched_tick_context(seed: u64, loop_idx: usize, release_idx: u64) -> TraceContext {
    let trace_id = trace_mix(seed ^ SCHED_TRACE_SALT, &[loop_idx as u64, release_idx]);
    TraceContext::root(trace_id, &[SpanKind::SchedTick.tag()])
}

/// Compute the loop's next release after a completion, applying drop-oldest
/// backpressure and the arbiter's stride stretch. `None` retires the loop
/// (next release would fall past the horizon).
fn next_release(
    slot: &mut Slot,
    release: &Release,
    completion_s: f64,
    stretch: f64,
    horizon_s: f64,
    seed: u64,
) -> Option<Release> {
    let period_s = slot.spec.period_s;
    let stride_s = period_s * stretch.max(1.0);
    let throttled = stretch > 1.0;
    // While unthrottled, anchor to the exact `idx · period` grid instead of
    // accumulating strides — repeated addition drifts below the true grid
    // and would sneak an extra release in before the horizon. A throttled
    // loop has no fixed grid, so there we accumulate (monotone via `max`).
    let step = |to_idx: u64| {
        let accumulated = release.release_s + (to_idx - release.release_idx) as f64 * stride_s;
        if throttled {
            accumulated
        } else {
            accumulated.max(to_idx as f64 * period_s)
        }
    };
    // The release index space ends at `u64::MAX`: a loop whose backlog
    // reached it has no next release.
    let mut release_idx = release.release_idx.checked_add(1)?;
    let mut release_s = step(release_idx);
    if release_s < horizon_s && completion_s >= release_s {
        // Backlog: releases due in (last executed, completion]. Keep the
        // newest `queue_capacity`, drop the oldest beyond it. A gap or a
        // horizon past `u64::MAX` strides saturates its count (the casts
        // already do) instead of wrapping it.
        let behind = (((completion_s - release_s) / stride_s).floor() as u64).saturating_add(1);
        let cap = slot.spec.queue_capacity as u64;
        if behind > cap {
            // Only releases strictly before the horizon exist to be dropped —
            // a completion far past the horizon must not count phantom
            // releases that were never scheduled.
            let mut dropped = behind - cap;
            let in_horizon =
                (((horizon_s - release_s) / stride_s).ceil().max(0.0) as u64).saturating_add(1);
            dropped = dropped.min(in_horizon).min(u64::MAX - release_idx);
            while dropped > 0 && step(release_idx + dropped - 1) >= horizon_s {
                dropped -= 1;
            }
            slot.stats.drops = slot.stats.drops.wrapping_add(dropped);
            release_idx += dropped;
            release_s = step(release_idx);
        }
    }
    if release_s >= horizon_s {
        return None;
    }
    Some(Release::new(
        slot.spec.deadline_s(release_s),
        tie_break(seed, release.loop_idx, release_idx),
        release.loop_idx,
        release_idx,
        release_s,
    ))
}

/// A fleet of heterogeneous loops multiplexed over a worker pool.
#[derive(Debug)]
pub struct FleetScheduler {
    config: FleetConfig,
    slots: Vec<Slot>,
    /// Indices of retired slots available for reuse by `register`.
    free: Vec<usize>,
    tracer: Arc<FleetTracer>,
}

impl FleetScheduler {
    /// An empty fleet (causal tracing disabled, default health policy).
    pub fn new(config: FleetConfig) -> Self {
        FleetScheduler {
            config,
            slots: Vec::new(),
            free: Vec::new(),
            tracer: Arc::new(FleetTracer::disabled()),
        }
    }

    /// Attach a shared [`FleetTracer`]: every executed release emits a
    /// `SchedTick` causal span (plus a `CommTail` child for off-worker
    /// tails). A tick's context is a pure function of `(seed, loop,
    /// release)`, so downstream layers (the federated runtime, the network
    /// simulator) re-derive the contexts they link their spans under into
    /// the same causal stream; no member is handed one.
    pub fn set_tracer(&mut self, tracer: Arc<FleetTracer>) {
        self.tracer = tracer;
    }

    /// The attached tracer (disabled unless one was set).
    pub fn tracer(&self) -> &Arc<FleetTracer> {
        &self.tracer
    }

    /// Register a member loop under a timing spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec's period or latency budget is not positive and
    /// finite — a zero period would release infinitely often at one instant.
    pub fn register(&mut self, handle: LoopHandle, spec: LoopSpec) -> LoopId {
        assert!(
            spec.period_s.is_finite() && spec.period_s > 0.0,
            "loop period must be positive and finite"
        );
        if let Some(b) = spec.latency_budget_s {
            assert!(
                b.is_finite() && b > 0.0,
                "latency budget must be positive and finite"
            );
        }
        let spec = LoopSpec {
            queue_capacity: spec.queue_capacity.max(1),
            ..spec
        };
        let slot = Slot {
            handle,
            spec,
            stats: LoopStats::default(),
            last_completion_s: 0.0,
            retired: false,
            ext_releases: 0,
        };
        // Reuse a retired slot if one exists (membership churn keeps ids
        // dense); otherwise grow the table.
        if let Some(idx) = self.free.pop() {
            self.slots[idx] = slot;
            LoopId(idx)
        } else {
            self.slots.push(slot);
            LoopId(self.slots.len() - 1)
        }
    }

    /// Retire member `id` and return its handle: the slot stops releasing
    /// ticks in run modes, disappears from reports, and becomes available
    /// for reuse by the next [`FleetScheduler::register`]. This is the
    /// membership-churn half of the serving front-end: a lease release or
    /// expiry retires the member without disturbing the rest of the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the member is already retired.
    pub fn retire_member(&mut self, id: LoopId) -> LoopHandle {
        let slot = &mut self.slots[id.0];
        assert!(!slot.retired, "retire_member: member already retired");
        slot.retired = true;
        let handle = std::mem::replace(
            &mut slot.handle,
            LoopHandle::from_dyn(Box::new(TombstoneLoop {
                telemetry: LoopTelemetry::new(),
            })),
        );
        self.free.push(id.0);
        handle
    }

    /// Number of active (non-retired) member loops.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no active loops are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Active (non-retired) slots with their indices, registration order.
    fn active(&self) -> impl Iterator<Item = (usize, &Slot)> {
        self.slots.iter().enumerate().filter(|(_, s)| !s.retired)
    }

    /// A member loop's telemetry (preserved across scheduling).
    pub fn loop_telemetry(&self, id: LoopId) -> &LoopTelemetry {
        self.slots[id.0].handle.telemetry()
    }

    /// A member loop's scheduler-side stats (cumulative).
    pub fn loop_stats(&self, id: LoopId) -> LoopStats {
        self.slots[id.0].stats
    }

    /// A member loop's name.
    pub fn loop_name(&self, id: LoopId) -> String {
        self.slots[id.0].handle.name().to_string()
    }

    /// Serialize member `id` for kill-and-resume or live migration: the
    /// loop's own checkpoint ([`DynLoop::save_state`] — stages,
    /// telemetry, environment) plus a `sched.slot` section carrying the
    /// scheduler-side accounting (cumulative [`LoopStats`] and the loop's
    /// sequential-completion frontier).
    ///
    /// `Err(Unsupported)` for members not closed over a
    /// [`Checkpointed`](sensact_core::Checkpointed) runner. Snapshot between
    /// runs, not mid-run — the run methods hold the slots.
    pub fn snapshot_member(&self, id: LoopId) -> Result<Checkpoint, CheckpointError> {
        let slot = &self.slots[id.0];
        let mut ckpt = slot.handle.save_state()?;
        let mut s = Section::new("sched.slot");
        s.put_u64("ticks", slot.stats.ticks);
        s.put_u64("drops", slot.stats.drops);
        s.put_u64("deadline_misses", slot.stats.deadline_misses);
        s.put_u64("faults", slot.stats.faults);
        s.put_f64("energy_j", slot.stats.energy_j);
        s.put_f64("busy_s", slot.stats.busy_s);
        s.put_f64("comm_s", slot.stats.comm_s);
        s.put_f64("last_completion_s", slot.last_completion_s);
        s.put_u64("ext_releases", slot.ext_releases);
        ckpt.push(s);
        Ok(ckpt)
    }

    /// Replace member `id` with `handle` restored from a
    /// [`FleetScheduler::snapshot_member`] checkpoint — the adoption half of
    /// a migration. The handle must be constructed identically to the
    /// snapshotted member (same stages, seeds, policies); the member's
    /// timing spec stays as registered. On success the slot's stats and
    /// completion frontier are restored too, so subsequent deterministic
    /// runs are bit-identical to a fleet whose member was never killed. On
    /// error the existing member is left untouched.
    ///
    /// `id` must name a live member: to adopt into a retired slot,
    /// [`register`](FleetScheduler::register) a twin first (it reuses the
    /// slot) and adopt over that. Adopting straight into a retired id is
    /// `BadValue("sched.slot retired")`.
    pub fn adopt_member(
        &mut self,
        id: LoopId,
        mut handle: LoopHandle,
        ckpt: &Checkpoint,
    ) -> Result<(), CheckpointError> {
        // A retired id sits on the freelist: `len()` would not count the
        // adopted member and the next `register` would overwrite it.
        if self.slots[id.0].retired {
            return Err(CheckpointError::BadValue("sched.slot retired".into()));
        }
        handle.restore_from(ckpt)?;
        let s = ckpt.section("sched.slot")?;
        let stats = LoopStats {
            ticks: s.get_u64("ticks")?,
            drops: s.get_u64("drops")?,
            deadline_misses: s.get_u64("deadline_misses")?,
            faults: s.get_u64("faults")?,
            energy_j: s.get_f64("energy_j")?,
            busy_s: s.get_f64("busy_s")?,
            comm_s: s.get_f64("comm_s")?,
        };
        let last_completion_s = s.get_f64("last_completion_s")?;
        let ext_releases = s.get_u64("ext_releases")?;
        let slot = &mut self.slots[id.0];
        slot.handle = handle;
        slot.stats = stats;
        slot.last_completion_s = last_completion_s;
        slot.ext_releases = ext_releases;
        Ok(())
    }

    /// Execute one externally-driven tick of member `id`, released at
    /// `release_s` on the virtual timeline — the serving front-end's entry
    /// point, where a tick is released by an *observation arriving* rather
    /// than by a periodic schedule. Runs through the same accounting as a
    /// scheduled release: the tick starts no earlier than the member's
    /// previous completion (a loop is sequential), stats and deadline
    /// misses accrue to the same [`LoopStats`], and — when tracing is
    /// enabled — a `SchedTick` causal span is recorded under the same
    /// deterministic trace-id scheme as the run modes.
    ///
    /// # Panics
    ///
    /// Panics if the member is retired.
    pub fn tick_member_at(&mut self, id: LoopId, release_s: f64) -> MemberTickOutcome {
        self.tick_member_with(id, release_s, |member| member.tick_once())
    }

    /// [`FleetScheduler::tick_member_at`] with the tick body supplied by the
    /// caller: `tick` runs in place of [`DynLoop::tick_once`], inside the same
    /// accounting. This is how a tick takes an argument — the serving pool
    /// downcasts `member` ([`DynLoop`] is [`Any`](std::any::Any)) to its own
    /// lease type and hands it the observation's features by reference.
    ///
    /// # Panics
    ///
    /// Panics if the member is retired.
    pub fn tick_member_with(
        &mut self,
        id: LoopId,
        release_s: f64,
        tick: impl FnOnce(&mut dyn DynLoop) -> TickOutcome,
    ) -> MemberTickOutcome {
        let seed = self.config.seed;
        let slot = &mut self.slots[id.0];
        assert!(!slot.retired, "external tick: member is retired");
        let release_idx = slot.ext_releases;
        slot.ext_releases = slot.ext_releases.wrapping_add(1);
        let release = Release::new(
            slot.spec.deadline_s(release_s),
            tie_break(seed, id.0, release_idx),
            id.0,
            release_idx,
            release_s,
        );
        execute_release(slot, &release, 0.0, seed, &self.tracer, tick).0
    }

    /// Charge `n` dropped releases to member `id` — the accounting hook for
    /// an ingress layer shedding observations *before* they release ticks
    /// (the same drop-oldest backpressure the run modes apply, moved to the
    /// admission edge).
    pub fn record_member_drops(&mut self, id: LoopId, n: u64) {
        let drops = &mut self.slots[id.0].stats.drops;
        *drops = drops.wrapping_add(n);
    }

    /// A member loop's sequential-completion frontier (virtual seconds):
    /// when its latest tick fully completed. The admission-control input —
    /// pending work can start no earlier than this.
    pub fn member_frontier_s(&self, id: LoopId) -> f64 {
        self.slots[id.0].last_completion_s
    }

    /// Roll every member loop's telemetry up into one fleet-level registry:
    /// each loop exports into a scratch registry which is merged in —
    /// counters add, gauges sum, histograms merge bucket-wise in
    /// O(buckets) — so the result equals a single registry that had
    /// observed every loop directly.
    pub fn rollup_metrics(&self) -> MetricsRegistry {
        let mut fleet = MetricsRegistry::new();
        for (_, slot) in self.active() {
            let mut per_loop = MetricsRegistry::new();
            slot.handle.telemetry().export_into(&mut per_loop);
            fleet.merge(&per_loop);
        }
        fleet
    }

    /// Open a run: snapshot every slot's cumulative stats, and — unless the
    /// fleet is empty or the horizon is not a positive finite time — restart
    /// virtual time and release tick 0 of every active member. The returned
    /// report is what a run that executes nothing reports;
    /// [`FleetScheduler::finish_run`] fills in the rest.
    fn begin_run(&mut self, horizon_s: f64) -> (RunFrame, FleetReport) {
        let workers = self.config.workers.max(1);
        let seed = self.config.seed;
        let runnable = horizon_s.is_finite() && horizon_s > 0.0;
        let base = self.slots.iter().map(|s| s.stats).collect();
        let releases = self
            .slots
            .iter_mut()
            .enumerate()
            .filter(|(_, slot)| runnable && !slot.retired)
            .map(|(idx, slot)| {
                slot.last_completion_s = 0.0;
                let deadline_s = slot.spec.deadline_s(0.0);
                Release::new(deadline_s, tie_break(seed, idx, 0), idx, 0, 0.0)
            })
            .collect();
        let frame = RunFrame {
            wall_start: std::time::Instant::now(),
            horizon_s,
            seed,
            tracer: self.tracer.clone(),
            base,
            releases,
        };
        let idle = FleetReport {
            horizon_s,
            workers,
            ticks: 0,
            drops: 0,
            deadline_misses: 0,
            throttle_events: 0,
            makespan_s: 0.0,
            energy_j: 0.0,
            wall_s: 0.0,
            worker_busy_s: vec![0.0; workers],
            queue_depth: Histogram::new(),
            trace_hash: FNV_OFFSET,
            loops: Vec::new(),
            loop_health: Vec::new(),
            health: FleetHealth::default(),
            incidents: Vec::new(),
        };
        (frame, idle)
    }

    /// Close a run. What the lanes measured merges into the report: busy
    /// time per worker, the latest makespan, queue depths, incidents in
    /// worker order up to [`MAX_INCIDENTS`], and the lanes' trace hashes
    /// folded in worker order (a single lane's hash is the run's). Per-run
    /// counters are the slots' cumulative stats minus the frame's snapshot,
    /// and every active loop's whole-run signals are classified
    /// (hysteresis-free — one window covers the run) and rolled up into the
    /// fleet's health.
    fn finish_run(
        &self,
        frame: RunFrame,
        mut report: FleetReport,
        lanes: Vec<Lane>,
        arbiter: &EnergyArbiter,
    ) -> FleetReport {
        let lane_hashes = lanes.iter().map(|l| l.trace_hash);
        if let Some(hash) = lane_hashes.reduce(|h, lane| fnv1a_words(h, &[lane])) {
            report.trace_hash = hash;
        }
        for lane in lanes {
            report.worker_busy_s[lane.first_worker..][..lane.worker_busy_s.len()]
                .copy_from_slice(&lane.worker_busy_s);
            report.makespan_s = report.makespan_s.max(lane.makespan_s);
            report.queue_depth.merge(&lane.queue_depth);
            let room = MAX_INCIDENTS - report.incidents.len();
            report
                .incidents
                .extend(lane.incidents.into_iter().take(room));
        }
        report.throttle_events = arbiter.throttle_events();
        report.energy_j = arbiter.energy_j();
        for (i, slot) in self.active() {
            let base = &frame.base[i];
            // Sums of wrapping counters wrap like them.
            let misses = slot
                .stats
                .deadline_misses
                .wrapping_sub(base.deadline_misses);
            report.ticks = report
                .ticks
                .wrapping_add(slot.stats.ticks.wrapping_sub(base.ticks));
            report.drops = report
                .drops
                .wrapping_add(slot.stats.drops.wrapping_sub(base.drops));
            report.deadline_misses = report.deadline_misses.wrapping_add(misses);
            report.loops.push(LoopSummary {
                name: slot.handle.name().to_string(),
                stats: slot.stats,
            });
            let signals = LaneWatch::signals(slot, base, report.makespan_s);
            report.loop_health.push(classify(&signals));
        }
        report.health = FleetHealth::roll_up(report.loop_health.iter().copied());
        report.wall_s = frame.wall_start.elapsed().as_secs_f64();
        report
    }

    /// Run the fleet to the virtual horizon on OS threads: the slots are
    /// split into `workers` contiguous partitions and each thread drives its
    /// partition through the one event loop on one virtual worker, so a loop
    /// only ever waits for its own partition's worker. The threads share
    /// nothing but the energy arbiter.
    ///
    /// Absent a watts cap the arbiter never feeds back into the schedule, so
    /// everything in the report but `wall_s` and the last bits of the summed
    /// `energy_j` repeats run to run — [`FleetReport::trace_hash`] included —
    /// and with one worker the run *is*
    /// [`FleetScheduler::run_deterministic`]. Under a cap the stride stretch
    /// depends on which thread's completion the arbiter saw first.
    ///
    /// # Panics
    ///
    /// A panic in a member's tick is re-raised here once every other
    /// partition has run to the horizon.
    pub fn run(&mut self, horizon_s: f64) -> FleetReport {
        let (frame, report) = self.begin_run(horizon_s);
        let arbiter = Mutex::new(EnergyArbiter::new(self.config.watts_cap));
        let per_lane = self.slots.len().div_ceil(report.workers).max(1);
        let lanes: Vec<Lane> = std::thread::scope(|scope| {
            let (frame, arbiter) = (&frame, &arbiter);
            let threads: Vec<_> = self
                .slots
                .chunks_mut(per_lane)
                .enumerate()
                .map(|(w, part)| {
                    scope.spawn(move || {
                        drive(part, w * per_lane, w, 1, frame, |exec| {
                            arbiter
                                .lock()
                                .expect("no thread panics holding the arbiter")
                                .on_completion(exec.energy_j, exec.completion_s)
                        })
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let arbiter = arbiter
            .into_inner()
            .expect("no thread panics holding the arbiter");
        self.finish_run(frame, report, lanes, &arbiter)
    }

    /// Run the fleet to the virtual horizon as a single-threaded,
    /// event-driven simulation of the same `workers` virtual workers, kept
    /// in lockstep with the caller's [`SimClock`] (advanced to each
    /// completion's virtual time).
    ///
    /// The run is a pure function of the fleet and the configured seed:
    /// identical seeds give identical per-loop tick counts, bit-identical
    /// telemetry, and an identical [`FleetReport::trace_hash`]; a different
    /// seed reorders equal-deadline releases and is observable through the
    /// hash.
    pub fn run_deterministic(&mut self, horizon_s: f64, clock: &mut SimClock) -> FleetReport {
        let (frame, report) = self.begin_run(horizon_s);
        let mut arbiter = EnergyArbiter::new(self.config.watts_cap);
        let lane = drive(&mut self.slots, 0, 0, report.workers, &frame, |exec| {
            // Keep the caller's SimClock at the fleet's virtual frontier
            // (advance clamps regressions to zero).
            clock.advance(exec.completion_s - clock.peek_s());
            arbiter.on_completion(exec.energy_j, exec.completion_s)
        });
        self.finish_run(frame, report, vec![lane], &arbiter)
    }
}

/// What [`FleetScheduler::run`] and [`FleetScheduler::run_deterministic`]
/// share around the event loop.
struct RunFrame {
    wall_start: std::time::Instant,
    horizon_s: f64,
    seed: u64,
    tracer: Arc<FleetTracer>,
    /// Every slot's cumulative stats when the run began (slot stats never
    /// reset, so per-run report counters subtract this).
    base: Vec<LoopStats>,
    /// Tick 0 of every active member; empty when there is nothing to run.
    releases: Vec<Release>,
}

/// What one pass of the event loop over one partition of the fleet measured.
struct Lane {
    /// Fleet-wide index of this lane's first virtual worker.
    first_worker: usize,
    /// Executed charged latency per virtual worker of this lane.
    worker_busy_s: Vec<f64>,
    /// Latest completion, off-worker comm tails included.
    makespan_s: f64,
    queue_depth: Histogram,
    /// FNV-1a fold of `(loop, release, worker, completion)` in pop order.
    trace_hash: u64,
    incidents: Vec<Incident>,
}

/// The scheduler's event loop: earliest-deadline-first over `slots` — loops
/// `first_loop..` of the fleet — on `workers` virtual workers numbered from
/// `first_worker`, until every loop's next release falls past the horizon.
/// `on_completion` sees each executed tick and answers with the stride
/// stretch to apply to that loop. With tracing on, a [`LaneWatch`] sees each
/// completion too; untraced, nothing but the schedule runs.
fn drive(
    slots: &mut [Slot],
    first_loop: usize,
    first_worker: usize,
    workers: usize,
    frame: &RunFrame,
    mut on_completion: impl FnMut(&MemberTickOutcome) -> f64,
) -> Lane {
    let (seed, horizon_s, tracer) = (frame.seed, frame.horizon_s, &*frame.tracer);
    let mine = first_loop..first_loop + slots.len();
    let mut heap: BinaryHeap<Reverse<Release>> = frame
        .releases
        .iter()
        .filter(|r| mine.contains(&r.loop_idx))
        .map(|&r| Reverse(r))
        .collect();
    let mut lane = Lane {
        first_worker,
        worker_busy_s: vec![0.0; workers],
        makespan_s: 0.0,
        queue_depth: Histogram::new(),
        trace_hash: FNV_OFFSET,
        incidents: Vec::new(),
    };
    let mut worker_clock_s = vec![0.0f64; workers];
    let mut watch = tracer
        .is_enabled()
        .then(|| LaneWatch::new(frame, mine, workers));

    while let Some(Reverse(release)) = heap.pop() {
        lane.queue_depth.record(heap.len() as f64);
        // Earliest-available worker takes the earliest deadline; ties on
        // the clock break by worker index. Deterministic by construction.
        let mut w = 0usize;
        for other in 1..workers {
            if worker_clock_s[other] < worker_clock_s[w] {
                w = other;
            }
        }
        let slot = &mut slots[release.loop_idx - first_loop];
        let (exec, spans) =
            execute_release(slot, &release, worker_clock_s[w], seed, tracer, |member| {
                member.tick_once()
            });
        // The worker is free once compute ends; a comm tail keeps the
        // *loop* busy (sequential + deadline) but not the worker.
        lane.worker_busy_s[w] += exec.busy_end_s - exec.start_s;
        worker_clock_s[w] = exec.busy_end_s;
        lane.makespan_s = lane.makespan_s.max(exec.completion_s);
        let stretch = on_completion(&exec);
        slot.handle.set_energy_stretch(stretch);
        let folded = [
            release.loop_idx as u64,
            release.release_idx,
            (first_worker + w) as u64,
            exec.completion_s.to_bits(),
        ];
        lane.trace_hash = fnv1a_words(lane.trace_hash, &folded);
        if let (Some(watch), Some(spans)) = (watch.as_mut(), spans) {
            watch.complete(slot, &release, &lane, w, &exec, spans);
        }
        if let Some(next) =
            next_release(slot, &release, exec.completion_s, stretch, horizon_s, seed)
        {
            heap.push(Reverse(next));
        }
    }
    lane.incidents = watch.map(|watch| watch.incidents).unwrap_or_default();
    lane
}

/// Salt for health-transition trace ids.
const HEALTH_TRACE_SALT: u64 = 0x5C4E_D41F;

/// Causal spans each worker's flight recorder retains (ring buffer).
pub(crate) const FLIGHT_RECORDER_CAPACITY: usize = 32;

/// Per-loop completion window between health evaluations in a run — small
/// enough to catch a storm mid-run, large enough for the rates to mean
/// something.
pub(crate) const HEALTH_WINDOW_TICKS: u64 = 16;

/// What a traced run observes beside one lane's schedule: each virtual
/// worker keeps a flight recorder and a miss-storm window, and each loop's
/// hysteresis health scorer — evaluated every [`HEALTH_WINDOW_TICKS`]
/// completions — emits its transitions as `Health` spans; either can freeze
/// a recorder into an [`Incident`]. It reads the slots and never writes
/// them, so a traced run schedules exactly what an untraced one does.
struct LaneWatch<'a> {
    frame: &'a RunFrame,
    first_loop: usize,
    /// Per virtual worker: its recorder, how many of its recent completions
    /// it has seen (to 8), and a bit per completion that missed.
    workers: Vec<(FleetTracer, u32, u8)>,
    /// Per loop: its scorer, its stats when its window opened, and how many
    /// windows it has closed (a `Health` span's id).
    loops: Vec<(sensact_core::HealthScorer, LoopStats, u64)>,
    incidents: Vec<Incident>,
}

impl<'a> LaneWatch<'a> {
    /// Sliding completion window the miss-storm invariant watches per
    /// worker: one bit of the worker's miss mask per completion.
    const MISS_STORM_WINDOW: u32 = u8::BITS;

    /// Misses within the window that trip the invariant.
    const MISS_STORM_THRESHOLD: u32 = 6;

    fn new(frame: &'a RunFrame, loops: Range<usize>, workers: usize) -> Self {
        let recorder = || (FleetTracer::with_capacity(FLIGHT_RECORDER_CAPACITY), 0, 0);
        LaneWatch {
            frame,
            first_loop: loops.start,
            workers: (0..workers).map(|_| recorder()).collect(),
            loops: frame.base[loops]
                .iter()
                .map(|&base| (Default::default(), base, 0))
                .collect(),
            incidents: Vec::new(),
        }
    }

    /// Health signals for one loop over a stats window `[base, slot.stats]`:
    /// miss and drop rates over the window's releases, trust/retransmit
    /// fractions from the loop's cumulative telemetry, and completion lag
    /// against the fleet frontier in units of the loop's period.
    fn signals(slot: &Slot, base: &LoopStats, frontier_s: f64) -> HealthSignals {
        let ticks = slot.stats.ticks.wrapping_sub(base.ticks);
        let misses = slot
            .stats
            .deadline_misses
            .wrapping_sub(base.deadline_misses);
        let drops = slot.stats.drops.wrapping_sub(base.drops);
        let telemetry = slot.handle.telemetry();
        let comm = telemetry.comm_counters();
        let staleness = if ticks == 0 {
            0.0
        } else {
            ((frontier_s - slot.last_completion_s) / slot.spec.period_s).max(0.0)
        };
        HealthSignals {
            miss_rate: misses as f64 / ticks.max(1) as f64,
            drop_rate: drops as f64 / ticks.saturating_add(drops).max(1) as f64,
            trust_drift: telemetry.suspect_fraction(),
            staleness,
            retransmit_rate: comm.retransmits as f64 / comm.msgs_sent.max(1) as f64,
        }
    }

    /// Observe one completion on `lane`'s worker `w`: its spans (the tick's
    /// and any comm tail's) enter the worker's recorder, its miss the
    /// worker's window, and the loop's health window closes when it is full.
    /// Either invariant freezes the worker's recorder into an incident while
    /// the run has room.
    fn complete(
        &mut self,
        slot: &Slot,
        release: &Release,
        lane: &Lane,
        w: usize,
        exec: &MemberTickOutcome,
        (tick_span, tail_span): (CausalSpan, Option<CausalSpan>),
    ) {
        let (ring, seen, misses) = &mut self.workers[w];
        std::iter::once(tick_span)
            .chain(tail_span)
            .for_each(|span| ring.record(span));
        let mut freeze = |reason, trigger: Option<CausalSpan>| {
            if self.incidents.len() < MAX_INCIDENTS {
                let mut spans = ring.spans();
                spans.extend(trigger);
                self.incidents.push(Incident {
                    worker: lane.first_worker + w,
                    loop_idx: release.loop_idx,
                    at_s: exec.completion_s,
                    reason,
                    spans,
                });
            }
        };
        // Miss-storm invariant: mostly-missing completions inside one
        // worker's recent window freeze that worker's recorder.
        *seen = (*seen + 1).min(Self::MISS_STORM_WINDOW);
        *misses = *misses << 1 | exec.missed as u8;
        if *seen == Self::MISS_STORM_WINDOW && misses.count_ones() >= Self::MISS_STORM_THRESHOLD {
            (*seen, *misses) = (0, 0);
            freeze(IncidentReason::MissStorm, None);
        }
        // Health window: every HEALTH_WINDOW_TICKS completions of a loop,
        // feed its windowed signals through the hysteresis scorer.
        let (scorer, base, evals) = &mut self.loops[release.loop_idx - self.first_loop];
        if slot.stats.ticks.wrapping_sub(base.ticks) < HEALTH_WINDOW_TICKS {
            return;
        }
        let signals = Self::signals(slot, base, lane.makespan_s);
        *base = slot.stats;
        *evals += 1;
        if let Some((from, to)) = scorer.observe(&signals) {
            let node = release.loop_idx as u64;
            let trace_id = trace_mix(self.frame.seed ^ HEALTH_TRACE_SALT, &[node]);
            let hctx = TraceContext::root(trace_id, &[SpanKind::Health.tag(), *evals]);
            let (detail, at_s) = (encode_transition(from, to), exec.completion_s);
            let healthy = to == HealthStatus::Healthy;
            let span = hctx.span(SpanKind::Health, node, detail, at_s, at_s, healthy);
            self.frame.tracer.record(span);
            if to == HealthStatus::Critical {
                freeze(IncidentReason::HealthCollapse, Some(span));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::LoopHandle;
    use sensact_core::stage::{FnController, FnPerceptor, FnSensor, StageContext};
    use sensact_core::{Checkpointed, LoopBuilder};

    /// A scalar loop charging `latency_s`/`energy_j` per tick.
    fn handle(name: &str, energy_j: f64, latency_s: f64) -> LoopHandle {
        let looop = LoopBuilder::new(name).build(
            FnSensor::new(move |e: &f64, ctx: &mut StageContext| {
                ctx.charge(energy_j, latency_s);
                *e
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.2 * f),
        );
        LoopHandle::closed(looop, 1.0f64, |e, a| *e += a)
    }

    fn fleet(n: usize, workers: usize, seed: u64) -> FleetScheduler {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers,
            watts_cap: None,
            seed,
        });
        for i in 0..n {
            sched.register(
                handle(&format!("loop-{i}"), 1e-6, 1e-4),
                LoopSpec::periodic(1e-2),
            );
        }
        sched
    }

    #[test]
    fn deterministic_run_executes_every_release() {
        let mut sched = fleet(3, 2, 42);
        let report = sched.run_deterministic(0.1, &mut SimClock::new());
        // 10 releases per loop in [0, 0.1): k·0.01 for k = 0..9.
        assert_eq!(report.ticks, 30);
        assert_eq!(report.drops, 0);
        assert_eq!(report.deadline_misses, 0);
        for i in 0..3 {
            assert_eq!(sched.loop_stats(LoopId(i)).ticks, 10);
            assert_eq!(sched.loop_telemetry(LoopId(i)).ticks(), 10);
        }
        assert!(report.makespan_s > 0.0 && report.makespan_s < 0.1);
        assert!(report.throughput_ticks_per_vs() > 0.0);
    }

    #[test]
    fn eight_virtual_workers_run_an_exact_capacity_schedule_eight_times_faster() {
        const WORKERS: usize = 8;
        const TICKS_PER_LOOP: u64 = 5;
        const TICK_LATENCY_S: f64 = 1e-4;
        // N loops at exact capacity: the period is chosen so the aggregate
        // charged latency just saturates the 8-worker pool, so the ideal
        // speed-up over one worker is 8.
        let fleet_run = |n: usize, workers: usize| {
            let period_s = n as f64 * TICK_LATENCY_S / WORKERS as f64;
            let mut sched = FleetScheduler::new(FleetConfig {
                workers,
                watts_cap: None,
                seed: 42,
            });
            for i in 0..n {
                sched.register(
                    handle(&format!("m{i}"), 1e-6, TICK_LATENCY_S),
                    // Unbounded queue: the single worker runs far behind the
                    // release schedule and must not shed load, so both runs
                    // execute the identical N·K ticks.
                    LoopSpec::periodic(period_s).with_queue_capacity(usize::MAX),
                );
            }
            sched.run_deterministic(TICKS_PER_LOOP as f64 * period_s, &mut SimClock::new())
        };
        let speedup = |n: usize| {
            let pool = fleet_run(n, WORKERS);
            let single = fleet_run(n, 1);
            assert_eq!(pool.ticks, n as u64 * TICKS_PER_LOOP);
            assert_eq!(pool.ticks, single.ticks, "identical schedule");
            assert_eq!(pool.drops + single.drops, 0, "no run may drop ticks");
            single.makespan_s / pool.makespan_s
        };
        // 100 loops: 500 ticks over 8 workers leave a 4-tick tail (7.937×).
        let at_100 = speedup(100);
        assert!((7.9..=8.0).contains(&at_100), "speed-up {at_100}");
        // 1 000 loops: 5 000 ticks divide evenly — 8× up to the rounding of
        // the summed virtual latencies.
        let at_1000 = speedup(1000);
        assert!((at_1000 - 8.0).abs() < 1e-9, "speed-up {at_1000}");
    }

    #[test]
    fn threaded_run_matches_release_schedule() {
        let mut sched = fleet(8, 4, 7);
        let report = sched.run(0.1);
        // No backlog (latency ≪ period), so nothing can be dropped and every
        // loop executes its full schedule regardless of interleaving.
        assert_eq!(report.ticks, 80);
        assert_eq!(report.drops, 0);
        for i in 0..8 {
            assert_eq!(sched.loop_telemetry(LoopId(i)).ticks(), 10);
        }
        assert!(report.wall_s > 0.0);
    }

    #[test]
    fn simclock_tracks_virtual_frontier() {
        let mut sched = fleet(2, 1, 0);
        let mut clock = SimClock::new();
        let report = sched.run_deterministic(0.05, &mut clock);
        assert_eq!(clock.peek_s(), report.makespan_s);
        assert!(clock.peek_s() > 0.0);
    }

    #[test]
    fn overrunning_tick_surfaces_timeout_and_misses() {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 0,
        });
        // 5 ms charged latency against a 1 ms budget: every tick misses.
        let id = sched.register(
            handle("laggard", 1e-6, 5e-3),
            LoopSpec::periodic(1e-2).with_budget(1e-3),
        );
        let report = sched.run_deterministic(0.1, &mut SimClock::new());
        assert_eq!(report.ticks, 10);
        assert_eq!(report.deadline_misses, 10);
        let counters = sched.loop_telemetry(id).fault_counters();
        assert_eq!(
            counters.timeouts, 10,
            "missed deadlines must surface as Timeout faults"
        );
        let text = report.to_string();
        assert!(text.contains("deadline-misses 10"), "{text}");
    }

    #[test]
    fn backlogged_loop_drops_oldest_and_stays_bounded() {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 0,
        });
        // 5 ms per tick released every 1 ms: the loop falls 4 releases
        // behind per executed tick; capacity 2 forces steady drops.
        let id = sched.register(
            handle("swamped", 1e-6, 5e-3),
            LoopSpec::periodic(1e-3).with_queue_capacity(2),
        );
        let report = sched.run_deterministic(0.1, &mut SimClock::new());
        let stats = sched.loop_stats(id);
        assert!(stats.drops > 0, "backpressure must drop releases");
        assert_eq!(report.drops, stats.drops);
        // Conservation: executed + dropped never exceeds the release
        // schedule (100 releases in [0, 0.1) at 1 ms).
        assert!(stats.ticks + stats.drops <= 100);
        // Drop-oldest keeps the loop fresh: it still ticks regularly.
        assert!(stats.ticks >= 100 / 5 / 2, "ticks {}", stats.ticks);
        assert!(
            report.to_string().contains("drops"),
            "report must show drops"
        );
    }

    /// The ticks and drops of one member on one worker, released every
    /// 10 ms up to `horizon_s`, each tick charging `latency_s`.
    fn late_member(latency_s: f64, horizon_s: f64) -> (u64, u64) {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 0,
        });
        let id = sched.register(handle("late", 1e-6, latency_s), LoopSpec::periodic(1e-2));
        sched.run_deterministic(horizon_s, &mut SimClock::new());
        let stats = sched.loop_stats(id);
        (stats.ticks, stats.drops)
    }

    /// A first tick that completes past a 1 s horizon leaves the other 99
    /// releases to be dropped: 1 tick and 99 drops at 1e17 s, and the same
    /// once the backlog counts past `u64::MAX` strides.
    #[test]
    fn a_backlog_past_u64_strides_drops_like_a_shorter_one_at_1e19_s() {
        assert_eq!(late_member(1e17, 1.0), (1, 99));
        assert_eq!(late_member(1e19, 1.0), late_member(1e17, 1.0));
    }

    #[test]
    fn a_backlog_past_u64_strides_drops_like_a_shorter_one_at_1e300_s() {
        assert_eq!(late_member(1e300, 1.0), late_member(1e17, 1.0));
    }

    #[test]
    fn a_backlog_past_u64_strides_drops_like_a_shorter_one_at_f64_max() {
        assert_eq!(late_member(f64::MAX, 1.0), late_member(1e17, 1.0));
    }

    /// The drops are bounded by the releases before the horizon; a horizon
    /// past `u64::MAX` strides saturates that bound, so a tick 1 s late
    /// drops the same backlog under a 1e300 s horizon as under a 1e3 s one.
    #[test]
    fn a_horizon_past_u64_strides_drops_like_a_nearer_one() {
        let release = Release::new(0.0, 0, 0, 0, 0.0);
        let next = |horizon_s: f64| {
            let mut sched = fleet(1, 1, 0);
            let slot = &mut sched.slots[0];
            let next = next_release(slot, &release, 1.0, 1.0, horizon_s, 0);
            let at = next.map(|r| (r.release_idx, r.release_s.to_bits()));
            (at, slot.stats.drops)
        };
        assert_eq!(next(1e300), next(1e3));
        assert!(next(1e3).1 > 0);
    }

    /// A backlog that reaches the end of the release index space ends the
    /// loop there: every index up to `u64::MAX` is ticked or dropped once.
    #[test]
    fn a_backlog_past_the_last_release_index_retires_the_loop() {
        let (ticks, drops) = late_member(1e300, f64::MAX);
        assert_eq!(u128::from(ticks) + u128::from(drops), 1 << 64);
    }

    /// Two such members each drop nearly 2^64 releases: the run's counters
    /// wrap like the slot counters they sum instead of overflowing.
    #[test]
    fn run_counters_wrap_when_two_backlogs_reach_the_last_release_index() {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 2,
            watts_cap: None,
            seed: 0,
        });
        let ids: Vec<LoopId> = (0..2)
            .map(|_| sched.register(handle("late", 1e-6, 1e300), LoopSpec::periodic(1e-2)))
            .collect();
        let report = sched.run_deterministic(f64::MAX, &mut SimClock::new());
        let [a, b] = [ids[0], ids[1]].map(|id| sched.loop_stats(id));
        for s in [a, b] {
            assert_eq!(u128::from(s.ticks) + u128::from(s.drops), 1 << 64);
        }
        assert_eq!(report.drops, a.drops.wrapping_add(b.drops));
        assert_eq!(report.ticks, a.ticks + b.ticks);
    }

    #[test]
    fn energy_arbiter_throttles_over_cap_fleet() {
        let run = |watts_cap: Option<f64>| {
            let mut sched = FleetScheduler::new(FleetConfig {
                workers: 1,
                watts_cap,
                seed: 0,
            });
            // 1 J per 1 ms tick ⇒ 1000 W average; cap at 1 W.
            let id = sched.register(handle("hot", 1.0, 1e-3), LoopSpec::periodic(1e-3));
            let report = sched.run_deterministic(0.2, &mut SimClock::new());
            (report, sched.loop_stats(id))
        };
        let (free, free_stats) = run(None);
        let (capped, capped_stats) = run(Some(1.0));
        assert_eq!(free.throttle_events, 0);
        assert!(capped.throttle_events > 0, "cap must throttle");
        assert!(
            capped_stats.ticks < free_stats.ticks / 4,
            "throttled {} vs free {}",
            capped_stats.ticks,
            free_stats.ticks
        );
    }

    #[test]
    fn report_exports_into_registry() {
        let mut sched = fleet(4, 2, 3);
        let report = sched.run_deterministic(0.1, &mut SimClock::new());
        let mut registry = MetricsRegistry::new();
        report.export_into(&mut registry);
        assert_eq!(registry.counter("sched.ticks_total"), report.ticks);
        assert_eq!(registry.counter("sched.drops_total"), 0);
        assert_eq!(registry.counter("sched.deadline_miss_total"), 0);
        assert!(registry.gauge("sched.fleet_watts").is_some());
        assert!(registry.histogram("sched.queue.depth").is_some());
        let util = registry.histogram("sched.worker.utilization_frac").unwrap();
        assert_eq!(util.count(), 2);
        // The registry's Display is the textual metrics surface.
        let text = registry.to_string();
        assert!(text.contains("sched.deadline_miss_total"), "{text}");
        assert!(text.contains("sched.drops_total"), "{text}");
    }

    /// Satellite: scheduler determinism. Same seed ⇒ identical per-loop tick
    /// counts and bit-identical telemetry totals; different seed ⇒ an
    /// observably different interleaving.
    #[test]
    fn same_seed_reproduces_bit_exactly_different_seed_interleaves_differently() {
        let run = |seed: u64| {
            let mut sched = fleet(6, 3, seed);
            let report = sched.run_deterministic(1.0, &mut SimClock::new());
            let telem: Vec<(u64, u64, u64)> = (0..6)
                .map(|i| {
                    let t = sched.loop_telemetry(LoopId(i));
                    (
                        t.ticks(),
                        t.total_energy_j().to_bits(),
                        t.total_latency_s().to_bits(),
                    )
                })
                .collect();
            let ticks: Vec<u64> = (0..6).map(|i| sched.loop_stats(LoopId(i)).ticks).collect();
            (report.trace_hash, ticks, telem)
        };
        let (hash_a, ticks_a, telem_a) = run(42);
        let (hash_b, ticks_b, telem_b) = run(42);
        assert_eq!(hash_a, hash_b, "same seed must replay the same trace");
        assert_eq!(ticks_a, ticks_b);
        assert_eq!(telem_a, telem_b, "telemetry must be bit-identical");
        let (hash_c, ticks_c, _) = run(43);
        assert_ne!(
            hash_a, hash_c,
            "a different seed must reorder equal-deadline releases"
        );
        // The schedule itself is unchanged — only the interleaving moved.
        assert_eq!(ticks_a, ticks_c);
    }

    #[test]
    fn empty_fleet_and_zero_horizon_are_benign() {
        let mut sched = FleetScheduler::new(FleetConfig::default());
        assert!(sched.is_empty());
        let r = sched.run(1.0);
        assert_eq!(r.ticks, 0);
        let mut sched = fleet(2, 2, 0);
        let r = sched.run_deterministic(0.0, &mut SimClock::new());
        assert_eq!(r.ticks, 0);
        assert_eq!(sched.len(), 2);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_is_rejected() {
        let mut sched = FleetScheduler::new(FleetConfig::default());
        let _ = sched.register(handle("bad", 1e-6, 1e-4), LoopSpec::periodic(0.0));
    }

    /// A bare [`DynLoop`] charging fixed compute latency plus an off-worker
    /// communication tail, recording each tick's virtual start time.
    struct CommLoop {
        telemetry: sensact_core::LoopTelemetry,
        latency_s: f64,
        comm_s: f64,
        starts: std::sync::Arc<Mutex<Vec<f64>>>,
    }

    impl CommLoop {
        fn boxed(latency_s: f64, comm_s: f64) -> LoopHandle {
            Self::observed(latency_s, comm_s).0
        }

        fn observed(latency_s: f64, comm_s: f64) -> (LoopHandle, std::sync::Arc<Mutex<Vec<f64>>>) {
            let starts = std::sync::Arc::new(Mutex::new(Vec::new()));
            let handle = LoopHandle::from_dyn(Box::new(CommLoop {
                telemetry: sensact_core::LoopTelemetry::new(),
                latency_s,
                comm_s,
                starts: starts.clone(),
            }));
            (handle, starts)
        }
    }

    impl crate::handle::DynLoop for CommLoop {
        fn name(&self) -> &str {
            "comm"
        }
        fn set_tick_start(&mut self, start_s: f64) {
            self.starts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(start_s);
        }
        fn tick_once(&mut self) -> crate::handle::TickOutcome {
            self.telemetry
                .record(1e-6, self.latency_s, sensact_core::Trust::Trusted);
            crate::handle::TickOutcome {
                energy_j: 1e-6,
                latency_s: self.latency_s,
                comm_s: self.comm_s,
                faults: 0,
            }
        }
        fn telemetry(&self) -> &sensact_core::LoopTelemetry {
            &self.telemetry
        }
        fn record_deadline_miss(&mut self, latency_s: f64, budget_s: f64) {
            self.telemetry
                .record_fault(&sensact_core::StageError::Timeout {
                    latency_s,
                    budget_s,
                });
        }
    }

    /// Satellite: a comm tail frees the worker (tails of different loops
    /// overlap on one worker; worker busy time excludes them) but extends
    /// the loop's completion, so makespan and deadline checks see it.
    #[test]
    fn comm_tails_overlap_across_loops_but_count_toward_deadlines() {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 0,
        });
        // 4 loops, one release each (period = horizon): 1 ms of compute
        // followed by a 0.5 s upload, against a 0.1 s budget.
        let ids: Vec<LoopId> = (0..4)
            .map(|_| {
                sched.register(
                    CommLoop::boxed(1e-3, 0.5),
                    LoopSpec::periodic(1.0).with_budget(0.1),
                )
            })
            .collect();
        let report = sched.run_deterministic(1.0, &mut SimClock::new());
        assert_eq!(report.ticks, 4);
        // The single worker only holds each tick for its compute time, so
        // the four uploads are in flight concurrently: makespan is one tail
        // past the last compute slot, nowhere near the serialized 4 × 0.501.
        assert!((report.worker_busy_s[0] - 4e-3).abs() < 1e-12);
        assert!(
            (report.makespan_s - (4e-3 + 0.5)).abs() < 1e-9,
            "{}",
            report.makespan_s
        );
        // But each loop's completion includes its tail: every tick blows the
        // 0.1 s budget and surfaces as a Timeout fault.
        assert_eq!(report.deadline_misses, 4);
        for id in &ids {
            let stats = sched.loop_stats(*id);
            assert!((stats.comm_s - 0.5).abs() < 1e-12);
            assert!((stats.busy_s - 1e-3).abs() < 1e-12);
            assert_eq!(sched.loop_telemetry(*id).fault_counters().timeouts, 1);
        }
    }

    /// Tentpole: tracing. SchedTick spans cover every executed release,
    /// CommTail spans parent under their tick, and two identically-seeded
    /// runs export a bit-identical trace stream.
    #[test]
    fn tracer_records_causally_linked_tick_and_tail_spans() {
        use sensact_core::export::trace_stream_hash;
        let run = || {
            let mut sched = FleetScheduler::new(FleetConfig {
                workers: 2,
                watts_cap: None,
                seed: 9,
            });
            sched.set_tracer(Arc::new(FleetTracer::new()));
            for _ in 0..2 {
                sched.register(CommLoop::boxed(1e-3, 2e-3), LoopSpec::periodic(1e-2));
            }
            let report = sched.run_deterministic(0.05, &mut SimClock::new());
            let spans = sched.tracer().spans();
            (report, spans)
        };
        let (report, spans) = run();
        let ticks: Vec<&CausalSpan> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::SchedTick)
            .collect();
        let tails: Vec<&CausalSpan> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::CommTail)
            .collect();
        assert_eq!(ticks.len() as u64, report.ticks);
        assert_eq!(tails.len() as u64, report.ticks, "every tick had a tail");
        for tail in &tails {
            let parent = ticks
                .iter()
                .find(|t| t.span_id == tail.parent_id && t.trace_id == tail.trace_id)
                .expect("comm tail must parent under its tick span");
            assert_eq!(parent.node, tail.node);
            assert!((tail.start_s - parent.end_s).abs() < 1e-12);
        }
        // Context is re-derivable without a handoff: each tick span's whole
        // context is the pure function of (seed, loop, release), releases
        // numbered from 0 per loop.
        for t in &ticks {
            let ctx = sched_tick_context(9, t.node as usize, t.detail);
            assert_eq!(
                (t.trace_id, t.span_id, t.parent_id),
                (ctx.trace_id, ctx.span_id, 0)
            );
        }
        for node in 0..2 {
            let releases: Vec<u64> = ticks
                .iter()
                .filter(|t| t.node == node)
                .map(|t| t.detail)
                .collect();
            assert_eq!(releases, (0..releases.len() as u64).collect::<Vec<_>>());
        }
        let (_, spans_b) = run();
        assert_eq!(
            trace_stream_hash(&spans),
            trace_stream_hash(&spans_b),
            "same seed must export a bit-identical trace stream"
        );
    }

    /// A disabled tracer records nothing and the report is still complete.
    #[test]
    fn disabled_tracer_records_nothing() {
        let mut sched = fleet(3, 2, 1);
        let report = sched.run_deterministic(0.05, &mut SimClock::new());
        assert!(sched.tracer().is_empty());
        assert!(!sched.tracer().is_enabled());
        assert_eq!(report.incidents.len(), 0);
        assert_eq!(report.loop_health.len(), 3);
    }

    /// Satellite: the report export is idempotent — exporting the same
    /// report twice into one registry must not double any sample.
    #[test]
    fn report_export_is_idempotent() {
        let mut sched = fleet(4, 2, 3);
        let report = sched.run_deterministic(0.1, &mut SimClock::new());
        let mut registry = MetricsRegistry::new();
        report.export_into(&mut registry);
        report.export_into(&mut registry);
        assert_eq!(registry.counter("sched.ticks_total"), report.ticks);
        assert_eq!(
            registry.counter("sched.health.healthy"),
            report.health.healthy as u64
        );
        let util = registry.histogram("sched.worker.utilization_frac").unwrap();
        assert_eq!(util.count(), 2, "one sample per worker, not per export");
    }

    /// Health scoring: a fleet whose every tick misses its deadline ends the
    /// run critical (miss_rate 1.0), and the roll-up reflects it; a clean
    /// fleet stays healthy.
    #[test]
    fn health_classifies_missing_and_clean_fleets() {
        let mut sick = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 0,
        });
        sick.register(
            handle("laggard", 1e-6, 5e-3),
            LoopSpec::periodic(1e-2).with_budget(1e-3),
        );
        let report = sick.run_deterministic(0.1, &mut SimClock::new());
        assert_eq!(report.loop_health, vec![HealthStatus::Critical]);
        assert_eq!(report.health.status, HealthStatus::Critical);
        assert_eq!(report.health.critical, 1);
        let text = report.to_string();
        assert!(text.contains("health critical"), "{text}");
        assert!(text.contains("laggard"), "{text}");

        let mut clean = fleet(4, 2, 0);
        let report = clean.run_deterministic(0.1, &mut SimClock::new());
        assert_eq!(report.health.status, HealthStatus::Healthy);
        assert_eq!(report.health.healthy, 4);
        assert_eq!(report.loop_health, vec![HealthStatus::Healthy; 4]);
    }

    /// Tentpole: the flight recorder. A sustained miss storm trips the
    /// per-worker invariant and dumps the recorder's recent spans into the
    /// report; the hysteresis scorer's collapse emits a Health span.
    #[test]
    fn miss_storm_trips_flight_recorder_and_health_span() {
        use sensact_core::export::trace_stream_hash;
        use IncidentReason::{HealthCollapse as Collapse, MissStorm as Storm};
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 0,
        });
        sched.set_tracer(Arc::new(FleetTracer::new()));
        // Every tick misses: 5 ms latency against a 1 ms budget, long enough
        // for several health windows (HEALTH_WINDOW_TICKS completions each).
        sched.register(
            handle("stormy", 1e-6, 5e-3),
            LoopSpec::periodic(1e-2).with_budget(1e-3),
        );
        let report = sched.run_deterministic(5.0, &mut SimClock::new());
        assert!(report.ticks >= 3 * HEALTH_WINDOW_TICKS);
        let storm = report
            .incidents
            .iter()
            .find(|i| i.reason == IncidentReason::MissStorm)
            .expect("a permanent miss storm must trip the recorder");
        assert_eq!(storm.worker, 0);
        assert!(!storm.spans.is_empty());
        assert!(storm.spans.len() <= FLIGHT_RECORDER_CAPACITY);
        assert!(storm.spans.iter().all(|s| !s.ok), "storm spans all missed");
        assert!(report.incidents.len() <= MAX_INCIDENTS);
        // The scorer's downgrade to critical is visible in the trace stream.
        let spans = sched.tracer().spans();
        let collapse = spans
            .iter()
            .find(|s| s.kind == SpanKind::Health && !s.ok)
            .expect("health collapse must emit a span");
        assert_eq!(collapse.node, 0);
        let (_, to) = sensact_core::health::decode_transition(collapse.detail).unwrap();
        assert_ne!(to, HealthStatus::Healthy);
        // Byte oracle, recorded before the flight recorder became a
        // `FleetTracer` ring: the exported stream and every incident's spans
        // keep their bytes. Never re-record these to make a diff pass.
        assert_eq!(trace_stream_hash(&spans), 0x67bb_cc46_74b7_cac3);
        let pinned: Vec<(IncidentReason, usize, u64)> = report
            .incidents
            .iter()
            .map(|i| (i.reason, i.spans.len(), trace_stream_hash(&i.spans)))
            .collect();
        assert_eq!(
            pinned,
            [
                (Storm, 8, 0xa480_778f_9f9e_0576),
                (Storm, 16, 0xf251_00b7_d8e4_59a9),
                (Storm, 24, 0xec55_be12_e6f7_06e8),
                (Storm, 32, 0xc904_88a2_9b40_9804),
                (Collapse, 33, 0x2a61_1b66_1dc9_6f6e),
                (Storm, 32, 0x6b02_3d42_2e83_4141),
                (Storm, 32, 0xa36e_ee84_faf6_a8a7),
                (Storm, 32, 0xf68f_345e_dbdb_653a),
            ]
        );
    }

    /// The lane watch observes and never perturbs: a fleet holding a miss
    /// storm, a faulting member and a clean one reports the same bits with
    /// the tracer off (no watch is built) and on (the watch scores health
    /// and freezes incidents), on the deterministic driver with and without
    /// a watts cap and on the threaded one without.
    #[test]
    fn an_untraced_run_reports_what_a_traced_run_reports() {
        let build = |watts_cap, traced: bool| {
            let mut sched = FleetScheduler::new(FleetConfig {
                workers: 2,
                watts_cap,
                seed: 11,
            });
            if traced {
                sched.set_tracer(Arc::new(FleetTracer::new()));
            }
            let budget = LoopSpec::periodic(1e-2).with_budget(1e-3);
            sched.register(handle("stormy", 1e-6, 5e-3), budget);
            sched.register(faulty_handle("faulty", 3), budget);
            sched.register(handle("clean", 1e-6, 1e-4), LoopSpec::periodic(1e-2));
            sched
        };
        // Every field but the incidents (the watch's output) and the wall
        // clock, floats by their shortest round-tripping text.
        let observable = |mut report: FleetReport| {
            report.incidents.clear();
            report.wall_s = 0.0;
            format!("{report:?}")
        };
        // Three loops burn ~3e-4 W; a 1e-4 W cap throttles them.
        for watts_cap in [None, Some(1e-4)] {
            let run = |traced| {
                let mut sched = build(watts_cap, traced);
                let report = sched.run_deterministic(2.0, &mut SimClock::new());
                let spans = sched.tracer().spans();
                (report, spans)
            };
            let ((plain, no_spans), (traced, spans)) = (run(false), run(true));
            assert_eq!(plain.throttle_events > 0, watts_cap.is_some());
            assert!(plain.incidents.is_empty() && no_spans.is_empty());
            assert!(traced.incidents.len() > 1, "the storm trips the recorder");
            assert!(spans.iter().any(|s| s.kind == SpanKind::Health));
            assert_eq!(plain.loop_health[0], HealthStatus::Critical);
            assert_eq!(observable(plain), observable(traced), "cap {watts_cap:?}");
        }
        let threaded = |traced| build(None, traced).run(2.0);
        let (plain, traced) = (threaded(false), threaded(true));
        assert!(plain.incidents.is_empty() && !traced.incidents.is_empty());
        assert_eq!(
            (
                plain.ticks,
                plain.drops,
                plain.deadline_misses,
                plain.trace_hash
            ),
            (
                traced.ticks,
                traced.drops,
                traced.deadline_misses,
                traced.trace_hash
            )
        );
        assert_eq!(plain.loop_health, traced.loop_health);
    }

    /// Satellite: fleet rollup. Merging every loop's telemetry export equals
    /// what the per-loop registries hold summed, histograms included.
    #[test]
    fn rollup_metrics_aggregates_per_loop_telemetry() {
        let mut sched = fleet(3, 2, 5);
        let _ = sched.run_deterministic(0.1, &mut SimClock::new());
        let fleet_reg = sched.rollup_metrics();
        let total_ticks: u64 = (0..3)
            .map(|i| sched.loop_telemetry(LoopId(i)).ticks())
            .sum();
        assert_eq!(fleet_reg.counter("loop.ticks_total"), total_ticks);
        let hist = fleet_reg.histogram("loop.tick.latency_s").unwrap();
        assert_eq!(hist.count(), total_ticks);
        // Rolled-up registry renders on the fleet-level Prometheus surface.
        let prom = sensact_core::export::prometheus_text(&fleet_reg);
        assert!(prom.contains("loop_ticks_total"), "{prom}");
        // … and on the ASCII dashboard, latency histogram included.
        let report = sched.run_deterministic(0.0, &mut SimClock::new());
        let dash = report.dashboard(&fleet_reg);
        assert!(dash.contains("health"), "{dash}");
        assert!(dash.contains("tick latency (s)"), "{dash}");
    }

    /// A checkpointable member whose charged latency depends on its
    /// environment, so the deterministic trace hash is sensitive to every
    /// restored bit of loop *and* environment state.
    fn stateful_handle(name: &str) -> LoopHandle {
        let looop = LoopBuilder::new(name).build(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(1e-6, 1e-4 * (1.0 + e.abs()));
                *e
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.3 * f + 0.02),
        );
        LoopHandle::closed(Checkpointed(looop), 4.0f64, |e, a| *e += a)
    }

    /// A checkpointable fallible member: dropout faults, retries, and held
    /// features all hang off the injector's RNG position.
    fn faulty_handle(name: &str, seed: u64) -> LoopHandle {
        use sensact_core::fault::{
            FaultInjector, FaultProfile, FnTryPerceptor, RecoveryPolicy, WithFallback,
        };
        use sensact_core::stage::AlwaysTrust;
        use sensact_core::FallibleLoop;
        let sensor = FaultInjector::new(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(1e-6, 1e-4 * (1.0 + e.abs()));
                *e
            }),
            FaultProfile::dropout(0.25),
            seed,
        );
        let looop = FallibleLoop::new(
            name,
            sensor,
            FnTryPerceptor::new(|r: &f64, _: &mut StageContext| Ok(*r)),
            AlwaysTrust,
            WithFallback::new(
                FnController::new(|f: &f64, _t, _: &mut StageContext| -0.3 * f + 0.02),
                0.0,
            ),
        )
        .with_recovery(RecoveryPolicy {
            max_retries: 1,
            retry_energy_j: 1e-7,
            max_hold_ticks: 2,
            staleness_decay: 0.3,
            latency_budget_s: None,
        });
        LoopHandle::closed(Checkpointed(looop), 3.0f64, |e, a| *e += a)
    }

    /// Tentpole: kill-and-resume. After a warm-up run, both members are
    /// snapshotted over the JSONL wire, dropped, and their state adopted by
    /// freshly built twins; the next deterministic run's trace hash — which
    /// folds every completion time, hence every restored bit that shapes a
    /// latency — must equal the uninterrupted fleet's bit-for-bit.
    #[test]
    fn snapshot_killed_members_resume_fleet_trace_bit_exactly() {
        let build = |seed| {
            let mut sched = FleetScheduler::new(FleetConfig {
                workers: 2,
                watts_cap: None,
                seed,
            });
            let a = sched.register(stateful_handle("alpha"), LoopSpec::periodic(1e-2));
            let b = sched.register(
                faulty_handle("beta", 11),
                LoopSpec::periodic(7e-3).with_budget(6e-3),
            );
            (sched, a, b)
        };
        let summarize = |sched: &mut FleetScheduler, id: LoopId| {
            let stats = sched.loop_stats(id);
            let t = sched.loop_telemetry(id);
            (
                stats,
                t.ticks(),
                t.total_energy_j().to_bits(),
                t.fault_counters(),
            )
        };
        // Uninterrupted reference: warm-up run, then the measured run.
        let (mut reference, ra, rb) = build(17);
        let _ = reference.run_deterministic(0.15, &mut SimClock::new());
        let ref_report = reference.run_deterministic(0.15, &mut SimClock::new());
        // Migrated fleet: identical warm-up, then both members are killed
        // and resumed from their wire checkpoints on fresh twins.
        let (mut migrated, ma, mb) = build(17);
        let _ = migrated.run_deterministic(0.15, &mut SimClock::new());
        for (id, fresh) in [
            (ma, stateful_handle("alpha")),
            (mb, faulty_handle("beta", 11)),
        ] {
            let wire = migrated.snapshot_member(id).unwrap().to_jsonl();
            let ckpt = Checkpoint::from_jsonl(&wire).unwrap();
            migrated.adopt_member(id, fresh, &ckpt).unwrap();
        }
        let mig_report = migrated.run_deterministic(0.15, &mut SimClock::new());
        assert_eq!(
            mig_report.trace_hash, ref_report.trace_hash,
            "resumed fleet must replay the uninterrupted trace bit-for-bit"
        );
        assert_eq!(
            summarize(&mut migrated, ma),
            summarize(&mut reference, ra),
            "resumed member state must be bit-identical"
        );
        assert_eq!(summarize(&mut migrated, mb), summarize(&mut reference, rb));
        // And the hash is genuinely state-sensitive: adopting a stale
        // (pre-warm-up) checkpoint diverges the replayed trace.
        let (mut stale, sa, _sb) = build(17);
        let cold = stale.snapshot_member(sa).unwrap();
        let _ = stale.run_deterministic(0.15, &mut SimClock::new());
        stale
            .adopt_member(sa, stateful_handle("alpha"), &cold)
            .unwrap();
        let stale_report = stale.run_deterministic(0.15, &mut SimClock::new());
        assert_ne!(
            stale_report.trace_hash, ref_report.trace_hash,
            "a stale checkpoint must be observable in the trace hash"
        );
    }

    /// Members not closed over a `Checkpointed` runner refuse to
    /// snapshot with a typed error, and a failed adoption leaves the
    /// existing member untouched.
    #[test]
    fn non_checkpointable_member_snapshot_is_unsupported() {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 0,
        });
        let plain = sched.register(handle("plain", 1e-6, 1e-4), LoopSpec::periodic(1e-2));
        let able = sched.register(stateful_handle("able"), LoopSpec::periodic(1e-2));
        let _ = sched.run_deterministic(0.05, &mut SimClock::new());
        assert!(matches!(
            sched.snapshot_member(plain),
            Err(CheckpointError::Unsupported)
        ));
        let before = sched.loop_stats(able);
        let err = sched.adopt_member(able, stateful_handle("able"), &Checkpoint::new("empty"));
        assert!(err.is_err(), "an empty checkpoint cannot be adopted");
        assert_eq!(sched.loop_stats(able), before, "member must be untouched");
        let after = sched.run_deterministic(0.05, &mut SimClock::new());
        assert!(after.ticks > 0, "fleet keeps running after a failed adopt");
    }

    /// The scheduler anchors every tick on the virtual timeline via
    /// `set_tick_start` before the tick runs — a communicating loop can
    /// timestamp its sends on the fleet's clock.
    #[test]
    fn set_tick_start_reports_virtual_start_times() {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 0,
        });
        let (handle, starts) = CommLoop::observed(1e-3, 0.0);
        let _ = sched.register(handle, LoopSpec::periodic(1e-2));
        let _ = sched.run_deterministic(0.05, &mut SimClock::new());
        // Releases at k·0.01 with 1 ms compute never backlog, so each tick
        // starts exactly at its release.
        let got = starts.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(got.len(), 5);
        for (k, s) in got.iter().enumerate() {
            assert!((s - k as f64 * 1e-2).abs() < 1e-12, "tick {k} start {s}");
        }
    }

    /// Retiring a member hands its handle back, shrinks the fleet, and the
    /// freed slot index is reused by the next registration — so `LoopId`s
    /// stay dense under lease churn.
    #[test]
    fn retire_member_frees_slot_for_reuse() {
        let mut sched = fleet(3, 1, 5);
        assert_eq!(sched.len(), 3);
        let victim = LoopId(1);
        let old = sched.retire_member(victim);
        assert_eq!(old.name(), "loop-1", "retire returns the live handle");
        assert_eq!(sched.len(), 2);
        assert!(!sched.is_empty());
        // The retired slot is invisible to runs and reports…
        let report = sched.run_deterministic(0.03, &mut SimClock::new());
        assert_eq!(report.ticks, 6, "two active loops × 3 releases");
        assert!(report
            .loops
            .iter()
            .all(|s| s.name != "<retired>" && s.name != "loop-1"));
        assert_eq!(report.loops.len(), 2);
        // …and the next registration reuses index 1.
        let adopted = sched.register(handle("loop-new", 1e-6, 1e-4), LoopSpec::periodic(1e-2));
        assert_eq!(adopted, victim, "freelist must reuse the retired index");
        assert_eq!(sched.len(), 3);
        assert_eq!(sched.loop_name(adopted), "loop-new");
        // A fresh slot starts from clean accounting.
        let stats = sched.loop_stats(adopted);
        assert_eq!(stats.ticks, 0);
        assert_eq!(stats.drops, 0);
    }

    /// Externally-driven ticks run through the same accounting as scheduled
    /// releases: sequential floor on the member's completion frontier,
    /// cumulative stats, and deadline misses against the registered budget.
    #[test]
    fn tick_member_at_accounts_like_a_scheduled_release() {
        let mut sched = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 9,
        });
        // 4 ms charged latency, 5 ms budget.
        let id = sched.register(
            handle("ext", 1e-6, 4e-3),
            LoopSpec::periodic(1e-2).with_budget(5e-3),
        );
        // First observation at t = 0.01: starts at its release.
        let a = sched.tick_member_at(id, 1e-2);
        assert!((a.start_s - 1e-2).abs() < 1e-12);
        assert!((a.completion_s - 1.4e-2).abs() < 1e-12);
        assert!(!a.missed);
        // Second observation arrives *while the first is still running*:
        // the sequential floor pushes its start to the frontier, and the
        // queueing delay blows the 5 ms response budget.
        let b = sched.tick_member_at(id, 1.1e-2);
        assert!(
            (b.start_s - a.completion_s).abs() < 1e-12,
            "a loop is sequential: start {} vs frontier {}",
            b.start_s,
            a.completion_s
        );
        assert!(b.missed, "queued response time must miss the 5 ms budget");
        assert!((sched.member_frontier_s(id) - b.completion_s).abs() < 1e-12);
        let stats = sched.loop_stats(id);
        assert_eq!(stats.ticks, 2);
        assert_eq!(stats.deadline_misses, 1);
        assert!((stats.busy_s - 8e-3).abs() < 1e-12);
        assert!(stats.energy_j > 0.0);
        // Ingress-side sheds land in the same drop counter the run modes use.
        sched.record_member_drops(id, 3);
        assert_eq!(sched.loop_stats(id).drops, 3);
    }

    /// A caller-supplied tick body runs inside exactly the accounting
    /// `tick_member_at` does: twin schedulers over the same member and the
    /// same releases — one starting queued behind its predecessor and
    /// missing its budget — agree on every outcome field, the stats, the
    /// frontier and the loop's own timeout count. The body reaches the
    /// concrete loop through `Any` and carries state in and out by capture.
    #[test]
    fn tick_member_with_accounts_like_tick_member_at() {
        let build = || {
            let mut sched = FleetScheduler::new(FleetConfig {
                workers: 1,
                watts_cap: None,
                seed: 9,
            });
            // 4 ms compute + 0.5 ms comm tail against a 5 ms budget.
            let id = sched.register(
                CommLoop::boxed(4e-3, 5e-4),
                LoopSpec::periodic(1e-2).with_budget(5e-3),
            );
            (sched, id)
        };
        let (mut at, id) = build();
        let (mut with, _) = build();
        // On time, queued behind the first (misses), on time again.
        let releases = [1e-2, 1.1e-2, 3e-2];
        let mut seen = Vec::new();
        for release_s in releases {
            let a = at.tick_member_at(id, release_s);
            let b = with.tick_member_with(id, release_s, |member| {
                seen.push(release_s);
                let member: &mut dyn std::any::Any = member;
                assert!(member.downcast_mut::<TombstoneLoop>().is_none());
                member
                    .downcast_mut::<CommLoop>()
                    .expect("the registered type comes back")
                    .tick_once()
            });
            assert_eq!(a, b, "release {release_s}");
            assert!(a.completion_s > a.busy_end_s, "the comm tail is charged");
        }
        assert_eq!(seen, releases);
        let stats = at.loop_stats(id);
        assert_eq!(stats, with.loop_stats(id));
        assert_eq!((stats.ticks, stats.deadline_misses), (3, 1));
        assert_eq!(at.member_frontier_s(id), with.member_frontier_s(id));
        let timeouts = |s: &FleetScheduler| s.loop_telemetry(id).fault_counters().timeouts;
        assert_eq!((timeouts(&at), timeouts(&with)), (1, 1));
    }

    /// The external release counter is part of the member checkpoint: a
    /// killed-and-adopted member continues its externally-driven tick
    /// sequence (trace ids, tie-breaks) exactly where the original stopped.
    #[test]
    fn snapshot_round_trips_external_release_counter() {
        let build = || {
            let mut sched = FleetScheduler::new(FleetConfig {
                workers: 1,
                watts_cap: None,
                seed: 21,
            });
            let id = sched.register(
                stateful_handle("lease"),
                LoopSpec::periodic(1e-2).with_budget(8e-3),
            );
            (sched, id)
        };
        // Reference: five external ticks, uninterrupted.
        let (mut reference, rid) = build();
        let mut ref_out = Vec::new();
        for k in 0..5 {
            ref_out.push(reference.tick_member_at(rid, k as f64 * 1e-2));
        }
        // Migrated: three ticks, kill, adopt a fresh twin, two more ticks.
        let (mut migrated, mid) = build();
        for (k, reference_tick) in ref_out.iter().enumerate().take(3) {
            let got = migrated.tick_member_at(mid, k as f64 * 1e-2);
            assert_eq!(
                got.completion_s.to_bits(),
                reference_tick.completion_s.to_bits()
            );
        }
        let wire = migrated.snapshot_member(mid).unwrap().to_jsonl();
        let ckpt = Checkpoint::from_jsonl(&wire).unwrap();
        let old = migrated.retire_member(mid);
        drop(old);
        let adopted = migrated.register(
            stateful_handle("lease"),
            LoopSpec::periodic(1e-2).with_budget(8e-3),
        );
        assert_eq!(adopted, mid, "slot reuse keeps the LoopId stable");
        migrated
            .adopt_member(adopted, stateful_handle("lease"), &ckpt)
            .unwrap();
        for (k, reference_tick) in ref_out.iter().enumerate().take(5).skip(3) {
            let got = migrated.tick_member_at(adopted, k as f64 * 1e-2);
            assert_eq!(
                got.completion_s.to_bits(),
                reference_tick.completion_s.to_bits(),
                "resumed tick {k} must be bit-identical"
            );
        }
        assert_eq!(
            migrated.loop_stats(adopted),
            reference.loop_stats(rid),
            "resumed stats must match the uninterrupted member"
        );
    }

    /// Regression: adopting straight into a *retired* id used to revive the
    /// slot while leaving it on the freelist — `len()` under-counted and the
    /// next `register` silently overwrote the adopted member. It is an error
    /// now, and neither the freelist nor the slot changes.
    #[test]
    fn adopt_into_retired_slot_is_rejected_and_leaves_the_freelist_intact() {
        let mut sched = FleetScheduler::new(FleetConfig::default());
        let id = sched.register(stateful_handle("lease"), LoopSpec::periodic(1e-2));
        let _ = sched.tick_member_at(id, 0.0);
        let ckpt = sched.snapshot_member(id).unwrap();
        drop(sched.retire_member(id));
        assert_eq!(sched.len(), 0);
        let err = sched
            .adopt_member(id, stateful_handle("lease"), &ckpt)
            .unwrap_err();
        assert_eq!(err, CheckpointError::BadValue("sched.slot retired".into()));
        assert_eq!(sched.len(), 0, "a rejected adopt must not revive the slot");
        assert_eq!(sched.loop_name(id), "<retired>");
        // The supported protocol — register a twin (reusing the slot), then
        // adopt over it — keeps the count and the member.
        let twin = sched.register(stateful_handle("lease"), LoopSpec::periodic(1e-2));
        assert_eq!(twin, id, "the freelist still holds the retired index");
        sched
            .adopt_member(twin, stateful_handle("lease"), &ckpt)
            .unwrap();
        assert_eq!(sched.len(), 1);
        let newcomer = sched.register(handle("newcomer", 1e-6, 1e-4), LoopSpec::periodic(1e-2));
        assert_ne!(
            newcomer, id,
            "a later register must not overwrite the adoptee"
        );
        assert_eq!(sched.loop_name(id), "lease");
        assert_eq!(sched.loop_stats(id).ticks, 1, "adopted stats survive");
    }
}
