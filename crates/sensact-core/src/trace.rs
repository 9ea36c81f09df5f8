//! Per-stage tracing for sensing-to-action loops.
//!
//! The paper's co-design argument (§II) needs *per-stage* visibility: a
//! blended energy/latency number per tick cannot tell whether the sensor or
//! the perceptor is eating the budget, which is exactly the breakdown
//! Fig. 5a and Table II report per model. This module provides:
//!
//! * [`StageId`] — the five canonical loop stages (sense → perceive →
//!   monitor → control → act), each with static metric names;
//! * [`StageBreakdown`] — a per-stage energy/latency ledger carried by every
//!   [`TickRecord`](crate::telemetry::TickRecord);
//! * [`Span`] / [`Tracer`] — lightweight spans wrapping each stage
//!   invocation, retained in a bounded ring buffer and stamped by one
//!   clock: deterministic [`SimClock`] time for tests and reproducible
//!   exports, monotonic wall time for benches.
//!
//! Tracing is **off by default** ([`Tracer::disabled`]): the disabled path
//! costs one predictable branch per stage — the ledger's `fleet_sched`
//! workload runs on it, and `bench.trace_overhead_pct` on
//! `fleet_sched_traced` prices the enabled path against it
//! (`core.trace.span_us` per span). Per-stage energy/latency *attribution* (the
//! [`StageBreakdown`]) is always on — it only snapshots the
//! [`StageContext`](crate::stage::StageContext) ledger around each stage.

use std::sync::Mutex;
use std::time::Instant;

use crate::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use crate::ring::Ring;
use sensact_math::rng::splitmix64_finalize;

/// The number of canonical loop stages ([`StageId::ALL`]).
pub(crate) const STAGE_COUNT: usize = 5;

/// One of the five canonical stages of a sensing-to-action loop.
///
/// `Act` covers the tail of the tick — budget consumption and the
/// action-to-sensing adaptation — rather than a physical actuator, which
/// lives outside the loop (the `apply` closure of `run`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Raw acquisition ([`Sensor::sense`](crate::stage::Sensor::sense)).
    Sense,
    /// Feature extraction ([`Perceptor::perceive`](crate::stage::Perceptor::perceive)).
    Perceive,
    /// Trust assessment ([`Monitor::assess`](crate::stage::Monitor::assess)).
    Monitor,
    /// Action decision ([`Controller::decide`](crate::stage::Controller::decide)).
    Control,
    /// Budget consumption + action-to-sensing adaptation.
    Act,
}

impl StageId {
    /// All stages, in loop execution order.
    pub const ALL: [StageId; STAGE_COUNT] = [
        StageId::Sense,
        StageId::Perceive,
        StageId::Monitor,
        StageId::Control,
        StageId::Act,
    ];

    /// Stable index of this stage in [`StageId::ALL`].
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            StageId::Sense => 0,
            StageId::Perceive => 1,
            StageId::Monitor => 2,
            StageId::Control => 3,
            StageId::Act => 4,
        }
    }

    /// Short static name (`"sense"`, `"perceive"`, …) used in exports.
    pub const fn name(self) -> &'static str {
        match self {
            StageId::Sense => "sense",
            StageId::Perceive => "perceive",
            StageId::Monitor => "monitor",
            StageId::Control => "control",
            StageId::Act => "act",
        }
    }

    /// Static metric key for this stage's latency histogram, following the
    /// `stage.<name>.<metric>_<unit>` naming convention.
    pub(crate) const fn latency_key(self) -> &'static str {
        match self {
            StageId::Sense => "stage.sense.latency_s",
            StageId::Perceive => "stage.perceive.latency_s",
            StageId::Monitor => "stage.monitor.latency_s",
            StageId::Control => "stage.control.latency_s",
            StageId::Act => "stage.act.latency_s",
        }
    }

    /// Static metric key for this stage's total energy gauge.
    pub(crate) const fn energy_key(self) -> &'static str {
        match self {
            StageId::Sense => "stage.sense.energy_j",
            StageId::Perceive => "stage.perceive.energy_j",
            StageId::Monitor => "stage.monitor.energy_j",
            StageId::Control => "stage.control.energy_j",
            StageId::Act => "stage.act.energy_j",
        }
    }

    /// Parse a stage from its [`StageId::name`].
    pub(crate) fn from_name(name: &str) -> Option<StageId> {
        StageId::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Energy/latency charged by one stage within one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageCost {
    /// Energy charged (joules).
    pub energy_j: f64,
    /// Latency charged (seconds).
    pub latency_s: f64,
}

/// Per-stage energy/latency attribution of one tick.
///
/// For fallible loops the sense/perceive entries include *failed* attempts
/// and retry surcharges — failure is charged where it happened.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    costs: [StageCost; STAGE_COUNT],
}

impl StageBreakdown {
    /// A zero breakdown.
    pub fn new() -> Self {
        StageBreakdown::default()
    }

    /// Cost attributed to `stage`.
    #[inline]
    pub fn get(&self, stage: StageId) -> StageCost {
        self.costs[stage.index()]
    }

    /// Add energy/latency to `stage` (accumulates across retries).
    #[inline]
    pub fn add(&mut self, stage: StageId, energy_j: f64, latency_s: f64) {
        let c = &mut self.costs[stage.index()];
        c.energy_j += energy_j;
        c.latency_s += latency_s;
    }

    /// Overwrite `stage`'s cost with exactly these bit patterns — unlike
    /// [`add`](Self::add), whose `0.0 + x` turns a `-0.0` into `+0.0`.
    #[inline]
    pub(crate) fn set(&mut self, stage: StageId, energy_j: f64, latency_s: f64) {
        self.costs[stage.index()] = StageCost {
            energy_j,
            latency_s,
        };
    }

    /// Accumulate another breakdown stage-by-stage (running totals).
    pub(crate) fn merge(&mut self, other: &StageBreakdown) {
        for (mine, theirs) in self.costs.iter_mut().zip(&other.costs) {
            mine.energy_j += theirs.energy_j;
            mine.latency_s += theirs.latency_s;
        }
    }

    /// Sum of per-stage energies (joules).
    pub fn total_energy_j(&self) -> f64 {
        self.costs.iter().map(|c| c.energy_j).sum()
    }

    /// Sum of per-stage latencies (seconds).
    pub fn total_latency_s(&self) -> f64 {
        self.costs.iter().map(|c| c.latency_s).sum()
    }

    /// Iterate `(stage, cost)` pairs in execution order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (StageId, StageCost)> + '_ {
        StageId::ALL.into_iter().map(|s| (s, self.get(s)))
    }
}

/// Deterministic simulation clock: every timestamp a [`Tracer::sim`] takes
/// returns the current time and advances it by a fixed step, so traces are
/// bit-identical across runs — the property the JSONL round-trip tests rely
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    now_s: f64,
    step_s: f64,
}

impl SimClock {
    /// A clock frozen at zero (advance manually via [`SimClock::advance`]).
    pub fn new() -> Self {
        SimClock::with_step(0.0)
    }

    /// A clock advancing by `step_s` seconds per query.
    pub(crate) fn with_step(step_s: f64) -> Self {
        SimClock { now_s: 0.0, step_s }
    }

    /// Manually advance the clock by `dt_s` seconds.
    pub fn advance(&mut self, dt_s: f64) {
        self.now_s += dt_s.max(0.0);
    }

    /// Read the current time *without* advancing it — unlike a tracer's
    /// timestamp query, which steps the clock. Event-driven
    /// runtimes use this to compare the clock against a pending event time
    /// before deciding how far to [`SimClock::advance`].
    pub fn peek_s(&self) -> f64 {
        self.now_s
    }

    /// The current time, then advance by the step.
    fn now_s(&mut self) -> f64 {
        let t = self.now_s;
        self.now_s += self.step_s;
        t
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::new()
    }
}

/// One completed stage span: where a slice of the tick's time and cost went.
///
/// `start_s`/`end_s` come from the tracer's clock (wall time when
/// tracing a real run, deterministic time under [`SimClock`]); `energy_j`
/// and `latency_s` are the *charged* costs from the stage ledger, which in
/// simulation are independent of wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Tick the span belongs to.
    pub tick: u64,
    /// Which stage ran.
    pub stage: StageId,
    /// Clock time when the stage started (seconds).
    pub start_s: f64,
    /// Clock time when the stage finished (seconds).
    pub end_s: f64,
    /// Energy the stage charged (joules).
    pub energy_j: f64,
    /// Latency the stage charged (seconds).
    pub latency_s: f64,
    /// Whether the stage succeeded (`false` for failed fallible attempts).
    pub ok: bool,
}

/// Default number of spans retained by a tracer's ring buffer.
pub(crate) const DEFAULT_SPAN_CAPACITY: usize = 16384;

/// The clock a [`Tracer`] stamps its spans with.
#[derive(Debug)]
enum TraceClock {
    /// Tracing is off: no clock, no span.
    Off,
    /// Deterministic simulation time, queried at every stamp.
    Sim(SimClock),
    /// Monotonic wall time since this origin, coarse-stamped
    /// ([`Tracer::wall`]).
    Wall(Instant),
}

/// Collects per-stage [`Span`]s stamped by one clock: none, a [`SimClock`]
/// or the monotonic wall clock.
///
/// Loops own a tracer ([`Tracer::disabled`] by default). When disabled,
/// [`Tracer::start`]/[`Tracer::finish`] reduce to one predictable branch
/// each and no span is stored. Spans are retained in a bounded ring buffer;
/// aggregates belong to [`LoopTelemetry`](crate::telemetry::LoopTelemetry),
/// not the tracer.
#[derive(Debug)]
pub struct Tracer {
    clock: TraceClock,
    spans: Ring<Span>,
    /// The last wall `finish` timestamp, pending reuse by the next `start`.
    pending_stamp: Option<f64>,
}

impl Tracer {
    /// A disabled tracer: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Tracer {
            clock: TraceClock::Off,
            spans: Ring::new(DEFAULT_SPAN_CAPACITY),
            pending_stamp: None,
        }
    }

    /// An enabled tracer over a deterministic [`SimClock`] advancing
    /// `step_s` per timestamp query (two queries per span).
    pub fn sim(step_s: f64) -> Self {
        Tracer {
            clock: TraceClock::Sim(SimClock::with_step(step_s)),
            ..Tracer::disabled()
        }
    }

    /// An enabled tracer over the monotonic wall clock, its origin now.
    ///
    /// Wall tracers stamp *coarsely*: within a tick, each span's start
    /// reuses the previous span's end (stages run back-to-back, so the
    /// fencepost is truthful), cutting `Instant::now` queries per 5-stage
    /// tick from 10 to 6. Loops reset the pending stamp at tick entry via
    /// [`Tracer::new_tick`] so inter-tick gaps are never folded into the
    /// first stage. A [`Tracer::sim`] queries its clock at every span start.
    pub fn wall() -> Self {
        Tracer {
            clock: TraceClock::Wall(Instant::now()),
            ..Tracer::disabled()
        }
    }

    /// Cap the number of retained spans (clamped to ≥ 1).
    pub fn with_span_capacity(mut self, capacity: usize) -> Self {
        self.spans = Ring::new(capacity);
        self
    }

    /// Timestamp the start of a stage; returns `0.0` when disabled.
    ///
    /// A pending end-of-previous-span stamp is reused instead of querying
    /// the clock (coarse stamping, see [`Tracer::wall`]).
    #[inline]
    pub fn start(&mut self) -> f64 {
        if let Some(s) = self.pending_stamp.take() {
            return s;
        }
        match &mut self.clock {
            TraceClock::Off => 0.0,
            TraceClock::Sim(clock) => clock.now_s(),
            TraceClock::Wall(origin) => origin.elapsed().as_secs_f64(),
        }
    }

    /// Mark a tick boundary: drops any pending coarse stamp so the gap
    /// between ticks (telemetry recording, action application) is never
    /// folded into the next tick's first stage. No-op for sim tracers.
    #[inline]
    pub fn new_tick(&mut self) {
        self.pending_stamp = None;
    }

    /// Close a stage span opened at `start_s`, attributing the charged
    /// costs. No-op when disabled.
    #[inline]
    pub fn finish(
        &mut self,
        tick: u64,
        stage: StageId,
        start_s: f64,
        energy_j: f64,
        latency_s: f64,
        ok: bool,
    ) {
        let end_s = match &mut self.clock {
            TraceClock::Off => return,
            TraceClock::Sim(clock) => clock.now_s(),
            TraceClock::Wall(origin) => {
                let end_s = origin.elapsed().as_secs_f64();
                self.pending_stamp = Some(end_s);
                end_s
            }
        };
        self.store(Span {
            tick,
            stage,
            start_s,
            end_s,
            energy_j,
            latency_s,
            ok,
        });
    }

    /// Out of line on purpose: `finish` is inlined into every stage of every
    /// tick, and the ring write would bloat the (common) disabled path.
    #[inline(never)]
    fn store(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Retained spans, oldest first (at most the configured capacity).
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Drain all retained spans in chronological order.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl StageState for Tracer {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        // The clock stays with the constructed instance (a restored wall
        // tracer re-times from its own origin; replay conformance compares
        // telemetry, which carries the charged costs, not tracer
        // timestamps). The span ring and the pending coarse stamp are the
        // mutable state.
        s.put_u64("capacity", self.spans.capacity() as u64);
        s.put_bool("pending_some", self.pending_stamp.is_some());
        s.put_f64("pending", self.pending_stamp.unwrap_or(0.0));
        let spans: Vec<&Span> = self.spans().collect();
        s.put_u64s("sp_tick", &spans.iter().map(|x| x.tick).collect::<Vec<_>>());
        s.put_u64s(
            "sp_stage",
            &spans
                .iter()
                .map(|x| x.stage.index() as u64)
                .collect::<Vec<_>>(),
        );
        s.put_f64s(
            "sp_start",
            &spans.iter().map(|x| x.start_s).collect::<Vec<_>>(),
        );
        s.put_f64s("sp_end", &spans.iter().map(|x| x.end_s).collect::<Vec<_>>());
        s.put_f64s(
            "sp_energy",
            &spans.iter().map(|x| x.energy_j).collect::<Vec<_>>(),
        );
        s.put_f64s(
            "sp_latency",
            &spans.iter().map(|x| x.latency_s).collect::<Vec<_>>(),
        );
        s.put_u64s(
            "sp_ok",
            &spans.iter().map(|x| x.ok as u64).collect::<Vec<_>>(),
        );
        ckpt.push(s);
    }

    /// Decodes every column before it assigns anything: on an error the
    /// tracer is unchanged.
    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        // `Ring::from_ordered` clamps 0 to 1, which would re-save as `1`.
        let capacity: usize = s.get_as("capacity")?;
        s.check("capacity", capacity > 0)?;
        // Beside an absent stamp the writer emits `+0.0`, and only that.
        let pending = s.get_f64("pending")?;
        let pending_stamp = if s.get_bool("pending_some")? {
            Some(pending)
        } else {
            s.check("pending", pending.to_bits() == 0)?;
            None
        };
        let ticks = s.get_u64s("sp_tick")?;
        let n = ticks.len();
        let stages = s.get_u64s("sp_stage")?;
        let starts = s.get_f64s_len("sp_start", n)?;
        let ends = s.get_f64s_len("sp_end", n)?;
        let energies = s.get_f64s_len("sp_energy", n)?;
        let latencies = s.get_f64s_len("sp_latency", n)?;
        let oks = s.get_u64s("sp_ok")?;
        s.check("sp_stage", stages.len() == n)?;
        s.check("sp_ok", oks.len() == n && oks.iter().all(|&ok| ok <= 1))?;
        let mut spans = Vec::with_capacity(n);
        for i in 0..n {
            let stage = usize::try_from(stages[i])
                .ok()
                .and_then(|at| StageId::ALL.get(at));
            spans.push(Span {
                tick: ticks[i],
                stage: *stage.ok_or_else(|| s.bad("sp_stage"))?,
                start_s: starts[i],
                end_s: ends[i],
                energy_j: energies[i],
                latency_s: latencies[i],
                ok: oks[i] == 1,
            });
        }
        self.spans = Ring::from_ordered(capacity, spans).ok_or_else(|| s.bad("sp_tick"))?;
        self.pending_stamp = pending_stamp;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Causal fleet tracing
// ---------------------------------------------------------------------------

/// Mix a seed with structural indices into a deterministic 64-bit id
/// (SplitMix64 finalizer per part — the same generator family the network
/// simulator draws from). Never returns 0, so 0 stays reserved as the
/// "no parent" sentinel of [`CausalSpan::parent_id`].
///
/// Trace and span ids are *pure functions* of seeds and loop/message
/// indices — no global counters, no wall entropy — so any participant can
/// derive the id of a span another participant will emit, and traces
/// reproduce bit-for-bit from the seeds.
pub fn trace_mix(seed: u64, parts: &[u64]) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = seed ^ GOLDEN;
    for &p in parts {
        h = h.wrapping_add(p).wrapping_add(GOLDEN);
        h = splitmix64_finalize(h);
    }
    if h == 0 {
        GOLDEN
    } else {
        h
    }
}

/// A causal trace context: which trace a span belongs to, its own id, and
/// its parent's id (0 for a root span).
///
/// Contexts are derived with [`trace_mix`], never allocated from counters,
/// so they can be re-derived anywhere the structural indices are known —
/// the property that lets a network message "carry" its context without
/// serialising it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceContext {
    /// Trace this span belongs to (e.g. one federated round).
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span's id; 0 marks a trace root.
    pub parent_id: u64,
}

impl TraceContext {
    /// A root context for `trace_id` whose span id is derived from `parts`.
    pub fn root(trace_id: u64, parts: &[u64]) -> Self {
        TraceContext {
            trace_id,
            span_id: trace_mix(trace_id, parts),
            parent_id: 0,
        }
    }

    /// A child context of `self` whose span id is derived from `parts`.
    pub fn child(&self, parts: &[u64]) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: trace_mix(self.span_id, parts),
            parent_id: self.span_id,
        }
    }

    /// The causal span this context identifies — the one way the scheduler,
    /// the network and the federated runner build a [`CausalSpan`].
    pub fn span(
        &self,
        kind: SpanKind,
        node: u64,
        detail: u64,
        start_s: f64,
        end_s: f64,
        ok: bool,
    ) -> CausalSpan {
        CausalSpan {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            kind,
            node,
            detail,
            start_s,
            end_s,
            ok,
        }
    }
}

/// What a [`CausalSpan`] covers in the sensing-to-action fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A scheduler release executing on a (virtual) worker.
    SchedTick,
    /// The communication tail after a release's busy time.
    CommTail,
    /// A federated client's local tick that produced an upload.
    ClientTick,
    /// A network message entering the link (first attempt).
    NetSend,
    /// A retransmission attempt after loss.
    NetRetry,
    /// The message arriving at its destination.
    NetDeliver,
    /// The message abandoned (partition or retry budget exhausted).
    NetDrop,
    /// A federated round, cutoff to cutoff (trace root).
    Round,
    /// The server folding delivered updates at a round cutoff.
    ServerAggregate,
    /// The server's model broadcast travelling to one client.
    Broadcast,
    /// A client adopting a broadcast model version.
    Adopt,
    /// A health scorer state transition (node = loop, or fleet root).
    Health,
}

/// Every [`SpanKind`] with its export name, in declaration order: a kind's
/// index here is its discriminant, and its [`tag`](SpanKind::tag) is
/// `0x51 + index`.
const SPAN_KINDS: [(SpanKind, &str); 12] = [
    (SpanKind::SchedTick, "sched_tick"),
    (SpanKind::CommTail, "comm_tail"),
    (SpanKind::ClientTick, "client_tick"),
    (SpanKind::NetSend, "net_send"),
    (SpanKind::NetRetry, "net_retry"),
    (SpanKind::NetDeliver, "net_deliver"),
    (SpanKind::NetDrop, "net_drop"),
    (SpanKind::Round, "round"),
    (SpanKind::ServerAggregate, "server_aggregate"),
    (SpanKind::Broadcast, "broadcast"),
    (SpanKind::Adopt, "adopt"),
    (SpanKind::Health, "health"),
];

impl SpanKind {
    /// All kinds, in pipeline order.
    pub const ALL: [SpanKind; 12] = {
        let mut all = [SpanKind::SchedTick; 12];
        let mut i = 0;
        while i < all.len() {
            all[i] = SPAN_KINDS[i].0;
            i += 1;
        }
        all
    };

    /// Short static name used in exports.
    pub const fn name(self) -> &'static str {
        SPAN_KINDS[self as usize].1
    }

    /// Stable tag mixed into span-id derivations (distinct per kind).
    pub const fn tag(self) -> u64 {
        0x51 + self as u64
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One causally-linked span of fleet activity.
///
/// Unlike the per-stage [`Span`], a causal span carries its parentage, so a
/// set of spans sharing a `trace_id` reconstructs as a tree: client tick →
/// upload → server aggregation → broadcast → adoption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CausalSpan {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span's id; 0 marks a trace root.
    pub parent_id: u64,
    /// What the span covers.
    pub kind: SpanKind,
    /// The node it happened on (loop/client index, or the server id).
    pub node: u64,
    /// Kind-specific payload: attempt index for retries, model version for
    /// broadcast/adopt, encoded state pair for health transitions, 0 otherwise.
    pub detail: u64,
    /// Simulated (or wall) time the span started (seconds).
    pub start_s: f64,
    /// Simulated (or wall) time the span ended (seconds).
    pub end_s: f64,
    /// Whether the spanned work succeeded (`false` for drops and misses).
    pub ok: bool,
}

/// Default number of causal spans retained by a [`FleetTracer`].
pub(crate) const DEFAULT_CAUSAL_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct CausalRing {
    spans: Ring<CausalSpan>,
    /// Spans ever recorded, evicted ones included.
    recorded: u64,
}

/// A shared, bounded collector of [`CausalSpan`]s for a whole fleet.
///
/// Disabled by default ([`FleetTracer::disabled`]): the disabled path is one
/// predictable branch, no lock. When enabled, recording takes a mutex —
/// under the deterministic single-threaded scheduler this is uncontended,
/// and span order (hence the exported JSONL stream) is reproducible
/// bit-for-bit from the seeds.
#[derive(Debug)]
pub struct FleetTracer {
    enabled: bool,
    inner: Mutex<CausalRing>,
}

impl FleetTracer {
    /// A disabled tracer: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        FleetTracer {
            enabled: false,
            ..FleetTracer::new()
        }
    }

    /// An enabled tracer with the default span capacity.
    pub fn new() -> Self {
        FleetTracer::with_capacity(DEFAULT_CAUSAL_CAPACITY)
    }

    /// An enabled tracer retaining at most `capacity` spans (clamped ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FleetTracer {
            enabled: true,
            inner: Mutex::new(CausalRing {
                spans: Ring::new(capacity),
                recorded: 0,
            }),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CausalRing> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a span. No-op when disabled.
    #[inline]
    pub fn record(&self, span: CausalSpan) {
        if !self.enabled {
            return;
        }
        let mut ring = self.lock();
        ring.recorded += 1;
        ring.spans.push(span);
    }

    /// Number of retained spans (≤ capacity).
    pub(crate) fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total spans ever recorded (including any evicted by the ring).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Snapshot the retained spans, oldest first.
    pub fn spans(&self) -> Vec<CausalSpan> {
        self.lock().spans.iter().copied().collect()
    }
}

impl Default for FleetTracer {
    fn default() -> Self {
        FleetTracer::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for stage in StageId::ALL {
            assert_eq!(StageId::from_name(stage.name()), Some(stage));
            assert_eq!(stage.to_string(), stage.name());
            assert!(stage.latency_key().contains(stage.name()));
            assert!(stage.energy_key().contains(stage.name()));
        }
        assert_eq!(StageId::from_name("warp"), None);
        assert_eq!(StageId::ALL[StageId::Control.index()], StageId::Control);
    }

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = StageBreakdown::new();
        b.add(StageId::Sense, 1e-3, 1e-4);
        b.add(StageId::Sense, 1e-3, 1e-4); // retry accumulates
        b.add(StageId::Control, 2e-3, 0.0);
        assert_eq!(b.get(StageId::Sense).energy_j, 2e-3);
        assert_eq!(b.get(StageId::Perceive), StageCost::default());
        assert!((b.total_energy_j() - 4e-3).abs() < 1e-15);
        assert!((b.total_latency_s() - 2e-4).abs() < 1e-15);
        let mut sum = StageBreakdown::new();
        sum.merge(&b);
        sum.merge(&b);
        assert_eq!(sum.get(StageId::Sense).energy_j, 4e-3);
        assert_eq!(sum.iter().count(), STAGE_COUNT);
    }

    #[test]
    fn sim_clock_is_deterministic() {
        let mut c = SimClock::with_step(0.5);
        assert_eq!(c.now_s(), 0.0);
        assert_eq!(c.now_s(), 0.5);
        c.advance(1.0);
        assert_eq!(c.now_s(), 2.0);
        // Negative advances are ignored — the clock is monotonic.
        c.advance(-5.0);
        assert_eq!(c.now_s(), 2.5);
    }

    #[test]
    fn sim_clock_peek_does_not_advance() {
        let mut c = SimClock::with_step(1.0);
        assert_eq!(c.peek_s(), 0.0);
        assert_eq!(c.peek_s(), 0.0);
        let _ = c.now_s();
        assert_eq!(c.peek_s(), 1.0);
        c.advance(2.5);
        assert_eq!(c.peek_s(), 3.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let s = t.start();
        t.finish(0, StageId::Sense, s, 1.0, 1.0, true);
        assert_eq!(t.take_spans().len(), 0);
    }

    #[test]
    fn tracer_checkpoint_round_trips_span_ring() {
        use crate::checkpoint::Checkpoint;
        let mut t = Tracer::sim(0.25).with_span_capacity(4);
        for tick in 0..7u64 {
            let s = t.start();
            t.finish(
                tick,
                StageId::ALL[(tick % 5) as usize],
                s,
                1e-3 * tick as f64,
                1e-4,
                tick % 2 == 0,
            );
        }
        let mut ckpt = Checkpoint::new("t");
        t.save_state(&mut ckpt, "tracer");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).expect("parses");
        let mut back = Tracer::sim(0.25).with_span_capacity(4);
        back.restore_state(&ckpt, "tracer").expect("restores");
        let a: Vec<Span> = t.spans().copied().collect();
        let b: Vec<Span> = back.spans().copied().collect();
        assert_eq!(a, b, "span ring must round-trip in chronological order");
        assert_eq!(a.first().unwrap().tick, 3, "oldest retained span");
        // The restored ring keeps evicting oldest-first.
        let s = back.start();
        back.finish(99, StageId::Sense, s, 0.0, 0.0, true);
        assert_eq!(back.spans().next().unwrap().tick, 4);
    }

    /// A restore that fails on a span column leaves the tracer as it was —
    /// the pending coarse stamp included, although that column decodes.
    #[test]
    fn a_bad_span_column_leaves_the_tracer_unchanged() {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let mut donor = Tracer::sim(1.0);
        let s = donor.start();
        donor.finish(0, StageId::Act, s, 0.0, 0.0, true);
        donor.pending_stamp = Some(1.0); // a wall tracer's coarse stamp
        let mut ckpt = Checkpoint::new("t");
        donor.save_state(&mut ckpt, "tracer");
        let mut hostile = ckpt.section("tracer").unwrap().clone();
        hostile.put_u64s("sp_stage", &[9]);
        ckpt.push(hostile);

        let mut target = Tracer::sim(0.5).with_span_capacity(3);
        let s = target.start();
        target.finish(5, StageId::Sense, s, 1e-3, 1e-4, true);
        let snapshot = |t: &Tracer| {
            let mut c = Checkpoint::new("t");
            t.save_state(&mut c, "tracer");
            c.to_jsonl()
        };
        let before = snapshot(&target);
        assert_eq!(
            target.restore_state(&ckpt, "tracer"),
            Err(CheckpointError::BadValue("tracer.sp_stage".into()))
        );
        assert_eq!(snapshot(&target), before);
    }

    /// Two documents never restore the same tracer: a zero capacity (the
    /// ring holds at least one span), an `sp_ok` item other than 0 / 1, and
    /// an absent stamp spelled other than `+0.0` are each refused, and the
    /// tracer stays as it was.
    #[test]
    fn restore_refuses_the_tracer_aliases() {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let mut donor = Tracer::sim(1.0).with_span_capacity(1);
        let s = donor.start();
        donor.finish(0, StageId::Act, s, 0.0, 0.0, true);
        let mut good = Checkpoint::new("t");
        donor.save_state(&mut good, "tracer");
        let snapshot = |t: &Tracer| {
            let mut c = Checkpoint::new("t");
            t.save_state(&mut c, "tracer");
            c
        };
        let mut target = Tracer::sim(0.5);
        let before = snapshot(&target);
        type Alias = fn(&mut Section);
        let aliases: [(&str, Alias); 3] = [
            ("capacity", |s| s.put_u64("capacity", 0)),
            ("sp_ok", |s| s.put_u64s("sp_ok", &[2])),
            ("pending", |s| s.put_f64("pending", -0.0)),
        ];
        for (key, alias) in aliases {
            let mut hostile = good.clone();
            let mut s = good.section("tracer").unwrap().clone();
            alias(&mut s);
            hostile.push(s);
            assert_eq!(
                target.restore_state(&hostile, "tracer"),
                Err(CheckpointError::BadValue(format!("tracer.{key}")))
            );
            assert_eq!(snapshot(&target), before, "{key}: the tracer changed");
        }
        target.restore_state(&good, "tracer").unwrap();
        assert_eq!(snapshot(&target), good);
    }

    #[test]
    fn spans_carry_cost_and_clock_time() {
        let mut t = Tracer::sim(0.25);
        let s = t.start();
        t.finish(3, StageId::Perceive, s, 2e-3, 1e-3, true);
        assert_eq!(t.spans().count(), 1);
        let span = *t.spans().next().unwrap();
        assert_eq!(span.tick, 3);
        assert_eq!(span.stage, StageId::Perceive);
        assert_eq!(span.start_s, 0.0);
        assert_eq!(span.end_s, 0.25);
        assert_eq!(span.energy_j, 2e-3);
        assert!(span.ok);
    }

    /// A sim tracer queries its clock at every stamp and leaves no pending
    /// stamp; one restored with a pending stamp reuses it once.
    #[test]
    fn sim_tracer_queries_its_clock_at_every_stamp() {
        let mut t = Tracer::sim(1.0);
        let s0 = t.start(); // 0.0 (clock -> 1.0)
        t.finish(0, StageId::Sense, s0, 0.0, 0.0, true); // 1.0 (clock -> 2.0)
        assert_eq!(t.pending_stamp, None);
        assert_eq!(t.start(), 2.0); // clock -> 3.0
        t.pending_stamp = Some(0.5);
        assert_eq!(t.start(), 0.5, "a pending stamp is reused");
        assert_eq!(t.start(), 3.0);
    }

    /// Within a tick a wall span starts where the previous one ended; a
    /// tick boundary drops that stamp, so the next start re-queries the
    /// monotonic clock.
    #[test]
    fn wall_tracer_stamps_coarsely_within_a_tick() {
        let mut t = Tracer::wall();
        let s0 = t.start();
        t.finish(0, StageId::Sense, s0, 0.0, 0.0, true);
        let s1 = t.start();
        t.finish(0, StageId::Perceive, s1, 0.0, 0.0, true);
        let spans: Vec<Span> = t.spans().copied().collect();
        assert!(0.0 <= spans[0].start_s && spans[0].start_s <= spans[0].end_s);
        assert_eq!(
            spans[1].start_s, spans[0].end_s,
            "wall spans are contiguous under coarse stamping"
        );
        assert_eq!(t.pending_stamp, Some(spans[1].end_s));
        t.new_tick();
        assert_eq!(t.pending_stamp, None, "a tick boundary drops the stamp");
        assert!(t.start() >= spans[1].end_s);
    }

    #[test]
    fn span_ring_keeps_most_recent_in_order() {
        let mut t = Tracer::sim(1.0).with_span_capacity(4);
        for i in 0..10u64 {
            let s = t.start();
            t.finish(i, StageId::Sense, s, 0.0, 0.0, true);
        }
        let ticks: Vec<u64> = t.spans().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
        let drained = t.take_spans();
        assert_eq!(drained.len(), 4);
        assert_eq!(drained[0].tick, 6);
        assert_eq!(t.spans().count(), 0);
    }

    #[test]
    fn trace_mix_is_deterministic_and_nonzero() {
        assert_eq!(trace_mix(7, &[1, 2, 3]), trace_mix(7, &[1, 2, 3]));
        assert_ne!(trace_mix(7, &[1, 2, 3]), trace_mix(8, &[1, 2, 3]));
        assert_ne!(trace_mix(7, &[1, 2, 3]), trace_mix(7, &[1, 3, 2]));
        assert_ne!(trace_mix(7, &[]), 0);
        // A large sweep never yields the reserved 0 id.
        for i in 0..10_000u64 {
            assert_ne!(trace_mix(i, &[i ^ 0xABCD, i << 3]), 0);
        }
    }

    #[test]
    fn trace_context_parentage_links() {
        let root = TraceContext::root(42, &[SpanKind::Round.tag(), 0]);
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.trace_id, 42);
        let child = root.child(&[SpanKind::ClientTick.tag(), 5]);
        assert_eq!(child.trace_id, 42);
        assert_eq!(child.parent_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
        // Re-derivation from the same indices reproduces the same context —
        // the property that lets messages carry contexts without bytes.
        assert_eq!(child, root.child(&[SpanKind::ClientTick.tag(), 5]));
    }

    #[test]
    fn span_kind_table_keeps_names_and_tags() {
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "table order is declaration order");
            assert_eq!(kind.to_string(), kind.name());
        }
        // Tags are mixed into every span id: they may never move.
        let tags: Vec<u64> = SpanKind::ALL.iter().map(|k| k.tag()).collect();
        assert_eq!(tags, (0x51..=0x5C).collect::<Vec<u64>>());
        let names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names.join(","),
            "sched_tick,comm_tail,client_tick,net_send,net_retry,net_deliver,\
             net_drop,round,server_aggregate,broadcast,adopt,health"
        );
    }

    fn causal(tick: u64) -> CausalSpan {
        TraceContext {
            trace_id: 1,
            span_id: trace_mix(1, &[tick]),
            parent_id: 0,
        }
        .span(
            SpanKind::SchedTick,
            tick,
            0,
            tick as f64,
            tick as f64 + 0.5,
            true,
        )
    }

    #[test]
    fn context_span_carries_the_context_and_the_payload() {
        let ctx = TraceContext::root(7, &[1]).child(&[2]);
        let s = ctx.span(SpanKind::NetRetry, 3, 4, 0.25, 0.5, false);
        assert_eq!(
            s,
            CausalSpan {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_id: ctx.parent_id,
                kind: SpanKind::NetRetry,
                node: 3,
                detail: 4,
                start_s: 0.25,
                end_s: 0.5,
                ok: false,
            }
        );
    }

    #[test]
    fn disabled_fleet_tracer_records_nothing() {
        let t = FleetTracer::disabled();
        assert!(!t.is_enabled());
        t.record(causal(0));
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn fleet_tracer_ring_keeps_most_recent() {
        let t = FleetTracer::with_capacity(4);
        assert!(t.is_enabled());
        for i in 0..10 {
            t.record(causal(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.recorded(), 10);
        let nodes: Vec<u64> = t.spans().iter().map(|s| s.node).collect();
        assert_eq!(nodes, vec![6, 7, 8, 9]);
    }
}
