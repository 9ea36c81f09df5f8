//! Loop telemetry: per-tick records and running aggregates.
//!
//! The cyclical nature of sensing-action loops makes them sensitive to
//! cascading errors (§II); telemetry is how the experiments observe drift —
//! energy/latency trends, trust degradation, consecutive-suspect streaks,
//! and (for fallible loops) fault/retry/fallback counts.
//!
//! Aggregates are maintained *incrementally*: totals, means, suspect
//! fractions and histograms are exact over **all** ticks and O(1) to query,
//! while the per-tick [`TickRecord`] history is retained in a bounded ring
//! buffer (capacity via [`LoopTelemetry::with_capacity`]) so a million-tick
//! production run does not grow memory without bound. The ring
//! stores packed rows of only the columns the loop has ever used (16 B per
//! tick for a loop that records totals alone, 112 B at most) and derives
//! `tick` from a row's age.
//!
//! Since the observability layer, every record also carries a per-stage
//! [`StageBreakdown`] (sense/perceive/monitor/control/act attribution), and
//! the telemetry keeps per-stage totals plus log-bucketed latency
//! [`Histogram`]s — still O(1) per tick and O(1) to query. Export via
//! [`export::ticks_to_jsonl`](crate::export::ticks_to_jsonl) (round-trip
//! JSONL) or [`export::text_report`](crate::export::text_report).

use crate::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use crate::fault::StageError;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::stage::Trust;
use crate::trace::{StageBreakdown, StageId, STAGE_COUNT};
use crate::Precision;

/// Default number of per-tick records retained by the ring buffer: the
/// longest tail an in-tree reader takes from a default-capacity loop (a
/// 200-tick JSONL export), rounded up to a power of two. A loop whose reader
/// needs the whole run sizes its ring with
/// [`LoopTelemetry::with_capacity`].
pub(crate) const DEFAULT_RECORD_CAPACITY: usize = 256;

/// One tick's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickRecord {
    /// Tick index (0-based).
    pub tick: u64,
    /// Energy consumed this tick (joules).
    pub energy_j: f64,
    /// Latency of this tick (seconds).
    pub latency_s: f64,
    /// Monitor verdict.
    pub trust: Trust,
    /// Numeric precision label of the tick: every in-tree loop records f64;
    /// recordings and checkpoints from older builds may hold other modes.
    pub precision: Precision,
    /// Per-stage energy/latency attribution of this tick.
    pub stages: StageBreakdown,
}

/// Fault-handling counters of a fallible loop (all zero for infallible
/// loops).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Stage errors observed (including ones later recovered by retry).
    pub faults: u64,
    /// Faults that were dropouts.
    pub dropouts: u64,
    /// Faults that were latency-budget timeouts.
    pub timeouts: u64,
    /// Faults that were out-of-range readings.
    pub out_of_range: u64,
    /// Faults that were NaN-poisoned outputs.
    pub poisoned: u64,
    /// Stage re-attempts issued by the retry policy.
    pub retries: u64,
    /// Ticks served from held (stale) last-good features.
    pub holds: u64,
    /// Ticks that fell back to the controller's fail-safe action.
    pub fallbacks: u64,
}

impl std::fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} faults ({} dropouts, {} timeouts, {} out-of-range, {} poisoned; \
             {} retries, {} holds, {} fallbacks)",
            self.faults,
            self.dropouts,
            self.timeouts,
            self.out_of_range,
            self.poisoned,
            self.retries,
            self.holds,
            self.fallbacks
        )
    }
}

/// Communication counters of a loop that talks over a (possibly simulated)
/// network — federated clients, coverage coordinators, serving front-ends.
/// All zero for loops that never communicate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommCounters {
    /// Messages handed to the network for transmission.
    pub msgs_sent: u64,
    /// Messages confirmed delivered to the peer.
    pub msgs_delivered: u64,
    /// Messages lost in transit (exhausted retries, partitions).
    pub msgs_dropped: u64,
    /// Retransmission attempts beyond each message's first send.
    pub retransmits: u64,
    /// Payload bytes transmitted (per attempt-0 payload, not per retry).
    pub bytes_tx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Total off-compute communication time (propagation tails, seconds).
    pub comm_s: f64,
}

impl std::fmt::Display for CommCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sent ({} delivered, {} dropped, {} retransmits), {} B up, {} B down, {:.3e} s comm",
            self.msgs_sent,
            self.msgs_delivered,
            self.msgs_dropped,
            self.retransmits,
            self.bytes_tx,
            self.bytes_rx,
            self.comm_s
        )
    }
}

/// Aggregated telemetry of one loop.
#[derive(Debug, Clone)]
pub struct LoopTelemetry {
    records: RecordRing,
    ticks: u64,
    total_energy_j: f64,
    total_latency_s: f64,
    suspect_ticks: u64,
    suspect_streak: u32,
    max_suspect_streak: u32,
    counters: FaultCounters,
    comm: CommCounters,
    /// Running per-stage energy/latency totals over all ticks.
    stage_totals: StageBreakdown,
    /// Per-stage charged-latency histograms (only ticks where the stage
    /// charged anything are recorded, so idle stages stay empty).
    stage_latency: [Histogram; STAGE_COUNT],
    /// Whole-tick latency histogram over all ticks.
    latency_hist: Histogram,
    /// Ticks computed per precision mode (indexed by [`Precision::rank`]).
    precision_ticks: [u64; 3],
}

impl Default for LoopTelemetry {
    fn default() -> Self {
        LoopTelemetry::with_capacity(DEFAULT_RECORD_CAPACITY)
    }
}

impl LoopTelemetry {
    /// Fresh telemetry with the default record capacity.
    pub fn new() -> Self {
        LoopTelemetry::default()
    }

    /// Fresh telemetry retaining at most `capacity` per-tick records
    /// (clamped to ≥ 1). Aggregate statistics remain exact over all ticks
    /// regardless of capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        LoopTelemetry {
            records: RecordRing::new(capacity),
            ticks: 0,
            total_energy_j: 0.0,
            total_latency_s: 0.0,
            suspect_ticks: 0,
            suspect_streak: 0,
            max_suspect_streak: 0,
            counters: FaultCounters::default(),
            comm: CommCounters::default(),
            stage_totals: StageBreakdown::new(),
            stage_latency: std::array::from_fn(|_| Histogram::new()),
            latency_hist: Histogram::new(),
            precision_ticks: [0; 3],
        }
    }

    /// Record a tick with no per-stage attribution (all stages zero).
    pub fn record(&mut self, energy_j: f64, latency_s: f64, trust: Trust) {
        self.record_with_stages(energy_j, latency_s, trust, StageBreakdown::new());
    }

    /// Record a tick with its per-stage energy/latency attribution (at the
    /// default f64 precision).
    pub fn record_with_stages(
        &mut self,
        energy_j: f64,
        latency_s: f64,
        trust: Trust,
        stages: StageBreakdown,
    ) {
        self.record_with_precision(energy_j, latency_s, trust, stages, Precision::F64);
    }

    /// Record a tick with per-stage attribution and an explicit precision
    /// label (what the benchmark ledger calls; in-tree loops use
    /// [`LoopTelemetry::record_with_stages`]).
    pub fn record_with_precision(
        &mut self,
        energy_j: f64,
        latency_s: f64,
        trust: Trust,
        stages: StageBreakdown,
        precision: Precision,
    ) {
        self.records.push(&TickRecord {
            tick: self.ticks,
            energy_j,
            latency_s,
            trust,
            precision,
            stages,
        });
        self.ticks = self.ticks.wrapping_add(1);
        self.total_energy_j += energy_j;
        self.total_latency_s += latency_s;
        self.latency_hist.record(latency_s);
        let at_precision = &mut self.precision_ticks[precision.rank() as usize];
        *at_precision = at_precision.wrapping_add(1);
        self.stage_totals.merge(&stages);
        for (stage, cost) in stages.iter() {
            // Idle stages (charged nothing) don't pollute the histogram
            // with zeros — their count stays the number of active ticks.
            if cost.energy_j > 0.0 || cost.latency_s > 0.0 {
                self.stage_latency[stage.index()].record(cost.latency_s);
            }
        }
        if trust.suspicion() > 0.0 {
            self.suspect_ticks = self.suspect_ticks.wrapping_add(1);
            self.suspect_streak = self.suspect_streak.wrapping_add(1);
            self.max_suspect_streak = self.max_suspect_streak.max(self.suspect_streak);
        } else {
            self.suspect_streak = 0;
        }
    }

    /// Count one stage error (classified by kind).
    pub fn record_fault(&mut self, error: &StageError) {
        self.counters.faults = self.counters.faults.wrapping_add(1);
        let kind = match error {
            StageError::Dropout => &mut self.counters.dropouts,
            StageError::Timeout { .. } => &mut self.counters.timeouts,
            StageError::OutOfRange { .. } => &mut self.counters.out_of_range,
            StageError::Poisoned => &mut self.counters.poisoned,
        };
        *kind = kind.wrapping_add(1);
    }

    /// Count `n` retry attempts issued within one tick.
    pub fn record_retries(&mut self, n: u32) {
        self.counters.retries = self.counters.retries.wrapping_add(n as u64);
    }

    /// Count one tick served from held (stale) features.
    pub fn record_hold(&mut self) {
        self.counters.holds = self.counters.holds.wrapping_add(1);
    }

    /// Count one tick resolved by the fail-safe fallback action.
    pub fn record_fallback(&mut self) {
        self.counters.fallbacks = self.counters.fallbacks.wrapping_add(1);
    }

    /// Count one transmitted message: its payload size, retransmissions
    /// beyond the first attempt, whether it was ultimately delivered, and
    /// the off-compute communication tail it cost (propagation + retry
    /// timeouts; non-finite/negative tails count as zero).
    pub fn record_comm_tx(&mut self, bytes: u64, retransmits: u32, delivered: bool, comm_s: f64) {
        self.comm.msgs_sent = self.comm.msgs_sent.wrapping_add(1);
        self.comm.bytes_tx = self.comm.bytes_tx.wrapping_add(bytes);
        self.comm.retransmits = self.comm.retransmits.wrapping_add(retransmits as u64);
        if delivered {
            self.comm.msgs_delivered = self.comm.msgs_delivered.wrapping_add(1);
        } else {
            self.comm.msgs_dropped = self.comm.msgs_dropped.wrapping_add(1);
        }
        if comm_s.is_finite() && comm_s > 0.0 {
            self.comm.comm_s += comm_s;
        }
    }

    /// Count one received message.
    pub fn record_comm_rx(&mut self, bytes: u64) {
        self.comm.bytes_rx = self.comm.bytes_rx.wrapping_add(bytes);
    }

    /// Number of recorded ticks (all ticks ever, not just retained records).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Retained per-tick records in chronological (oldest-first) order,
    /// across ring wraparound. At most `LoopTelemetry::capacity` of the
    /// most recent ticks are kept. Records are decoded from the packed ring
    /// on the fly, `tick` from each row's age.
    pub fn records(&self) -> impl Iterator<Item = TickRecord> + '_ {
        let len = self.records.len();
        let oldest = self.ticks - len as u64;
        (0..len).map(move |i| self.records.get(i, oldest + i as u64))
    }

    /// The most recently recorded tick, if any; O(1). This is what a replay
    /// driver compares against after each tick, so replay verification works
    /// even when the ring capacity is smaller than the run length.
    pub fn last_record(&self) -> Option<TickRecord> {
        let newest = self.records.len().checked_sub(1)?;
        Some(self.records.get(newest, self.ticks - 1))
    }

    /// Maximum number of per-tick records retained.
    pub(crate) fn capacity(&self) -> usize {
        self.records.capacity
    }

    /// Total energy over all ticks (joules); O(1).
    pub fn total_energy_j(&self) -> f64 {
        self.total_energy_j
    }

    /// Total latency over all ticks (seconds); O(1).
    pub fn total_latency_s(&self) -> f64 {
        self.total_latency_s
    }

    /// Mean tick latency over all ticks (seconds; 0 before the first tick).
    pub(crate) fn mean_latency_s(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.total_latency_s / self.ticks as f64
    }

    /// Per-stage energy/latency totals over all ticks; O(1).
    pub fn stage_totals(&self) -> &StageBreakdown {
        &self.stage_totals
    }

    /// Charged-latency histogram of one stage (ticks where the stage
    /// charged nothing are excluded).
    pub(crate) fn stage_latency(&self, stage: StageId) -> &Histogram {
        &self.stage_latency[stage.index()]
    }

    /// Whole-tick latency histogram over all ticks.
    pub(crate) fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Fault-handling counters (zero for loops without a fault layer).
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// Communication counters (all zero for loops that never communicate).
    pub fn comm_counters(&self) -> CommCounters {
        self.comm
    }

    /// Number of ticks computed at the given precision mode; O(1).
    pub fn precision_ticks(&self, precision: Precision) -> u64 {
        self.precision_ticks[precision.rank() as usize]
    }

    /// Export aggregates into a [`MetricsRegistry`] under the standard
    /// metric names: `loop.*` counters/gauges, `stage.<name>.*` per-stage
    /// energy gauges and latency histograms.
    pub fn export_into(&self, registry: &mut MetricsRegistry) {
        registry.add("loop.ticks_total", self.ticks);
        registry.add("loop.faults_total", self.counters.faults);
        registry.add("loop.retries_total", self.counters.retries);
        registry.add("loop.holds_total", self.counters.holds);
        registry.add("loop.fallbacks_total", self.counters.fallbacks);
        registry.set("loop.energy_j", self.total_energy_j);
        registry.set("loop.latency_s", self.total_latency_s);
        registry.set("loop.suspect_fraction", self.suspect_fraction());
        registry.add("loop.precision.f64_ticks", self.precision_ticks[0]);
        registry.add("loop.precision.f32_ticks", self.precision_ticks[1]);
        registry.add("loop.precision.int8_ticks", self.precision_ticks[2]);
        if self.comm != CommCounters::default() {
            registry.add("loop.comm.msgs_sent_total", self.comm.msgs_sent);
            registry.add("loop.comm.msgs_delivered_total", self.comm.msgs_delivered);
            registry.add("loop.comm.msgs_dropped_total", self.comm.msgs_dropped);
            registry.add("loop.comm.retransmits_total", self.comm.retransmits);
            registry.add("loop.comm.bytes_tx_total", self.comm.bytes_tx);
            registry.add("loop.comm.bytes_rx_total", self.comm.bytes_rx);
            registry.set("loop.comm.latency_s", self.comm.comm_s);
        }
        registry.install_histogram("loop.tick.latency_s", self.latency_hist.clone());
        for stage in StageId::ALL {
            registry.set(stage.energy_key(), self.stage_totals.get(stage).energy_j);
            registry.install_histogram(
                stage.latency_key(),
                self.stage_latency[stage.index()].clone(),
            );
        }
    }

    /// Fraction of ticks with non-zero suspicion; O(1).
    pub fn suspect_fraction(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.suspect_ticks as f64 / self.ticks as f64
    }

    /// Longest run of consecutive suspect/untrusted ticks — the cascading-
    /// error indicator.
    pub fn max_suspect_streak(&self) -> u32 {
        self.max_suspect_streak
    }

    /// Current (ongoing) suspect streak.
    pub fn current_suspect_streak(&self) -> u32 {
        self.suspect_streak
    }

    /// `(bytes per retained record, bytes the ring has allocated)`.
    #[cfg(test)]
    pub(crate) fn record_footprint(&self) -> (usize, usize) {
        (8 * self.records.stride, 8 * self.records.words.capacity())
    }

    /// Bytes the six latency histograms have allocated.
    #[cfg(test)]
    pub(crate) fn histogram_footprint(&self) -> usize {
        self.stage_latency
            .iter()
            .chain([&self.latency_hist])
            .map(Histogram::heap_bytes)
            .sum()
    }

    /// Write the retained records into `s` in *chronological* order as the
    /// row-wise `rec_*` parallel arrays (absent columns as zeros), filled in
    /// one pass over the packed rows; restore re-pushes them, so the on-disk
    /// form is canonical whatever the ring's head or layout.
    fn save_records(&self, s: &mut Section) {
        let n = self.records.len();
        let mut ticks = Vec::with_capacity(n);
        let mut energies = Vec::with_capacity(n);
        let mut latencies = Vec::with_capacity(n);
        let mut trusts = Vec::with_capacity(n);
        let mut suspicions = Vec::with_capacity(n);
        let mut precisions = Vec::with_capacity(n);
        let mut stage_e = Vec::with_capacity(n * STAGE_COUNT);
        let mut stage_l = Vec::with_capacity(n * STAGE_COUNT);
        for r in self.records() {
            let (code, suspicion) = trust_code(r.trust);
            ticks.push(r.tick);
            energies.push(r.energy_j);
            latencies.push(r.latency_s);
            trusts.push(code);
            suspicions.push(suspicion);
            precisions.push(r.precision.rank() as u64);
            for (_, cost) in r.stages.iter() {
                stage_e.push(cost.energy_j);
                stage_l.push(cost.latency_s);
            }
        }
        s.put_u64s("rec_tick", &ticks);
        s.put_f64s("rec_energy", &energies);
        s.put_f64s("rec_latency", &latencies);
        s.put_u64s("rec_trust", &trusts);
        s.put_f64s("rec_susp", &suspicions);
        s.put_u64s("rec_prec", &precisions);
        s.put_f64s("rec_stage_e", &stage_e);
        s.put_f64s("rec_stage_l", &stage_l);
    }
}

/// Layout-mask bits: the optional columns a packed row carries after its two
/// always-present words (`energy_j` and `latency_s` bits), in this order.
/// One word: trust code | precision rank << 2.
const COL_FLAGS: u8 = 1;
/// One word: the `Trust::Suspect` payload's bits.
const COL_SUSPICION: u8 = 1 << 1;
/// Two words: stage `i`'s `(energy_j, latency_s)` bits, at `COL_STAGE0 << i`.
const COL_STAGE0: u8 = 1 << 2;

/// Words per row under a layout mask.
const fn stride(mask: u8) -> usize {
    2 + (mask & (COL_FLAGS | COL_SUSPICION)).count_ones() as usize
        + 2 * (mask >> 2).count_ones() as usize
}

/// The columns in which `r` holds a non-default value — any non-zero *bit*,
/// so `-0.0` and NaN payloads count and survive the round trip.
fn columns_of(r: &TickRecord) -> u8 {
    let (code, suspicion) = trust_code(r.trust);
    let mut need = 0;
    if code != 0 || r.precision.rank() != 0 {
        need |= COL_FLAGS;
    }
    if suspicion.to_bits() != 0 {
        need |= COL_SUSPICION;
    }
    for (i, (_, cost)) in r.stages.iter().enumerate() {
        if cost.energy_j.to_bits() | cost.latency_s.to_bits() != 0 {
            need |= COL_STAGE0 << i;
        }
    }
    need
}

/// Write `r` (minus its `tick`) into one row laid out by `mask`, which must
/// cover [`columns_of`]`(r)`.
fn encode_row(mask: u8, r: &TickRecord, row: &mut [u64]) {
    let (code, suspicion) = trust_code(r.trust);
    row[0] = r.energy_j.to_bits();
    row[1] = r.latency_s.to_bits();
    let mut at = 2;
    if mask & COL_FLAGS != 0 {
        row[at] = code | (r.precision.rank() as u64) << 2;
        at += 1;
    }
    if mask & COL_SUSPICION != 0 {
        row[at] = suspicion.to_bits();
        at += 1;
    }
    for (i, (_, cost)) in r.stages.iter().enumerate() {
        if mask & (COL_STAGE0 << i) != 0 {
            row[at] = cost.energy_j.to_bits();
            row[at + 1] = cost.latency_s.to_bits();
            at += 2;
        }
    }
}

/// Read back the record [`encode_row`] wrote under `mask`; absent columns
/// decode to their all-zero-bits default.
fn decode_row(mask: u8, row: &[u64], tick: u64) -> TickRecord {
    let mut at = 2;
    let mut next = |present: bool| {
        if present {
            at += 1;
            row[at - 1]
        } else {
            0
        }
    };
    let flags = next(mask & COL_FLAGS != 0);
    let suspicion = f64::from_bits(next(mask & COL_SUSPICION != 0));
    let mut stages = StageBreakdown::new();
    for (i, stage) in StageId::ALL.into_iter().enumerate() {
        let present = mask & (COL_STAGE0 << i) != 0;
        let (energy_j, latency_s) = (next(present), next(present));
        stages.set(stage, f64::from_bits(energy_j), f64::from_bits(latency_s));
    }
    TickRecord {
        tick,
        energy_j: f64::from_bits(row[0]),
        latency_s: f64::from_bits(row[1]),
        trust: trust_from_code(flags & 3, suspicion).expect("encode_row wrote a trust code"),
        precision: precision_from_rank(flags >> 2).expect("encode_row wrote a precision rank"),
        stages,
    }
}

/// The overwrite-oldest ring of tick records, stored as fixed-stride packed
/// rows of the columns some record pushed so far has needed (its `mask`).
/// A record needing a column the layout lacks re-lays the ring out once
/// under the wider mask — at most seven times in a loop's life, in practice
/// on tick 0 while the ring is empty. One contiguous row per record (≤ 112
/// B), not one `Vec` per column: a wide fleet has evicted a member's cache
/// lines between two of its ticks, so a push should miss once, not per
/// column. `tick` is not stored; the owner derives it from a row's age.
#[derive(Debug, Clone)]
struct RecordRing {
    /// `len × stride(mask)` words; grown lazily, so a short-lived loop never
    /// pays for `capacity` rows.
    words: Vec<u64>,
    mask: u8,
    /// `stride(mask)`, kept beside it so a push does not recount the bits.
    stride: usize,
    /// Oldest row's slot once the ring is full.
    head: usize,
    capacity: usize,
}

impl RecordRing {
    fn new(capacity: usize) -> Self {
        RecordRing {
            words: Vec::new(),
            mask: 0,
            stride: stride(0),
            head: 0,
            capacity: capacity.max(1),
        }
    }

    /// A ring retaining `records` (oldest first, at most `capacity` of them),
    /// laid out once for the columns they use and sized to hold them.
    fn from_ordered(capacity: usize, records: &[TickRecord]) -> Self {
        let mut ring = RecordRing::new(capacity);
        ring.widen(records.iter().fold(0, |mask, r| mask | columns_of(r)));
        ring.words.reserve_exact(records.len() * ring.stride);
        for r in records {
            ring.push(r);
        }
        ring
    }

    fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    fn push(&mut self, r: &TickRecord) {
        let need = columns_of(r);
        if need & !self.mask != 0 {
            self.widen(self.mask | need);
        }
        let stride = self.stride;
        // What a full ring holds, in words.
        let full = self.capacity.saturating_mul(stride);
        let at = self.words.len();
        let at = if at < full {
            if at == self.words.capacity() {
                // Double, but never past `full`.
                self.words.reserve_exact((2 * at).clamp(stride, full) - at);
            }
            self.words.resize(at + stride, 0);
            at
        } else {
            let oldest = self.head * stride;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            oldest
        };
        encode_row(self.mask, r, &mut self.words[at..at + stride]);
    }

    /// The `i`-th oldest retained record (`i < len`), stamped with `tick`.
    fn get(&self, i: usize, tick: u64) -> TickRecord {
        let stride = self.stride;
        let slot = (self.head + i) % self.len();
        decode_row(
            self.mask,
            &self.words[slot * stride..(slot + 1) * stride],
            tick,
        )
    }

    /// Re-lay every retained row out under the wider `mask`, oldest first.
    #[cold]
    fn widen(&mut self, mask: u8) {
        let (len, stride) = (self.len(), stride(mask));
        let mut words = vec![0; len * stride];
        for (i, row) in words.chunks_exact_mut(stride).enumerate() {
            encode_row(mask, &self.get(i, 0), row);
        }
        self.words = words;
        self.mask = mask;
        self.stride = stride;
        self.head = 0;
    }
}

fn trust_code(t: Trust) -> (u64, f64) {
    match t {
        Trust::Trusted => (0, 0.0),
        Trust::Suspect(s) => (1, s),
        Trust::Untrusted => (2, 0.0),
    }
}

/// The inverse of [`trust_code`]: a verdict without a payload carries the
/// `+0.0` the writer emits, and only that.
fn trust_from_code(code: u64, suspicion: f64) -> Option<Trust> {
    match (code, suspicion.to_bits()) {
        (0, 0) => Some(Trust::Trusted),
        (1, _) => Some(Trust::Suspect(suspicion)),
        (2, 0) => Some(Trust::Untrusted),
        _ => None,
    }
}

fn precision_from_rank(rank: u64) -> Option<Precision> {
    Precision::ALL.into_iter().find(|p| p.rank() as u64 == rank)
}

impl StageState for LoopTelemetry {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        s.put_u64("capacity", self.capacity() as u64);
        s.put_u64("ticks", self.ticks);
        s.put_f64("total_energy_j", self.total_energy_j);
        s.put_f64("total_latency_s", self.total_latency_s);
        s.put_u64("suspect_ticks", self.suspect_ticks);
        s.put_u64("suspect_streak", self.suspect_streak as u64);
        s.put_u64("max_suspect_streak", self.max_suspect_streak as u64);
        let c = &self.counters;
        s.put_u64s(
            "fault_counters",
            &[
                c.faults,
                c.dropouts,
                c.timeouts,
                c.out_of_range,
                c.poisoned,
                c.retries,
                c.holds,
                c.fallbacks,
            ],
        );
        s.put_u64s(
            "comm_counters",
            &[
                self.comm.msgs_sent,
                self.comm.msgs_delivered,
                self.comm.msgs_dropped,
                self.comm.retransmits,
                self.comm.bytes_tx,
                self.comm.bytes_rx,
            ],
        );
        s.put_f64("comm_s", self.comm.comm_s);
        let totals: Vec<f64> = StageId::ALL
            .into_iter()
            .flat_map(|st| {
                let cost = self.stage_totals.get(st);
                [cost.energy_j, cost.latency_s]
            })
            .collect();
        s.put_f64s("stage_totals", &totals);
        for (i, h) in self.stage_latency.iter().enumerate() {
            h.save_into(&mut s, &format!("stage{i}"));
        }
        self.latency_hist.save_into(&mut s, "lat");
        s.put_u64s("precision_ticks", &self.precision_ticks);

        self.save_records(&mut s);
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        // `with_capacity` clamps 0 to 1, which would re-save as `1`.
        let capacity: usize = s.get_as("capacity")?;
        s.check("capacity", capacity > 0)?;
        let mut t = LoopTelemetry::with_capacity(capacity);
        t.ticks = s.get_u64("ticks")?;
        t.total_energy_j = s.get_f64("total_energy_j")?;
        t.total_latency_s = s.get_f64("total_latency_s")?;
        t.suspect_ticks = s.get_u64("suspect_ticks")?;
        t.suspect_streak = s.get_as("suspect_streak")?;
        t.max_suspect_streak = s.get_as("max_suspect_streak")?;
        let [faults, dropouts, timeouts, out_of_range, poisoned, retries, holds, fallbacks] =
            s.get_u64_array("fault_counters")?;
        t.counters = FaultCounters {
            faults,
            dropouts,
            timeouts,
            out_of_range,
            poisoned,
            retries,
            holds,
            fallbacks,
        };
        let [msgs_sent, msgs_delivered, msgs_dropped, retransmits, bytes_tx, bytes_rx] =
            s.get_u64_array("comm_counters")?;
        t.comm = CommCounters {
            msgs_sent,
            msgs_delivered,
            msgs_dropped,
            retransmits,
            bytes_tx,
            bytes_rx,
            comm_s: s.get_f64("comm_s")?,
        };
        let totals = s.get_f64s_len("stage_totals", 2 * STAGE_COUNT)?;
        for (st, cost) in StageId::ALL.into_iter().zip(totals.chunks_exact(2)) {
            t.stage_totals.set(st, cost[0], cost[1]);
        }
        for (i, h) in t.stage_latency.iter_mut().enumerate() {
            *h = Histogram::restore_from(s, &format!("stage{i}"))?;
        }
        t.latency_hist = Histogram::restore_from(s, "lat")?;
        t.precision_ticks = s.get_u64_array("precision_ticks")?;

        let rec_ticks = s.get_u64s("rec_tick")?;
        let energies = s.get_f64s("rec_energy")?;
        let latencies = s.get_f64s("rec_latency")?;
        let trusts = s.get_u64s("rec_trust")?;
        let susps = s.get_f64s("rec_susp")?;
        let precs = s.get_u64s("rec_prec")?;
        let stage_e = s.get_f64s("rec_stage_e")?;
        let stage_l = s.get_f64s("rec_stage_l")?;
        let n = rec_ticks.len();
        let columns = [
            energies.len(),
            latencies.len(),
            trusts.len(),
            susps.len(),
            precs.len(),
        ];
        s.check("rec_tick", columns.iter().all(|&l| l == n))?;
        s.check("rec_stage_e", stage_e.len() == n * STAGE_COUNT)?;
        s.check("rec_stage_l", stage_l.len() == n * STAGE_COUNT)?;
        // `tick` is derived from a row's age, so the retained rows must be
        // exactly the consecutive run ending at `ticks - 1`.
        let oldest = t.ticks.checked_sub(n as u64);
        s.check(
            "rec_tick",
            n <= t.capacity() && oldest.is_some_and(|o| rec_ticks.iter().copied().eq(o..t.ticks)),
        )?;
        let mut records = Vec::with_capacity(n);
        for (i, &tick) in rec_ticks.iter().enumerate() {
            let mut stages = StageBreakdown::new();
            for (j, st) in StageId::ALL.into_iter().enumerate() {
                stages.set(
                    st,
                    stage_e[i * STAGE_COUNT + j],
                    stage_l[i * STAGE_COUNT + j],
                );
            }
            records.push(TickRecord {
                tick,
                energy_j: energies[i],
                latency_s: latencies[i],
                trust: trust_from_code(trusts[i], susps[i]).ok_or_else(|| s.bad("rec_trust"))?,
                precision: precision_from_rank(precs[i]).ok_or_else(|| s.bad("rec_prec"))?,
                stages,
            });
        }
        t.records = RecordRing::from_ordered(t.capacity(), &records);
        *self = t;
        Ok(())
    }
}

impl std::fmt::Display for LoopTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ticks, {:.3e} J total, mean latency {:.3e} s, {:.0}% suspect",
            self.ticks(),
            self.total_energy_j(),
            self.mean_latency_s(),
            self.suspect_fraction() * 100.0
        )?;
        if self.counters != FaultCounters::default() {
            write!(f, ", {}", self.counters)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;
    use crate::trace::StageCost;
    use sensact_math::rng::StdRng;

    #[test]
    fn records_accumulate() {
        let mut t = LoopTelemetry::new();
        t.record(1.0, 0.1, Trust::Trusted);
        t.record(3.0, 0.3, Trust::Suspect(0.5));
        assert_eq!(t.ticks(), 2);
        assert_eq!(t.total_energy_j(), 4.0);
        assert_eq!(t.mean_latency_s(), 0.2);
        assert_eq!(t.records().nth(1).unwrap().tick, 1);
    }

    #[test]
    fn precision_ticks_are_counted_per_mode() {
        let mut t = LoopTelemetry::new();
        t.record(1.0, 0.1, Trust::Trusted);
        let stages = StageBreakdown::new();
        t.record_with_precision(1.0, 0.1, Trust::Trusted, stages, Precision::F32);
        t.record_with_precision(1.0, 0.1, Trust::Trusted, stages, Precision::Int8);
        t.record_with_precision(1.0, 0.1, Trust::Trusted, stages, Precision::Int8);
        assert_eq!(t.precision_ticks(Precision::F64), 1);
        assert_eq!(t.precision_ticks(Precision::F32), 1);
        assert_eq!(t.precision_ticks(Precision::Int8), 2);
        assert_eq!(t.last_record().unwrap().precision, Precision::Int8);
        let mut m = MetricsRegistry::new();
        t.export_into(&mut m);
        assert_eq!(m.counter("loop.precision.int8_ticks"), 2);
    }

    #[test]
    fn suspect_fraction_and_streaks() {
        let mut t = LoopTelemetry::new();
        for trust in [
            Trust::Trusted,
            Trust::Suspect(0.2),
            Trust::Untrusted,
            Trust::Suspect(0.9),
            Trust::Trusted,
            Trust::Suspect(0.1),
        ] {
            t.record(0.0, 0.0, trust);
        }
        assert!((t.suspect_fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(t.max_suspect_streak(), 3);
        assert_eq!(t.current_suspect_streak(), 1);
    }

    #[test]
    fn empty_telemetry_is_benign() {
        let t = LoopTelemetry::new();
        assert_eq!(t.ticks(), 0);
        assert_eq!(t.suspect_fraction(), 0.0);
        assert_eq!(t.total_energy_j(), 0.0);
        assert_eq!(t.records().count(), 0);
        assert_eq!(t.latency_histogram().count(), 0);
        assert_eq!(t.stage_latency(StageId::Sense).count(), 0);
    }

    #[test]
    fn ring_buffer_caps_records_but_keeps_exact_aggregates() {
        let mut t = LoopTelemetry::with_capacity(4);
        for i in 0..10 {
            let trust = if i % 2 == 0 {
                Trust::Trusted
            } else {
                Trust::Suspect(0.5)
            };
            t.record(i as f64, 0.1, trust);
        }
        // Only the 4 most recent records retained, oldest first.
        let kept: Vec<u64> = t.records().map(|r| r.tick).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        assert_eq!(t.capacity(), 4);
        // Aggregates stay exact over all 10 ticks.
        assert_eq!(t.ticks(), 10);
        assert_eq!(t.total_energy_j(), 45.0);
        assert!((t.total_latency_s() - 1.0).abs() < 1e-12);
        assert_eq!(t.suspect_fraction(), 0.5);
        assert_eq!(t.latency_histogram().count(), 10);
    }

    /// Regression: `records()` must yield chronological order exactly at the
    /// capacity boundaries, where an off-by-one in the head index is easiest
    /// to introduce (len == cap: no wraparound yet; len == cap + 1: the ring
    /// has wrapped by exactly one slot).
    #[test]
    fn records_chronological_at_capacity_boundaries() {
        const CAP: usize = 5;
        // len == cap: every record retained, insertion order.
        let mut t = LoopTelemetry::with_capacity(CAP);
        for i in 0..CAP {
            t.record(i as f64, 0.0, Trust::Trusted);
        }
        let kept: Vec<u64> = t.records().map(|r| r.tick).collect();
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
        // len == cap + 1: oldest evicted, order still strictly ascending.
        t.record(CAP as f64, 0.0, Trust::Trusted);
        let kept: Vec<u64> = t.records().map(|r| r.tick).collect();
        assert_eq!(kept, vec![1, 2, 3, 4, 5]);
        assert_eq!(t.records().count(), CAP);
        // Energies ride along with their ticks (records were not merely
        // reordered indices).
        for rec in t.records() {
            assert_eq!(rec.energy_j, rec.tick as f64);
        }
        // And a full extra lap keeps the invariant.
        for i in (CAP + 1)..(2 * CAP + 2) {
            t.record(i as f64, 0.0, Trust::Trusted);
        }
        let kept: Vec<u64> = t.records().map(|r| r.tick).collect();
        assert_eq!(kept, vec![7, 8, 9, 10, 11]);
    }

    #[test]
    fn last_record_is_most_recent_across_wraparound() {
        let mut t = LoopTelemetry::with_capacity(3);
        assert_eq!(t.last_record(), None);
        for i in 0..7 {
            t.record(i as f64, 0.0, Trust::Trusted);
            assert_eq!(t.last_record().unwrap().tick, i);
        }
    }

    #[test]
    fn capacity_clamped_to_one() {
        let mut t = LoopTelemetry::with_capacity(0);
        t.record(1.0, 0.0, Trust::Trusted);
        t.record(2.0, 0.0, Trust::Trusted);
        assert_eq!(t.capacity(), 1);
        assert_eq!(t.records().count(), 1);
        assert_eq!(t.records().next().unwrap().tick, 1);
        assert_eq!(t.total_energy_j(), 3.0);
    }

    #[test]
    fn stage_attribution_accumulates() {
        let mut t = LoopTelemetry::new();
        let mut stages = StageBreakdown::new();
        stages.add(StageId::Sense, 2e-3, 1e-3);
        stages.add(StageId::Control, 1e-3, 5e-4);
        t.record_with_stages(3e-3, 1.5e-3, Trust::Trusted, stages);
        t.record_with_stages(3e-3, 1.5e-3, Trust::Trusted, stages);
        let totals = t.stage_totals();
        assert!((totals.get(StageId::Sense).energy_j - 4e-3).abs() < 1e-15);
        assert!((totals.get(StageId::Control).latency_s - 1e-3).abs() < 1e-15);
        assert_eq!(totals.get(StageId::Perceive).energy_j, 0.0);
        // Active stages have histogram samples; idle stages stay empty.
        assert_eq!(t.stage_latency(StageId::Sense).count(), 2);
        assert_eq!(t.stage_latency(StageId::Perceive).count(), 0);
        assert_eq!(t.latency_histogram().count(), 2);
        // The retained record carries the breakdown.
        assert_eq!(t.records().next().unwrap().stages, stages);
    }

    #[test]
    fn export_into_registry_uses_standard_names() {
        let mut t = LoopTelemetry::new();
        let mut stages = StageBreakdown::new();
        stages.add(StageId::Sense, 1e-3, 1e-4);
        t.record_with_stages(1e-3, 1e-4, Trust::Trusted, stages);
        t.record_fault(&StageError::Dropout);
        let mut reg = MetricsRegistry::new();
        t.export_into(&mut reg);
        assert_eq!(reg.counter("loop.ticks_total"), 1);
        assert_eq!(reg.counter("loop.faults_total"), 1);
        assert_eq!(reg.gauge("loop.energy_j"), Some(1e-3));
        assert_eq!(reg.gauge(StageId::Sense.energy_key()), Some(1e-3));
        assert_eq!(reg.histogram("loop.tick.latency_s").unwrap().count(), 1);
        assert_eq!(
            reg.histogram(StageId::Sense.latency_key()).unwrap().count(),
            1
        );
        assert_eq!(
            reg.histogram(StageId::Perceive.latency_key())
                .unwrap()
                .count(),
            0
        );
    }

    #[test]
    fn fault_counters_classify_errors() {
        let mut t = LoopTelemetry::new();
        t.record_fault(&StageError::Dropout);
        t.record_fault(&StageError::Dropout);
        t.record_fault(&StageError::Timeout {
            latency_s: 0.2,
            budget_s: 0.1,
        });
        t.record_fault(&StageError::OutOfRange {
            value: 9.0,
            min: 0.0,
            max: 1.0,
        });
        t.record_fault(&StageError::Poisoned);
        t.record_retries(3);
        t.record_hold();
        t.record_fallback();
        let c = t.fault_counters();
        assert_eq!(c.faults, 5);
        assert_eq!(c.dropouts, 2);
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.out_of_range, 1);
        assert_eq!(c.poisoned, 1);
        assert_eq!(c.retries, 3);
        assert_eq!(c.holds, 1);
        assert_eq!(c.fallbacks, 1);
    }

    #[test]
    fn fault_counters_display_formats_every_field() {
        let c = FaultCounters {
            faults: 9,
            dropouts: 4,
            timeouts: 2,
            out_of_range: 2,
            poisoned: 1,
            retries: 5,
            holds: 3,
            fallbacks: 1,
        };
        let s = c.to_string();
        assert_eq!(
            s,
            "9 faults (4 dropouts, 2 timeouts, 2 out-of-range, 1 poisoned; \
             5 retries, 3 holds, 1 fallbacks)"
        );
        // All-zero counters still render (callers decide whether to show).
        let zero = FaultCounters::default().to_string();
        assert!(zero.starts_with("0 faults"));
        assert!(zero.contains("0 fallbacks"));
    }

    #[test]
    fn comm_counters_accumulate_and_export() {
        let mut t = LoopTelemetry::new();
        assert_eq!(t.comm_counters(), CommCounters::default());
        // Fresh telemetry exports no comm metrics at all.
        let mut reg = MetricsRegistry::new();
        t.export_into(&mut reg);
        assert_eq!(reg.counter("loop.comm.msgs_sent_total"), 0);
        assert!(reg.gauge("loop.comm.latency_s").is_none());

        t.record_comm_tx(1024, 2, true, 3e-3);
        t.record_comm_tx(512, 0, false, 1e-3);
        t.record_comm_rx(2048);
        // Non-finite and negative tails are ignored, not accumulated.
        t.record_comm_tx(16, 0, true, f64::NAN);
        t.record_comm_tx(16, 0, true, -1.0);
        let c = t.comm_counters();
        assert_eq!(c.msgs_sent, 4);
        assert_eq!(c.msgs_delivered, 3);
        assert_eq!(c.msgs_dropped, 1);
        assert_eq!(c.retransmits, 2);
        assert_eq!(c.bytes_tx, 1024 + 512 + 32);
        assert_eq!(c.bytes_rx, 2048);
        assert!((c.comm_s - 4e-3).abs() < 1e-15);

        let mut reg = MetricsRegistry::new();
        t.export_into(&mut reg);
        assert_eq!(reg.counter("loop.comm.msgs_sent_total"), 4);
        assert_eq!(reg.counter("loop.comm.msgs_dropped_total"), 1);
        assert_eq!(reg.counter("loop.comm.bytes_rx_total"), 2048);
        assert_eq!(reg.gauge("loop.comm.latency_s"), Some(c.comm_s));

        let s = c.to_string();
        assert!(s.contains("4 sent"), "{s}");
        assert!(s.contains("1 dropped"), "{s}");
        assert!(s.contains("2 retransmits"), "{s}");
    }

    /// Snapshot `t`, restore into a fresh instance, and assert the restored
    /// telemetry is observably identical — records (order included),
    /// aggregates, histograms, counters.
    fn assert_round_trip(t: &LoopTelemetry) -> LoopTelemetry {
        use crate::checkpoint::Checkpoint;
        let mut ckpt = Checkpoint::new("t");
        t.save_state(&mut ckpt, "telemetry");
        // Through the wire, not just through the object graph.
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).expect("parses");
        let mut back = LoopTelemetry::new();
        back.restore_state(&ckpt, "telemetry").expect("restores");
        assert_eq!(back.ticks(), t.ticks());
        assert_eq!(back.capacity(), t.capacity());
        let a: Vec<TickRecord> = t.records().collect();
        let b: Vec<TickRecord> = back.records().collect();
        assert_eq!(a, b, "record order/content diverged");
        assert_eq!(back.last_record(), t.last_record());
        assert_eq!(
            back.total_energy_j().to_bits(),
            t.total_energy_j().to_bits()
        );
        assert_eq!(
            back.total_latency_s().to_bits(),
            t.total_latency_s().to_bits()
        );
        assert_eq!(
            back.suspect_fraction().to_bits(),
            t.suspect_fraction().to_bits()
        );
        assert_eq!(back.max_suspect_streak(), t.max_suspect_streak());
        assert_eq!(back.current_suspect_streak(), t.current_suspect_streak());
        assert_eq!(back.fault_counters(), t.fault_counters());
        assert_eq!(back.comm_counters(), t.comm_counters());
        assert_eq!(
            back.latency_histogram().count(),
            t.latency_histogram().count()
        );
        for st in StageId::ALL {
            assert_eq!(
                back.stage_latency(st).nonzero_buckets(),
                t.stage_latency(st).nonzero_buckets()
            );
        }
        for p in Precision::ALL {
            assert_eq!(back.precision_ticks(p), t.precision_ticks(p));
        }
        back
    }

    fn busy_telemetry(capacity: usize, ticks: usize) -> LoopTelemetry {
        let mut t = LoopTelemetry::with_capacity(capacity);
        for i in 0..ticks {
            let trust = match i % 3 {
                0 => Trust::Trusted,
                1 => Trust::Suspect(0.1 + (i as f64) * 1e-3),
                _ => Trust::Untrusted,
            };
            let prec = Precision::ALL[i % 3];
            let mut stages = StageBreakdown::new();
            stages.add(StageId::Sense, 1e-3 + i as f64 * 1e-6, 1e-4);
            stages.add(StageId::Control, 2e-3, 5e-5 + i as f64 * 1e-8);
            t.record_with_precision(i as f64 * 1e-3, 1e-4 + i as f64 * 1e-7, trust, stages, prec);
        }
        t.record_fault(&StageError::Dropout);
        t.record_comm_tx(128, 1, true, 2e-3);
        t
    }

    #[test]
    fn checkpoint_round_trips_live_telemetry() {
        assert_round_trip(&LoopTelemetry::new());
        assert_round_trip(&busy_telemetry(8, 3)); // partially filled ring
        assert_round_trip(&busy_telemetry(8, 100)); // well past wraparound
    }

    /// Regression (hidden-state sweep): the ring's `head` is ambiguous
    /// against `len` exactly when `len == capacity` (head == 0 both before
    /// the first wrap and after every full lap). Snapshot/restore at
    /// `capacity - 1`, `capacity`, and `capacity + 1` ticks must preserve
    /// chronological record order, and a restored ring must keep evicting
    /// in the right order as new ticks land.
    #[test]
    fn checkpoint_preserves_ring_order_at_wrap_boundary() {
        const CAP: usize = 6;
        for ticks in [CAP - 1, CAP, CAP + 1] {
            let t = busy_telemetry(CAP, ticks);
            let mut restored = assert_round_trip(&t);
            let mut uninterrupted = busy_telemetry(CAP, ticks);
            // Keep ticking both: eviction order must stay identical.
            for i in 0..CAP {
                let e = 100.0 + i as f64;
                restored.record(e, 0.0, Trust::Trusted);
                uninterrupted.record(e, 0.0, Trust::Trusted);
                let a: Vec<u64> = restored.records().map(|r| r.tick).collect();
                let b: Vec<u64> = uninterrupted.records().map(|r| r.tick).collect();
                assert_eq!(a, b, "snapshot at {ticks} ticks, +{} more", i + 1);
            }
        }
    }

    #[test]
    fn checkpoint_restore_rejects_inconsistent_records() {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let t = busy_telemetry(8, 5);
        let mut ckpt = Checkpoint::new("t");
        t.save_state(&mut ckpt, "telemetry");
        // Parse, then corrupt one parallel array's length.
        let doc = ckpt.to_jsonl();
        let broken = doc.replace("\"rec_trust\":\"U:0;1;2;0;1\"", "\"rec_trust\":\"U:0;1\"");
        assert_ne!(doc, broken, "corruption target not found");
        let ckpt = Checkpoint::from_jsonl(&broken).expect("still parses");
        let mut back = LoopTelemetry::new();
        assert!(matches!(
            back.restore_state(&ckpt, "telemetry"),
            Err(CheckpointError::BadValue(_))
        ));
        // A streak past `u32` is refused, not truncated.
        for key in ["suspect_streak", "max_suspect_streak"] {
            let mut hostile = Checkpoint::new("t");
            t.save_state(&mut hostile, "telemetry");
            let mut wide = hostile.section("telemetry").unwrap().clone();
            wide.put_u64(key, u32::MAX as u64 + 1);
            hostile.push(wide);
            assert_eq!(
                back.restore_state(&hostile, "telemetry"),
                Err(CheckpointError::BadValue(format!("telemetry.{key}")))
            );
        }
        // Missing section is typed, not a panic.
        let empty = Checkpoint::new("t");
        assert!(matches!(
            back.restore_state(&empty, "telemetry"),
            Err(CheckpointError::MissingSection(_))
        ));

        // Restored records are validated, not trusted: `tick` is derived
        // from a row's age, so `rec_tick` must be the consecutive run ending
        // at `ticks - 1` and fit the ring; trust codes and precision ranks
        // must name a variant. A refused restore leaves `self` untouched.
        let wrapped = busy_telemetry(4, 10); // retains ticks 6..=9
        let single = busy_telemetry(1, 3); // retains tick 2
        back.record(1.0, 0.1, Trust::Trusted);
        type Mutation = fn(&mut Section);
        fn suspect_row(s: &mut Section, row: usize) {
            let mut susp = s.get_f64s("rec_susp").unwrap();
            susp[row] = 0.5;
            s.put_f64s("rec_susp", &susp);
        }
        let hostile: [(&LoopTelemetry, &str, Mutation); 10] = [
            // A gap.
            (&wrapped, "rec_tick", |s| {
                s.put_u64s("rec_tick", &[5, 7, 8, 9])
            }),
            // Past `ticks`.
            (&wrapped, "rec_tick", |s| {
                s.put_u64s("rec_tick", &[7, 8, 9, 10])
            }),
            // More rows than ticks, then more rows than capacity.
            (&wrapped, "rec_tick", |s| s.put_u64("ticks", 3)),
            (&wrapped, "rec_tick", |s| s.put_u64("capacity", 3)),
            (&wrapped, "rec_trust", |s| {
                s.put_u64s("rec_trust", &[0, 1, 2, 3])
            }),
            (&wrapped, "rec_prec", |s| {
                s.put_u64s("rec_prec", &[0, 1, 2, 3])
            }),
            // A suspicion beside a trusted (tick 6) or an untrusted (tick 8)
            // verdict, which carries none and would re-save as `+0.0`.
            (&wrapped, "rec_trust", |s| suspect_row(s, 0)),
            (&wrapped, "rec_trust", |s| suspect_row(s, 2)),
            // `with_capacity` would clamp 0 to a 1-row ring re-saving as `1`.
            (&single, "capacity", |s| s.put_u64("capacity", 0)),
            // A max no sample stream produces (`Histogram::restore_from`).
            (&single, "lat_max", |s| s.put_f64("lat_max", f64::NAN)),
        ];
        for (t, key, mutate) in hostile {
            let mut ckpt = Checkpoint::new("t");
            t.save_state(&mut ckpt, "telemetry");
            let mut section = ckpt.section("telemetry").unwrap().clone();
            mutate(&mut section);
            ckpt.push(section);
            assert_eq!(
                back.restore_state(&ckpt, "telemetry"),
                Err(CheckpointError::BadValue(format!("telemetry.{key}")))
            );
            assert_eq!((back.ticks(), back.records().count()), (1, 1));
        }
    }

    /// Every field of a record as raw bits, so comparisons see `-0.0` and
    /// NaN payloads (`TickRecord`'s `PartialEq` does not).
    fn record_bits(r: &TickRecord) -> [u64; 6 + 2 * STAGE_COUNT] {
        let (code, suspicion) = trust_code(r.trust);
        let mut bits = [0; 6 + 2 * STAGE_COUNT];
        bits[..6].copy_from_slice(&[
            r.tick,
            r.energy_j.to_bits(),
            r.latency_s.to_bits(),
            code,
            suspicion.to_bits(),
            r.precision.rank() as u64,
        ]);
        for (i, (_, cost)) in r.stages.iter().enumerate() {
            bits[6 + 2 * i] = cost.energy_j.to_bits();
            bits[7 + 2 * i] = cost.latency_s.to_bits();
        }
        bits
    }

    /// A column is absent while every value in it is all-zero *bits*, so a
    /// `-0.0` or NaN-payload cost activates its column and comes back
    /// `to_bits`-identical through push → widen → wrap → checkpoint →
    /// restore. (Restore used to rebuild stage costs through `0.0 + x`,
    /// which turns `-0.0` into `+0.0`.)
    #[test]
    fn negative_zero_and_nan_payloads_survive_widen_wrap_and_restore() {
        use crate::checkpoint::Checkpoint;
        let nan = f64::from_bits(0xfff8_0000_dead_beef);
        let mut hostile = StageBreakdown::new();
        hostile.set(StageId::Sense, -0.0, 0.0);
        hostile.set(StageId::Act, 0.0, nan);
        let mut widener = StageBreakdown::new();
        widener.add(StageId::Control, 1e-3, 1e-4);

        let mut t = LoopTelemetry::with_capacity(4);
        t.record(1.0, 0.1, Trust::Trusted);
        t.record_with_stages(-0.0, nan, Trust::Suspect(-0.0), hostile);
        let before_widen = t.record_footprint().0;
        t.record_with_stages(1.0, 0.1, Trust::Trusted, widener);
        assert!(t.record_footprint().0 > before_widen, "ring widened");
        t.record(2.0, 0.1, Trust::Trusted);
        t.record(3.0, 0.1, Trust::Trusted); // wraps: tick 0 evicted
        let want = record_bits(&TickRecord {
            tick: 1,
            energy_j: -0.0,
            latency_s: nan,
            trust: Trust::Suspect(-0.0),
            precision: Precision::F64,
            stages: hostile,
        });
        assert_eq!(record_bits(&t.records().next().unwrap()), want);

        let mut ckpt = Checkpoint::new("t");
        t.save_state(&mut ckpt, "telemetry");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).expect("parses");
        let mut back = LoopTelemetry::new();
        back.restore_state(&ckpt, "telemetry").expect("restores");
        let a: Vec<_> = t.records().map(|r| record_bits(&r)).collect();
        let b: Vec<_> = back.records().map(|r| record_bits(&r)).collect();
        assert_eq!(a, b);
        assert_eq!(b[0], want);
    }

    /// The checkpoint columns as the pre-packing ring wrote them — gathered
    /// from whole `TickRecord`s in a [`Ring`], `tick` stored — for the oracle
    /// the packed ring is compared against.
    fn oracle_save_records(ring: &Ring<TickRecord>, s: &mut Section) {
        let recs: Vec<&TickRecord> = ring.iter().collect();
        let u64s = |f: fn(&TickRecord) -> u64| recs.iter().map(|r| f(r)).collect::<Vec<_>>();
        let f64s = |f: fn(&TickRecord) -> f64| recs.iter().map(|r| f(r)).collect::<Vec<_>>();
        s.put_u64s("rec_tick", &u64s(|r| r.tick));
        s.put_f64s("rec_energy", &f64s(|r| r.energy_j));
        s.put_f64s("rec_latency", &f64s(|r| r.latency_s));
        s.put_u64s("rec_trust", &u64s(|r| trust_code(r.trust).0));
        s.put_f64s("rec_susp", &f64s(|r| trust_code(r.trust).1));
        s.put_u64s("rec_prec", &u64s(|r| r.precision.rank() as u64));
        let stage = |f: fn(StageCost) -> f64| {
            recs.iter()
                .flat_map(|r| r.stages.iter().map(move |(_, cost)| f(cost)))
                .collect::<Vec<_>>()
        };
        s.put_f64s("rec_stage_e", &stage(|c| c.energy_j));
        s.put_f64s("rec_stage_l", &stage(|c| c.latency_s));
    }

    /// One seeded record: plain (totals only) most of the time, otherwise a
    /// non-default value — hostile floats included — in one optional column,
    /// so a run activates its columns one by one at scattered ticks.
    fn seeded_record(rng: &mut StdRng, tick: u64) -> TickRecord {
        let float = |rng: &mut StdRng| match rng.gen_range(0..6u32) {
            0 => -0.0,
            1 => f64::from_bits(0x7ff8_0000_0000_0000 | rng.next_u64() >> 16),
            2 => 0.0,
            _ => rng.gen_f64() * 1e-3,
        };
        let mut r = TickRecord {
            tick,
            energy_j: float(rng),
            latency_s: float(rng),
            trust: Trust::Trusted,
            precision: Precision::F64,
            stages: StageBreakdown::new(),
        };
        match rng.gen_range(0..12u32) {
            0 => r.trust = Trust::Untrusted,
            1 => r.trust = Trust::Suspect(float(rng)),
            2 => r.precision = Precision::ALL[rng.gen_range(0..3usize)],
            c @ 3..=7 => r
                .stages
                .set(StageId::ALL[c as usize - 3], float(rng), float(rng)),
            _ => {}
        }
        r
    }

    /// Differential oracle: the packed ring against whole records in a
    /// `Ring`, over seeded mixes of trust / precision / stage patterns. Each
    /// run is lease-shaped up to a first widening forced before the fill,
    /// mid-ring after a wrap or exactly at the wrap boundary, then activates
    /// its other columns at scattered ticks. After every push `records()`,
    /// `last_record()`, `capacity()` and the checkpoint's `rec_*` columns
    /// equal the oracle's bit for bit, and the ring holds no more than
    /// `capacity` rows.
    #[test]
    fn packed_ring_matches_whole_record_oracle() {
        for capacity in [1usize, 2, 7, 64] {
            let first_widening = [
                0,
                capacity / 2,
                capacity - 1,
                capacity,
                capacity + capacity / 2,
            ];
            for (seed, widen_at) in first_widening.into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(23 + seed as u64);
                let mut t = LoopTelemetry::with_capacity(capacity);
                let mut oracle = Ring::new(capacity);
                let mut widenings = 0;
                for tick in 0..4 * capacity as u64 + 40 {
                    let mut r = seeded_record(&mut rng, tick);
                    if tick <= widen_at as u64 {
                        r.trust = Trust::Trusted;
                        r.precision = Precision::F64;
                        r.stages = StageBreakdown::new();
                    }
                    if tick == widen_at as u64 {
                        r.stages.set(StageId::Monitor, 1e-3, -0.0);
                    }
                    let row_before = t.record_footprint().0;
                    t.record_with_precision(
                        r.energy_j,
                        r.latency_s,
                        r.trust,
                        r.stages,
                        r.precision,
                    );
                    oracle.push(r);

                    let ctx = format!("capacity {capacity}, widen at {widen_at}, tick {tick}");
                    let (row, allocated) = t.record_footprint();
                    assert_eq!(
                        tick == widen_at as u64,
                        row == 32 && row_before == 16,
                        "{ctx}"
                    );
                    widenings += (row > row_before) as usize;
                    assert!(
                        allocated <= capacity * row,
                        "{ctx}: {allocated} B allocated"
                    );
                    let got: Vec<_> = t.records().map(|r| record_bits(&r)).collect();
                    let want: Vec<_> = oracle.iter().map(record_bits).collect();
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(
                        t.last_record().map(|r| record_bits(&r)),
                        want.last().copied(),
                        "{ctx}"
                    );
                    assert_eq!(t.capacity(), oracle.capacity(), "{ctx}");
                    let (mut a, mut b) = (Section::new("rec"), Section::new("rec"));
                    t.save_records(&mut a);
                    oracle_save_records(&oracle, &mut b);
                    assert_eq!(a, b, "{ctx}");
                }
                assert!(
                    (3..=7).contains(&widenings),
                    "capacity {capacity}, widen at {widen_at}: {widenings} widenings"
                );
            }
        }
    }

    /// What a loop pays per retained tick is the columns it has used: 16 B
    /// for a lease-shaped loop (totals only), 48 B for sense + control; the
    /// ring grows lazily and, once full, holds `capacity` rows and no more.
    #[test]
    fn ring_footprint_is_the_columns_a_loop_has_used() {
        let mut lease = LoopTelemetry::new();
        for i in 0..3 {
            lease.record(i as f64, 1e-3, Trust::Trusted);
        }
        let (row, allocated) = lease.record_footprint();
        assert_eq!(row, 16);
        assert!(allocated <= 4 * row, "3 ticks must not pay for a full ring");
        for i in 3..2 * DEFAULT_RECORD_CAPACITY {
            lease.record(i as f64, 1e-3, Trust::Trusted);
        }
        assert_eq!(lease.record_footprint(), (16, DEFAULT_RECORD_CAPACITY * 16));

        let mut member = LoopTelemetry::with_capacity(512);
        let mut stages = StageBreakdown::new();
        stages.add(StageId::Sense, 2e-3, 1e-3);
        stages.add(StageId::Control, 1e-3, 5e-4);
        for _ in 0..1024 {
            member.record_with_stages(3e-3, 1.5e-3, Trust::Trusted, stages);
        }
        assert_eq!(member.record_footprint(), (48, 512 * 48));

        // Worst case, every column in use: 14 words.
        for stage in StageId::ALL {
            stages.add(stage, 1e-3, 1e-4);
        }
        member.record_with_precision(1.0, 0.1, Trust::Suspect(0.5), stages, Precision::F32);
        assert_eq!(member.record_footprint(), (112, 512 * 112));
    }

    /// A loop owns only what it has used: nothing before its first tick,
    /// and a lease-shaped loop (totals only, one latency bucket) owns the
    /// default ring of 16 B rows plus one histogram bucket however long it
    /// runs — the five stage histograms it never writes stay unallocated.
    #[test]
    fn a_loop_owns_only_the_state_it_has_used() {
        let fresh = LoopTelemetry::new();
        assert_eq!(fresh.record_footprint().1, 0);
        assert_eq!(fresh.histogram_footprint(), 0);

        let mut lease = LoopTelemetry::new();
        for i in 0..10_000 {
            lease.record(i as f64, 1e-3, Trust::Trusted);
        }
        assert_eq!(lease.record_footprint(), (16, 256 * 16));
        assert_eq!(lease.histogram_footprint(), 8);
    }

    #[test]
    fn display_summarizes() {
        let mut t = LoopTelemetry::new();
        t.record(1.0, 0.5, Trust::Trusted);
        let s = t.to_string();
        assert!(s.contains("1 ticks"));
        assert!(s.contains("0% suspect"));
        assert!(!s.contains("faults"), "clean loop shows no fault section");
        t.record_fault(&StageError::Dropout);
        t.record_fallback();
        let s = t.to_string();
        assert!(s.contains("1 faults"), "{s}");
        assert!(s.contains("1 fallbacks"), "{s}");
    }
}
