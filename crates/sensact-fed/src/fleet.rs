//! Federated learning as scheduled sensing-action loops (the Fig. 11
//! co-scheduling argument, executed).
//!
//! [`run_federated`](crate::server::run_federated) drives rounds with a
//! synchronous `for` loop: every round waits for the slowest client and
//! communication is free. This module re-hosts the same fleet on the
//! [`FleetScheduler`]: each client becomes a [`DynLoop`] (download global →
//! local train → upload over the `SimNetwork`), the server becomes a loop
//! that ticks once per round period and aggregates whatever uploads the
//! network has *delivered by its cutoff* — stragglers miss the cutoff and
//! land in a later round (partial, online aggregation). Upload/download time
//! feeds the scheduler's deadline and energy model through
//! [`TickOutcome::comm_s`](sensact_sched::TickOutcome), and the
//! [`EnergyArbiter`]'s stride stretch throttles *communication* alongside
//! tick rates: overshoot shrinks the wire quantization
//! ([`EnergyArbiter::wire_bits`]), so uploads get smaller exactly when the
//! fleet is over its power cap.
//!
//! Under [`FleetScheduler::run_deterministic`] the whole construction —
//! scheduling, training, and every network draw — is a pure function of the
//! two seeds (fleet + network), reproducible bit-for-bit at 1k clients.

use crate::client::Client;
use crate::data::Dataset;
use crate::server::{aggregate_masked, apply_strategy, MaskedUpdate, Strategy};
use crate::sim::{NetCounters, NetworkConfig, SimNetwork};
use sensact_core::export::{fnv1a_words, trace_stream_hash, FNV_OFFSET};
use sensact_core::trace::{trace_mix, SimClock};
use sensact_core::{FleetTracer, LoopTelemetry, SpanKind, StageError, TraceContext, Trust};
use sensact_sched::{
    DynLoop, EnergyArbiter, FleetConfig, FleetReport, FleetScheduler, LoopHandle, LoopSpec,
    TickOutcome,
};
use std::sync::{Arc, Mutex};

/// Salt mixed into federated round trace ids, keeping them disjoint from the
/// scheduler's own tick traces derived from the same seeds.
const ROUND_TRACE_SALT: u64 = 0xFED0_0500;

/// Root context of server round `round`'s causal trace. A pure function of
/// `(trace seed, round)`: clients, the server, and offline reconstruction
/// all derive the same ids without any context handoff — that is how a
/// network message "carries" its trace context without serialising it.
pub fn round_trace_root(trace_seed: u64, round: u64) -> TraceContext {
    let trace_id = trace_mix(trace_seed ^ ROUND_TRACE_SALT, &[round]);
    TraceContext::root(trace_id, &[SpanKind::Round.tag()])
}

/// Context of round `round`'s server-aggregation span.
pub fn round_aggregate_context(trace_seed: u64, round: u64) -> TraceContext {
    round_trace_root(trace_seed, round).child(&[SpanKind::ServerAggregate.tag()])
}

/// Context of the broadcast of round `round`'s model towards `client`.
pub fn broadcast_context(trace_seed: u64, round: u64, client: u64) -> TraceContext {
    round_aggregate_context(trace_seed, round).child(&[SpanKind::Broadcast.tag(), client])
}

/// Context of `client`'s tick `tick_idx` span: the tick uploads towards the
/// cutoff of server round `tick_idx + 1`, so it belongs to that round's
/// trace.
pub(crate) fn client_tick_context(trace_seed: u64, tick_idx: u64, client: u64) -> TraceContext {
    round_trace_root(trace_seed, tick_idx + 1).child(&[SpanKind::ClientTick.tag(), client])
}

/// Scheduled-federation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedFleetConfig {
    /// Round periods to run (the server aggregates once per period).
    pub rounds: usize,
    /// Local epochs per client tick.
    pub local_epochs: usize,
    /// Virtual workers multiplexing the fleet.
    pub workers: usize,
    /// Scheduler seed (EDF tie-breaks). The network has its own seed.
    pub seed: u64,
    /// Optional fleet power cap — the arbiter throttles tick rates *and*
    /// wire bits when the fleet burns past it.
    pub watts_cap: Option<f64>,
    /// Round period override (s). `None` derives one from the fleet: median
    /// client compute plus a network round-trip estimate, so the median
    /// client makes each cutoff and the slow tail gets cut.
    pub round_period_s: Option<f64>,
}

impl Default for FedFleetConfig {
    fn default() -> Self {
        FedFleetConfig {
            rounds: 8,
            local_epochs: 8,
            workers: 4,
            seed: 0,
            watts_cap: None,
            round_period_s: None,
        }
    }
}

/// An upload sitting in (or having crossed) the network.
#[derive(Debug, Clone)]
struct Delivery {
    client: usize,
    /// The client-side round (its tick index) that produced the update.
    round: u64,
    /// Virtual time the payload reaches the server.
    deliver_s: f64,
    update: MaskedUpdate,
}

/// The current global model, as published by the server.
#[derive(Debug, Clone)]
struct GlobalModel {
    params: Vec<f64>,
    /// Aggregation generation (0 = the initial model all clients hold).
    version: u64,
    /// Server round whose cutoff produced this version (trace parentage:
    /// a broadcast of this version parents under that round's aggregation
    /// span).
    round: u64,
    /// Virtual time the broadcast of this version started.
    publish_s: f64,
}

/// State shared between the client loops and the server loop.
struct Shared {
    net: Mutex<SimNetwork>,
    inbox: Mutex<Vec<Delivery>>,
    global: Mutex<GlobalModel>,
    /// Causal tracer (disabled unless the run was started traced).
    tracer: Arc<FleetTracer>,
    /// Seed all round trace ids derive from.
    trace_seed: u64,
}

/// Server-side aggregation accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Server ticks that aggregated at least one update.
    pub rounds_aggregated: u64,
    /// Aggregations that saw only a strict subset of the fleet.
    pub partial_rounds: u64,
    /// Server ticks that found nothing delivered (global unchanged).
    pub empty_rounds: u64,
    /// Updates that arrived one or more full rounds after the one they were
    /// trained in (straggler cutoff missed).
    pub late_updates: u64,
    /// Updates aggregated in total.
    pub aggregated_updates: u64,
}

/// A federated client as a schedulable loop: download → train → upload.
struct FedClientLoop {
    client: Client,
    shared: Arc<Shared>,
    epochs: usize,
    name: String,
    telemetry: LoopTelemetry,
    tick_start_s: f64,
    tick_idx: u64,
    /// Wire quantization from the arbiter's stretch (bits per parameter).
    wire_bits: u8,
    /// Latest version a downlink transfer was drawn for (drawn once each).
    checked_version: u64,
    /// A delivered-but-not-yet-arrived broadcast:
    /// (version, producing round, ready_s, params).
    pending: Option<(u64, u64, f64, Vec<f64>)>,
}

impl FedClientLoop {
    /// Pull the newest published global. The downlink transfer for a version
    /// is drawn exactly once (when first observed); the payload is adopted
    /// at the first tick that starts after its delivery time. A lost
    /// broadcast means training on stale parameters until the next version.
    fn maybe_download(&mut self) {
        let (version, round, publish_s, params) = {
            let g = self.shared.global.lock().unwrap_or_else(|e| e.into_inner());
            if g.version <= self.checked_version {
                (0, 0, 0.0, None)
            } else {
                (g.version, g.round, g.publish_s, Some(g.params.clone()))
            }
        };
        if let Some(params) = params {
            self.checked_version = version;
            let id = self.client.id as u64;
            // Broadcast at 16-bit wire precision.
            let bytes = (params.len() as u64 * 16).div_ceil(8);
            let tracer = &self.shared.tracer;
            let bctx = broadcast_context(self.shared.trace_seed, round, id);
            let t = self
                .shared
                .net
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .transfer(SimNetwork::SERVER, id, bytes, publish_s, tracer, &bctx);
            let (end_s, ok) = (publish_s + t.delay_s, t.delivered);
            tracer.record(bctx.span(SpanKind::Broadcast, id, version, publish_s, end_s, ok));
            if ok {
                self.pending = Some((version, round, end_s, params));
            }
        }
        if let Some((version, round, ready_s, params)) = self.pending.take() {
            if ready_s <= self.tick_start_s {
                self.client.set_params_flat(&params);
                let bytes = (params.len() as u64 * 16).div_ceil(8);
                self.telemetry.record_comm_rx(bytes);
                let id = self.client.id as u64;
                let actx = broadcast_context(self.shared.trace_seed, round, id)
                    .child(&[SpanKind::Adopt.tag()]);
                let at_s = self.tick_start_s;
                let adopt = actx.span(SpanKind::Adopt, id, version, at_s, at_s, true);
                self.shared.tracer.record(adopt);
            } else {
                self.pending = Some((version, round, ready_s, params));
            }
        }
    }
}

impl DynLoop for FedClientLoop {
    fn name(&self) -> &str {
        &self.name
    }

    fn set_tick_start(&mut self, start_s: f64) {
        self.tick_start_s = start_s;
    }

    fn tick_once(&mut self) -> TickOutcome {
        self.maybe_download();
        let _ = self.client.local_train(self.epochs);
        let latency_s = self.client.round_latency_s(self.epochs);
        let energy_j = self.client.round_energy_j(self.epochs);
        // Upload the masked update; the wire quantization is the arbiter's
        // communication throttle.
        let bytes = self.client.upload_bytes(self.wire_bits);
        let send_s = self.tick_start_s + latency_s;
        let id = self.client.id as u64;
        let tracer = &self.shared.tracer;
        let ctx = client_tick_context(self.shared.trace_seed, self.tick_idx, id);
        let (start_s, tick_idx) = (self.tick_start_s, self.tick_idx);
        tracer.record(ctx.span(SpanKind::ClientTick, id, tick_idx, start_s, send_s, true));
        let t = self
            .shared
            .net
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .transfer(id, SimNetwork::SERVER, bytes, send_s, tracer, &ctx);
        self.telemetry
            .record_comm_tx(bytes, t.attempts - 1, t.delivered, t.delay_s);
        if t.delivered {
            let delivery = Delivery {
                client: self.client.id,
                round: self.tick_idx,
                deliver_s: send_s + t.delay_s,
                update: MaskedUpdate::of(&mut self.client),
            };
            self.shared
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(delivery);
        }
        self.tick_idx += 1;
        self.telemetry.record(energy_j, latency_s, Trust::Trusted);
        TickOutcome {
            energy_j,
            latency_s,
            comm_s: t.delay_s,
            faults: 0,
        }
    }

    fn telemetry(&self) -> &LoopTelemetry {
        &self.telemetry
    }

    fn record_deadline_miss(&mut self, latency_s: f64, budget_s: f64) {
        self.telemetry.record_fault(&StageError::Timeout {
            latency_s,
            budget_s,
        });
    }

    fn set_energy_stretch(&mut self, stretch: f64) {
        self.wire_bits = EnergyArbiter::wire_bits(stretch);
    }
}

/// Cost of folding one update into the running aggregate (s) — a small,
/// fixed server-side charge so aggregation isn't free.
const AGG_LATENCY_PER_UPDATE_S: f64 = 2e-6;
/// Fixed per-aggregation overhead (s).
const AGG_LATENCY_BASE_S: f64 = 1e-4;
/// Server energy per aggregated update (J).
const AGG_ENERGY_PER_UPDATE_J: f64 = 1e-6;

/// Drain everything the network delivered by `cutoff_s` — the straggler
/// cutoff — and aggregate it into a new global version. `round` is the
/// server round performing the cutoff (for late-update accounting). Returns
/// the number of updates folded in.
fn drain_and_aggregate(
    shared: &Shared,
    stats: &Mutex<ServerStats>,
    fleet_size: usize,
    cutoff_s: f64,
    round: u64,
) -> usize {
    let mut arrived: Vec<Delivery> = {
        let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
        let (ready, pending): (Vec<Delivery>, Vec<Delivery>) =
            inbox.drain(..).partition(|d| d.deliver_s <= cutoff_s);
        *inbox = pending;
        ready
    };
    // Aggregation order must not depend on inbox push order (threaded mode
    // interleaves pushes): sort by delivery time, then client.
    arrived.sort_by(|a, b| {
        a.deliver_s
            .total_cmp(&b.deliver_s)
            .then(a.client.cmp(&b.client))
    });
    let mut stats = stats.lock().unwrap_or_else(|e| e.into_inner());
    if arrived.is_empty() {
        stats.empty_rounds += 1;
        return 0;
    }
    stats.rounds_aggregated += 1;
    stats.aggregated_updates += arrived.len() as u64;
    if arrived.len() < fleet_size {
        stats.partial_rounds += 1;
    }
    // An on-time update was trained in the round just ended; anything older
    // crossed at least one extra cutoff.
    stats.late_updates += arrived.iter().filter(|d| d.round + 1 < round).count() as u64;
    drop(stats);
    let updates: Vec<MaskedUpdate> = arrived.into_iter().map(|d| d.update).collect();
    let mut g = shared.global.lock().unwrap_or_else(|e| e.into_inner());
    g.params = aggregate_masked(&updates, &g.params);
    g.version += 1;
    g.round = round;
    g.publish_s = cutoff_s + AGG_LATENCY_BASE_S + AGG_LATENCY_PER_UPDATE_S * updates.len() as f64;
    let publish_s = g.publish_s;
    drop(g);
    let (kind, n) = (SpanKind::ServerAggregate, updates.len() as u64);
    let actx = round_aggregate_context(shared.trace_seed, round);
    let span = actx.span(kind, SimNetwork::SERVER, n, cutoff_s, publish_s, true);
    shared.tracer.record(span);
    updates.len()
}

/// The aggregation server as a loop ticking once per round period.
struct FedServerLoop {
    shared: Arc<Shared>,
    telemetry: LoopTelemetry,
    tick_start_s: f64,
    round: u64,
    /// Cutoff of the previous round — the start of the current one's span.
    last_cutoff_s: f64,
    stats: Arc<Mutex<ServerStats>>,
    fleet_size: usize,
}

impl DynLoop for FedServerLoop {
    fn name(&self) -> &str {
        "fed-server"
    }

    fn set_tick_start(&mut self, start_s: f64) {
        self.tick_start_s = start_s;
    }

    fn tick_once(&mut self) -> TickOutcome {
        let aggregated = drain_and_aggregate(
            &self.shared,
            &self.stats,
            self.fleet_size,
            self.tick_start_s,
            self.round,
        );
        if self.shared.tracer.is_enabled() {
            // The round's root span: previous cutoff to this one (extended
            // to the publish instant when the cutoff aggregated anything).
            let root = round_trace_root(self.shared.trace_seed, self.round);
            let end_s = if aggregated > 0 {
                self.shared
                    .global
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .publish_s
            } else {
                self.tick_start_s
            };
            let (node, start_s, ok) = (SimNetwork::SERVER, self.last_cutoff_s, aggregated > 0);
            let span = root.span(SpanKind::Round, node, self.round, start_s, end_s, ok);
            self.shared.tracer.record(span);
        }
        self.last_cutoff_s = self.tick_start_s;
        self.round += 1;
        let latency_s = AGG_LATENCY_BASE_S + AGG_LATENCY_PER_UPDATE_S * aggregated as f64;
        let energy_j = AGG_ENERGY_PER_UPDATE_J * aggregated.max(1) as f64;
        self.telemetry.record(energy_j, latency_s, Trust::Trusted);
        TickOutcome {
            energy_j,
            latency_s,
            comm_s: 0.0,
            faults: 0,
        }
    }

    fn telemetry(&self) -> &LoopTelemetry {
        &self.telemetry
    }

    fn record_deadline_miss(&mut self, latency_s: f64, budget_s: f64) {
        self.telemetry.record_fault(&StageError::Timeout {
            latency_s,
            budget_s,
        });
    }
}

/// What one scheduled federated run did.
#[derive(Debug, Clone)]
pub struct FedFleetReport {
    /// Strategy evaluated.
    pub strategy: Strategy,
    /// Final global-model accuracy on held-out data.
    pub accuracy: f64,
    /// Total fleet energy (J), as charged through the scheduler.
    pub energy_j: f64,
    /// Measured virtual makespan of the scheduled run (s), comm included.
    pub makespan_s: f64,
    /// What the synchronous accounting would have reported (Σ over rounds of
    /// the slowest client) — the upper bound the scheduled path undercuts.
    pub sync_latency_s: f64,
    /// Round period used (s).
    pub round_period_s: f64,
    /// Combined fleet ⊕ network trace hash — bit-for-bit reproducible from
    /// the two seeds.
    pub trace_hash: u64,
    /// FNV-1a hash of the causal-span stream's JSONL export (0 when the run
    /// was untraced). Two identically-seeded traced runs agree bit-for-bit.
    pub span_stream_hash: u64,
    /// Server-side aggregation accounting.
    pub server: ServerStats,
    /// Network counters (sent/delivered/dropped/retransmits/bytes).
    pub net: NetCounters,
    /// The underlying scheduler report (per-loop stats, utilization, …).
    pub fleet: FleetReport,
}

/// Mean fraction of the fleet participating per aggregated round.
impl FedFleetReport {
    /// Average updates folded per non-empty aggregation, over fleet size.
    pub fn mean_participation(&self, fleet_size: usize) -> f64 {
        if self.server.rounds_aggregated == 0 || fleet_size == 0 {
            return 0.0;
        }
        self.server.aggregated_updates as f64
            / self.server.rounds_aggregated as f64
            / fleet_size as f64
    }
}

/// Derive a round period: the median client's compute plus a network
/// round-trip estimate, with 25% slack — the median client makes every
/// cutoff, the slow tail straggles.
fn derive_round_period(clients: &[Client], epochs: usize, net: &NetworkConfig) -> f64 {
    let mut lat: Vec<f64> = clients.iter().map(|c| c.round_latency_s(epochs)).collect();
    lat.sort_by(f64::total_cmp);
    let median = lat[lat.len() / 2];
    let bytes = clients
        .iter()
        .map(|c| c.upload_bytes(16))
        .max()
        .unwrap_or(0) as f64;
    let serialize = if net.bandwidth_bytes_per_s > 0.0 {
        bytes / net.bandwidth_bytes_per_s
    } else {
        0.0
    };
    let comm = net.base_latency_s + net.jitter_s + serialize;
    (median * 1.25 + comm).max(1e-6)
}

/// Run federated training through the [`FleetScheduler`] over a
/// `SimNetwork`, deterministically under a [`SimClock`].
///
/// Rounds are *online*: the server aggregates whatever the network delivered
/// by each round-period cutoff (partial aggregation), stragglers land late,
/// and an upload lost to the network or a partition simply never arrives.
/// After the horizon, one closing aggregation drains anything still
/// delivered in flight, so the final round's uploads are not orphaned.
///
/// The shared `tracer` collects the full cross-layer span stream — scheduler
/// ticks and comm tails, client ticks, every network send/retry/deliver/drop,
/// round roots, server aggregations, broadcasts, and adoptions — with all ids
/// derived from the two seeds, so one federated round reconstructs
/// end-to-end as a span tree and two identically-seeded runs export
/// bit-identical streams ([`FedFleetReport::span_stream_hash`]). Pass
/// `Arc::new(FleetTracer::disabled())` to run untraced.
///
/// # Panics
///
/// Panics if `clients` is empty.
pub fn run_federated_scheduled(
    mut clients: Vec<Client>,
    strategy: Strategy,
    config: &FedFleetConfig,
    net_config: NetworkConfig,
    test: &Dataset,
    partitions: &[(u64, f64, f64)],
    tracer: Arc<FleetTracer>,
) -> FedFleetReport {
    assert!(!clients.is_empty(), "no clients");
    apply_strategy(&mut clients, strategy);
    let fleet_size = clients.len();
    let epochs = config.local_epochs;
    let sync_latency_s = config.rounds as f64
        * clients
            .iter()
            .map(|c| c.round_latency_s(epochs))
            .fold(0.0, f64::max);
    let period_s = config
        .round_period_s
        .unwrap_or_else(|| derive_round_period(&clients, epochs, &net_config));

    // Everyone starts from client 0's init (the same convention as the
    // synchronous path).
    let global0 = clients[0].params_flat();
    for c in clients.iter_mut() {
        c.set_params_flat(&global0);
    }
    let mut net = SimNetwork::new(net_config);
    for &(node, from_s, until_s) in partitions {
        net.partition(node, from_s, until_s);
    }
    // One trace seed covers the whole plane: scheduler, network, and round
    // span ids all re-derive from the same pair of run seeds.
    let trace_seed = fnv1a_words(FNV_OFFSET, &[config.seed, net_config.seed]);
    let shared = Arc::new(Shared {
        net: Mutex::new(net),
        inbox: Mutex::new(Vec::new()),
        global: Mutex::new(GlobalModel {
            params: global0,
            version: 0,
            round: 0,
            publish_s: 0.0,
        }),
        tracer: Arc::clone(&tracer),
        trace_seed,
    });
    let server_stats = Arc::new(Mutex::new(ServerStats::default()));

    let mut sched = FleetScheduler::new(FleetConfig {
        workers: config.workers,
        watts_cap: config.watts_cap,
        seed: config.seed,
    });
    sched.set_tracer(Arc::clone(&tracer));
    for client in clients {
        let name = format!("fed-client-{}", client.id);
        sched.register(
            LoopHandle::from_dyn(Box::new(FedClientLoop {
                client,
                shared: shared.clone(),
                epochs,
                name,
                telemetry: LoopTelemetry::new(),
                tick_start_s: 0.0,
                tick_idx: 0,
                wire_bits: 16,
                checked_version: 0,
                pending: None,
            })),
            LoopSpec::periodic(period_s).with_budget(period_s),
        );
    }
    // The server is a member of the same fleet (registered last, so client
    // ids equal loop indices).
    sched.register(
        LoopHandle::from_dyn(Box::new(FedServerLoop {
            shared: shared.clone(),
            telemetry: LoopTelemetry::new(),
            tick_start_s: 0.0,
            round: 0,
            last_cutoff_s: 0.0,
            stats: server_stats.clone(),
            fleet_size,
        })),
        LoopSpec::periodic(period_s),
    );

    let horizon_s = config.rounds as f64 * period_s;
    let mut clock = SimClock::new();
    let fleet_report = sched.run_deterministic(horizon_s, &mut clock);
    // Closing aggregation: the final round's uploads complete after the last
    // in-horizon server tick — drain anything delivered by the fleet's end.
    let _ = drain_and_aggregate(
        &shared,
        &server_stats,
        fleet_size,
        fleet_report.makespan_s.max(horizon_s),
        config.rounds as u64,
    );

    // Evaluate the final global on a fresh full-width model (server-side).
    let final_global = shared
        .global
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .params
        .clone();
    let mut eval = Client::new(
        fleet_size,
        Dataset::default(),
        crate::client::HardwareTier::EdgeGpu,
        0,
    );
    eval.set_params_flat(&final_global);
    let accuracy = eval.evaluate(test);

    let net = shared.net.lock().unwrap_or_else(|e| e.into_inner());
    let trace_hash = fnv1a_words(FNV_OFFSET, &[fleet_report.trace_hash, net.trace_hash()]);
    let net_counters = net.counters();
    drop(net);
    let span_stream_hash = if tracer.is_enabled() {
        trace_stream_hash(&tracer.spans())
    } else {
        0
    };
    let server_stats = *server_stats.lock().unwrap_or_else(|e| e.into_inner());
    FedFleetReport {
        strategy,
        accuracy,
        energy_j: fleet_report.energy_j,
        makespan_s: fleet_report.makespan_s,
        sync_latency_s,
        round_period_s: period_s,
        trace_hash,
        span_stream_hash,
        server: server_stats,
        net: net_counters,
        fleet: fleet_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HardwareTier;
    use sensact_core::CausalSpan;

    /// A small heterogeneous fleet over a non-IID split (mirrors
    /// `server::tests::fleet`).
    fn fleet(n: usize, seed: u64) -> (Vec<Client>, Dataset) {
        let all = Dataset::generate(1200, seed);
        let parts = all.split_noniid(n, seed);
        let tiers = [
            HardwareTier::EdgeGpu,
            HardwareTier::Mobile,
            HardwareTier::Mcu,
        ];
        let clients = parts
            .into_iter()
            .enumerate()
            .map(|(i, d)| Client::new(i, d, tiers[i % 3], seed ^ (i as u64) << 4))
            .collect();
        let test = Dataset::generate(300, seed ^ 0xFF);
        (clients, test)
    }

    /// Satellite (cost accounting): on a loss-free network the scheduled
    /// path's measured makespan must undercut the synchronous accounting
    /// (Σ over rounds of the slowest client) — straggler cutoffs mean
    /// nobody waits for the slowest client.
    #[test]
    fn scheduled_makespan_undercuts_synchronous_accounting() {
        let (clients, test) = fleet(6, 5);
        let config = FedFleetConfig {
            rounds: 4,
            local_epochs: 4,
            ..FedFleetConfig::default()
        };
        let report = run_federated_scheduled(
            clients,
            Strategy::Static,
            &config,
            NetworkConfig::ideal(),
            &test,
            &[],
            Arc::new(FleetTracer::disabled()),
        );
        assert!(
            report.makespan_s < report.sync_latency_s,
            "scheduled {} must be below sync {}",
            report.makespan_s,
            report.sync_latency_s
        );
        assert!(report.makespan_s > 0.0);
        // Loss-free: every sent message is delivered.
        assert_eq!(report.net.msgs_dropped, 0);
        assert_eq!(report.net.retransmits, 0);
        assert!(report.server.rounds_aggregated > 0);
        // The federation still learns.
        assert!(report.accuracy > 0.4, "accuracy {}", report.accuracy);
    }

    /// Same seeds ⇒ identical combined trace hash, accuracy bits, and
    /// counters; different network seed ⇒ the delivery schedule diverges.
    #[test]
    fn scheduled_run_reproduces_from_seeds() {
        let run = |net_seed: u64| {
            let (clients, test) = fleet(5, 9);
            let config = FedFleetConfig {
                rounds: 3,
                local_epochs: 2,
                seed: 7,
                ..FedFleetConfig::default()
            };
            let net = NetworkConfig::edge(net_seed).with_loss(0.1);
            let r = run_federated_scheduled(
                clients,
                Strategy::DcNas,
                &config,
                net,
                &test,
                &[],
                Arc::new(FleetTracer::disabled()),
            );
            (r.trace_hash, r.accuracy.to_bits(), r.net, r.server)
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a, b, "same seeds must reproduce bit-for-bit");
        let c = run(4);
        assert_ne!(a.0, c.0, "a different network seed must re-draw");
    }

    /// The arbiter's stretch reaches the wire: a client stretched 4× uploads
    /// a quarter of the bytes of an unthrottled (16-bit) one.
    #[test]
    fn energy_stretch_shrinks_uploads_on_the_wire() {
        let mut client = Client::new(0, Dataset::generate(40, 1), HardwareTier::Mobile, 1);
        let global0 = client.params_flat();
        let shared = Arc::new(Shared {
            net: Mutex::new(SimNetwork::new(NetworkConfig::ideal())),
            inbox: Mutex::new(Vec::new()),
            global: Mutex::new(GlobalModel {
                params: global0,
                version: 0,
                round: 0,
                publish_s: 0.0,
            }),
            tracer: Arc::new(FleetTracer::disabled()),
            trace_seed: 0,
        });
        let mut lp = FedClientLoop {
            client,
            shared: shared.clone(),
            epochs: 1,
            name: "fed-client-0".into(),
            telemetry: LoopTelemetry::new(),
            tick_start_s: 0.0,
            tick_idx: 0,
            wire_bits: 16,
            checked_version: 0,
            pending: None,
        };
        let bytes_delivered = || {
            shared
                .net
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .counters()
                .bytes_delivered
        };
        let _ = lp.tick_once();
        let full = bytes_delivered();
        lp.set_energy_stretch(4.0);
        lp.set_tick_start(1.0);
        let _ = lp.tick_once();
        let squeezed = bytes_delivered() - full;
        assert!(full > 0 && squeezed > 0);
        assert_eq!(
            squeezed,
            full.div_ceil(4),
            "a 4× stretch must quarter the 16-bit upload ({full} → {squeezed})"
        );
        // A 2× stretch halves instead.
        lp.set_energy_stretch(2.0);
        lp.set_tick_start(2.0);
        let before = bytes_delivered();
        let _ = lp.tick_once();
        assert_eq!(bytes_delivered() - before, full.div_ceil(2));
    }

    /// One aggregated round of a traced run reconstructs end-to-end as a
    /// span tree — client tick → uplink sends → server aggregation →
    /// broadcast → adoption — with every id re-derivable from the two run
    /// seeds alone, and the exported stream bit-identical across runs.
    #[test]
    fn traced_round_reconstructs_as_a_span_tree() {
        use std::collections::HashMap;
        let run = || {
            let (clients, test) = fleet(5, 9);
            let config = FedFleetConfig {
                rounds: 3,
                local_epochs: 1,
                seed: 7,
                ..FedFleetConfig::default()
            };
            let net = NetworkConfig::edge(3).with_loss(0.05);
            let tracer = Arc::new(FleetTracer::new());
            let report = run_federated_scheduled(
                clients,
                Strategy::DcNas,
                &config,
                net,
                &test,
                &[],
                Arc::clone(&tracer),
            );
            (report, tracer.spans())
        };
        let (a, spans) = run();
        let (b, spans_b) = run();
        assert_ne!(a.span_stream_hash, 0, "traced run must export spans");
        assert_eq!(
            a.span_stream_hash, b.span_stream_hash,
            "span stream must reproduce bit-for-bit from the seeds"
        );
        assert_eq!(spans.len(), spans_b.len());
        assert_eq!(a.trace_hash, b.trace_hash);

        let trace_seed = fnv1a_words(FNV_OFFSET, &[7, 3]);
        let by_id: HashMap<u64, &CausalSpan> = spans.iter().map(|s| (s.span_id, s)).collect();

        // An aggregated round's root re-derives from the seeds alone.
        let round_span = spans
            .iter()
            .find(|s| s.kind == SpanKind::Round && s.ok)
            .expect("at least one aggregated round");
        let round = round_span.detail;
        let root = round_trace_root(trace_seed, round);
        assert_eq!(
            (
                round_span.trace_id,
                round_span.span_id,
                round_span.parent_id
            ),
            (root.trace_id, root.span_id, 0)
        );

        // Its server aggregation hangs off the root …
        let agg = round_aggregate_context(trace_seed, round);
        let agg_span = by_id.get(&agg.span_id).expect("aggregate span recorded");
        assert_eq!(agg_span.kind, SpanKind::ServerAggregate);
        assert_eq!(agg_span.parent_id, round_span.span_id);
        assert!(
            agg_span.detail > 0,
            "an ok round folded at least one update"
        );

        // … fed by the previous period's client ticks (tick r-1 uploads
        // into round r), each parenting its own uplink sends.
        let ticks: Vec<&CausalSpan> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::ClientTick && s.trace_id == root.trace_id)
            .collect();
        assert!(!ticks.is_empty(), "round has feeding client ticks");
        for t in &ticks {
            assert_eq!(t.parent_id, root.span_id);
            let expect = client_tick_context(trace_seed, round - 1, t.node);
            assert_eq!((expect.trace_id, expect.span_id), (t.trace_id, t.span_id));
        }

        // Broadcasts of this round's model hang off its aggregation, and
        // every adoption off the broadcast that delivered it.
        let bcasts: Vec<&CausalSpan> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Broadcast && s.parent_id == agg_span.span_id)
            .collect();
        assert!(!bcasts.is_empty(), "aggregated model gets broadcast");
        for bc in &bcasts {
            assert_eq!(
                broadcast_context(trace_seed, round, bc.node).span_id,
                bc.span_id
            );
        }
        let adopt_spans: Vec<&CausalSpan> =
            spans.iter().filter(|s| s.kind == SpanKind::Adopt).collect();
        assert!(
            !adopt_spans.is_empty(),
            "at least one client adopts a global"
        );
        for s in &adopt_spans {
            assert_eq!(by_id[&s.parent_id].kind, SpanKind::Broadcast);
        }

        // Network spans link under their owning tick or broadcast, retries
        // and terminals under their send.
        for s in spans.iter().filter(|s| s.kind == SpanKind::NetSend) {
            let parent = by_id.get(&s.parent_id).expect("send has a recorded parent");
            assert!(matches!(
                parent.kind,
                SpanKind::ClientTick | SpanKind::Broadcast
            ));
        }
        for s in spans.iter().filter(|s| {
            matches!(
                s.kind,
                SpanKind::NetRetry | SpanKind::NetDeliver | SpanKind::NetDrop
            )
        }) {
            assert_eq!(by_id[&s.parent_id].kind, SpanKind::NetSend);
        }

        // Scheduler ticks ride the same stream (the fed tracer is shared
        // with the fleet scheduler).
        assert!(spans.iter().any(|s| s.kind == SpanKind::SchedTick));
    }

    /// A fleet burning past its watts cap gets throttled: releases stretch,
    /// so the capped run ticks less often and ships fewer bytes overall.
    #[test]
    fn watts_cap_throttles_communication() {
        let run = |watts_cap: Option<f64>| {
            let (clients, test) = fleet(4, 13);
            let config = FedFleetConfig {
                rounds: 6,
                local_epochs: 4,
                watts_cap,
                ..FedFleetConfig::default()
            };
            run_federated_scheduled(
                clients,
                Strategy::Static,
                &config,
                NetworkConfig::ideal(),
                &test,
                &[],
                Arc::new(FleetTracer::disabled()),
            )
        };
        let free = run(None);
        let capped = run(Some(1e-9));
        assert_eq!(free.fleet.throttle_events, 0);
        assert!(capped.fleet.throttle_events > 0, "cap must throttle");
        assert!(
            capped.fleet.ticks < free.fleet.ticks,
            "stretched strides must cut ticks: {} vs {}",
            capped.fleet.ticks,
            free.fleet.ticks
        );
        assert!(capped.net.bytes_delivered < free.net.bytes_delivered);
    }

    #[test]
    #[should_panic(expected = "no clients")]
    fn empty_fleet_panics() {
        let test = Dataset::generate(10, 0);
        let _ = run_federated_scheduled(
            Vec::new(),
            Strategy::Static,
            &FedFleetConfig::default(),
            NetworkConfig::ideal(),
            &test,
            &[],
            Arc::new(FleetTracer::disabled()),
        );
    }
}
