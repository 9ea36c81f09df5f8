//! Deterministic simulated network between federated clients and server.
//!
//! The paper's Fig. 11 argument is that sensing, computation, and
//! *communication* must be co-scheduled; this module makes communication a
//! real, schedulable resource. Every transfer over a link draws its latency,
//! loss, and retries from hash-keyed pseudo-random streams — a draw depends
//! only on `(seed, src, dst, message index, attempt)`, never on execution
//! order — so a fleet run's delivery schedule is a pure function of the
//! seed, reproducible bit-for-bit regardless of how loop ticks interleave.
//!
//! Impairments modeled:
//!
//! * **Per-link latency distributions** — base propagation delay plus
//!   uniform jitter, plus serialization time (`bytes / bandwidth`).
//! * **Packet loss** — each attempt drops i.i.d. with probability `loss`;
//!   a dropped attempt costs a retry timeout before the next try.
//! * **Stragglers** — a seeded fraction of links carries a latency
//!   multiplier (a slow last-mile radio), the network-side source of
//!   federated straggler clients.
//! * **Partitions** — a node cut from the network over a virtual-time
//!   window; every attempt sent while either endpoint is partitioned drops.
//!
//! The network keeps an order-insensitive trace accumulator
//! (`SimNetwork::trace_hash`) folding every transfer's
//! `(link, msg, attempts, delivered, delay)` — two runs delivering the same
//! schedule agree on the hash, and a single reordered or re-drawn delivery
//! diverges.

use sensact_core::export::{fnv1a_words, FNV_OFFSET};
use sensact_core::{CausalSpan, FleetTracer, SpanKind, TraceContext};
use sensact_math::rng::splitmix64_finalize;
use std::collections::HashMap;

/// Simulated network parameters. All rates/latencies are in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Seed for every stochastic draw (latency jitter, loss, stragglers).
    pub seed: u64,
    /// Base one-way propagation latency (s).
    pub base_latency_s: f64,
    /// Uniform jitter amplitude added to each attempt's latency (s).
    pub jitter_s: f64,
    /// Link bandwidth (bytes per virtual second) for serialization time.
    pub bandwidth_bytes_per_s: f64,
    /// Per-attempt drop probability in `[0, 1)`.
    pub loss: f64,
    /// Retransmissions after a lost attempt (total attempts = 1 + retries).
    pub max_retries: u32,
    /// Time burned waiting out a lost attempt before retrying (s).
    pub retry_timeout_s: f64,
    /// Fraction of links that are stragglers in `[0, 1]`.
    pub straggler_fraction: f64,
    /// Latency multiplier on straggler links (≥ 1).
    pub straggler_factor: f64,
}

impl NetworkConfig {
    /// A loss-free, jitter-free, straggler-free network — the baseline for
    /// cost-accounting comparisons.
    pub fn ideal() -> Self {
        NetworkConfig {
            seed: 0,
            base_latency_s: 2e-3,
            jitter_s: 0.0,
            bandwidth_bytes_per_s: 1e7,
            loss: 0.0,
            max_retries: 0,
            retry_timeout_s: 0.0,
            straggler_fraction: 0.0,
            straggler_factor: 1.0,
        }
    }

    /// A WAN-ish edge uplink: tens of milliseconds, some jitter, retries.
    pub fn edge(seed: u64) -> Self {
        NetworkConfig {
            seed,
            base_latency_s: 2e-2,
            jitter_s: 1e-2,
            bandwidth_bytes_per_s: 1e6,
            loss: 0.02,
            max_retries: 2,
            retry_timeout_s: 5e-2,
            straggler_fraction: 0.1,
            straggler_factor: 8.0,
        }
    }

    /// This config with a different loss rate.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 0.999);
        self
    }

    /// This config with a different straggler fraction.
    pub fn with_stragglers(mut self, fraction: f64, factor: f64) -> Self {
        self.straggler_fraction = fraction.clamp(0.0, 1.0);
        self.straggler_factor = factor.max(1.0);
        self
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::edge(0)
    }
}

/// Outcome of one transfer over a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transfer {
    /// Whether the payload arrived (false: all attempts lost or partitioned).
    pub delivered: bool,
    /// Time from send to delivery — or to giving up (s). Includes
    /// serialization, propagation, jitter, and retry timeouts.
    pub delay_s: f64,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Payload size (bytes).
    pub bytes: u64,
}

/// Aggregate network counters (mirrors
/// `CommCounters` at fleet scope).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Transfers initiated.
    pub msgs_sent: u64,
    /// Transfers delivered.
    pub msgs_delivered: u64,
    /// Transfers that exhausted retries (or died in a partition).
    pub msgs_dropped: u64,
    /// Retransmission attempts beyond each transfer's first.
    pub retransmits: u64,
    /// Delivered payload bytes.
    pub bytes_delivered: u64,
}

/// The deterministic network. One instance is shared by a federated fleet;
/// node ids are arbitrary (clients use their client id, the server uses
/// [`SimNetwork::SERVER`] by convention at fleet scope).
#[derive(Debug, Clone)]
pub(crate) struct SimNetwork {
    config: NetworkConfig,
    /// Per-link monotone message counters: the stream index of each draw.
    links: HashMap<(u64, u64), u64>,
    /// Node partitions as virtual-time windows `[from_s, until_s)`.
    partitions: Vec<(u64, f64, f64)>,
    counters: NetCounters,
    trace: u64,
}

/// SplitMix64 over a composite key — the pure function behind every draw.
fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for (i, &p) in parts.iter().enumerate() {
        x ^= p.wrapping_mul(0xBF58_476D_1CE4_E5B9u64.wrapping_add(i as u64 * 2));
        x = splitmix64_finalize(x.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }
    x
}

/// Map a hash to a uniform f64 in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const STRAGGLER_SALT: u64 = 0x5752_4541_4C4C_5953; // "straggler" stream
const LOSS_SALT: u64 = 0x4C4F_5353_4C4F_5353; // loss stream
const JITTER_SALT: u64 = 0x4A49_5454_4552_0000; // jitter stream

impl SimNetwork {
    /// Conventional server node id at fleet scope (clients use their index).
    pub(crate) const SERVER: u64 = u64::MAX;

    /// A fresh network under a config.
    pub(crate) fn new(config: NetworkConfig) -> Self {
        SimNetwork {
            config,
            links: HashMap::new(),
            partitions: Vec::new(),
            counters: NetCounters::default(),
            trace: FNV_OFFSET,
        }
    }

    /// Cut `node` from the network over `[from_s, until_s)`: every attempt
    /// it sends or receives in the window is dropped.
    pub(crate) fn partition(&mut self, node: u64, from_s: f64, until_s: f64) {
        self.partitions.push((node, from_s, until_s));
    }

    /// Whether `node` is cut off at virtual time `t_s`.
    pub(crate) fn is_partitioned(&self, node: u64, t_s: f64) -> bool {
        self.partitions
            .iter()
            .any(|&(n, from, until)| n == node && t_s >= from && t_s < until)
    }

    /// Whether the `src → dst` link is a straggler (a pure function of the
    /// seed, stable for the run).
    pub(crate) fn is_straggler_link(&self, src: u64, dst: u64) -> bool {
        unit(mix(self.config.seed ^ STRAGGLER_SALT, &[src, dst])) < self.config.straggler_fraction
    }

    /// Send `bytes` from `src` to `dst` at virtual time `send_s`, drawing
    /// loss and latency per attempt. The outcome depends only on the seed,
    /// the link, how many transfers this link has carried, and the partition
    /// windows covering the attempts — not on call order across links.
    ///
    /// When `tracer` is enabled the transfer also records causal spans under
    /// `parent`: a `NetSend` span covering the whole transfer, one
    /// `NetRetry` child per re-attempt, and a terminal `NetDeliver` or
    /// `NetDrop` child at the destination. The message "carries" its context
    /// without serialising it — span ids are pure functions of
    /// `(parent, link, msg index, attempt)`, so the receiving side can
    /// re-derive them. The tracer never changes the outcome: it observes
    /// the schedule, never perturbs it.
    pub(crate) fn transfer(
        &mut self,
        src: u64,
        dst: u64,
        bytes: u64,
        send_s: f64,
        tracer: &FleetTracer,
        parent: &TraceContext,
    ) -> Transfer {
        let msg = {
            let counter = self.links.entry((src, dst)).or_insert(0);
            let m = *counter;
            *counter += 1;
            m
        };
        let cfg = self.config;
        let serialize_s = if cfg.bandwidth_bytes_per_s > 0.0 {
            bytes as f64 / cfg.bandwidth_bytes_per_s
        } else {
            0.0
        };
        let straggle = if self.is_straggler_link(src, dst) {
            cfg.straggler_factor
        } else {
            1.0
        };
        let send = tracer
            .is_enabled()
            .then(|| parent.child(&[SpanKind::NetSend.tag(), src, dst, msg]));
        let mut retry_spans: Vec<CausalSpan> = Vec::new();
        let mut elapsed_s = serialize_s;
        let mut delivered = false;
        let mut attempts = 0u32;
        for attempt in 0..=cfg.max_retries {
            attempts = attempt + 1;
            let attempt_start_s = send_s + elapsed_s;
            let cut = self.is_partitioned(src, attempt_start_s)
                || self.is_partitioned(dst, attempt_start_s);
            let lost = unit(mix(cfg.seed ^ LOSS_SALT, &[src, dst, msg, attempt as u64])) < cfg.loss;
            let ok = !(cut || lost);
            if ok {
                let jitter = unit(mix(
                    cfg.seed ^ JITTER_SALT,
                    &[src, dst, msg, attempt as u64],
                )) * cfg.jitter_s;
                elapsed_s += cfg.base_latency_s * straggle + jitter;
                delivered = true;
            } else {
                elapsed_s += cfg.retry_timeout_s.max(cfg.base_latency_s);
            }
            if let Some(send) = send.filter(|_| attempt > 0) {
                let (kind, detail) = (SpanKind::NetRetry, attempt as u64);
                let retry = send.child(&[kind.tag(), detail]);
                let end_s = send_s + elapsed_s;
                retry_spans.push(retry.span(kind, src, detail, attempt_start_s, end_s, ok));
            }
            if delivered {
                break;
            }
        }
        self.counters.msgs_sent += 1;
        if delivered {
            self.counters.msgs_delivered += 1;
            self.counters.bytes_delivered += bytes;
        } else {
            self.counters.msgs_dropped += 1;
        }
        self.counters.retransmits += (attempts - 1) as u64;
        // Order-insensitive trace accumulator: each transfer folds its own
        // FNV digest in with a commutative add, so the hash identifies the
        // *set* of deliveries (link, msg, outcome, delay) independent of call
        // interleaving across links — per-link order is already pinned by
        // the message counter.
        let digest = [src, dst, msg, delivered as u64, elapsed_s.to_bits()];
        self.trace = self.trace.wrapping_add(fnv1a_words(FNV_OFFSET, &digest));
        if let Some(send) = send {
            let end_s = send_s + elapsed_s;
            tracer.record(send.span(SpanKind::NetSend, src, msg, send_s, end_s, delivered));
            retry_spans.into_iter().for_each(|span| tracer.record(span));
            let kind = if delivered {
                SpanKind::NetDeliver
            } else {
                SpanKind::NetDrop
            };
            let terminal = send.child(&[kind.tag()]);
            tracer.record(terminal.span(kind, dst, attempts as u64, end_s, end_s, delivered));
        }
        Transfer {
            delivered,
            delay_s: elapsed_s,
            attempts,
            bytes,
        }
    }

    /// The run's delivery-schedule hash so far.
    pub(crate) fn trace_hash(&self) -> u64 {
        self.trace
    }

    /// Aggregate counters so far.
    pub(crate) fn counters(&self) -> NetCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transfer under a disabled tracer.
    fn send(net: &mut SimNetwork, src: u64, dst: u64, bytes: u64, send_s: f64) -> Transfer {
        let (tracer, parent) = (FleetTracer::disabled(), TraceContext::default());
        net.transfer(src, dst, bytes, send_s, &tracer, &parent)
    }

    #[test]
    fn ideal_network_delivers_first_try_with_fixed_delay() {
        let mut net = SimNetwork::new(NetworkConfig::ideal());
        let t = send(&mut net, 0, SimNetwork::SERVER, 1000, 0.0);
        assert!(t.delivered);
        assert_eq!(t.attempts, 1);
        // serialization 1000/1e7 + base 2e-3.
        assert!((t.delay_s - (1e-4 + 2e-3)).abs() < 1e-12, "{}", t.delay_s);
        let c = net.counters();
        assert_eq!(c.msgs_delivered, 1);
        assert_eq!(c.retransmits, 0);
        assert_eq!(c.bytes_delivered, 1000);
    }

    #[test]
    fn same_seed_same_schedule_different_seed_diverges() {
        let run = |seed: u64| {
            let mut net = SimNetwork::new(NetworkConfig::edge(seed).with_loss(0.3));
            let transfers: Vec<Transfer> = (0..50)
                .flat_map(|k| {
                    (0..4).map(move |src| (src, k)) // 4 links, 50 msgs each
                })
                .map(|(src, k)| send(&mut net, src, SimNetwork::SERVER, 500, k as f64 * 0.1))
                .collect();
            (transfers, net.trace_hash())
        };
        let (a, ha) = run(7);
        let (b, hb) = run(7);
        assert_eq!(a, b, "same seed must reproduce every transfer");
        assert_eq!(ha, hb);
        let (_, hc) = run(8);
        assert_ne!(ha, hc, "a different seed must re-draw the schedule");
    }

    #[test]
    fn trace_hash_is_insensitive_to_cross_link_interleaving() {
        // Two links; same per-link transfer sequences issued in different
        // global orders must agree on the hash (per-link msg counters pin
        // the stream indices).
        let cfg = NetworkConfig::edge(3).with_loss(0.2);
        let mut ab = SimNetwork::new(cfg);
        for k in 0..20 {
            let _ = send(&mut ab, 1, 9, 100, k as f64);
            let _ = send(&mut ab, 2, 9, 100, k as f64);
        }
        let mut ba = SimNetwork::new(cfg);
        for k in 0..20 {
            let _ = send(&mut ba, 2, 9, 100, k as f64);
            let _ = send(&mut ba, 1, 9, 100, k as f64);
        }
        assert_eq!(ab.trace_hash(), ba.trace_hash());
        assert_eq!(ab.counters(), ba.counters());
    }

    #[test]
    fn loss_forces_retransmits_and_total_loss_drops() {
        let mut net = SimNetwork::new(
            NetworkConfig::edge(1).with_loss(0.999), // effectively always lost
        );
        let t = send(&mut net, 0, 1, 100, 0.0);
        assert!(!t.delivered);
        assert_eq!(t.attempts, 3, "1 try + 2 retries");
        assert!(
            t.delay_s >= 3.0 * 5e-2,
            "retry timeouts accrue: {}",
            t.delay_s
        );
        assert_eq!(net.counters().msgs_dropped, 1);
        assert_eq!(net.counters().retransmits, 2);
    }

    #[test]
    fn partitioned_node_drops_everything_then_heals() {
        let mut net = SimNetwork::new(NetworkConfig::ideal().with_loss(0.0));
        net.partition(5, 1.0, 2.0);
        assert!(!net.is_partitioned(5, 0.5));
        assert!(net.is_partitioned(5, 1.5));
        let before = send(&mut net, 5, 0, 10, 0.5);
        assert!(before.delivered, "before the window");
        let during = send(&mut net, 5, 0, 10, 1.5);
        assert!(!during.delivered, "inside the window");
        let incoming = send(&mut net, 0, 5, 10, 1.5);
        assert!(!incoming.delivered, "receiver cut too");
        let after = send(&mut net, 5, 0, 10, 2.5);
        assert!(after.delivered, "healed");
    }

    #[test]
    fn straggler_links_are_seeded_and_slow() {
        let cfg = NetworkConfig::edge(11)
            .with_stragglers(0.5, 10.0)
            .with_loss(0.0);
        let net = SimNetwork::new(cfg);
        let flagged: Vec<bool> = (0..200)
            .map(|src| net.is_straggler_link(src, SimNetwork::SERVER))
            .collect();
        let frac = flagged.iter().filter(|&&s| s).count() as f64 / 200.0;
        assert!((0.3..0.7).contains(&frac), "straggler fraction {frac}");
        // Straggler delay dominates a normal link's.
        let mut net = SimNetwork::new(cfg);
        let (mut slow, mut fast) = (None, None);
        for src in 0..200u64 {
            let t = send(&mut net, src, SimNetwork::SERVER, 0, 0.0);
            if flagged[src as usize] {
                slow.get_or_insert(t.delay_s);
            } else {
                fast.get_or_insert(t.delay_s);
            }
        }
        let (slow, fast) = (slow.unwrap(), fast.unwrap());
        assert!(slow > 5.0 * fast, "straggler {slow} vs normal {fast}");
    }

    /// An enabled tracer observes a transfer without perturbing it — the
    /// same call under a disabled tracer draws the same schedule and records
    /// nothing — and the emitted spans reconstruct as send → retries →
    /// deliver/drop under the caller's parent context.
    #[test]
    fn an_enabled_tracer_observes_and_never_perturbs() {
        let cfg = NetworkConfig::edge(5).with_loss(0.6);
        let mut plain = SimNetwork::new(cfg);
        let mut traced = SimNetwork::new(cfg);
        let (off, tracer) = (FleetTracer::disabled(), FleetTracer::new());
        let parent = TraceContext::root(0xF00D, &[1]);
        for k in 0..30u64 {
            let send_s = k as f64;
            let a = plain.transfer(2, SimNetwork::SERVER, 256, send_s, &off, &parent);
            let b = traced.transfer(2, SimNetwork::SERVER, 256, send_s, &tracer, &parent);
            assert_eq!(a, b, "tracing must not perturb the schedule");
        }
        assert_eq!(plain.trace_hash(), traced.trace_hash());
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(off.recorded(), 0);
        let spans = tracer.spans();
        let sends: Vec<&CausalSpan> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::NetSend)
            .collect();
        assert_eq!(sends.len(), 30);
        for send in &sends {
            assert_eq!(send.parent_id, parent.span_id);
            assert_eq!(send.trace_id, parent.trace_id);
        }
        // 60% loss over 30 messages: retries are near-certain, and every
        // retry/terminal span parents under its message's send span.
        let retries = spans.iter().filter(|s| s.kind == SpanKind::NetRetry);
        let mut saw_retry = false;
        for r in retries {
            saw_retry = true;
            assert!(sends.iter().any(|s| s.span_id == r.parent_id));
        }
        assert!(saw_retry, "0.6 loss must force at least one retry in 30");
        for s in &spans {
            let terminal = s.kind == SpanKind::NetDeliver || s.kind == SpanKind::NetDrop;
            if terminal {
                assert_eq!(s.node, SimNetwork::SERVER);
                let send = sends.iter().find(|p| p.span_id == s.parent_id).unwrap();
                assert_eq!(s.ok, send.ok);
                assert!((s.start_s - send.end_s).abs() < 1e-12);
            }
        }
        let delivered = plain.counters().msgs_delivered as usize;
        let dropped = plain.counters().msgs_dropped as usize;
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.kind == SpanKind::NetDeliver)
                .count(),
            delivered
        );
        assert_eq!(
            spans.iter().filter(|s| s.kind == SpanKind::NetDrop).count(),
            dropped
        );
    }

    #[test]
    fn zero_bandwidth_means_no_serialization_cost() {
        let mut cfg = NetworkConfig::ideal();
        cfg.bandwidth_bytes_per_s = 0.0;
        let mut net = SimNetwork::new(cfg);
        let t = send(&mut net, 0, 1, 1 << 30, 0.0);
        assert!((t.delay_s - 2e-3).abs() < 1e-12);
    }
}
