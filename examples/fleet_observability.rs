//! The fleet observability plane (ISSUE 8): causal tracing across the
//! scheduler and the simulated network, fleet health scoring with
//! hysteresis, metric rollups, and the two expositions — Prometheus text
//! and the ASCII dashboard. Everything derives from the run seeds, so every
//! number printed here is bit-for-bit reproducible.
//!
//! Run: `cargo run --release --example fleet_observability`

use std::sync::Arc;

use sensact::core::export::{
    causal_spans_to_jsonl, fnv1a_words, prometheus_text, trace_stream_hash, FNV_OFFSET,
};
use sensact::core::{CausalSpan, FleetTracer, SpanKind};
use sensact::fed::client::{Client, HardwareTier};
use sensact::fed::data::Dataset;
use sensact::fed::sim::NetworkConfig;
use sensact::fed::{
    broadcast_context, round_aggregate_context, round_trace_root, run_federated_scheduled,
    FedFleetConfig, Strategy,
};

fn main() {
    // A heterogeneous non-IID federation, traced end to end.
    let all = Dataset::generate(1200, 9);
    let parts = all.split_noniid(6, 9);
    let tiers = [
        HardwareTier::EdgeGpu,
        HardwareTier::Mobile,
        HardwareTier::Mcu,
    ];
    let clients: Vec<Client> = parts
        .into_iter()
        .enumerate()
        .map(|(i, d)| Client::new(i, d, tiers[i % 3], 9 ^ ((i as u64) << 4)))
        .collect();
    let test = Dataset::generate(240, 9 ^ 0xFF);
    let config = FedFleetConfig {
        rounds: 3,
        local_epochs: 1,
        seed: 7,
        ..FedFleetConfig::default()
    };
    let net_seed = 3;
    let tracer = Arc::new(FleetTracer::new());
    let report = run_federated_scheduled(
        clients,
        Strategy::DcNas,
        &config,
        NetworkConfig::edge(net_seed).with_loss(0.2),
        &test,
        &[],
        Arc::clone(&tracer),
    );

    // 1. The causal span stream: one flat JSONL export, hashed for the
    //    reproducibility fingerprint.
    let spans = tracer.spans();
    println!("== causal trace stream ==");
    println!(
        "{} spans, stream hash 0x{:016x} (report agrees: 0x{:016x})",
        spans.len(),
        trace_stream_hash(&spans),
        report.span_stream_hash
    );
    let mut by_kind: Vec<(SpanKind, usize)> = SpanKind::ALL
        .iter()
        .map(|&k| (k, spans.iter().filter(|s| s.kind == k).count()))
        .filter(|&(_, n)| n > 0)
        .collect();
    by_kind.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (kind, n) in by_kind {
        println!("  {:<16} {n}", kind.name());
    }
    let jsonl = causal_spans_to_jsonl(&spans);
    println!(
        "  first exported line: {}",
        jsonl.lines().next().unwrap_or("(empty)")
    );

    // 2. Reconstruct one federated round as a span tree. Every id is a pure
    //    function of (sched seed, net seed, round), so the tree re-derives
    //    without any handoff.
    let round_span = spans
        .iter()
        .find(|s| s.kind == SpanKind::Round && s.ok)
        .expect("an aggregated round");
    let round = round_span.detail;
    println!("\n== round {round} reconstructed ==");
    print_tree(&spans, round_span, 0);
    // Sanity: the printed root really is the pure-function derivation (the
    // fed runner's trace seed is the FNV-1a fold of the two run seeds).
    let trace_seed = fnv1a_words(FNV_OFFSET, &[config.seed, net_seed]);
    assert_eq!(
        round_trace_root(trace_seed, round).span_id,
        round_span.span_id
    );
    assert!(spans
        .iter()
        .any(|s| s.span_id == round_aggregate_context(trace_seed, round).span_id));
    assert!(spans.iter().any(|s| s.span_id
        == broadcast_context(trace_seed, round, s.node).span_id
        && s.kind == SpanKind::Broadcast));

    // 3. Fleet health + the ASCII dashboard (rollup of every member's
    //    telemetry into one registry).
    println!("\n== fleet dashboard ==");
    let rollup = {
        // The report carries per-loop summaries; the scheduler that produced
        // it was consumed inside the fed runner, so roll up the fleet-level
        // registry from the report itself.
        let mut registry = sensact::core::MetricsRegistry::new();
        report.fleet.export_into(&mut registry);
        registry
    };
    print!("{}", report.fleet.dashboard(&rollup));

    // 4. The scrape payload: Prometheus text exposition of the same
    //    registry — ROADMAP item 3's `/metrics` body.
    println!("== prometheus exposition (excerpt) ==");
    for line in prometheus_text(&rollup)
        .lines()
        .filter(|l| l.starts_with("sched_"))
        .take(10)
    {
        println!("  {line}");
    }
    println!(
        "\nfederation: accuracy {:.3}  makespan {:.3} s  retransmits {}",
        report.accuracy, report.makespan_s, report.net.retransmits
    );
}

/// Print `span` and its subtree, indented by depth (child spans are the
/// ones whose `parent_id` equals this span's id).
fn print_tree(spans: &[CausalSpan], span: &CausalSpan, depth: usize) {
    let node = if span.node == u64::MAX {
        "server".to_string()
    } else {
        span.node.to_string()
    };
    println!(
        "{:indent$}{} node {} detail {} [{:.4}s..{:.4}s] {}",
        "",
        span.kind.name(),
        node,
        span.detail,
        span.start_s,
        span.end_s,
        if span.ok { "ok" } else { "FAILED" },
        indent = depth * 2
    );
    let mut children: Vec<&CausalSpan> = spans
        .iter()
        .filter(|s| s.parent_id == span.span_id && s.span_id != span.span_id)
        .collect();
    children.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.node.cmp(&b.node)));
    for child in children {
        print_tree(spans, child, depth + 1);
    }
}
