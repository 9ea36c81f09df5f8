//! Integration: federated learning through the fleet scheduler over the
//! simulated network — 1k-client bit-for-bit determinism and
//! partition-heals-and-converges.

use std::sync::Arc;

use sensact::core::FleetTracer;
use sensact::fed::client::{Client, HardwareTier};
use sensact::fed::data::Dataset;
use sensact::fed::sim::NetworkConfig;
use sensact::fed::{run_federated_scheduled, FedFleetConfig, FedFleetReport, Strategy};

/// A heterogeneous non-IID fleet (tiers round-robin) plus held-out test data.
fn fleet(n: usize, samples: usize, seed: u64) -> (Vec<Client>, Dataset) {
    let all = Dataset::generate(samples, seed);
    let parts = all.split_noniid(n, seed);
    let tiers = [
        HardwareTier::EdgeGpu,
        HardwareTier::Mobile,
        HardwareTier::Mcu,
    ];
    let clients = parts
        .into_iter()
        .enumerate()
        .map(|(i, d)| Client::new(i, d, tiers[i % 3], seed ^ ((i as u64) << 4)))
        .collect();
    let test = Dataset::generate(samples / 5, seed ^ 0xFF);
    (clients, test)
}

fn run_1k(sched_seed: u64, net_seed: u64) -> FedFleetReport {
    let (clients, test) = fleet(1000, 2000, 21);
    let config = FedFleetConfig {
        rounds: 2,
        local_epochs: 1,
        workers: 8,
        seed: sched_seed,
        ..FedFleetConfig::default()
    };
    let net = NetworkConfig::edge(net_seed).with_loss(0.05);
    run_federated_scheduled(
        clients,
        Strategy::DcNas,
        &config,
        net,
        &test,
        &[],
        Arc::new(FleetTracer::disabled()),
    )
}

/// The tentpole acceptance: a 1 000-client deterministic run under `SimClock`
/// reproduces its combined fleet ⊕ network trace hash bit-for-bit from the
/// seeds; changing the network seed re-draws the schedule.
#[test]
fn thousand_client_run_reproduces_bit_for_bit() {
    let a = run_1k(7, 3);
    let b = run_1k(7, 3);
    assert_eq!(a.trace_hash, b.trace_hash, "same seeds, same trace");
    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
    assert_eq!(a.net, b.net);
    assert_eq!(a.server, b.server);
    assert_eq!(a.fleet.ticks, b.fleet.ticks);
    // Every one of the 1000 clients ticks through the scheduler at least
    // once (the slow tail may not fit a second release into the horizon).
    assert!(a.fleet.ticks > 1000, "ticks {}", a.fleet.ticks);

    let c = run_1k(7, 4);
    assert_ne!(
        a.trace_hash, c.trace_hash,
        "a different network seed must re-draw every transfer"
    );
}

/// Observability acceptance: tracing a 1 000-client run observes without
/// perturbing — the traced run's schedule hash matches the untraced one —
/// and the exported causal-span stream is bit-identical across two
/// identically-seeded runs.
#[test]
fn thousand_client_trace_stream_is_bit_reproducible() {
    let run_traced = || {
        let (clients, test) = fleet(1000, 2000, 21);
        let config = FedFleetConfig {
            rounds: 2,
            local_epochs: 1,
            workers: 8,
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
        (report, tracer)
    };
    let (a, tracer) = run_traced();
    let (b, _) = run_traced();
    // Byte oracle: the exported stream's FNV-1a, pinned before the span
    // constructor and the network call were unified. Never re-record it to
    // make a diff pass.
    assert_eq!(a.span_stream_hash, 0xc9d8_18b7_dac2_2e8f);
    assert_eq!(
        a.span_stream_hash, b.span_stream_hash,
        "span stream must be bit-identical across identically-seeded runs"
    );
    // The full stream fits the ring — nothing was evicted.
    assert_eq!(tracer.recorded(), tracer.spans().len() as u64);

    // Tracing observes; it never perturbs the schedule or the learning.
    let untraced = run_1k(7, 3);
    assert_eq!(untraced.span_stream_hash, 0);
    assert_eq!(a.trace_hash, untraced.trace_hash);
    assert_eq!(a.accuracy.to_bits(), untraced.accuracy.to_bits());
    assert_eq!(a.net, untraced.net);
}

/// Clients cut off by a network partition drop out of aggregation, then
/// rejoin after the partition heals — and the federation still converges.
#[test]
fn partition_heals_and_fleet_converges() {
    let period_s = 0.05;
    let rounds = 6;
    let run = |partitions: &[(u64, f64, f64)]| {
        let (clients, test) = fleet(12, 1200, 33);
        let config = FedFleetConfig {
            rounds,
            local_epochs: 4,
            round_period_s: Some(period_s),
            ..FedFleetConfig::default()
        };
        run_federated_scheduled(
            clients,
            Strategy::Static,
            &config,
            NetworkConfig::ideal(),
            &test,
            partitions,
            Arc::new(FleetTracer::disabled()),
        )
    };

    let healthy = run(&[]);
    assert_eq!(healthy.net.msgs_dropped, 0);
    // Late-but-delivered uploads land in later rounds, so per-round
    // participation is below 1 even on an ideal network — but most of the
    // fleet makes most cutoffs.
    assert!(
        healthy.mean_participation(12) > 0.8,
        "healthy participation {}",
        healthy.mean_participation(12)
    );

    // Cut clients 0–3 off for the first half of the horizon.
    let half = rounds as f64 / 2.0 * period_s;
    let cuts: Vec<(u64, f64, f64)> = (0..4).map(|n| (n, 0.0, half)).collect();
    let partitioned = run(&cuts);

    // Uploads from behind the partition are dropped (not retried through).
    assert!(
        partitioned.net.msgs_dropped > 0,
        "partition must drop traffic"
    );
    assert!(partitioned.mean_participation(12) < healthy.mean_participation(12));

    // After the heal the cut clients rejoin: the server folds more updates
    // than the 8 never-partitioned clients alone could produce.
    let unpartitioned_max = 8 * rounds as u64;
    assert!(
        partitioned.server.aggregated_updates > unpartitioned_max,
        "healed clients must rejoin aggregation: {} <= {}",
        partitioned.server.aggregated_updates,
        unpartitioned_max
    );

    // And the federation still learns through the outage.
    assert!(
        partitioned.accuracy > 0.4,
        "post-heal accuracy {}",
        partitioned.accuracy
    );
    // Determinism holds with partitions installed, too.
    let again = run(&cuts);
    assert_eq!(partitioned.trace_hash, again.trace_hash);
}
