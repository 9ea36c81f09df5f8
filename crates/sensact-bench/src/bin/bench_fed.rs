//! Federated-fleet bench: energy/latency/accuracy versus network quality.
//!
//! Three sections:
//!
//! 1. **Loss sweep** — a fixed heterogeneous fleet trained through the
//!    scheduler ([`run_federated_scheduled`]) over the edge network at
//!    increasing packet-loss rates. Shows the online-aggregation story:
//!    loss costs retransmit energy and participation, not wall-clock —
//!    the round cadence is fixed by the cutoff, stragglers just miss it.
//! 2. **Straggler sweep** — same fleet, loss-free, with a growing fraction
//!    of 8× slow links. Participation degrades gracefully; the synchronous
//!    accounting (`sync_latency_s`) is the bound the scheduled path
//!    undercuts.
//! 3. **1k-client determinism** (full mode only) — two back-to-back
//!    1 000-client runs must reproduce the combined fleet ⊕ network trace
//!    hash bit-for-bit from the seeds.
//!
//! Writes `BENCH_fed.json` at the repo root (full mode only, so CI smoke
//! runs don't clobber recorded numbers). Run with `--smoke` (or
//! `SENSACT_QUICK=1`) for reduced sizes.

use sensact_bench::{compare, header};
use sensact_core::FleetTracer;
use sensact_fed::client::{Client, HardwareTier};
use sensact_fed::data::Dataset;
use sensact_fed::server::Strategy;
use sensact_fed::sim::NetworkConfig;
use sensact_fed::{run_federated_scheduled, FedFleetConfig, FedFleetReport};
use std::sync::Arc;
use std::time::Instant;

/// A heterogeneous non-IID fleet (tiers round-robin) plus a held-out test set.
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
    let test = Dataset::generate(samples / 4, seed ^ 0xFF);
    (clients, test)
}

struct SweepRow {
    knob: f64,
    report: FedFleetReport,
    fleet_size: usize,
}

impl SweepRow {
    fn delivered_ratio(&self) -> f64 {
        if self.report.net.msgs_sent == 0 {
            return 1.0;
        }
        self.report.net.msgs_delivered as f64 / self.report.net.msgs_sent as f64
    }

    fn json(&self, knob_name: &str) -> String {
        format!(
            "    {{ \"{knob_name}\": {:.3}, \"accuracy\": {:.4}, \"energy_j\": {:.6}, \"makespan_s\": {:.4}, \"sync_latency_s\": {:.4}, \"participation\": {:.3}, \"delivered_ratio\": {:.3}, \"retransmits\": {}, \"late_updates\": {} }}",
            self.knob,
            self.report.accuracy,
            self.report.energy_j,
            self.report.makespan_s,
            self.report.sync_latency_s,
            self.report.mean_participation(self.fleet_size),
            self.delivered_ratio(),
            self.report.net.retransmits,
            self.report.server.late_updates,
        )
    }
}

fn run_case(
    fleet_size: usize,
    samples: usize,
    rounds: usize,
    net: NetworkConfig,
    knob: f64,
) -> SweepRow {
    let (clients, test) = fleet(fleet_size, samples, 11);
    let config = FedFleetConfig {
        rounds,
        local_epochs: 4,
        ..FedFleetConfig::default()
    };
    let report = run_federated_scheduled(
        clients,
        Strategy::DcNas,
        &config,
        net,
        &test,
        &[],
        Arc::new(FleetTracer::disabled()),
    );
    SweepRow {
        knob,
        report,
        fleet_size,
    }
}

fn print_row(r: &SweepRow, label: &str) {
    compare(
        label,
        "sync bound",
        &format!(
            "acc {:.3}  energy {:>8.4} J  makespan {:>7.3} s (sync {:>7.3} s)  part {:>4.0}%  delivered {:>4.0}%",
            r.report.accuracy,
            r.report.energy_j,
            r.report.makespan_s,
            r.report.sync_latency_s,
            100.0 * r.report.mean_participation(r.fleet_size),
            100.0 * r.delivered_ratio(),
        ),
    );
}

fn main() {
    let smoke = sensact_bench::smoke();
    let (fleet_size, samples, rounds) = if smoke { (9, 360, 3) } else { (24, 1440, 8) };

    header(&format!(
        "federated fleet over simulated edge network — {fleet_size} clients, {rounds} rounds"
    ));

    let losses: &[f64] = if smoke {
        &[0.0, 0.15]
    } else {
        &[0.0, 0.05, 0.15, 0.30]
    };
    let loss_rows: Vec<SweepRow> = losses
        .iter()
        .map(|&loss| {
            run_case(
                fleet_size,
                samples,
                rounds,
                NetworkConfig::edge(3).with_loss(loss),
                loss,
            )
        })
        .collect();
    for r in &loss_rows {
        print_row(r, &format!("loss {:>4.0}%", 100.0 * r.knob));
    }

    header("straggler sweep — fraction of 8x slow links, loss-free");
    let fractions: &[f64] = if smoke { &[0.0, 0.5] } else { &[0.0, 0.2, 0.5] };
    let straggler_rows: Vec<SweepRow> = fractions
        .iter()
        .map(|&frac| {
            run_case(
                fleet_size,
                samples,
                rounds,
                NetworkConfig::edge(3)
                    .with_loss(0.0)
                    .with_stragglers(frac, 8.0),
                frac,
            )
        })
        .collect();
    for r in &straggler_rows {
        print_row(r, &format!("stragglers {:>4.0}%", 100.0 * r.knob));
    }

    // Invariants the curves must respect, smoke and full alike. (Losses are
    // mostly recovered by retransmission, so the delivered ratio is a weak
    // signal — retransmit count is the direct one. The sync bound counts
    // compute only, so it is only comparable on a comm-free network; the
    // fleet unit tests assert the undercut there.)
    assert_eq!(loss_rows[0].report.net.retransmits, 0, "loss-free baseline");
    assert!(
        loss_rows.last().unwrap().report.net.retransmits > 0,
        "loss must force retransmits"
    );
    assert!(
        straggler_rows
            .last()
            .unwrap()
            .report
            .mean_participation(fleet_size)
            < straggler_rows[0].report.mean_participation(fleet_size),
        "stragglers must miss cutoffs"
    );

    let fleet1k = if smoke {
        None
    } else {
        header("1k-client determinism — two runs, one trace hash");
        let run = || {
            let (clients, test) = fleet(1000, 2000, 17);
            let config = FedFleetConfig {
                rounds: 3,
                local_epochs: 2,
                workers: 8,
                ..FedFleetConfig::default()
            };
            let t = Instant::now();
            let report = run_federated_scheduled(
                clients,
                Strategy::DcNas,
                &config,
                NetworkConfig::edge(5).with_loss(0.05),
                &test,
                &[],
                Arc::new(FleetTracer::disabled()),
            );
            (report, t.elapsed().as_secs_f64())
        };
        let (a, wall_a) = run();
        let (b, wall_b) = run();
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "1k-client run must reproduce bit-for-bit from the seeds"
        );
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        compare(
            "1000 clients x 3 rounds",
            "bit-for-bit",
            &format!(
                "trace 0x{:016x} twice  makespan {:.2} s  wall {:.2} s / {:.2} s",
                a.trace_hash, a.makespan_s, wall_a, wall_b
            ),
        );
        Some((a, wall_a))
    };

    if !smoke {
        let json = format!(
            "{{\n  \"fleet_size\": {fleet_size},\n  \"rounds\": {rounds},\n  \"loss_sweep\": [\n{}\n  ],\n  \"straggler_sweep\": [\n{}\n  ],\n  \"fleet_1k\": {}\n}}\n",
            loss_rows
                .iter()
                .map(|r| r.json("loss"))
                .collect::<Vec<_>>()
                .join(",\n"),
            straggler_rows
                .iter()
                .map(|r| r.json("straggler_fraction"))
                .collect::<Vec<_>>()
                .join(",\n"),
            match &fleet1k {
                Some((r, wall)) => format!(
                    "{{ \"clients\": 1000, \"rounds\": 3, \"trace_hash\": \"0x{:016x}\", \"accuracy\": {:.4}, \"makespan_s\": {:.4}, \"wall_s\": {:.2} }}",
                    r.trace_hash, r.accuracy, r.makespan_s, wall
                ),
                None => "null".to_string(),
            }
        );
        sensact_bench::write_record("BENCH_fed.json", &json);
    }
}
