//! Federated multi-agent loops (§VII): a heterogeneous fleet trains a shared
//! model with DC-NAS pruning + HaLo-FL precision selection, the same fleet
//! re-runs *through the scheduler* over a lossy simulated network, the
//! coverage coordinator splits the sensing work 3×, and speculative decoding
//! shows the edge-cloud pattern.
//!
//! Run: `cargo run --release --example federated_fleet`

use sensact::core::FleetTracer;
use sensact::fed::client::{Client, HardwareTier};
use sensact::fed::coverage::{AgentId, AgentProfile, CoverageCoordinator};
use sensact::fed::data::Dataset;
use sensact::fed::server::{run_federated, FedConfig, Strategy};
use sensact::fed::sim::NetworkConfig;
use sensact::fed::speculative::{demo_corpus, speculative_generate, NgramModel};
use sensact::fed::{run_federated_scheduled, FedFleetConfig};
use std::sync::Arc;

fn main() {
    // 1. Federated learning across a heterogeneous fleet.
    let all = Dataset::generate(1600, 1);
    let parts = all.split_noniid(6, 1);
    let tiers = [
        HardwareTier::EdgeGpu,
        HardwareTier::Mobile,
        HardwareTier::Mcu,
    ];
    let test = Dataset::generate(300, 99);
    println!("6-client non-IID fleet (2 of each hardware tier):\n");
    for strategy in [
        Strategy::Static,
        Strategy::DcNas,
        Strategy::HaloFl,
        Strategy::Combined,
    ] {
        let mut clients: Vec<Client> = parts
            .iter()
            .enumerate()
            .map(|(i, d)| Client::new(i, d.clone(), tiers[i % 3], 7 + i as u64))
            .collect();
        let report = run_federated(&mut clients, strategy, &FedConfig::default(), &test);
        println!(
            "{:<14} accuracy {:.3}  energy {:>8.4} J  latency {:>7.3} s  area {:.2}",
            strategy.to_string(),
            report.accuracy,
            report.energy_j,
            report.latency_s,
            report.area
        );
    }

    // 2. The same fleet as scheduled sensing-action loops over a lossy edge
    //    network: rounds become cutoffs, stragglers land late, and the whole
    //    run is reproducible bit-for-bit from the two seeds.
    let clients: Vec<Client> = parts
        .iter()
        .enumerate()
        .map(|(i, d)| Client::new(i, d.clone(), tiers[i % 3], 7 + i as u64))
        .collect();
    let report = run_federated_scheduled(
        clients,
        Strategy::DcNas,
        &FedFleetConfig::default(),
        NetworkConfig::edge(3).with_loss(0.1),
        &test,
        &[],
        Arc::new(FleetTracer::disabled()),
    );
    println!("\nscheduled federation over a 10%-loss edge network (dc-nas):");
    println!(
        "  accuracy {:.3}  makespan {:.3} s (sync accounting {:.3} s)  round period {:.4} s",
        report.accuracy, report.makespan_s, report.sync_latency_s, report.round_period_s
    );
    println!(
        "  participation {:.0}%  late updates {}  retransmits {}  trace 0x{:016x}",
        100.0 * report.mean_participation(6),
        report.server.late_updates,
        report.net.retransmits,
        report.trace_hash
    );

    // 3. Coordinated sensing: the conclusion's 3x claim.
    let coordinator = CoverageCoordinator::new();
    let fleet: Vec<AgentProfile> = (0..3)
        .map(|i| AgentProfile::homogeneous(AgentId(i)))
        .collect();
    println!(
        "\n3-agent coordinated 360-degree coverage: {:.2}x less sensing energy than solo",
        coordinator.fleet_reduction_factor(&fleet)
    );

    // 4. Edge-cloud speculative decoding.
    let draft = NgramModel::train(demo_corpus(), 2);
    let target = NgramModel::train(demo_corpus(), 5);
    let (text, report) = speculative_generate(&draft, &target, "the robot", 100, 4);
    println!("\nspeculative decoding (draft on edge, target in cloud):");
    println!("  generated: \"the robot{}\"", &text[..40.min(text.len())]);
    println!(
        "  {} tokens with {} target calls ({:.2} calls/token, acceptance {:.0}%)",
        report.tokens,
        report.target_calls,
        report.target_calls_per_token(),
        report.acceptance_rate * 100.0
    );
}
