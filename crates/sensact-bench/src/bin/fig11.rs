//! Fig. 11 — Relative energy/latency/area reductions of DC-NAS and HaLo-FL
//! vs. static federated learning on the CIFAR-10-like workload.
//!
//! Paper: both adaptive frameworks significantly reduce energy, latency and
//! area utilization while maintaining accuracy. The HaLo ablation (a
//! uniform INT8 fleet) closes the report.

use sensact_bench::{compare, header, scaled, write_csv};
use sensact_fed::client::{Client, HardwareTier};
use sensact_fed::data::Dataset;
use sensact_fed::server::{
    aggregate_masked, run_federated, FedConfig, FedReport, MaskedUpdate, Strategy,
};

fn fleet(n: usize, seed: u64) -> (Vec<Client>, Dataset) {
    let all = Dataset::generate(scaled(2400, 600), seed);
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
    (clients, Dataset::generate(400, seed ^ 0xFF))
}

fn run(strategy: Strategy, seed: u64) -> FedReport {
    let (mut clients, test) = fleet(8, seed);
    let config = FedConfig {
        rounds: scaled(10, 4),
        local_epochs: scaled(10, 4),
    };
    run_federated(&mut clients, strategy, &config, &test)
}

fn main() {
    header("Fig. 11: adaptive FL vs static FL (8 heterogeneous clients, non-IID)");
    let strategies = [
        Strategy::Static,
        Strategy::DcNas,
        Strategy::HaloFl,
        Strategy::Combined,
    ];
    let reports: Vec<FedReport> = strategies.iter().map(|&s| run(s, 9)).collect();
    let baseline = reports[0];

    println!(
        "{:<14} {:>9} {:>12} {:>12} {:>8}",
        "strategy", "accuracy", "energy (J)", "latency (s)", "area"
    );
    let mut csv = Vec::new();
    for r in &reports {
        println!(
            "{:<14} {:>9.3} {:>12.4} {:>12.3} {:>8.3}",
            r.strategy.to_string(),
            r.accuracy,
            r.energy_j,
            r.latency_s,
            r.area
        );
        csv.push(format!(
            "{},{:.4},{:.6},{:.6},{:.4}",
            r.strategy, r.accuracy, r.energy_j, r.latency_s, r.area
        ));
    }

    header("relative reductions vs static (the Fig. 11 bars)");
    for r in &reports[1..] {
        println!(
            "{:<14} energy -{:.0}%  latency -{:.0}%  area -{:.0}%  accuracy {:+.1} pts",
            r.strategy.to_string(),
            (1.0 - r.energy_j / baseline.energy_j) * 100.0,
            (1.0 - r.latency_s / baseline.latency_s) * 100.0,
            (1.0 - r.area / baseline.area) * 100.0,
            (r.accuracy - baseline.accuracy) * 100.0
        );
    }

    header("shape check vs paper");
    let dcnas = reports[1];
    let halo = reports[2];
    compare(
        "DC-NAS reduces energy & latency",
        "significant reduction",
        &format!(
            "-{:.0}% energy, -{:.0}% latency",
            (1.0 - dcnas.energy_j / baseline.energy_j) * 100.0,
            (1.0 - dcnas.latency_s / baseline.latency_s) * 100.0
        ),
    );
    compare(
        "HaLo-FL reduces energy & area",
        "significant reduction",
        &format!(
            "-{:.0}% energy, -{:.0}% area",
            (1.0 - halo.energy_j / baseline.energy_j) * 100.0,
            (1.0 - halo.area / baseline.area) * 100.0
        ),
    );
    assert!(dcnas.energy_j < baseline.energy_j);
    assert!(halo.energy_j < baseline.energy_j);
    assert!(halo.area < baseline.area);
    println!("shape check passed");

    header("ablation: HaLo selector vs uniform INT8");
    let (mut clients, test) = fleet(8, 9);
    for c in clients.iter_mut() {
        c.precision = sensact_nn::quant::Precision::Int8;
    }
    let config = FedConfig {
        rounds: scaled(10, 4),
        local_epochs: scaled(10, 4),
    };
    // run_federated would install HaLo's precisions; keep the fleet at INT8.
    let mut energy = 0.0;
    let mut global = clients[0].params_flat();
    for _ in 0..config.rounds {
        for c in clients.iter_mut() {
            c.set_params_flat(&global);
            let _ = c.local_train(config.local_epochs);
            energy += c.round_energy_j(config.local_epochs);
        }
        // Every client trains the full network, so every mask is all ones.
        let updates: Vec<MaskedUpdate> = clients.iter_mut().map(MaskedUpdate::of).collect();
        global = aggregate_masked(&updates, &global);
    }
    clients[0].set_params_flat(&global);
    let acc = clients[0].evaluate(&test);
    println!(
        "uniform INT8: accuracy {acc:.3}, energy {energy:.4} J (HaLo: {:.3} / {:.4} J)",
        halo.accuracy, halo.energy_j
    );

    write_csv("fig11", "strategy,accuracy,energy_j,latency_s,area", &csv);
}
