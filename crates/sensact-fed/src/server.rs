//! FedAvg server and the strategy harness behind Fig. 11.

use crate::client::Client;
use crate::data::Dataset;
use crate::dcnas::assign_channel_fractions;
use crate::halo::select_precisions;

/// Federation strategy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Uniform full model, full precision on every client.
    Static,
    /// DC-NAS-style per-client channel pruning.
    DcNas,
    /// HaLo-FL-style per-client precision selection.
    HaloFl,
    /// Both adaptations together.
    Combined,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Static => "Static FL",
            Strategy::DcNas => "DC-NAS",
            Strategy::HaloFl => "HaLo-FL",
            Strategy::Combined => "DC-NAS+HaLo",
        };
        write!(f, "{s}")
    }
}

/// Federation hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedConfig {
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs per round.
    pub local_epochs: usize,
}

impl Default for FedConfig {
    fn default() -> Self {
        FedConfig {
            rounds: 8,
            local_epochs: 8,
        }
    }
}

/// Outcome of one federated run (the Fig. 11 measurables).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedReport {
    /// Strategy evaluated.
    pub strategy: Strategy,
    /// Final global-model accuracy on held-out data.
    pub accuracy: f64,
    /// Total fleet energy over all rounds (J).
    pub energy_j: f64,
    /// Makespan: Σ over rounds of the slowest client's latency (s).
    pub latency_s: f64,
    /// Mean area utilization across clients.
    pub area: f64,
}

/// One client's model update as delivered to the server: parameters, the
/// subnetwork mask they were trained under, and the aggregation weight
/// (local sample count).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedUpdate {
    /// Flat model parameters (same layout as [`Client::params_flat`]).
    pub params: Vec<f64>,
    /// Subnetwork mask: entry > 0 means the parameter was trained.
    pub mask: Vec<f64>,
    /// Aggregation weight (typically the client's sample count).
    pub weight: f64,
}

impl MaskedUpdate {
    /// Snapshot a client's current parameters, mask, and sample weight.
    pub fn of(client: &mut Client) -> Self {
        MaskedUpdate {
            params: client.params_flat(),
            mask: client.subnetwork_mask(),
            weight: client.data.len() as f64,
        }
    }
}

/// Masked FedAvg: average each parameter over the updates whose subnetwork
/// mask contains it, weighted by sample count. A parameter covered by *no*
/// update — possible under DC-NAS pruning whenever the widest participant
/// this round is pruned, and routine under partial aggregation with
/// stragglers — holds its `previous_global` value. (The old behavior left
/// it at `0.0`, silently zeroing the global model's tail channels every
/// round.)
pub fn aggregate_masked(updates: &[MaskedUpdate], previous_global: &[f64]) -> Vec<f64> {
    let dim = previous_global.len();
    let mut sum = vec![0.0; dim];
    let mut weight = vec![0.0; dim];
    for u in updates {
        debug_assert_eq!(u.params.len(), dim, "update dimension mismatch");
        for (i, v) in u.params.iter().enumerate() {
            if u.mask[i] > 0.0 && u.weight > 0.0 {
                sum[i] += v * u.weight;
                weight[i] += u.weight;
            }
        }
    }
    for i in 0..dim {
        if weight[i] > 0.0 {
            sum[i] /= weight[i];
        } else {
            sum[i] = previous_global[i];
        }
    }
    sum
}

/// Aggregate the whole fleet synchronously (every client participates).
fn aggregate(clients: &mut [Client], previous_global: &[f64]) -> Vec<f64> {
    let updates: Vec<MaskedUpdate> = clients.iter_mut().map(MaskedUpdate::of).collect();
    aggregate_masked(&updates, previous_global)
}

/// Install a strategy's knobs (channel fractions, precisions) on a fleet.
pub(crate) fn apply_strategy(clients: &mut [Client], strategy: Strategy) {
    match strategy {
        Strategy::Static => {
            for c in clients.iter_mut() {
                c.channel_fraction = 1.0;
                c.precision = sensact_nn::quant::Precision::Int16;
            }
        }
        Strategy::DcNas => {
            assign_channel_fractions(clients);
            for c in clients.iter_mut() {
                c.precision = sensact_nn::quant::Precision::Int16;
            }
        }
        Strategy::HaloFl => {
            for c in clients.iter_mut() {
                c.channel_fraction = 1.0;
            }
            select_precisions(clients);
        }
        Strategy::Combined => {
            assign_channel_fractions(clients);
            select_precisions(clients);
        }
    }
}

/// Run federated training under a strategy; reports accuracy + fleet costs.
///
/// Rounds here are *synchronous*: every round waits for the slowest client,
/// so `FedReport.latency_s` (Σ over rounds of the slowest client) is an
/// upper bound on fleet makespan. The scheduled path
/// ([`crate::fleet::run_federated_scheduled`]) runs the same fleet through
/// the EDF scheduler with straggler cutoffs and reports the *measured*
/// makespan, which on a loss-free network is strictly smaller.
///
/// # Panics
///
/// Panics if `clients` is empty.
pub fn run_federated(
    clients: &mut [Client],
    strategy: Strategy,
    config: &FedConfig,
    test: &Dataset,
) -> FedReport {
    assert!(!clients.is_empty(), "no clients");
    apply_strategy(clients, strategy);

    let mut energy = 0.0;
    let mut latency = 0.0;
    // Start from client 0's init as the global model.
    let mut global = clients[0].params_flat();
    for _round in 0..config.rounds {
        for c in clients.iter_mut() {
            c.set_params_flat(&global);
            let _ = c.local_train(config.local_epochs);
            energy += c.round_energy_j(config.local_epochs);
        }
        latency += clients
            .iter()
            .map(|c| c.round_latency_s(config.local_epochs))
            .fold(0.0, f64::max);
        global = aggregate(clients, &global);
    }
    // Final evaluation with the global model on the strongest client's full
    // network (the server-side model).
    clients[0].channel_fraction = 1.0;
    clients[0].set_params_flat(&global);
    let accuracy = clients[0].evaluate(test);
    let area = clients.iter().map(|c| c.area_utilization()).sum::<f64>() / clients.len() as f64;
    FedReport {
        strategy,
        accuracy,
        energy_j: energy,
        latency_s: latency,
        area,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HardwareTier;
    use crate::data::Dataset;

    /// A heterogeneous fleet over a non-IID split.
    pub(crate) fn fleet(n: usize, seed: u64) -> (Vec<Client>, Dataset) {
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

    #[test]
    fn fedavg_learns_from_noniid_clients() {
        let (mut clients, test) = fleet(4, 1);
        let report = run_federated(&mut clients, Strategy::Static, &FedConfig::default(), &test);
        assert!(report.accuracy > 0.55, "accuracy {}", report.accuracy);
    }

    #[test]
    fn federation_beats_single_noniid_client() {
        let (mut clients, test) = fleet(4, 2);
        // A lone non-IID client sees ~2 classes.
        let mut solo = Client::new(9, clients[0].data.clone(), HardwareTier::EdgeGpu, 77);
        solo.local_train(64);
        let solo_acc = solo.evaluate(&test);
        let report = run_federated(&mut clients, Strategy::Static, &FedConfig::default(), &test);
        assert!(
            report.accuracy > solo_acc,
            "federated {} vs solo {}",
            report.accuracy,
            solo_acc
        );
    }

    #[test]
    fn dcnas_cuts_cost_without_collapsing_accuracy() {
        let (mut c1, test) = fleet(4, 3);
        let static_report = run_federated(&mut c1, Strategy::Static, &FedConfig::default(), &test);
        let (mut c2, _) = fleet(4, 3);
        let dcnas_report = run_federated(&mut c2, Strategy::DcNas, &FedConfig::default(), &test);
        assert!(dcnas_report.energy_j < static_report.energy_j);
        assert!(dcnas_report.latency_s < static_report.latency_s);
        assert!(
            dcnas_report.accuracy > static_report.accuracy - 0.25,
            "DC-NAS accuracy {} vs static {}",
            dcnas_report.accuracy,
            static_report.accuracy
        );
    }

    #[test]
    fn halofl_cuts_cost_without_collapsing_accuracy() {
        let (mut c1, test) = fleet(4, 4);
        let static_report = run_federated(&mut c1, Strategy::Static, &FedConfig::default(), &test);
        let (mut c2, _) = fleet(4, 4);
        let halo_report = run_federated(&mut c2, Strategy::HaloFl, &FedConfig::default(), &test);
        assert!(halo_report.energy_j < static_report.energy_j);
        assert!(halo_report.latency_s < static_report.latency_s);
        assert!(halo_report.area < static_report.area);
        assert!(
            halo_report.accuracy > static_report.accuracy - 0.15,
            "HaLo accuracy {} vs static {}",
            halo_report.accuracy,
            static_report.accuracy
        );
    }

    #[test]
    #[should_panic(expected = "no clients")]
    fn empty_fleet_panics() {
        let test = Dataset::generate(10, 0);
        let _ = run_federated(&mut [], Strategy::Static, &FedConfig::default(), &test);
    }

    /// Regression (masked-FedAvg zero-reset): a parameter covered by no
    /// update must hold its previous global value, not collapse to 0.0.
    /// Disjoint masks also exercise the single-owner and multi-owner cases.
    #[test]
    fn uncovered_parameters_hold_previous_global() {
        let previous = vec![10.0, 20.0, 30.0, 40.0];
        let updates = vec![
            MaskedUpdate {
                params: vec![1.0, 2.0, 0.0, 0.0],
                mask: vec![1.0, 1.0, 0.0, 0.0],
                weight: 1.0,
            },
            MaskedUpdate {
                params: vec![0.0, 6.0, 3.0, 0.0],
                mask: vec![0.0, 1.0, 1.0, 0.0],
                weight: 3.0,
            },
        ];
        let global = aggregate_masked(&updates, &previous);
        assert_eq!(global[0], 1.0, "single-owner parameter");
        assert_eq!(global[1], (2.0 * 1.0 + 6.0 * 3.0) / 4.0, "shared parameter");
        assert_eq!(global[2], 3.0, "single-owner parameter");
        assert_eq!(global[3], 40.0, "uncovered parameter must hold, not zero");
        // No updates at all: the global is unchanged.
        assert_eq!(aggregate_masked(&[], &previous), previous);
        // Zero-weight updates cover nothing.
        let zero_w = vec![MaskedUpdate {
            params: vec![9.0; 4],
            mask: vec![1.0; 4],
            weight: 0.0,
        }];
        assert_eq!(aggregate_masked(&zero_w, &previous), previous);
    }

    /// Regression at fleet scope: under DC-NAS with no full-width client
    /// (Mobile/Mcu only), nested pruning leaves the tail hidden channels
    /// outside every mask. Pre-fix, each round zeroed those channels in the
    /// global model; post-fix they retain the values they were seeded with.
    #[test]
    fn dcnas_without_full_width_client_keeps_tail_channels() {
        let all = Dataset::generate(400, 11);
        let parts = all.split_noniid(3, 11);
        let mut clients: Vec<Client> = parts
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let tier = if i % 2 == 0 {
                    HardwareTier::Mobile
                } else {
                    HardwareTier::Mcu
                };
                Client::new(i, d, tier, 21 ^ (i as u64) << 3)
            })
            .collect();
        apply_strategy(&mut clients, Strategy::DcNas);
        let widest = clients
            .iter()
            .map(|c| c.channel_fraction)
            .fold(0.0, f64::max);
        assert!(widest < 1.0, "fleet must have no full-width client");
        // The union mask (widest client) determines coverage.
        let union: Vec<f64> = clients
            .iter()
            .map(|c| c.subnetwork_mask())
            .reduce(|a, b| a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect())
            .unwrap();
        assert!(union.contains(&0.0), "tail must be uncovered");
        let initial = clients[0].params_flat();
        let mut global = initial.clone();
        for _ in 0..2 {
            for c in clients.iter_mut() {
                c.set_params_flat(&global);
                let _ = c.local_train(1);
            }
            global = aggregate(&mut clients, &global);
        }
        for (i, &m) in union.iter().enumerate() {
            if m == 0.0 {
                assert_eq!(
                    global[i], initial[i],
                    "uncovered parameter {i} must hold its previous value"
                );
            }
        }
        // Sanity for the pre-fix behavior being non-trivial: uncovered
        // entries are not all zero to begin with.
        assert!(union
            .iter()
            .enumerate()
            .any(|(i, &m)| m == 0.0 && initial[i] != 0.0));
    }
}
