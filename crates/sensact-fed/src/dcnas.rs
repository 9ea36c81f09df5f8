//! DC-NAS-style architecture adaptation.
//!
//! DC-NAS ("divide-and-conquer the NAS puzzle") tailors each client's network
//! topology and channel count to its constraints. We reproduce the essential
//! mechanism with *nested channel pruning*: hidden channels are ordered, each
//! client trains the prefix its compute budget affords, and masked FedAvg
//! recomposes the global model — the strong clients train the full width,
//! the weak ones the core.

use crate::client::Client;

/// Assign each client a channel fraction proportional to its hardware
/// capability, floored so even the weakest client keeps a useful core.
pub fn assign_channel_fractions(clients: &mut [Client]) {
    for c in clients.iter_mut() {
        let capability = c.profile.capability();
        // Map capability (0, 1] → fraction [0.3, 1.0] with a sqrt softening
        // (compute scales ~quadratically with width in dense layers).
        c.channel_fraction = (capability.sqrt()).clamp(0.3, 1.0);
    }
}

/// Fraction of the full parameter vector covered by at least one client's
/// subnetwork mask. Anything below `1.0` means masked FedAvg has parameters
/// no participant trains — those hold their previous global value (see
/// [`crate::server::aggregate_masked`]).
pub fn union_coverage(clients: &[Client]) -> f64 {
    let Some(first) = clients.first() else {
        return 0.0;
    };
    let mut union = first.subnetwork_mask();
    for c in &clients[1..] {
        for (u, m) in union.iter_mut().zip(c.subnetwork_mask()) {
            *u = u.max(m);
        }
    }
    union.iter().filter(|&&m| m > 0.0).count() as f64 / union.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, HardwareTier};
    use crate::data::Dataset;

    fn fleet() -> Vec<Client> {
        [
            HardwareTier::EdgeGpu,
            HardwareTier::Mobile,
            HardwareTier::Mcu,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, t)| Client::new(i, Dataset::generate(50, i as u64), t, i as u64))
        .collect()
    }

    #[test]
    fn stronger_clients_get_wider_networks() {
        let mut clients = fleet();
        assign_channel_fractions(&mut clients);
        assert!(clients[0].channel_fraction > clients[1].channel_fraction);
        assert!(clients[1].channel_fraction > clients[2].channel_fraction);
        // GPU tier keeps the full network.
        assert!((clients[0].channel_fraction - 1.0).abs() < 1e-9);
        // MCU floor respected.
        assert!(clients[2].channel_fraction >= 0.3);
    }

    #[test]
    fn fractions_within_bounds() {
        let mut clients = fleet();
        assign_channel_fractions(&mut clients);
        for c in &clients {
            assert!((0.3..=1.0).contains(&c.channel_fraction));
        }
    }

    #[test]
    fn union_coverage_tracks_the_widest_client() {
        let mut clients = fleet();
        assign_channel_fractions(&mut clients);
        // The EdgeGpu client keeps full width, so the union covers all.
        assert!((union_coverage(&clients) - 1.0).abs() < 1e-12);
        // Drop the GPU: nested masks leave the tail channels uncovered.
        let weak = clients.split_off(1);
        assert!(union_coverage(&weak) < 1.0);
        assert!(union_coverage(&[]) == 0.0);
    }
}
