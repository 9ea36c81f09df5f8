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
pub(crate) fn assign_channel_fractions(clients: &mut [Client]) {
    for c in clients.iter_mut() {
        let capability = c.profile.capability();
        // Map capability (0, 1] → fraction [0.3, 1.0] with a sqrt softening
        // (compute scales ~quadratically with width in dense layers).
        c.channel_fraction = (capability.sqrt()).clamp(0.3, 1.0);
    }
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
}
