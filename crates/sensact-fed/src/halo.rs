//! HaLo-FL-style hardware-aware precision selection.
//!
//! HaLo-FL picks per-client precisions for weights/activations/gradients via
//! a precision-reconfigurable hardware simulator, trading accuracy for
//! energy/latency/area. Our selector evaluates each candidate precision on
//! the client's actual weights (quantization MSE as the accuracy proxy — the
//! same signal a one-shot sensitivity analysis gives) against a per-tier
//! error tolerance: energy-starved tiers accept more error.

use crate::client::{Client, HardwareTier};
use sensact_nn::quant::{quantized_copy, Precision};

/// Quantization-error tolerance per tier (mean squared weight error).
fn tolerance(tier: HardwareTier) -> f64 {
    match tier {
        HardwareTier::EdgeGpu => 1e-6, // accuracy first
        HardwareTier::Mobile => 5e-5,
        HardwareTier::Mcu => 1e-3, // energy first
    }
}

/// Pick the lowest precision whose weight-quantization MSE stays within the
/// client's tier tolerance.
pub(crate) fn select_precision_for(client: &mut Client) -> Precision {
    let weights = client.params_flat();
    let tol = tolerance(client.profile.tier);
    for precision in Precision::fixed_point() {
        let q = quantized_copy(&weights, precision);
        let mse = weights
            .iter()
            .zip(&q)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / weights.len() as f64;
        if mse <= tol {
            return precision;
        }
    }
    Precision::Int16
}

/// Run the selector across the fleet, installing each client's precision.
pub(crate) fn select_precisions(clients: &mut [Client]) {
    for c in clients.iter_mut() {
        c.precision = select_precision_for(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    fn client(tier: HardwareTier, seed: u64) -> Client {
        Client::new(0, Dataset::generate(100, seed), tier, seed)
    }

    #[test]
    fn mcu_accepts_lower_precision_than_gpu() {
        let mut gpu = client(HardwareTier::EdgeGpu, 1);
        let mut mcu = client(HardwareTier::Mcu, 1);
        let p_gpu = select_precision_for(&mut gpu);
        let p_mcu = select_precision_for(&mut mcu);
        assert!(p_mcu.bits() <= p_gpu.bits(), "MCU {p_mcu} vs GPU {p_gpu}");
        assert!(p_mcu.bits() <= 8, "MCU precision {p_mcu} too conservative");
    }

    #[test]
    fn selected_precision_error_within_tolerance() {
        let mut c = client(HardwareTier::Mobile, 3);
        let p = select_precision_for(&mut c);
        let weights = c.params_flat();
        let q = quantized_copy(&weights, p);
        let mse = weights
            .iter()
            .zip(&q)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / weights.len() as f64;
        assert!(mse <= tolerance(HardwareTier::Mobile) * 1.001);
    }

    #[test]
    fn quantized_client_still_learns() {
        let mut c = client(HardwareTier::Mcu, 4);
        c.precision = select_precision_for(&mut c);
        c.local_train(40);
        let test = Dataset::generate(200, 55);
        let acc = c.evaluate(&test);
        assert!(acc > 0.4, "quantized accuracy {acc}");
    }
}
