//! Federated clients with hardware profiles.

use crate::data::{Dataset, CLASSES, INPUT_DIM};
use sensact_nn::count::MacEnergyModel;
use sensact_nn::layers::{ActKind, Activation, Dense, Layer};
use sensact_nn::optim::{Adam, Optimizer};
use sensact_nn::quant::{quantize_layer, Precision};
use sensact_nn::{Initializer, Sequential, Tensor};

/// Hidden width of the full (unpruned) client model.
pub(crate) const HIDDEN: usize = 48;

/// Device capability tiers (Fig. 10's resource heterogeneity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareTier {
    /// Embedded GPU class (fast, power-rich).
    EdgeGpu,
    /// Mobile SoC class.
    Mobile,
    /// Microcontroller class (slow, energy-starved).
    Mcu,
}

/// Hardware cost model for a client device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareProfile {
    /// Tier label.
    pub tier: HardwareTier,
    /// MACs per second the device sustains.
    pub macs_per_second: f64,
    /// MAC energy model (scaled per tier).
    pub energy: MacEnergyModel,
    /// Energy per transmitted parameter (J).
    pub comm_energy_per_param: f64,
}

impl HardwareProfile {
    /// Profile for a tier.
    pub(crate) fn of(tier: HardwareTier) -> Self {
        match tier {
            HardwareTier::EdgeGpu => HardwareProfile {
                tier,
                macs_per_second: 2e9,
                energy: MacEnergyModel {
                    pj_per_mac_int8: 0.2,
                },
                comm_energy_per_param: 4e-9,
            },
            HardwareTier::Mobile => HardwareProfile {
                tier,
                macs_per_second: 5e8,
                energy: MacEnergyModel {
                    pj_per_mac_int8: 0.35,
                },
                comm_energy_per_param: 8e-9,
            },
            HardwareTier::Mcu => HardwareProfile {
                tier,
                macs_per_second: 5e7,
                energy: MacEnergyModel {
                    pj_per_mac_int8: 0.6,
                },
                comm_energy_per_param: 2e-8,
            },
        }
    }

    /// Relative compute capability in `(0, 1]` (1 = strongest tier).
    pub(crate) fn capability(&self) -> f64 {
        self.macs_per_second / 2e9
    }
}

/// A federated client: local data, local model, hardware profile, and the
/// adaptive knobs (channel fraction, precision) the strategies control.
pub struct Client {
    /// Client id.
    pub id: usize,
    /// Local training data.
    pub data: Dataset,
    /// Hardware profile.
    pub profile: HardwareProfile,
    /// Active fraction of hidden channels in `(0, 1]` (DC-NAS knob).
    pub channel_fraction: f64,
    /// Operating precision (HaLo-FL knob).
    pub precision: Precision,
    model: Sequential,
    rng: Initializer,
}

impl Client {
    /// New client with the full model and FP precision.
    pub fn new(id: usize, data: Dataset, tier: HardwareTier, seed: u64) -> Self {
        let mut init = Initializer::new(seed);
        let model = Sequential::new(vec![
            Box::new(Dense::new(INPUT_DIM, HIDDEN, &mut init)),
            Box::new(Activation::new(ActKind::Relu)),
            Box::new(Dense::new(HIDDEN, CLASSES, &mut init)),
        ]);
        Client {
            id,
            data,
            profile: HardwareProfile::of(tier),
            channel_fraction: 1.0,
            precision: Precision::Full,
            model,
            rng: init.fork(),
        }
    }

    /// Active hidden channels under the current channel fraction.
    pub(crate) fn active_channels(&self) -> usize {
        ((HIDDEN as f64 * self.channel_fraction).round() as usize).clamp(1, HIDDEN)
    }

    /// Flatten the model parameters.
    pub fn params_flat(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        self.model
            .visit_params(&mut |p, _| out.extend_from_slice(p));
        out
    }

    /// Overwrite model parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_params_flat(&mut self, flat: &[f64]) {
        let mut offset = 0;
        self.model.visit_params(&mut |p, _| {
            p.copy_from_slice(&flat[offset..offset + p.len()]);
            offset += p.len();
        });
        assert_eq!(offset, flat.len(), "parameter vector length mismatch");
    }

    /// Mask that is 1 for parameters inside the active subnetwork. Nested
    /// (ordered) pruning: the first `active_channels()` hidden units stay.
    pub(crate) fn subnetwork_mask(&self) -> Vec<f64> {
        let active = self.active_channels();
        let mut mask = Vec::new();
        // Dense 1 weights [INPUT_DIM, HIDDEN] (row-major in→out).
        for _ in 0..INPUT_DIM {
            for h in 0..HIDDEN {
                mask.push(if h < active { 1.0 } else { 0.0 });
            }
        }
        // Dense 1 bias.
        for h in 0..HIDDEN {
            mask.push(if h < active { 1.0 } else { 0.0 });
        }
        // Dense 2 weights [HIDDEN, CLASSES].
        for h in 0..HIDDEN {
            for _ in 0..CLASSES {
                mask.push(if h < active { 1.0 } else { 0.0 });
            }
        }
        // Dense 2 bias: always active.
        mask.extend(std::iter::repeat_n(1.0, CLASSES));
        mask
    }

    fn apply_subnetwork_mask(&mut self) {
        let mask = self.subnetwork_mask();
        let mut offset = 0;
        self.model.visit_params(&mut |p, _| {
            for v in p.iter_mut() {
                *v *= mask[offset];
                offset += 1;
            }
        });
    }

    /// MACs for one forward pass at the active channel count.
    pub(crate) fn macs_per_forward(&self) -> u64 {
        let active = self.active_channels() as u64;
        (INPUT_DIM as u64) * active + active * CLASSES as u64
    }

    /// One epoch of local training (full-batch Adam). Quantizes weights to
    /// the operating precision after the update (quantization-aware-ish).
    /// Returns the training loss.
    pub fn local_train(&mut self, epochs: usize) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.apply_subnetwork_mask();
        let rows: Vec<Vec<f64>> = self
            .data
            .samples()
            .iter()
            .map(|s| s.features.clone())
            .collect();
        let labels: Vec<usize> = self.data.samples().iter().map(|s| s.label).collect();
        let x = Tensor::stack_rows(&rows);
        let mut opt = Adam::new(0.01);
        let mut last = 0.0;
        let mask = self.subnetwork_mask();
        for _ in 0..epochs {
            let logits = self.model.forward(&x, true);
            let (l, grad) = sensact_nn::loss::cross_entropy(&logits, &labels);
            last = l;
            self.model.backward(&grad);
            // Keep gradients inside the subnetwork.
            let mut offset = 0;
            self.model.visit_params(&mut |_, g| {
                for v in g.iter_mut() {
                    *v *= mask[offset];
                    offset += 1;
                }
            });
            opt.step(&mut self.model);
            self.model.zero_grad();
        }
        if self.precision != Precision::Full {
            let _ = quantize_layer(&mut self.model, self.precision);
        }
        let _ = &mut self.rng;
        last
    }

    /// Accuracy on a dataset.
    pub fn evaluate(&mut self, test: &Dataset) -> f64 {
        if test.is_empty() {
            return 0.0;
        }
        let rows: Vec<Vec<f64>> = test.samples().iter().map(|s| s.features.clone()).collect();
        let x = Tensor::stack_rows(&rows);
        let logits = self.model.forward(&x, false);
        let correct = test
            .samples()
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                let row = logits.row(*i);
                let pred = (0..CLASSES)
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                    .unwrap();
                pred == s.label
            })
            .count();
        correct as f64 / test.len() as f64
    }

    /// Parameters inside the active subnetwork (what an upload carries).
    pub(crate) fn active_param_count(&self) -> usize {
        self.subnetwork_mask().iter().filter(|&&m| m > 0.0).count()
    }

    /// Bytes on the wire for one model upload at `wire_bits` bits per
    /// parameter (the arbiter's communication-throttling knob).
    pub(crate) fn upload_bytes(&self, wire_bits: u8) -> u64 {
        (self.active_param_count() as u64 * wire_bits as u64).div_ceil(8)
    }

    /// Energy (J) of one local round: training MACs at the operating
    /// precision plus parameter upload.
    pub fn round_energy_j(&self, epochs: usize) -> f64 {
        // Forward + backward ≈ 3× forward MACs, per sample, per epoch.
        let macs = self.macs_per_forward() * 3 * self.data.len() as u64 * epochs as u64;
        let bits = self.precision.bits().min(16);
        let compute = self.profile.energy.energy_mj(macs, bits) * 1e-3;
        // Upload cost shrinks with precision (fewer bits on the wire).
        let comm =
            self.active_param_count() as f64 * self.profile.comm_energy_per_param * bits as f64
                / 16.0;
        compute + comm
    }

    /// Wall-clock (s) of one local round on this device.
    pub(crate) fn round_latency_s(&self, epochs: usize) -> f64 {
        let macs = self.macs_per_forward() * 3 * self.data.len() as u64 * epochs as u64;
        // Low precision speeds the MAC array roughly linearly in bits.
        let speedup = 16.0 / self.precision.bits().min(16) as f64;
        macs as f64 / (self.profile.macs_per_second * speedup)
    }

    /// Relative silicon area utilization of the precision-reconfigurable
    /// array for the chosen precision (16-bit = 1.0).
    pub(crate) fn area_utilization(&self) -> f64 {
        self.precision.bits().min(16) as f64 / 16.0 * self.channel_fraction
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.id)
            .field("tier", &self.profile.tier)
            .field("channels", &self.active_channels())
            .field("precision", &self.precision)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_client(seed: u64) -> Client {
        Client::new(0, Dataset::generate(200, seed), HardwareTier::Mobile, seed)
    }

    #[test]
    fn local_training_improves_accuracy() {
        let mut c = small_client(1);
        let test = Dataset::generate(200, 99);
        let before = c.evaluate(&test);
        c.local_train(40);
        let after = c.evaluate(&test);
        assert!(after > before + 0.2, "before {before} after {after}");
        assert!(after > 0.5, "accuracy {after}");
    }

    #[test]
    fn params_roundtrip() {
        let mut c = small_client(2);
        let p = c.params_flat();
        let mut q = p.clone();
        q[0] += 1.0;
        c.set_params_flat(&q);
        assert_eq!(c.params_flat(), q);
    }

    #[test]
    fn channel_fraction_controls_macs() {
        let mut c = small_client(3);
        let full = c.macs_per_forward();
        c.channel_fraction = 0.5;
        let half = c.macs_per_forward();
        assert!(half < full);
        assert_eq!(c.active_channels(), HIDDEN / 2);
    }

    #[test]
    fn subnetwork_mask_consistent_with_params() {
        let mut c = small_client(4);
        c.channel_fraction = 0.25;
        let mask = c.subnetwork_mask();
        assert_eq!(mask.len(), c.params_flat().len());
        let active = mask.iter().filter(|&&m| m > 0.0).count();
        assert!(active < mask.len());
        assert_eq!(c.active_param_count(), active);
        // 16-bit wire: 2 bytes per active parameter; 4-bit: a quarter.
        assert_eq!(c.upload_bytes(16), 2 * active as u64);
        assert_eq!(c.upload_bytes(4), (active as u64).div_ceil(2));
    }

    #[test]
    fn pruned_client_still_learns() {
        let mut c = small_client(5);
        c.channel_fraction = 0.33;
        c.local_train(40);
        let test = Dataset::generate(200, 98);
        let acc = c.evaluate(&test);
        assert!(acc > 0.4, "pruned accuracy {acc}");
    }

    #[test]
    fn low_precision_cuts_energy_and_latency() {
        let mut c = small_client(6);
        let e_full = c.round_energy_j(1);
        let l_full = c.round_latency_s(1);
        c.precision = Precision::Int4;
        assert!(c.round_energy_j(1) < e_full);
        assert!(c.round_latency_s(1) < l_full);
        assert!(c.area_utilization() < 1.0);
    }

    #[test]
    fn evaluate_survives_nan_features() {
        // Regression: the argmax over logits used `partial_cmp().unwrap()`,
        // which panics as soon as a NaN feature poisons a logit row. A
        // sensor-dropout sample must degrade accuracy, not crash evaluation.
        let mut c = small_client(7);
        let mut samples = Dataset::generate(50, 97).samples().to_vec();
        for s in samples.iter_mut().take(10) {
            s.features[0] = f64::NAN;
        }
        let acc = c.evaluate(&Dataset::from_samples(samples));
        assert!((0.0..=1.0).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn tiers_ordered_by_speed() {
        let gpu = HardwareProfile::of(HardwareTier::EdgeGpu);
        let mobile = HardwareProfile::of(HardwareTier::Mobile);
        let mcu = HardwareProfile::of(HardwareTier::Mcu);
        assert!(gpu.macs_per_second > mobile.macs_per_second);
        assert!(mobile.macs_per_second > mcu.macs_per_second);
        assert!(gpu.capability() <= 1.0 && gpu.capability() > mcu.capability());
    }
}
