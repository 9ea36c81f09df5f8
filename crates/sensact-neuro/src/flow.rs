//! Optical-flow model family for Fig. 9.
//!
//! All models predict coarse region flow (4×4 regions × (u, v)) from the same
//! event volumes and are trained identically (MSE on ground-truth region
//! flow); they differ in how they consume the events:
//!
//! * [`FlowModelKind::FullAnn`] — EV-FlowNet stand-in: time-collapsed event
//!   counts through a dense MLP. Every synapse is a MAC every inference.
//! * [`FlowModelKind::HybridSnnAnn`] — Spike-FlowNet stand-in: spiking
//!   encoder (event-driven accumulates) + ANN decoder.
//! * [`FlowModelKind::Fusion`] — Fusion-FlowNet stand-in: the hybrid plus a
//!   frame branch (absolute intensity) fused before decoding.
//! * [`FlowModelKind::FullSnn`] — Adaptive-SpikeNet stand-in: two spiking
//!   layers with learnable neuron dynamics + linear read-out.

use crate::energy::EnergyLedger;
use crate::event::MovingScene;
use crate::snn::SpikingDense;
use sensact_nn::layers::{ActKind, Activation, Dense, Layer};
use sensact_nn::optim::{Adam, Optimizer};
use sensact_nn::{Initializer, Sequential, Tensor};

/// Time bins per event volume.
pub(crate) const TIME_BINS: usize = 4;
/// Flow regions per image side.
pub(crate) const REGIONS: usize = 4;

/// Model family member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowModelKind {
    /// Dense ANN on time-collapsed events (EV-FlowNet-like).
    FullAnn,
    /// Spiking encoder + ANN decoder (Spike-FlowNet-like).
    HybridSnnAnn,
    /// Hybrid + frame branch (Fusion-FlowNet-like).
    Fusion,
    /// Two spiking layers, learnable dynamics (Adaptive-SpikeNet-like).
    FullSnn,
}

impl std::fmt::Display for FlowModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FlowModelKind::FullAnn => "EvFlow(ANN)",
            FlowModelKind::HybridSnnAnn => "SpikeFlow(hybrid)",
            FlowModelKind::Fusion => "FusionFlow",
            FlowModelKind::FullSnn => "AdaptiveSpikeNet",
        };
        write!(f, "{s}")
    }
}

enum Encoder {
    Ann(Sequential),
    /// Spiking layers, each fed the previous layer's spike trains.
    Snn(Vec<SpikingDense>),
}

/// A trainable flow model.
pub struct FlowModel {
    kind: FlowModelKind,
    encoder: Encoder,
    frame_branch: Option<Dense>,
    decoder: Sequential,
    input_dim: usize,
    frame_dim: usize,
    hidden: usize,
    opt: Adam,
}

impl FlowModel {
    /// Build a model for 16×16 scenes with the given hidden width.
    pub fn new(kind: FlowModelKind, hidden: usize, seed: u64) -> Self {
        Self::with_dims(kind, hidden, 16, seed)
    }

    /// Build for `side × side` scenes.
    pub(crate) fn with_dims(kind: FlowModelKind, hidden: usize, side: usize, seed: u64) -> Self {
        let mut init = Initializer::new(seed);
        let input_dim = 2 * side * side;
        let frame_dim = side * side;
        let out_dim = 2 * REGIONS * REGIONS;
        let (encoder, frame_branch, dec_in) = match kind {
            FlowModelKind::FullAnn => (
                Encoder::Ann(Sequential::new(vec![
                    Box::new(Dense::new(input_dim, hidden, &mut init)),
                    Box::new(Activation::new(ActKind::Relu)),
                ])),
                None,
                hidden,
            ),
            FlowModelKind::HybridSnnAnn => (
                Encoder::Snn(vec![SpikingDense::new(input_dim, hidden, &mut init)]),
                None,
                hidden,
            ),
            FlowModelKind::Fusion => (
                Encoder::Snn(vec![SpikingDense::new(input_dim, hidden, &mut init)]),
                Some(Dense::new(frame_dim, hidden / 2, &mut init)),
                hidden + hidden / 2,
            ),
            FlowModelKind::FullSnn => {
                let mut l1 = SpikingDense::new(input_dim, hidden, &mut init);
                let mut l2 = SpikingDense::new(hidden, hidden, &mut init);
                l1.learnable_dynamics = true;
                l2.learnable_dynamics = true;
                (Encoder::Snn(vec![l1, l2]), None, hidden)
            }
        };
        let decoder = match kind {
            // Full-SNN keeps the decoder linear (read-out only).
            FlowModelKind::FullSnn => {
                Sequential::new(vec![Box::new(Dense::new(dec_in, out_dim, &mut init))])
            }
            _ => Sequential::new(vec![
                Box::new(Dense::new(dec_in, hidden, &mut init)),
                Box::new(Activation::new(ActKind::Relu)),
                Box::new(Dense::new(hidden, out_dim, &mut init)),
            ]),
        };
        FlowModel {
            kind,
            encoder,
            frame_branch,
            decoder,
            input_dim,
            frame_dim,
            hidden,
            opt: Adam::new(3e-3),
        }
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        let enc = match &self.encoder {
            Encoder::Ann(s) => s.param_count(),
            Encoder::Snn(layers) => layers.iter().map(SpikingDense::param_count).sum(),
        };
        enc + self.decoder.param_count() + self.frame_branch.as_ref().map_or(0, |f| f.param_count())
    }

    fn event_inputs(&self, scene: &MovingScene) -> Vec<Tensor> {
        scene
            .events
            .to_bins(TIME_BINS)
            .into_iter()
            .map(|b| Tensor::from_vec(vec![1, self.input_dim], b))
            .collect()
    }

    /// Forward to encoder features (and cache whatever training needs);
    /// returns `(features, each spiking layer's input sequence for BPTT)`.
    fn encode(
        &mut self,
        scene: &MovingScene,
        ledger: Option<&mut EnergyLedger>,
    ) -> (Tensor, Vec<Vec<Tensor>>) {
        let inputs = self.event_inputs(scene);
        let mut ledger = ledger;
        let mut layer_inputs = Vec::new();
        let features = match &mut self.encoder {
            Encoder::Ann(net) => {
                // Time-collapse.
                let mut sum = Tensor::zeros(vec![1, self.input_dim]);
                for x in &inputs {
                    sum = sum.add(x);
                }
                if let Some(l) = ledger.as_deref_mut() {
                    l.add_macs(net.macs(1));
                }
                net.forward(&sum, true)
            }
            Encoder::Snn(layers) => {
                let mut spikes = inputs;
                for layer in layers.iter_mut() {
                    let next = layer.forward_sequence(&spikes);
                    if let Some(l) = ledger.as_deref_mut() {
                        l.add_acs(layer.synaptic_ops(&spikes));
                    }
                    layer_inputs.push(std::mem::replace(&mut spikes, next));
                }
                let mut sum = Tensor::zeros(vec![1, self.hidden]);
                for s in &spikes {
                    sum = sum.add(s);
                }
                sum.scaled(1.0 / TIME_BINS as f64)
            }
        };
        (features, layer_inputs)
    }

    /// Predict region flow for a scene.
    pub fn predict(&mut self, scene: &MovingScene) -> Vec<(f64, f64)> {
        let (mut features, _) = self.encode(scene, None);
        if let Some(fb) = &mut self.frame_branch {
            let frame = Tensor::from_vec(vec![1, self.frame_dim], scene.first_frame.clone());
            let f = fb.apply(&frame);
            let mut combined = features.into_vec();
            combined.extend_from_slice(f.as_slice());
            features = Tensor::from_vec(vec![1, combined.len()], combined);
        }
        let out = self.decoder.forward(&features, false);
        out.as_slice().chunks(2).map(|c| (c[0], c[1])).collect()
    }

    /// One training pass over the scenes; returns the mean loss.
    pub fn train_epoch(&mut self, scenes: &[MovingScene]) -> f64 {
        let mut total = 0.0;
        for scene in scenes {
            let target: Vec<f64> = scene
                .region_flow(REGIONS)
                .into_iter()
                .flat_map(|(u, v)| [u, v])
                .collect();
            let target = Tensor::from_vec(vec![1, target.len()], target);

            let (features, layer_inputs) = self.encode(scene, None);
            // Frame branch (training forward).
            let (dec_in, frame_feat_len) = if let Some(fb) = &mut self.frame_branch {
                let frame = Tensor::from_vec(vec![1, self.frame_dim], scene.first_frame.clone());
                let f = fb.forward(&frame, true);
                let mut combined = features.as_slice().to_vec();
                combined.extend_from_slice(f.as_slice());
                let len = f.len();
                (Tensor::from_vec(vec![1, combined.len()], combined), len)
            } else {
                (features.clone(), 0)
            };
            let pred = self.decoder.forward(&dec_in, true);
            let (loss, grad) = sensact_nn::loss::mse(&pred, &target);
            total += loss;
            let g_dec_in = self.decoder.backward(&grad);
            // Split decoder input gradient back into encoder / frame parts.
            let enc_len = g_dec_in.len() - frame_feat_len;
            let g_enc = Tensor::from_vec(vec![1, enc_len], g_dec_in.as_slice()[..enc_len].to_vec());
            if let Some(fb) = &mut self.frame_branch {
                let g_frame = Tensor::from_vec(
                    vec![1, frame_feat_len],
                    g_dec_in.as_slice()[enc_len..].to_vec(),
                );
                let _ = fb.backward(&g_frame);
            }
            // Encoder backward.
            match &mut self.encoder {
                Encoder::Ann(net) => {
                    let _ = net.backward(&g_enc);
                }
                Encoder::Snn(layers) => {
                    let per_step = g_enc.scaled(1.0 / TIME_BINS as f64);
                    let mut grads = vec![per_step; TIME_BINS];
                    for (layer, inputs) in layers.iter_mut().zip(&layer_inputs).rev() {
                        grads = layer.backward_sequence(&grads, inputs);
                    }
                }
            }
            self.step_optimizer();
        }
        total / scenes.len().max(1) as f64
    }

    fn step_optimizer(&mut self) {
        self.opt.step_params(&mut |f| {
            match &mut self.encoder {
                Encoder::Ann(s) => s.visit_params(f),
                Encoder::Snn(layers) => layers.iter_mut().for_each(|l| l.visit_params(f)),
            }
            if let Some(fb) = &mut self.frame_branch {
                fb.visit_params(f);
            }
            self.decoder.visit_params(f);
        });
    }

    /// Mean average-endpoint-error over scenes.
    pub fn evaluate_aee(&mut self, scenes: &[MovingScene]) -> f64 {
        let mut total = 0.0;
        for scene in scenes {
            let pred = self.predict(scene);
            let truth = scene.region_flow(REGIONS);
            total += sensact_math::metrics::endpoint_error(&pred, &truth);
        }
        total / scenes.len().max(1) as f64
    }

    /// Operation ledger for one inference on a scene.
    pub fn inference_energy(&mut self, scene: &MovingScene) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        let (_features, _) = self.encode(scene, Some(&mut ledger));
        // Decoder and frame branch are clocked (MAC) components.
        ledger.add_macs(self.decoder.macs(1));
        if let Some(fb) = &self.frame_branch {
            ledger.add_macs(fb.macs(1));
        }
        ledger
    }
}

impl std::fmt::Debug for FlowModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowModel")
            .field("kind", &self.kind)
            .field("hidden", &self.hidden)
            .field("params", &self.param_count())
            .finish()
    }
}

/// Generate a train/eval dataset of moving scenes.
pub fn flow_dataset(n: usize, seed: u64) -> Vec<MovingScene> {
    (0..n)
        .map(|i| {
            MovingScene::generate(
                crate::event::MovingSceneConfig::default(),
                seed ^ (i as u64 * 97),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_model(kind: FlowModelKind, hidden: usize, epochs: usize) -> (FlowModel, f64) {
        let train = flow_dataset(40, 7);
        let eval = flow_dataset(12, 999);
        let mut model = FlowModel::new(kind, hidden, 1);
        for _ in 0..epochs {
            model.train_epoch(&train);
        }
        let aee = model.evaluate_aee(&eval);
        (model, aee)
    }

    #[test]
    fn ann_learns_flow() {
        let (_, aee) = train_model(FlowModelKind::FullAnn, 32, 12);
        // Untrained AEE ≈ mean |flow| ≈ 0.1–0.3; trained must be well below.
        let eval = flow_dataset(12, 999);
        let mut fresh = FlowModel::new(FlowModelKind::FullAnn, 32, 5);
        let aee_fresh = fresh.evaluate_aee(&eval);
        assert!(aee < aee_fresh * 0.8, "trained {aee} vs fresh {aee_fresh}");
    }

    #[test]
    fn hybrid_learns_flow() {
        let (_, aee) = train_model(FlowModelKind::HybridSnnAnn, 32, 12);
        let eval = flow_dataset(12, 999);
        let mut fresh = FlowModel::new(FlowModelKind::HybridSnnAnn, 32, 5);
        let aee_fresh = fresh.evaluate_aee(&eval);
        assert!(aee < aee_fresh, "trained {aee} vs fresh {aee_fresh}");
    }

    #[test]
    fn fusion_beats_events_only() {
        let (_, aee_hybrid) = train_model(FlowModelKind::HybridSnnAnn, 32, 12);
        let (_, aee_fusion) = train_model(FlowModelKind::Fusion, 32, 12);
        // Fig. 9: Fusion-FlowNet has lower error than event-only models.
        assert!(
            aee_fusion < aee_hybrid * 1.15,
            "fusion {aee_fusion} vs hybrid {aee_hybrid}"
        );
    }

    #[test]
    fn snn_energy_below_ann_energy() {
        let eval = flow_dataset(4, 42);
        let mut ann = FlowModel::new(FlowModelKind::FullAnn, 32, 1);
        let mut snn = FlowModel::new(FlowModelKind::FullSnn, 32, 1);
        let model = crate::energy::OpEnergy::default();
        let mut e_ann = 0.0;
        let mut e_snn = 0.0;
        for s in &eval {
            e_ann += ann.inference_energy(s).energy_uj(&model);
            e_snn += snn.inference_energy(s).energy_uj(&model);
        }
        assert!(e_snn < e_ann, "SNN {e_snn} µJ not below ANN {e_ann} µJ");
    }

    #[test]
    fn param_counts_ordered_by_capacity() {
        let small = FlowModel::new(FlowModelKind::FullSnn, 16, 0);
        let big = FlowModel::new(FlowModelKind::FullSnn, 64, 0);
        assert!(big.param_count() > small.param_count() * 2);
    }

    #[test]
    fn predict_shape() {
        let mut model = FlowModel::new(FlowModelKind::Fusion, 16, 0);
        let scene = MovingScene::generate(crate::event::MovingSceneConfig::default(), 0);
        let flow = model.predict(&scene);
        assert_eq!(flow.len(), REGIONS * REGIONS);
    }

    #[test]
    fn kind_display() {
        assert_eq!(FlowModelKind::FullAnn.to_string(), "EvFlow(ANN)");
        assert_eq!(FlowModelKind::FullSnn.to_string(), "AdaptiveSpikeNet");
    }
}
