//! Spiking layers with surrogate-gradient BPTT.
//!
//! The unit is a `SpikingDense` layer: a shared dense synapse followed by
//! leaky integrate-and-fire neurons unrolled over the event-volume time bins.
//! Membrane update (soft reset):
//!
//! ```text
//! v_t = λ · v_{t−1} · (1 − s_{t−1}) + W x_t
//! s_t = H(v_t − v_th)
//! ```
//!
//! Spikes are non-differentiable; training uses the triangular surrogate
//! `∂s/∂v ≈ max(0, 1 − |v − v_th|/w) / w`. Adaptive-SpikeNet's contribution —
//! *learnable* λ and `v_th` — is reproduced by making both trainable
//! parameters with hand-derived BPTT gradients.

use sensact_nn::layers::{Dense, Layer};
use sensact_nn::{Initializer, Tensor};

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Surrogate derivative window width.
const SURROGATE_WIDTH: f64 = 1.0;

fn surrogate(v: f64, vth: f64) -> f64 {
    (1.0 - (v - vth).abs() / SURROGATE_WIDTH).max(0.0) / SURROGATE_WIDTH
}

/// A dense synapse + LIF population unrolled over time.
pub(crate) struct SpikingDense {
    synapse: Dense,
    /// Raw leak parameter; `λ = σ(leak_raw)`.
    leak_raw: Vec<f64>,
    /// Raw threshold parameter; `v_th = softplus(vth_raw)`.
    vth_raw: Vec<f64>,
    grad_leak: Vec<f64>,
    grad_vth: Vec<f64>,
    /// Whether λ/v_th receive gradients (Adaptive-SpikeNet) or stay fixed.
    pub learnable_dynamics: bool,
    out_dim: usize,
    // Per-timestep caches for BPTT.
    cache: Vec<StepCache>,
}

struct StepCache {
    v_pre: Tensor,  // membrane before spiking at t
    v_prev: Tensor, // membrane after t-1 (post reset-gating source)
    s_prev: Tensor, // spikes at t-1
}

impl SpikingDense {
    /// New layer with `in_dim → out_dim` synapses and initial `λ ≈ 0.82`,
    /// `v_th ≈ 0.69`.
    pub(crate) fn new(in_dim: usize, out_dim: usize, init: &mut Initializer) -> Self {
        SpikingDense {
            synapse: Dense::new(in_dim, out_dim, init),
            leak_raw: vec![1.5; out_dim],
            vth_raw: vec![0.0; out_dim],
            grad_leak: vec![0.0; out_dim],
            grad_vth: vec![0.0; out_dim],
            learnable_dynamics: true,
            out_dim,
            cache: Vec::new(),
        }
    }

    /// Current leak values `λ = σ(raw)`.
    pub(crate) fn leaks(&self) -> Vec<f64> {
        self.leak_raw.iter().map(|&r| sigmoid(r)).collect()
    }

    /// Current thresholds `v_th = softplus(raw)`.
    pub(crate) fn thresholds(&self) -> Vec<f64> {
        self.vth_raw.iter().map(|&r| (1.0 + r.exp()).ln()).collect()
    }

    /// Run the layer over a time sequence of `[batch, in]` tensors; returns
    /// the spike trains per step. Caches everything for
    /// [`SpikingDense::backward_sequence`].
    pub(crate) fn forward_sequence(&mut self, inputs: &[Tensor]) -> Vec<Tensor> {
        assert!(!inputs.is_empty(), "empty input sequence");
        let batch = inputs[0].shape()[0];
        self.cache.clear();
        let leaks = self.leaks();
        let vths = self.thresholds();
        let mut v = Tensor::zeros(vec![batch, self.out_dim]);
        let mut s = Tensor::zeros(vec![batch, self.out_dim]);
        let mut outputs = Vec::with_capacity(inputs.len());
        for x in inputs {
            let current = self.synapse.apply(x);
            let mut v_new = Tensor::zeros(vec![batch, self.out_dim]);
            let mut s_new = Tensor::zeros(vec![batch, self.out_dim]);
            for r in 0..batch {
                for j in 0..self.out_dim {
                    let idx = r * self.out_dim + j;
                    let vv = leaks[j] * v[idx] * (1.0 - s[idx]) + current[idx];
                    v_new[idx] = vv;
                    if vv > vths[j] {
                        s_new[idx] = 1.0;
                    }
                }
            }
            self.cache.push(StepCache {
                v_pre: v_new.clone(),
                v_prev: v.clone(),
                s_prev: s.clone(),
            });
            outputs.push(s_new.clone());
            v = v_new;
            s = s_new;
        }
        outputs
    }

    /// BPTT backward: per-step gradients w.r.t. the spike outputs; returns
    /// gradients w.r.t. the inputs when `input_grads` (a first layer's
    /// inputs are events: it asks for none, and gets an empty `Vec`).
    /// Accumulates synapse/dynamics gradients.
    ///
    /// # Panics
    ///
    /// Panics if the sequence lengths mismatch or forward was not run.
    pub(crate) fn backward_sequence(
        &mut self,
        grads: &[Tensor],
        inputs: &[Tensor],
        input_grads: bool,
    ) -> Vec<Tensor> {
        assert_eq!(grads.len(), self.cache.len(), "grad/cache length mismatch");
        assert_eq!(
            inputs.len(),
            self.cache.len(),
            "input/cache length mismatch"
        );
        let t_max = grads.len();
        let batch = grads[0].shape()[0];
        let leaks = self.leaks();
        let vths = self.thresholds();
        // Filled latest bin first.
        let mut grad_inputs = Vec::with_capacity(if input_grads { t_max } else { 0 });
        // dL/dv_{t} carried backward through the recurrence.
        let mut g_v_next = Tensor::zeros(vec![batch, self.out_dim]);

        for t in (0..t_max).rev() {
            let cache = &self.cache[t];
            let mut g_current = Tensor::zeros(vec![batch, self.out_dim]);
            for r in 0..batch {
                for j in 0..self.out_dim {
                    let idx = r * self.out_dim + j;
                    let v = cache.v_pre[idx];
                    // Total gradient on v_t: the spike output path (surrogate)
                    // plus the next step's membrane recurrence (g_v_next
                    // already carries the λ(1−s_t) factor). The reset path
                    // through s_t is detached — standard SNN training
                    // practice, avoids the discontinuous reset gradient.
                    let ds_dv = surrogate(v, vths[j]);
                    let g_s = grads[t][idx];
                    let g_v = g_s * ds_dv + g_v_next[idx];
                    // Dynamics parameter gradients: v_t = λ v_{t−1}(1−s_{t−1}) + I.
                    if self.learnable_dynamics {
                        let lam = leaks[j];
                        self.grad_leak[j] +=
                            g_v * cache.v_prev[idx] * (1.0 - cache.s_prev[idx]) * lam * (1.0 - lam); // dλ/draw = σ'(raw)
                                                                                                     // v_th enters through the spike indicator: ∂s/∂vth = −surrogate.
                        let dvth_draw = sigmoid(self.vth_raw[j]); // softplus'
                        self.grad_vth[j] += -grads[t][idx] * ds_dv * dvth_draw;
                    }
                    g_current[idx] = g_v;
                }
            }
            // Synapse backward for this step, against this bin's input: the
            // forward kept no cache for it.
            let grad_in = self.synapse.backprop(&inputs[t], &g_current, input_grads);
            grad_inputs.extend(grad_in);
            // Prepare dL/dv_{t-1}.
            let mut g_v_prev = Tensor::zeros(vec![batch, self.out_dim]);
            for r in 0..batch {
                for (j, &leak) in leaks.iter().enumerate().take(self.out_dim) {
                    let idx = r * self.out_dim + j;
                    g_v_prev[idx] = g_current[idx] * leak * (1.0 - cache.s_prev[idx]);
                }
            }
            g_v_next = g_v_prev;
        }
        grad_inputs.reverse();
        grad_inputs
    }

    /// Visit trainable parameters: synapse weights, plus λ/v_th when
    /// `learnable_dynamics` is set.
    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.synapse.visit_params(f);
        if self.learnable_dynamics {
            f(&mut self.leak_raw, &mut self.grad_leak);
            f(&mut self.vth_raw, &mut self.grad_vth);
        }
    }

    /// Trainable parameter count.
    pub(crate) fn param_count(&self) -> usize {
        self.synapse.param_count()
            + if self.learnable_dynamics {
                2 * self.out_dim
            } else {
                0
            }
    }

    /// Synaptic operations (accumulates) for one sequence: only *spiking*
    /// inputs trigger synapse work — the event-driven saving.
    pub(crate) fn synaptic_ops(&self, inputs: &[Tensor]) -> u64 {
        let active: u64 = inputs
            .iter()
            .map(|x| x.as_slice().iter().filter(|&&v| v != 0.0).count() as u64)
            .sum();
        active * self.out_dim as u64
    }
}

impl std::fmt::Debug for SpikingDense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpikingDense")
            .field("out_dim", &self.out_dim)
            .field("learnable_dynamics", &self.learnable_dynamics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_sequence(value: f64, t: usize, batch: usize, dim: usize) -> Vec<Tensor> {
        (0..t)
            .map(|_| Tensor::full(vec![batch, dim], value))
            .collect()
    }

    #[test]
    fn silent_without_input() {
        let mut init = Initializer::new(0);
        let mut layer = SpikingDense::new(4, 6, &mut init);
        let outs = layer.forward_sequence(&constant_sequence(0.0, 5, 2, 4));
        let spikes: f64 = outs.iter().map(|o| o.sum()).sum();
        // Bias-only drive is small; spikes rare.
        assert!(spikes <= 10.0);
        assert_eq!(outs.len(), 5);
    }

    #[test]
    fn strong_input_spikes() {
        let mut init = Initializer::new(1);
        let mut layer = SpikingDense::new(4, 6, &mut init);
        // Force strong positive drive.
        layer.synapse.weights.iter_mut().for_each(|w| *w = 1.0);
        let outs = layer.forward_sequence(&constant_sequence(1.0, 4, 1, 4));
        let spikes: f64 = outs.iter().map(|o| o.sum()).sum();
        assert!(spikes > 0.0, "no spikes under strong drive");
    }

    #[test]
    fn membrane_integrates_subthreshold_input() {
        // Weak constant input: no spike at t=0, spikes later once the
        // membrane has integrated — the temporal memory of the LIF.
        let mut init = Initializer::new(2);
        let mut layer = SpikingDense::new(1, 1, &mut init);
        layer.synapse.weights = vec![0.45];
        layer.synapse.bias = vec![0.0];
        layer.leak_raw = vec![3.0]; // λ ≈ 0.95
        layer.vth_raw = vec![0.0]; // v_th ≈ 0.69
        let outs = layer.forward_sequence(&constant_sequence(1.0, 6, 1, 1));
        assert_eq!(outs[0][0], 0.0, "spiked immediately");
        let total: f64 = outs.iter().map(|o| o.sum()).sum();
        assert!(total > 0.0, "never integrated to threshold");
    }

    #[test]
    fn training_decreases_spike_regression_loss() {
        // Learn to produce a target spike count by regressing summed spikes.
        let mut init = Initializer::new(3);
        let mut layer = SpikingDense::new(3, 4, &mut init);
        let inputs = constant_sequence(0.8, 5, 2, 3);
        let mut opt = sensact_nn::optim::Adam::new(0.02);
        use sensact_nn::optim::Optimizer;

        let target = Tensor::full(vec![2, 4], 0.6);
        let loss_of = |outs: &[Tensor]| -> (f64, Vec<Tensor>) {
            // Mean spike rate across time vs target; grad split across steps.
            let t = outs.len() as f64;
            let mut mean = Tensor::zeros(vec![2, 4]);
            for o in outs {
                mean = mean.add(o);
            }
            mean = mean.scaled(1.0 / t);
            let (l, g) = sensact_nn::loss::mse(&mean, &target);
            let per_step = g.scaled(1.0 / t);
            (l, vec![per_step; outs.len()])
        };

        let outs = layer.forward_sequence(&inputs);
        let (first, _) = loss_of(&outs);
        let mut last = first;
        for _ in 0..60 {
            let outs = layer.forward_sequence(&inputs);
            let (l, grads) = loss_of(&outs);
            last = l;
            let _ = layer.backward_sequence(&grads, &inputs, true);
            opt.step_params(&mut |f| layer.visit_params(f));
        }
        assert!(
            last <= first,
            "surrogate training made things worse: {first} -> {last}"
        );
    }

    #[test]
    fn learnable_dynamics_adds_params() {
        let mut init = Initializer::new(4);
        let mut adaptive = SpikingDense::new(3, 5, &mut init);
        let fixed_count = {
            adaptive.learnable_dynamics = false;
            adaptive.param_count()
        };
        adaptive.learnable_dynamics = true;
        assert_eq!(adaptive.param_count(), fixed_count + 10);
    }

    #[test]
    fn synaptic_ops_scale_with_activity() {
        let mut init = Initializer::new(5);
        let layer = SpikingDense::new(4, 8, &mut init);
        let dense_in = constant_sequence(1.0, 3, 1, 4);
        let sparse_in = vec![
            Tensor::from_vec(vec![1, 4], vec![1.0, 0.0, 0.0, 0.0]),
            Tensor::zeros(vec![1, 4]),
            Tensor::zeros(vec![1, 4]),
        ];
        assert_eq!(layer.synaptic_ops(&dense_in), 12 * 8);
        assert_eq!(layer.synaptic_ops(&sparse_in), 8);
    }

    #[test]
    fn leaks_and_thresholds_in_valid_ranges() {
        let mut init = Initializer::new(6);
        let layer = SpikingDense::new(2, 3, &mut init);
        for l in layer.leaks() {
            assert!((0.0..1.0).contains(&l));
        }
        for v in layer.thresholds() {
            assert!(v > 0.0);
        }
    }

    fn wave(shape: [usize; 2], phase: f64) -> Tensor {
        let n = shape[0] * shape[1];
        Tensor::from_vec(
            shape.to_vec(),
            (0..n).map(|i| (i as f64 * 0.71 + phase).sin()).collect(),
        )
    }

    fn grad_bits(layer: &mut SpikingDense) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        layer.visit_params(&mut |_, g| out.push(g.iter().map(|v| v.to_bits()).collect()));
        out
    }

    /// A sequence backward that asks for no input gradients returns none
    /// and accumulates the parameter-gradient bits of one that does.
    #[test]
    fn the_params_only_sequence_backward_keeps_the_gradients() {
        let inputs: Vec<Tensor> = (0..4)
            .map(|t| wave([2, 5], t as f64).map(|v| v.max(0.0)))
            .collect();
        let grads: Vec<Tensor> = (0..4).map(|t| wave([2, 6], 1.7 * t as f64)).collect();
        let layer = || {
            let mut l = SpikingDense::new(5, 6, &mut Initializer::new(8));
            l.synapse.weights.iter_mut().for_each(|w| *w += 0.4);
            let _ = l.forward_sequence(&inputs);
            l
        };
        let (mut full, mut params_only) = (layer(), layer());
        let grad_inputs = full.backward_sequence(&grads, &inputs, true);
        assert!(params_only
            .backward_sequence(&grads, &inputs, false)
            .is_empty());
        assert_eq!(grad_inputs.len(), 4);
        assert_eq!(grad_bits(&mut params_only), grad_bits(&mut full));
        assert!(grad_bits(&mut full)
            .iter()
            .flatten()
            .any(|&b| f64::from_bits(b) != 0.0));
    }
}
