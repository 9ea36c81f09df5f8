//! Low-Rank Adaptation (LoRA) for dense layers.
//!
//! STARNet (paper §V) fine-tunes its monitor on-device by constraining updates
//! to a low-dimensional subspace: the frozen base weight `W` is augmented with
//! a trainable rank-`r` product, `W' = W + (α/r)·A·B`. Only `A` and `B`
//! receive gradients, shrinking both memory traffic and update cost.

use crate::init::Initializer;
use crate::layers::{Dense, Layer};
use crate::tensor::Tensor;
use sensact_math::kernels;

/// A [`Dense`] layer with a frozen base and a trainable low-rank adapter.
pub struct LoraDense {
    base: Dense,
    rank: usize,
    scale: f64,
    /// Adapter A: `[in, rank]`, Gaussian-initialized.
    a: Vec<f64>,
    /// Adapter B: `[rank, out]`, zero-initialized (adapter starts as no-op).
    b: Vec<f64>,
    grad_a: Vec<f64>,
    grad_b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    cached_input: Option<Tensor>,
    cached_xa: Option<Tensor>,
}

impl LoraDense {
    /// Wrap a trained dense layer with a rank-`rank`, gain-`alpha` adapter.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or `rank` exceeds either layer dimension.
    pub fn new(base: Dense, rank: usize, alpha: f64, init: &mut Initializer) -> Self {
        let in_dim = base.in_dim();
        let out_dim = base.out_dim();
        assert!(rank > 0, "LoRA rank must be positive");
        assert!(
            rank <= in_dim.min(out_dim),
            "LoRA rank {rank} exceeds layer dims {in_dim}x{out_dim}"
        );
        let a: Vec<f64> = (0..in_dim * rank).map(|_| init.normal(0.0, 0.02)).collect();
        LoraDense {
            rank,
            scale: alpha / rank as f64,
            a,
            b: vec![0.0; rank * out_dim],
            grad_a: vec![0.0; in_dim * rank],
            grad_b: vec![0.0; rank * out_dim],
            in_dim,
            out_dim,
            cached_input: None,
            cached_xa: None,
            base,
        }
    }

    /// Number of trainable (adapter-only) parameters.
    pub fn adapter_param_count(&self) -> usize {
        self.a.len() + self.b.len()
    }

    /// Merge the adapter into the base weights and return the plain layer.
    pub fn merge(self) -> Dense {
        let mut base = self.base;
        for i in 0..self.in_dim {
            for o in 0..self.out_dim {
                let mut delta = 0.0;
                for r in 0..self.rank {
                    delta += self.a[i * self.rank + r] * self.b[r * self.out_dim + o];
                }
                base.weights[i * self.out_dim + o] += self.scale * delta;
            }
        }
        base
    }
}

impl Layer for LoraDense {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let batch = input.shape()[0];
        assert_eq!(
            input.shape()[1],
            self.in_dim,
            "LoraDense: input dim mismatch"
        );
        // Base path (frozen — use apply to avoid caching in base).
        let mut out = self.base.apply(input);
        // Adapter path: out += scale · (x A) B, lowered to two slice GEMMs
        // (alpha carries the scale, beta = 1.0 accumulates onto the base path).
        let mut xa = Tensor::zeros(vec![batch, self.rank]);
        kernels::gemm(
            batch,
            self.rank,
            self.in_dim,
            1.0,
            input.as_slice(),
            &self.a,
            0.0,
            xa.as_mut_slice(),
        );
        kernels::gemm(
            batch,
            self.out_dim,
            self.rank,
            self.scale,
            xa.as_slice(),
            &self.b,
            1.0,
            out.as_mut_slice(),
        );
        self.cached_input = Some(input.clone());
        self.cached_xa = Some(xa);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("LoraDense::backward before forward");
        let xa = self.cached_xa.as_ref().unwrap();
        let batch = input.shape()[0];
        // grad_b += scale · xaᵀ g (beta = 1.0 accumulates across calls).
        kernels::gemm_transa(
            self.rank,
            self.out_dim,
            batch,
            self.scale,
            xa.as_slice(),
            grad_out.as_slice(),
            1.0,
            &mut self.grad_b,
        );
        // g_xa = scale · g Bᵀ — B is [rank, out] row-major, the transb layout.
        let mut gxa = vec![0.0; batch * self.rank];
        kernels::gemm_transb(
            batch,
            self.rank,
            self.out_dim,
            self.scale,
            grad_out.as_slice(),
            &self.b,
            0.0,
            &mut gxa,
        );
        // grad_a += xᵀ g_xa
        kernels::gemm_transa(
            self.in_dim,
            self.rank,
            batch,
            1.0,
            input.as_slice(),
            &gxa,
            1.0,
            &mut self.grad_a,
        );
        // grad_x = g Wᵀ + g_xa Aᵀ — base path plus adapter path, both via
        // transb since W is [in, out] and A is [in, rank] row-major.
        let mut grad_in = Tensor::zeros(vec![batch, self.in_dim]);
        kernels::gemm_transb(
            batch,
            self.in_dim,
            self.out_dim,
            1.0,
            grad_out.as_slice(),
            &self.base.weights,
            0.0,
            grad_in.as_mut_slice(),
        );
        kernels::gemm_transb(
            batch,
            self.in_dim,
            self.rank,
            1.0,
            &gxa,
            &self.a,
            1.0,
            grad_in.as_mut_slice(),
        );
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        // Only the adapter trains; the base stays frozen.
        f(&mut self.a, &mut self.grad_a);
        f(&mut self.b, &mut self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.adapter_param_count()
    }

    fn macs(&self, batch: usize) -> u64 {
        self.base.macs(batch) + (batch * self.rank * (self.in_dim + self.out_dim)) as u64
    }

    fn name(&self) -> &'static str {
        "LoraDense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use crate::optim::{Adam, Optimizer};

    fn fresh(seed: u64, in_dim: usize, out_dim: usize, rank: usize) -> LoraDense {
        let mut init = Initializer::new(seed);
        let base = Dense::new(in_dim, out_dim, &mut init);
        LoraDense::new(base, rank, rank as f64, &mut init)
    }

    #[test]
    fn zero_b_makes_adapter_noop() {
        let mut init = Initializer::new(0);
        let base = Dense::new(3, 2, &mut init);
        let base_copy = base.clone();
        let mut lora = LoraDense::new(base, 2, 2.0, &mut init);
        let x = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.8, 1.0, 0.0, -0.4]);
        let y_lora = lora.forward(&x, false);
        let y_base = base_copy.apply(&x);
        assert_eq!(y_lora, y_base);
    }

    #[test]
    fn adapter_trains_while_base_frozen() {
        let mut lora = fresh(1, 4, 2, 2);
        let base_weights = lora.base.weights.clone();
        let x = Tensor::from_vec(
            vec![4, 4],
            (0..16).map(|i| (i as f64 * 0.3).sin()).collect(),
        );
        let y = Tensor::from_vec(vec![4, 2], (0..8).map(|i| (i as f64 * 0.5).cos()).collect());
        let mut opt = Adam::new(0.05);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..200 {
            let pred = lora.forward(&x, true);
            let (l, g) = loss::mse(&pred, &y);
            if it == 0 {
                first = l;
            }
            last = l;
            lora.backward(&g);
            opt.step(&mut lora);
            lora.zero_grad();
        }
        assert!(last < first * 0.5, "first {first} last {last}");
        assert_eq!(lora.base.weights, base_weights, "base must stay frozen");
    }

    #[test]
    fn gradient_check_input_path() {
        let mut lora = fresh(3, 3, 3, 2);
        // Non-zero adapter so both paths are exercised.
        for v in lora.b.iter_mut() {
            *v = 0.3;
        }
        let x = Tensor::from_vec(vec![1, 3], vec![0.4, -0.6, 0.9]);
        let out = lora.forward(&x, false);
        let grad_in = lora.backward(&out);
        let eps = 1e-5;
        for i in 0..3 {
            let mut p = x.clone();
            p[i] += eps;
            let mut m = x.clone();
            m[i] -= eps;
            let lp: f64 = lora
                .forward(&p, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let lm: f64 = lora
                .forward(&m, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "grad {i}: numeric {numeric} vs {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn merge_reproduces_adapted_output() {
        let mut lora = fresh(5, 3, 2, 1);
        for v in lora.a.iter_mut() {
            *v = 0.5;
        }
        for v in lora.b.iter_mut() {
            *v = -0.25;
        }
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, -1.0]);
        let y_adapted = lora.forward(&x, false);
        let merged = lora.merge();
        let y_merged = merged.apply(&x);
        for (a, b) in y_adapted.as_slice().iter().zip(y_merged.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn adapter_far_smaller_than_base() {
        let lora = fresh(0, 64, 64, 4);
        assert!(lora.adapter_param_count() * 4 < 64 * 64);
        assert_eq!(lora.param_count(), lora.adapter_param_count());
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn zero_rank_panics() {
        let mut init = Initializer::new(0);
        let base = Dense::new(3, 3, &mut init);
        let _ = LoraDense::new(base, 0, 1.0, &mut init);
    }
}
