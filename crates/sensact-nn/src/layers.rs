//! Core layer trait and the dense and activation layers.
//!
//! Layers cache whatever `forward` state `backward` needs, and only on a
//! training forward (`train = true`); calling `backward` without a preceding
//! training forward is a programmer error and panics.

use crate::init::Initializer;
use crate::tensor::Tensor;

/// A differentiable network layer with manual backprop.
///
/// The contract is: `forward` runs the layer on a `[batch, features…]` input;
/// with `train = true` it also caches the activations `backward` needs, and
/// with `train = false` it owns nothing beyond the tensor it returns and
/// leaves any pending training cache as it was, so inference forwards may
/// interleave between a training forward and its `backward`. `backward`
/// consumes the gradient w.r.t. the output and returns the gradient w.r.t.
/// the input, accumulating parameter gradients internally; optimizers
/// traverse `(param, grad)` pairs through [`Layer::visit_params`].
///
/// `Send` is a supertrait so models built from boxed layers can migrate
/// across the fleet runtime's worker threads; every layer is plain owned
/// data, so this costs implementors nothing.
pub trait Layer: Send {
    /// Run the layer. `train` caches what `backward` needs; the output bits
    /// do not depend on it.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagate. Returns the gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// A layer that caches activations panics if no training forward
    /// (`train = true`) came first.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visit every `(parameter, gradient)` buffer pair in a fixed order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64]));

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| {
            for x in g.iter_mut() {
                *x = 0.0;
            }
        });
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize;

    /// Multiply-accumulate operations for one forward pass at `batch` rows.
    fn macs(&self, batch: usize) -> u64;

    /// Human-readable layer name for summaries.
    fn name(&self) -> &'static str;
}

/// Fully-connected affine layer `y = x W + b` with `W: [in, out]`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Weights, row-major `[in, out]`. Public for tests.
    pub weights: Vec<f64>,
    /// Bias, `[out]`.
    pub bias: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut Initializer) -> Self {
        Dense {
            in_dim,
            out_dim,
            weights: init.xavier(in_dim, out_dim),
            bias: vec![0.0; out_dim],
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
            cached_input: None,
        }
    }

    /// Forward pass without caching (inference-only helper). Lowers straight
    /// to the slice-level GEMM — no copy of the weight matrix is made.
    pub fn apply(&self, input: &Tensor) -> Tensor {
        let batch = input.shape()[0];
        assert_eq!(input.shape()[1], self.in_dim, "Dense: input dim mismatch");
        let mut out = Tensor::zeros(vec![batch, self.out_dim]);
        self.apply_into(batch, input.as_slice(), out.as_mut_slice());
        out
    }

    /// [`Dense::apply`] on row-major slices: `out` (`batch × out_dim`, fully
    /// overwritten) is `input` (`batch × in_dim`) times `W` plus the bias.
    /// Allocates nothing.
    pub fn apply_into(&self, batch: usize, input: &[f64], out: &mut [f64]) {
        // Seed every output row with the bias, then accumulate x W on top
        // (beta = 1.0 keeps the bias in place).
        for r in 0..batch {
            out[r * self.out_dim..][..self.out_dim].copy_from_slice(&self.bias);
        }
        sensact_math::kernels::gemm(
            batch,
            self.out_dim,
            self.in_dim,
            1.0,
            input,
            &self.weights,
            1.0,
            out,
        );
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = self.apply(input);
        if train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        let batch = input.shape()[0];
        assert_eq!(grad_out.shape(), &[batch, self.out_dim]);
        // grad_w += xᵀ g ; grad_b += Σ g ; grad_x = g Wᵀ
        // Weight gradient accumulates in place (beta = 1.0) so repeated
        // backward calls keep summing, matching optimiser expectations.
        sensact_math::kernels::gemm_transa(
            self.in_dim,
            self.out_dim,
            batch,
            1.0,
            input.as_slice(),
            grad_out.as_slice(),
            1.0,
            &mut self.grad_w,
        );
        for r in 0..batch {
            for (bg, &gj) in self.grad_b.iter_mut().zip(grad_out.row(r)) {
                *bg += gj;
            }
        }
        // weights are stored [in_dim, out_dim] row-major, which is exactly the
        // [n, k] layout gemm_transb expects for grad_in = grad_out · Wᵀ.
        let mut grad_in = Tensor::zeros(vec![batch, self.in_dim]);
        sensact_math::kernels::gemm_transb(
            batch,
            self.in_dim,
            self.out_dim,
            1.0,
            grad_out.as_slice(),
            &self.weights,
            0.0,
            grad_in.as_mut_slice(),
        );
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn macs(&self, batch: usize) -> u64 {
        (batch * self.in_dim * self.out_dim) as u64
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

/// Kinds of pointwise activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl ActKind {
    fn apply(self, x: f64) -> f64 {
        match self {
            ActKind::Relu => x.max(0.0),
            ActKind::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            ActKind::Tanh => x.tanh(),
            ActKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)` for
    /// tanh/sigmoid and the input sign for (leaky-)ReLU.
    fn derivative(self, x: f64, y: f64) -> f64 {
        match self {
            ActKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActKind::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            ActKind::Tanh => 1.0 - y * y,
            ActKind::Sigmoid => y * (1.0 - y),
        }
    }
}

/// Pointwise activation layer.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActKind,
    cached_in: Option<Tensor>,
    cached_out: Option<Tensor>,
}

impl Activation {
    /// Activation of the given kind.
    pub fn new(kind: ActKind) -> Self {
        Activation {
            kind,
            cached_in: None,
            cached_out: None,
        }
    }

    /// The activation applied in place, without caching (inference only).
    pub fn apply_in_place(&self, xs: &mut [f64]) {
        for x in xs {
            *x = self.kind.apply(*x);
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = input.map(|x| self.kind.apply(x));
        if train {
            self.cached_in = Some(input.clone());
            self.cached_out = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_in
            .as_ref()
            .expect("Activation::backward before forward");
        let y = self.cached_out.as_ref().unwrap();
        assert_eq!(grad_out.shape(), x.shape());
        let mut grad = grad_out.clone();
        for i in 0..grad.len() {
            grad[i] *= self.kind.derivative(x[i], y[i]);
        }
        grad
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f64], &mut [f64])) {}

    fn param_count(&self) -> usize {
        0
    }

    fn macs(&self, _batch: usize) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        match self.kind {
            ActKind::Relu => "ReLU",
            ActKind::LeakyRelu => "LeakyReLU",
            ActKind::Tanh => "Tanh",
            ActKind::Sigmoid => "Sigmoid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check of a layer through a scalar loss
    /// `L = Σ out²/2`, for which `dL/dout = out`.
    fn grad_check(layer: &mut dyn Layer, input: &Tensor, tol: f64) {
        let out = layer.forward(input, true);
        let grad_in = layer.backward(&out);
        let eps = 1e-5;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus[i] += eps;
            let mut minus = input.clone();
            minus[i] -= eps;
            let lp: f64 = layer
                .forward(&plus, false)
                .as_slice()
                .iter()
                .map(|x| x * x / 2.0)
                .sum();
            let lm: f64 = layer
                .forward(&minus, false)
                .as_slice()
                .iter()
                .map(|x| x * x / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < tol,
                "input grad {i}: numeric {numeric} vs analytic {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut init = Initializer::new(0);
        let mut d = Dense::new(2, 1, &mut init);
        d.weights = vec![2.0, 3.0];
        d.bias = vec![1.0];
        let x = Tensor::from_vec(vec![1, 2], vec![4.0, 5.0]);
        let y = d.forward(&x, false);
        assert_eq!(y.as_slice(), &[2.0 * 4.0 + 3.0 * 5.0 + 1.0]);
    }

    #[test]
    fn dense_gradient_check() {
        let mut init = Initializer::new(1);
        let mut d = Dense::new(3, 2, &mut init);
        let x = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);
        grad_check(&mut d, &x, 1e-6);
    }

    #[test]
    fn dense_weight_gradient_check() {
        let mut init = Initializer::new(2);
        let mut d = Dense::new(2, 2, &mut init);
        let x = Tensor::from_vec(vec![1, 2], vec![0.7, -0.4]);
        let out = d.forward(&x, true);
        d.zero_grad();
        let _ = d.forward(&x, true);
        let _ = d.backward(&out);
        // Numeric check on one weight.
        let eps = 1e-6;
        let mut analytic = vec![];
        d.visit_params(&mut |_, g| analytic.push(g.to_vec()));
        let wi = 1;
        d.weights[wi] += eps;
        let lp: f64 = d.apply(&x).as_slice().iter().map(|v| v * v / 2.0).sum();
        d.weights[wi] -= 2.0 * eps;
        let lm: f64 = d.apply(&x).as_slice().iter().map(|v| v * v / 2.0).sum();
        d.weights[wi] += eps;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic[0][wi]).abs() < 1e-6,
            "numeric {numeric} vs analytic {}",
            analytic[0][wi]
        );
    }

    #[test]
    fn activation_gradients() {
        for kind in [
            ActKind::Relu,
            ActKind::LeakyRelu,
            ActKind::Tanh,
            ActKind::Sigmoid,
        ] {
            let mut a = Activation::new(kind);
            let x = Tensor::from_vec(vec![1, 4], vec![0.5, -0.3, 1.2, -0.9]);
            grad_check(&mut a, &x, 1e-5);
        }
    }

    #[test]
    fn relu_clamps_negative() {
        let mut a = Activation::new(ActKind::Relu);
        let y = a.forward(&Tensor::from_vec(vec![1, 2], vec![-1.0, 2.0]), false);
        assert_eq!(y.as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn sigmoid_range() {
        let mut a = Activation::new(ActKind::Sigmoid);
        let y = a.forward(&Tensor::from_vec(vec![1, 3], vec![-50.0, 0.0, 50.0]), false);
        assert!(y[0] < 1e-10);
        assert!((y[1] - 0.5).abs() < 1e-12);
        assert!(y[2] > 1.0 - 1e-10);
    }

    #[test]
    fn param_counts_and_macs() {
        let mut init = Initializer::new(0);
        let d = Dense::new(10, 20, &mut init);
        assert_eq!(d.param_count(), 10 * 20 + 20);
        assert_eq!(d.macs(4), 4 * 10 * 20);
        assert_eq!(Activation::new(ActKind::Relu).param_count(), 0);
    }

    /// One row of the inference contract: a layer kind, a constructor that
    /// builds the same weights on every call, and its input width. Every
    /// layer's `backward` needs a cache, so each must panic without one.
    struct Case {
        name: &'static str,
        build: fn() -> Box<dyn Layer>,
        in_features: usize,
    }

    fn conv() -> crate::conv::Conv3d {
        let dims = crate::conv::Dims3::new(3, 3, 3);
        crate::conv::Conv3d::new(1, 2, 2, 1, 0, dims, &mut Initializer::new(5))
    }

    fn deconv() -> crate::conv::Deconv3d {
        let dims = crate::conv::Dims3::new(2, 2, 2);
        crate::conv::Deconv3d::new(2, 1, 2, 2, 0, dims, &mut Initializer::new(8))
    }

    fn contract_cases() -> Vec<Case> {
        fn act(kind: ActKind) -> Box<dyn Layer> {
            Box::new(Activation::new(kind))
        }
        vec![
            Case {
                name: "Dense",
                build: || Box::new(Dense::new(5, 3, &mut Initializer::new(1))),
                in_features: 5,
            },
            Case {
                name: "ReLU",
                build: || act(ActKind::Relu),
                in_features: 6,
            },
            Case {
                name: "LeakyReLU",
                build: || act(ActKind::LeakyRelu),
                in_features: 6,
            },
            Case {
                name: "Tanh",
                build: || act(ActKind::Tanh),
                in_features: 6,
            },
            Case {
                name: "Sigmoid",
                build: || act(ActKind::Sigmoid),
                in_features: 6,
            },
            Case {
                name: "Conv3d",
                build: || Box::new(conv()),
                in_features: 27,
            },
            Case {
                name: "Deconv3d",
                build: || Box::new(deconv()),
                in_features: 16,
            },
            Case {
                name: "Sequential",
                build: || {
                    Box::new(crate::Sequential::new(vec![
                        Box::new(conv()),
                        act(ActKind::LeakyRelu),
                        Box::new(deconv()),
                        act(ActKind::Tanh),
                        Box::new(Dense::new(64, 3, &mut Initializer::new(2))),
                        act(ActKind::Sigmoid),
                    ]))
                },
                in_features: 27,
            },
        ]
    }

    /// A seeded `[2, n]` batch with both signs in every row.
    fn seeded(n: usize, seed: f64) -> Tensor {
        Tensor::from_vec(
            vec![2, n],
            (0..2 * n)
                .map(|i| (i as f64 * 0.37 + seed).sin() * 0.8)
                .collect(),
        )
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    fn param_grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        layer.visit_params(&mut |_, g| out.push(bits(g)));
        out
    }

    /// `forward(x, false)` returns the training output's bits, caches
    /// nothing and leaves a pending training cache as it was; `backward`
    /// with only inference behind it panics.
    #[test]
    fn inference_forward_owns_nothing_and_keeps_a_pending_backward() {
        let mut failures = Vec::new();
        for case in contract_cases() {
            let x = seeded(case.in_features, 0.3);
            let others = [seeded(case.in_features, 2.1), x.map(|v| -0.5 * v - 0.1)];

            // Row 1: the inference output is the training output, bit for bit.
            let inferred = (case.build)().forward(&x, false);
            let trained = (case.build)().forward(&x, true);
            if bits(inferred.as_slice()) != bits(trained.as_slice()) {
                failures.push(format!("{}: inference output differs", case.name));
            }

            // Row 2: inference forwards between a training forward and its
            // backward change no gradient bit.
            let g = trained.map(|v| 0.25 * v - 0.05);
            let mut reference = (case.build)();
            let _ = reference.forward(&x, true);
            let want_in = reference.backward(&g);
            let mut subject = (case.build)();
            let _ = subject.forward(&x, true);
            for y in &others {
                let _ = subject.forward(y, false);
            }
            let got_in = subject.backward(&g);
            if bits(got_in.as_slice()) != bits(want_in.as_slice())
                || param_grad_bits(subject.as_mut()) != param_grad_bits(reference.as_mut())
            {
                failures.push(format!(
                    "{}: inference clobbered the pending backward",
                    case.name
                ));
            }

            // Row 3: backward after inference only has no cache to use.
            let mut layer = (case.build)();
            let _ = layer.forward(&x, false);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                layer.backward(&g);
            }));
            let message = match &run {
                Ok(()) => String::new(),
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default(),
            };
            if !message.contains("before forward") {
                failures.push(format!(
                    "{}: backward after inference did not panic",
                    case.name
                ));
            }
        }
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let mut init = Initializer::new(0);
        let mut d = Dense::new(2, 2, &mut init);
        let _ = d.backward(&Tensor::zeros(vec![1, 2]));
    }
}
