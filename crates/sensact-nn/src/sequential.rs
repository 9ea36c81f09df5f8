//! Sequential composition of layers.

use crate::layers::Layer;
use crate::tensor::Tensor;

/// A stack of layers applied in order; itself a [`Layer`].
///
/// ```
/// use sensact_nn::{Sequential, Tensor, Initializer, Layer};
/// use sensact_nn::layers::{Dense, Activation, ActKind};
/// let mut init = Initializer::new(0);
/// let mut net = Sequential::new(vec![
///     Box::new(Dense::new(4, 8, &mut init)),
///     Box::new(Activation::new(ActKind::Relu)),
///     Box::new(Dense::new(8, 2, &mut init)),
/// ]);
/// let y = net.forward(&Tensor::zeros(vec![3, 4]), false);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Compose the given layers in order.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Mutably borrow the layer list (e.g. to tweak a specific layer's
    /// weights in tests).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward(input, train);
        for l in rest {
            x = l.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    /// Backward down to the second layer, then the first layer's
    /// parameter-only backward: no input gradient is computed.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g: Option<Tensor> = None;
        for l in rest.iter_mut().rev() {
            g = Some(l.backward(g.as_ref().unwrap_or(grad_out)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_out));
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn macs(&self, batch: usize) -> u64 {
        self.layers.iter().map(|l| l.macs(batch)).sum()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::{ActKind, Activation, Dense};

    fn tiny_net(seed: u64) -> Sequential {
        let mut init = Initializer::new(seed);
        Sequential::new(vec![
            Box::new(Dense::new(3, 5, &mut init)),
            Box::new(Activation::new(ActKind::Tanh)),
            Box::new(Dense::new(5, 2, &mut init)),
        ])
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny_net(0);
        let y = net.forward(&Tensor::zeros(vec![4, 3]), false);
        assert_eq!(y.shape(), &[4, 2]);
    }

    #[test]
    fn param_count_sums_layers() {
        let net = tiny_net(0);
        assert_eq!(net.param_count(), (3 * 5 + 5) + (5 * 2 + 2));
        assert_eq!(net.macs(2), 2 * (3 * 5 + 5 * 2) as u64);
    }

    #[test]
    fn end_to_end_gradient_check() {
        let mut net = tiny_net(3);
        let x = Tensor::from_vec(vec![1, 3], vec![0.2, -0.5, 0.9]);
        let out = net.forward(&x, true);
        let grad_in = net.backward(&out);
        let eps = 1e-5;
        for i in 0..x.len() {
            let mut p = x.clone();
            p[i] += eps;
            let mut m = x.clone();
            m[i] -= eps;
            let lp: f64 = net
                .forward(&p, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let lm: f64 = net
                .forward(&m, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "grad {i}: numeric {numeric} vs analytic {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn zero_grad_resets_all() {
        let mut net = tiny_net(1);
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, 1.0, 1.0]);
        let y = net.forward(&x, true);
        let _ = net.backward(&y);
        let mut nonzero = 0;
        net.visit_params(&mut |_, g| nonzero += g.iter().filter(|v| **v != 0.0).count());
        assert!(nonzero > 0);
        net.zero_grad();
        let mut remaining = 0;
        net.visit_params(&mut |_, g| remaining += g.iter().filter(|v| **v != 0.0).count());
        assert_eq!(remaining, 0);
    }

    #[test]
    fn empty_is_identity() {
        let mut net = Sequential::new(Vec::new());
        let x = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(net.forward(&x, false), x);
    }
}
