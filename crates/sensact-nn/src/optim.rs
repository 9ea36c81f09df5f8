//! First-order optimizers operating over a layer's `(param, grad)` pairs.
//!
//! Optimizer state is keyed by visitation order, which is stable for a fixed
//! network structure — the only mode this crate supports.

use crate::layers::Layer;

/// A gradient-based optimizer.
pub trait Optimizer {
    /// Apply one update step to every parameter of `layer` using the
    /// gradients accumulated since the last `zero_grad`.
    fn step(&mut self, layer: &mut dyn Layer);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Override the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Adam with bias correction (Kingma & Ba defaults).
#[derive(Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, layer: &mut dyn Layer) {
        self.t += 1;
        let mut slot = 0usize;
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let m_state = &mut self.m;
        let v_state = &mut self.v;
        layer.visit_params(&mut |param, grad| {
            if m_state.len() <= slot {
                m_state.push(vec![0.0; param.len()]);
                v_state.push(vec![0.0; param.len()]);
            }
            let m = &mut m_state[slot];
            let v = &mut v_state[slot];
            debug_assert_eq!(m.len(), param.len(), "optimizer state shape drift");
            for i in 0..param.len() {
                m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
                v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                param[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            slot += 1;
        });
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::Dense;
    use crate::loss;
    use crate::tensor::Tensor;

    fn quadratic_fit(opt: &mut dyn Optimizer, iters: usize) -> f64 {
        // Fit y = 3x with a 1-param linear layer from w=0.
        let mut init = Initializer::new(0);
        let mut d = Dense::new(1, 1, &mut init);
        d.weights = vec![0.0];
        d.bias = vec![0.0];
        let x = Tensor::from_vec(vec![8, 1], (0..8).map(|i| i as f64 / 4.0).collect());
        let y = x.scaled(3.0);
        let mut last = f64::INFINITY;
        for _ in 0..iters {
            use crate::layers::Layer;
            let pred = d.forward(&x, true);
            let (l, g) = loss::mse(&pred, &y);
            last = l;
            d.backward(&g);
            opt.step(&mut d);
            d.zero_grad();
        }
        last
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(quadratic_fit(&mut opt, 300) < 1e-6);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }
}
