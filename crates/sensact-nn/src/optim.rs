//! First-order optimizers stepping a parameter walk's `(param, grad)` pairs
//! ([`Optimizer::step_params`]).
//!
//! Optimizer state is keyed by visit order, which is stable for a fixed
//! network structure — the only mode this crate supports.

use crate::layers::Layer;

/// A parameter walk: it calls the visitor it is given once per
/// `(param, grad)` pair, as [`Layer::visit_params`] does.
type Walk<'a> = dyn FnMut(&mut dyn FnMut(&mut [f64], &mut [f64])) + 'a;

/// A gradient-based optimizer.
pub trait Optimizer {
    /// Apply one update to every `(param, grad)` pair `walk` visits, in visit
    /// order, zeroing each gradient right after applying it.
    fn step_params(&mut self, walk: &mut Walk<'_>);

    /// [`Optimizer::step_params`] over `layer`'s [`Layer::visit_params`].
    fn step(&mut self, layer: &mut dyn Layer) {
        self.step_params(&mut |f| layer.visit_params(f));
    }
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
    fn step_params(&mut self, walk: &mut Walk<'_>) {
        self.t += 1;
        let mut slot = 0usize;
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let m_state = &mut self.m;
        let v_state = &mut self.v;
        walk(&mut |param, grad| {
            if m_state.len() <= slot {
                m_state.push(vec![0.0; param.len()]);
                v_state.push(vec![0.0; param.len()]);
            }
            let m = &mut m_state[slot];
            let v = &mut v_state[slot];
            // Once per buffer: the zip below stops at the shortest slice, so
            // a length drift would otherwise update a prefix silently.
            assert_eq!(m.len(), param.len(), "optimizer state shape drift");
            assert_eq!(grad.len(), param.len(), "gradient shape drift");
            // Zipped, not indexed, so the loop vectorises: IEEE division and
            // square root round per lane as they do one at a time.
            let state = m.iter_mut().zip(v.iter_mut());
            for ((p, g), (m, v)) in param.iter_mut().zip(grad.iter_mut()).zip(state) {
                *m = b1 * *m + (1.0 - b1) * *g;
                *v = b2 * *v + (1.0 - b2) * *g * *g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
                *g = 0.0;
            }
            slot += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::Dense;
    use crate::loss;
    use crate::sequential::Sequential;
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
            let pred = d.forward(&x, true);
            let (l, g) = loss::mse(&pred, &y);
            last = l;
            d.backward(&g);
            opt.step(&mut d);
        }
        last
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(quadratic_fit(&mut opt, 300) < 1e-6);
    }

    /// A step leaves every gradient it applied at `+0.0`, so the next
    /// `backward` accumulates from nothing.
    #[test]
    fn a_step_consumes_the_gradients_it_applies() {
        let mut d = Dense::new(3, 2, &mut Initializer::new(1));
        let x = Tensor::from_vec(vec![4, 3], (0..12).map(|i| i as f64 / 6.0 - 1.0).collect());
        let out = d.forward(&x, true);
        d.backward(&out);
        let before = d.weights.clone();
        Adam::new(0.01).step(&mut d);
        assert_ne!(d.weights, before, "the step applied nothing");
        d.visit_params(&mut |_, g| assert!(g.iter().all(|v| v.to_bits() == 0), "{g:?}"));
    }

    /// Adam over a walk of two `Dense` layers is Adam over a `Sequential` of
    /// the same two layers, bit for bit, after every one of eight steps.
    #[test]
    fn a_walk_of_two_layers_steps_like_their_sequential() {
        let mut init = Initializer::new(5);
        let (mut a, mut b) = (Dense::new(3, 4, &mut init), Dense::new(4, 2, &mut init));
        let mut net = Sequential::new(vec![Box::new(a.clone()), Box::new(b.clone())]);
        let x = Tensor::from_vec(
            vec![5, 3],
            (0..15).map(|i| (i as f64 * 0.7).sin()).collect(),
        );
        let y = Tensor::from_vec(
            vec![5, 2],
            (0..10).map(|i| (i as f64 * 0.3).cos()).collect(),
        );
        let (mut walk_opt, mut net_opt) = (Adam::new(0.05), Adam::new(0.05));
        let bits = |l: &mut dyn Layer| {
            let mut out = vec![];
            l.visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            out
        };
        for step in 0..8 {
            let (_, g) = loss::mse(&b.forward(&a.forward(&x, true), true), &y);
            a.backward(&b.backward(&g));
            walk_opt.step_params(&mut |f| {
                a.visit_params(f);
                b.visit_params(f);
            });
            let (_, g) = loss::mse(&net.forward(&x, true), &y);
            net.backward(&g);
            net_opt.step(&mut net);
            let walked = [bits(&mut a), bits(&mut b)].concat();
            assert_eq!(walked, bits(&mut net), "step {step}");
        }
    }

    /// The zipped Adam step gives the indexed loop's bits: over buffers of
    /// lengths that leave every vector width a remainder, for twelve steps
    /// of gradients that hold ±0, subnormals, huge and tiny values.
    #[test]
    fn the_zipped_step_keeps_the_indexed_bits() {
        fn indexed(
            (lr, t): (f64, u64),
            param: &mut [f64],
            grad: &mut [f64],
            m: &mut [f64],
            v: &mut [f64],
        ) {
            let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8);
            let bc1 = 1.0 - b1.powi(t as i32);
            let bc2 = 1.0 - b2.powi(t as i32);
            for i in 0..param.len() {
                m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
                v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                param[i] -= lr * mhat / (vhat.sqrt() + eps);
                grad[i] = 0.0;
            }
        }
        let lens = [1usize, 3, 7, 8, 13, 33];
        let mut rng = sensact_math::rng::StdRng::seed_from_u64(17);
        let mut params: Vec<Vec<f64>> = lens
            .iter()
            .map(|&n| (0..n).map(|_| rng.random_range(-2.0..2.0)).collect())
            .collect();
        let mut want = params.clone();
        let mut state: Vec<(Vec<f64>, Vec<f64>)> =
            lens.iter().map(|&n| (vec![0.0; n], vec![0.0; n])).collect();
        let mut opt = Adam::new(0.003);
        for t in 1..=12u64 {
            let mut grads: Vec<Vec<f64>> = lens
                .iter()
                .map(|&n| {
                    (0..n)
                        .map(|_| match rng.random_range(0..8) {
                            0 => 0.0,
                            1 => -0.0,
                            2 => f64::MIN_POSITIVE / 16.0,
                            3 => rng.random_range(-1e150..1e150),
                            4 => rng.random_range(-1e-150..1e-150),
                            _ => rng.random_range(-1.0..1.0),
                        })
                        .collect()
                })
                .collect();
            let mut want_grads = grads.clone();
            for ((p, g), (m, v)) in want.iter_mut().zip(&mut want_grads).zip(&mut state) {
                indexed((0.003, t), p, g, m, v);
            }
            opt.step_params(&mut |f| {
                for (p, g) in params.iter_mut().zip(&mut grads) {
                    f(p, g);
                }
            });
            let bits = |xs: &[Vec<f64>]| -> Vec<Vec<u64>> {
                xs.iter()
                    .map(|x| x.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&params), bits(&want), "step {t}: parameters");
            assert_eq!(bits(&grads), bits(&want_grads), "step {t}: gradients");
        }
    }
}
