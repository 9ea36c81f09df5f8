//! Variational autoencoder with a Gaussian latent and unit-variance Gaussian
//! decoder — the distribution model at the heart of STARNet (paper §V).
//!
//! The ELBO here is `-½‖x − x̂‖² − β·KL(q(z|x) ‖ N(0, I))` per sample (up to
//! an additive constant); STARNet's likelihood-regret score compares the ELBO
//! under the trained parameters against the ELBO after a per-sample
//! adaptation.

use crate::init::Initializer;
use crate::layers::{ActKind, Activation, Dense, Layer};
use crate::optim::Optimizer;
use crate::tensor::Tensor;

/// Loss breakdown of one VAE training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VaeLoss {
    /// Total objective (reconstruction + β·KL), averaged over the batch.
    pub total: f64,
    /// Reconstruction term (½ squared error summed over features, batch mean).
    pub recon: f64,
    /// KL divergence term (batch mean).
    pub kl: f64,
}

/// A dense VAE: `input → hidden → (μ, log σ²) → z → hidden → reconstruction`.
pub struct Vae {
    enc: Dense,
    enc_act: Activation,
    mu_head: Dense,
    logvar_head: Dense,
    dec: Dense,
    dec_act: Activation,
    dec_out: Dense,
    input_dim: usize,
    latent_dim: usize,
    noise: Initializer,
    scratch: Scratch,
}

/// The batch-1 activations of [`Vae::elbo_deterministic`], owned by the VAE
/// so the likelihood-regret walk (dozens of ELBOs per score) allocates
/// nothing per evaluation.
struct Scratch {
    h: Vec<f64>,
    mu: Vec<f64>,
    logvar: Vec<f64>,
    dh: Vec<f64>,
    xr: Vec<f64>,
}

impl Vae {
    /// Build a VAE with one hidden layer on each side.
    pub fn new(input_dim: usize, hidden_dim: usize, latent_dim: usize, seed: u64) -> Self {
        let mut init = Initializer::new(seed);
        let enc = Dense::new(input_dim, hidden_dim, &mut init);
        let mu_head = Dense::new(hidden_dim, latent_dim, &mut init);
        let logvar_head = Dense::new(hidden_dim, latent_dim, &mut init);
        let dec = Dense::new(latent_dim, hidden_dim, &mut init);
        let dec_out = Dense::new(hidden_dim, input_dim, &mut init);
        Vae {
            enc,
            enc_act: Activation::new(ActKind::Tanh),
            mu_head,
            logvar_head,
            dec,
            dec_act: Activation::new(ActKind::Tanh),
            dec_out,
            input_dim,
            latent_dim,
            noise: init.fork(),
            scratch: Scratch {
                h: vec![0.0; hidden_dim],
                mu: vec![0.0; latent_dim],
                logvar: vec![0.0; latent_dim],
                dh: vec![0.0; hidden_dim],
                xr: vec![0.0; input_dim],
            },
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Deterministic ELBO of one sample using the posterior mean (`z = μ`, no
    /// reparameterization noise). Slightly biased but noise-free — the right
    /// objective for per-sample optimization loops like likelihood regret.
    /// Runs the layers' GEMMs into scratch the VAE owns: no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn elbo_deterministic(&mut self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.input_dim, "Vae: input dim mismatch");
        let s = &mut self.scratch;
        self.enc.apply_into(1, x, &mut s.h);
        self.enc_act.apply_in_place(&mut s.h);
        self.mu_head.apply_into(1, &s.h, &mut s.mu);
        self.logvar_head.apply_into(1, &s.h, &mut s.logvar);
        for v in &mut s.logvar {
            *v = v.clamp(-10.0, 10.0);
        }
        self.dec.apply_into(1, &s.mu, &mut s.dh);
        self.dec_act.apply_in_place(&mut s.dh);
        self.dec_out.apply_into(1, &s.dh, &mut s.xr);
        elbo_terms(x, &s.xr, &s.mu, &s.logvar)
    }

    /// One training step on a batch: computes the β-ELBO loss, backpropagates
    /// through the reparameterization, and applies the optimizer.
    pub fn train_step(&mut self, x: &Tensor, opt: &mut dyn Optimizer, beta: f64) -> VaeLoss {
        let batch = x.shape()[0];
        let bf = batch as f64;

        // Forward with caching (train = true).
        let h = self.enc.forward(x, true);
        let h = self.enc_act.forward(&h, true);
        let mu = self.mu_head.forward(&h, true);
        let logvar_raw = self.logvar_head.forward(&h, true);
        let logvar = logvar_raw.map(|v| v.clamp(-10.0, 10.0));
        let eps: Vec<f64> = (0..mu.len()).map(|_| self.noise.gaussian()).collect();
        let mut z = mu.clone();
        for i in 0..z.len() {
            z[i] += (0.5 * logvar[i]).exp() * eps[i];
        }
        let dh = self.dec.forward(&z, true);
        let dh = self.dec_act.forward(&dh, true);
        let xr = self.dec_out.forward(&dh, true);

        // Losses.
        let mut recon = 0.0;
        for i in 0..x.len() {
            let d = xr[i] - x[i];
            recon += 0.5 * d * d;
        }
        recon /= bf;
        let mut kl = 0.0;
        for i in 0..mu.len() {
            kl += -0.5 * (1.0 + logvar[i] - mu[i] * mu[i] - logvar[i].exp());
        }
        kl /= bf;
        let total = recon + beta * kl;

        // Backward. dL/dxr = (xr - x)/B.
        let grad_xr = xr.sub(x).scaled(1.0 / bf);
        let g = self.dec_out.backward(&grad_xr);
        let g = self.dec_act.backward(&g);
        let grad_z = self.dec.backward(&g);

        // dL/dmu = g_z + β · μ / B ; dL/dlogvar = g_z·ε·½·σ + β·½(e^{lv} − 1)/B.
        let mut grad_mu = grad_z.clone();
        let mut grad_logvar = Tensor::zeros(vec![batch, self.latent_dim]);
        for i in 0..grad_mu.len() {
            grad_mu[i] += beta * mu[i] / bf;
            let sigma = (0.5 * logvar[i]).exp();
            grad_logvar[i] =
                grad_z[i] * eps[i] * 0.5 * sigma + beta * 0.5 * (logvar[i].exp() - 1.0) / bf;
        }

        let gh_mu = self.mu_head.backward(&grad_mu);
        let gh_lv = self.logvar_head.backward(&grad_logvar);
        let gh = gh_mu.add(&gh_lv);
        let gh = self.enc_act.backward(&gh);
        self.enc.backward_params(&gh);

        opt.step_params(&mut |f| self.visit_params(f));

        VaeLoss { total, recon, kl }
    }

    /// Visit every `(param, grad)` pair of the VAE (encoder, heads, decoder).
    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.visit_encoder_params(f);
        self.dec.visit_params(f);
        self.dec_out.visit_params(f);
    }

    /// Visit only the **encoder-side** parameters (encoder + heads) — the
    /// subset STARNet perturbs when computing likelihood regret.
    pub(crate) fn visit_encoder_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.enc.visit_params(f);
        self.mu_head.visit_params(f);
        self.logvar_head.visit_params(f);
    }

    /// Snapshot all parameters into a flat vector (for SPSA perturbation).
    pub fn encoder_params_flat(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        self.visit_encoder_params(&mut |p, _| out.extend_from_slice(p));
        out
    }

    /// Restore encoder-side parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat` has the wrong length.
    pub fn set_encoder_params_flat(&mut self, flat: &[f64]) {
        let mut offset = 0;
        self.visit_encoder_params(&mut |p, _| {
            assert!(
                offset + p.len() <= flat.len(),
                "flat parameter vector length mismatch"
            );
            p.copy_from_slice(&flat[offset..offset + p.len()]);
            offset += p.len();
        });
        assert_eq!(offset, flat.len(), "flat parameter vector length mismatch");
    }
}

/// One sample's ELBO from its input, reconstruction and posterior:
/// `−½‖x − x̂‖² − Σ −½(1 + log σ² − μ² − σ²)`, each sum in index order.
fn elbo_terms(x: &[f64], xr: &[f64], mu: &[f64], logvar: &[f64]) -> f64 {
    let mut recon = 0.0;
    for (a, b) in x.iter().zip(xr) {
        recon += (a - b) * (a - b);
    }
    let mut kl = 0.0;
    for (m, lv) in mu.iter().zip(logvar) {
        kl += -0.5 * (1.0 + lv - m * m - lv.exp());
    }
    -0.5 * recon - kl
}

impl std::fmt::Debug for Vae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vae")
            .field("input_dim", &self.input_dim)
            .field("latent_dim", &self.latent_dim)
            .field(
                "params",
                &(self.enc.param_count() + self.dec.param_count() + self.dec_out.param_count()),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    fn toy_batch(seed: u64, n: usize, dim: usize) -> Tensor {
        // Data on a 1-D manifold inside `dim` dims: x = t * direction + noise.
        let mut rng = Initializer::new(seed);
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let t = rng.uniform(-1.0, 1.0);
            let row: Vec<f64> = (0..dim)
                .map(|d| t * (d as f64 + 1.0) / dim as f64 + rng.normal(0.0, 0.02))
                .collect();
            rows.push(row);
        }
        Tensor::stack_rows(&rows)
    }

    #[test]
    fn training_reduces_loss() {
        let mut vae = Vae::new(6, 16, 2, 3);
        let x = toy_batch(1, 64, 6);
        let mut opt = Adam::new(0.01);
        let first = vae.train_step(&x, &mut opt, 0.1);
        let mut last = first;
        for _ in 0..200 {
            last = vae.train_step(&x, &mut opt, 0.1);
        }
        assert!(
            last.total < first.total * 0.5,
            "first {} last {}",
            first.total,
            last.total
        );
    }

    #[test]
    fn elbo_higher_for_in_distribution() {
        let mut vae = Vae::new(6, 16, 2, 3);
        let x = toy_batch(1, 64, 6);
        let mut opt = Adam::new(0.01);
        for _ in 0..300 {
            let _ = vae.train_step(&x, &mut opt, 0.1);
        }
        let in_dist = toy_batch(77, 32, 6);
        // Out-of-distribution: large-amplitude noise off the manifold.
        let mut rng = Initializer::new(5);
        let ood_rows: Vec<Vec<f64>> = (0..32)
            .map(|_| (0..6).map(|_| rng.normal(0.0, 2.0)).collect())
            .collect();
        let ood = Tensor::stack_rows(&ood_rows);
        let elbos = |vae: &mut Vae, x: &Tensor| -> Vec<f64> {
            (0..x.shape()[0])
                .map(|r| vae.elbo_deterministic(x.row(r)))
                .collect()
        };
        let e_in = elbos(&mut vae, &in_dist);
        let e_ood = elbos(&mut vae, &ood);
        let mean_in: f64 = e_in.iter().sum::<f64>() / e_in.len() as f64;
        let mean_ood: f64 = e_ood.iter().sum::<f64>() / e_ood.len() as f64;
        assert!(mean_in > mean_ood + 1.0, "in {mean_in} vs ood {mean_ood}");
    }

    #[test]
    fn kl_is_nonnegative() {
        let mut vae = Vae::new(4, 8, 2, 0);
        let x = toy_batch(2, 16, 4);
        let mut opt = Adam::new(0.01);
        for _ in 0..20 {
            let l = vae.train_step(&x, &mut opt, 1.0);
            assert!(l.kl >= -1e-9, "KL went negative: {}", l.kl);
        }
    }

    #[test]
    fn param_flat_roundtrip() {
        let mut vae = Vae::new(4, 8, 2, 0);
        let flat = vae.encoder_params_flat();
        let mut modified = flat.clone();
        for v in &mut modified {
            *v += 0.5;
        }
        vae.set_encoder_params_flat(&modified);
        let back = vae.encoder_params_flat();
        assert_eq!(back, modified);
        vae.set_encoder_params_flat(&flat);
        assert_eq!(vae.encoder_params_flat(), flat);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_params_wrong_length_panics() {
        let mut vae = Vae::new(4, 8, 2, 0);
        vae.set_encoder_params_flat(&[0.0; 3]);
    }
}
