//! The contrastive spectral Koopman model (the paper's "ours").
//!
//! Latent dynamics are parameterized *spectrally*: `Z_DIM/2` learnable
//! complex eigenvalues `λᵢ = ρᵢ·e^{jωᵢ}` with `ρᵢ = RHO_MAX·σ(raw)` bounded
//! by the spectral-radius budget `RHO_MAX` — the boundedness by
//! construction is the property the paper credits for disturbance
//! robustness. The real dynamics matrix is the block-diagonal of 2×2
//! rotation-scalings, so one prediction step costs `O(Z_DIM)` MACs instead
//! of `O(Z_DIM²)` (Fig. 5a).
//!
//! Training adds an InfoNCE contrastive term between two augmented views of
//! each observation (the paper's key/query encoders) on top of the shared
//! prediction + read-out objective.

use crate::baselines::{train_epoch_shared, Body, DynCore, LatentModel, ModelImpl, Z_DIM};
use crate::train::Dataset;
use sensact_math::{Complex64, Matrix};
use sensact_nn::layers::Layer;
use sensact_nn::{Initializer, Tensor};

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Upper bound on eigenvalue moduli: `ρᵢ = RHO_MAX·σ(raw)`.
///
/// The paper constrains eigenvalues to be stable; the cart-pole's *open-loop*
/// dynamics however contain a genuinely unstable pole (λ ≈ 1.09 at dt = 20 ms)
/// that the transition model must represent for LQR to stabilize it. A
/// spectral-radius budget of 1.25 keeps the regularizing effect of the
/// spectral parameterization (bounded, slow modes) while remaining expressive
/// enough for unstable plants.
pub(crate) const RHO_MAX: f64 = 1.25;

/// Spectral (block-diagonal) linear dynamics core.
pub(crate) struct SpectralCore {
    rho_raw: Vec<f64>, // m = Z_DIM / 2
    omega: Vec<f64>,
    b: Vec<f64>, // [Z_DIM]
    grad_rho_raw: Vec<f64>,
    grad_omega: Vec<f64>,
    grad_b: Vec<f64>,
    cached: Option<(Tensor, Vec<f64>)>,
}

impl SpectralCore {
    fn new(init: &mut Initializer) -> Self {
        let m = Z_DIM / 2;
        SpectralCore {
            // RHO_MAX·σ(1.4) ≈ 1.0: start near-marginally stable.
            rho_raw: (0..m).map(|_| 1.4 + init.normal(0.0, 0.1)).collect(),
            omega: (0..m)
                .map(|i| 0.05 + 0.1 * i as f64 + init.normal(0.0, 0.02))
                .collect(),
            b: (0..Z_DIM).map(|_| init.normal(0.0, 0.05)).collect(),
            grad_rho_raw: vec![0.0; m],
            grad_omega: vec![0.0; m],
            grad_b: vec![0.0; Z_DIM],
            cached: None,
        }
    }

    /// The complex eigenvalues `λᵢ = ρᵢ e^{jωᵢ}`.
    pub(crate) fn eigenvalues(&self) -> Vec<Complex64> {
        self.rho_raw
            .iter()
            .zip(&self.omega)
            .map(|(&r, &w)| Complex64::from_polar(RHO_MAX * sigmoid(r), w))
            .collect()
    }

    fn apply(&self, z: &[f64], u: f64) -> Vec<f64> {
        let mut out = vec![0.0; Z_DIM];
        for i in 0..Z_DIM / 2 {
            let rho = RHO_MAX * sigmoid(self.rho_raw[i]);
            let (s, c) = self.omega[i].sin_cos();
            let z0 = z[2 * i];
            let z1 = z[2 * i + 1];
            out[2 * i] = rho * (c * z0 - s * z1) + self.b[2 * i] * u;
            out[2 * i + 1] = rho * (s * z0 + c * z1) + self.b[2 * i + 1] * u;
        }
        out
    }
}

impl DynCore for SpectralCore {
    fn forward(&mut self, z: &Tensor, u: &[f64], _ctx: &[Vec<Vec<f64>>]) -> Tensor {
        let batch = z.shape()[0];
        let mut out = Tensor::zeros(vec![batch, Z_DIM]);
        for (r, &ur) in u.iter().enumerate().take(batch) {
            out.row_mut(r).copy_from_slice(&self.apply(z.row(r), ur));
        }
        self.cached = Some((z.clone(), u.to_vec()));
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (z, u) = self.cached.as_ref().expect("backward before forward");
        let batch = grad.shape()[0];
        let mut g_z = Tensor::zeros(vec![batch, Z_DIM]);
        for (r, &ur) in u.iter().enumerate().take(batch) {
            let g = grad.row(r);
            let zr = z.row(r);
            for i in 0..Z_DIM / 2 {
                let sig = sigmoid(self.rho_raw[i]);
                let rho = RHO_MAX * sig;
                let (s, c) = self.omega[i].sin_cos();
                let (z0, z1) = (zr[2 * i], zr[2 * i + 1]);
                let (g0, g1) = (g[2 * i], g[2 * i + 1]);
                // ∂L/∂ρ and ∂L/∂ω.
                let d_rho = g0 * (c * z0 - s * z1) + g1 * (s * z0 + c * z1);
                let d_omega = g0 * rho * (-s * z0 - c * z1) + g1 * rho * (c * z0 - s * z1);
                self.grad_rho_raw[i] += d_rho * RHO_MAX * sig * (1.0 - sig);
                self.grad_omega[i] += d_omega;
                self.grad_b[2 * i] += g0 * ur;
                self.grad_b[2 * i + 1] += g1 * ur;
                // Aᵀ g.
                let gz = g_z.row_mut(r);
                gz[2 * i] = rho * (c * g0 + s * g1);
                gz[2 * i + 1] = rho * (-s * g0 + c * g1);
            }
        }
        g_z
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.rho_raw, &mut self.grad_rho_raw);
        f(&mut self.omega, &mut self.grad_omega);
        f(&mut self.b, &mut self.grad_b);
    }

    fn zero_grad(&mut self) {
        self.grad_rho_raw.iter_mut().for_each(|g| *g = 0.0);
        self.grad_omega.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn macs_per_step(&self) -> u64 {
        // 4 MACs per 2×2 block + 2 for Bu, per pair.
        (Z_DIM / 2 * 6) as u64
    }

    fn linear(&self) -> Option<(Matrix, Matrix)> {
        let a = sensact_math::lqr::spectral_dynamics(&self.eigenvalues());
        let b = Matrix::from_vec(Z_DIM, 1, self.b.clone());
        Some((a, b))
    }

    fn step(&mut self, z: &[f64], u: f64) -> Vec<f64> {
        self.apply(z, u)
    }
}

/// The full contrastive spectral Koopman model.
pub struct SpectralKoopman {
    inner: ModelImpl<SpectralCore>,
    noise: Initializer,
    contrastive_opt: sensact_nn::optim::Adam,
    multistep_opt: sensact_nn::optim::Adam,
    /// Weight of the InfoNCE term.
    pub contrastive_weight: f64,
    /// InfoNCE temperature.
    pub temperature: f64,
}

impl SpectralKoopman {
    /// Fresh model.
    pub fn new(seed: u64) -> Self {
        let mut init = Initializer::new(seed.wrapping_add(505));
        SpectralKoopman {
            inner: ModelImpl {
                body: Body::new(seed),
                dynamics: SpectralCore::new(&mut init),
                name: "SpectralKoopman",
            },
            noise: Initializer::new(seed.wrapping_add(606)),
            contrastive_opt: sensact_nn::optim::Adam::new(3e-4),
            multistep_opt: sensact_nn::optim::Adam::new(1e-3),
            contrastive_weight: 0.1,
            temperature: 0.5,
        }
    }

    /// The learned eigenvalues (moduli bounded by `RHO_MAX` by construction).
    pub fn eigenvalues(&self) -> Vec<Complex64> {
        self.inner.dynamics.eigenvalues()
    }

    /// Multi-step spectral rollout loss.
    ///
    /// The one-step objective at dt = 20 ms is nearly satisfied by identity
    /// dynamics, which carries no usable modal structure for LQR. Rolling the
    /// spectral operator `H` steps and matching the encoded future latent
    /// amplifies the per-step dynamics error by `A^H`, forcing the
    /// eigenvalues (and the encoder's modal coordinates) to match the plant.
    fn multistep_pass(&mut self, data: &Dataset, seed: u64, horizon: usize) -> f64 {
        let ts = data.transitions();
        if ts.len() < horizon + 2 {
            return 0.0;
        }
        let idx = data.shuffled_indices(seed ^ 0x3157);
        // Keep starts whose full horizon stays inside one episode.
        let valid: Vec<usize> = idx
            .into_iter()
            .filter(|&i| {
                i + horizon < ts.len() && data.context(i + horizon, horizon).len() == horizon
            })
            .collect();
        if valid.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut batches = 0usize;
        for chunk in valid.chunks(32) {
            total += self.multistep_batch(ts, chunk, horizon);
            batches += 1;
        }
        total / batches as f64
    }

    fn multistep_batch(
        &mut self,
        ts: &[crate::train::Transition],
        starts: &[usize],
        horizon: usize,
    ) -> f64 {
        let b = starts.len();

        // Encode start and target observations in one stacked pass
        // (targets detached; the cached forward is re-run for starts below).
        let target_rows: Vec<Vec<f64>> = starts
            .iter()
            .map(|&i| self.inner.body.encode_one(&ts[i + horizon].obs))
            .collect();
        let start_rows: Vec<Vec<f64>> = starts.iter().map(|&i| ts[i].obs.to_vec()).collect();
        let start_obs = Tensor::stack_rows(&start_rows);
        let z0 = self.inner.body.encoder.forward(&start_obs, true);

        // Roll the spectral dynamics, caching each step's input latents.
        let core = &mut self.inner.dynamics;
        let mut z_steps: Vec<Tensor> = vec![z0.clone()];
        let mut u_steps: Vec<Vec<f64>> = Vec::with_capacity(horizon);
        for h in 0..horizon {
            let u: Vec<f64> = starts.iter().map(|&i| ts[i + h].action).collect();
            let z_prev = z_steps.last().unwrap();
            let mut z_next = Tensor::zeros(vec![b, Z_DIM]);
            for (r, &ur) in u.iter().enumerate().take(b) {
                z_next
                    .row_mut(r)
                    .copy_from_slice(&core.apply(z_prev.row(r), ur));
            }
            z_steps.push(z_next);
            u_steps.push(u);
        }
        let target = Tensor::stack_rows(&target_rows);
        let (loss, grad_final) = sensact_nn::loss::mse(z_steps.last().unwrap(), &target);

        // BPTT through the analytic spectral blocks.
        let mut g = grad_final;
        for h in (0..horizon).rev() {
            let z_prev = &z_steps[h];
            let u = &u_steps[h];
            let mut g_prev = Tensor::zeros(vec![b, Z_DIM]);
            for (r, &ur) in u.iter().enumerate().take(b) {
                let zr = z_prev.row(r);
                let gr = g.row(r).to_vec();
                for i in 0..Z_DIM / 2 {
                    let sig = sigmoid(core.rho_raw[i]);
                    let rho = RHO_MAX * sig;
                    let (s, c) = core.omega[i].sin_cos();
                    let (z0v, z1v) = (zr[2 * i], zr[2 * i + 1]);
                    let (g0, g1) = (gr[2 * i], gr[2 * i + 1]);
                    let d_rho = g0 * (c * z0v - s * z1v) + g1 * (s * z0v + c * z1v);
                    let d_omega = g0 * rho * (-s * z0v - c * z1v) + g1 * rho * (c * z0v - s * z1v);
                    core.grad_rho_raw[i] += d_rho * RHO_MAX * sig * (1.0 - sig);
                    core.grad_omega[i] += d_omega;
                    core.grad_b[2 * i] += g0 * ur;
                    core.grad_b[2 * i + 1] += g1 * ur;
                    let gp = g_prev.row_mut(r);
                    gp[2 * i] = rho * (c * g0 + s * g1);
                    gp[2 * i + 1] = rho * (-s * g0 + c * g1);
                }
            }
            g = g_prev;
        }
        // Encoder gradient through z0.
        let _ = self.inner.body.encoder.backward(&g);

        // One optimizer step over encoder + spectral params.
        use sensact_nn::optim::Optimizer;
        struct Facade<'a>(&'a mut ModelImpl<SpectralCore>);
        impl Layer for Facade<'_> {
            fn forward(&mut self, i: &Tensor, _t: bool) -> Tensor {
                i.clone()
            }
            fn backward(&mut self, g: &Tensor) -> Tensor {
                g.clone()
            }
            fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
                self.0.body.encoder.visit_params(f);
                self.0.dynamics.visit_params(f);
            }
            fn param_count(&self) -> usize {
                0
            }
            fn macs(&self, _b: usize) -> u64 {
                0
            }
            fn name(&self) -> &'static str {
                "spectral-multistep"
            }
        }
        self.multistep_opt.step(&mut Facade(&mut self.inner));
        self.inner.body.encoder.zero_grad();
        self.inner.dynamics.zero_grad();
        loss
    }

    /// One contrastive pass: InfoNCE between two noise-augmented views.
    ///
    /// Queries and keys are L2-normalized (with the normalization Jacobian in
    /// the backward path) — without it the dot-product similarity rewards
    /// unbounded embedding norms and fights the prediction objective.
    fn contrastive_pass(&mut self, data: &Dataset, seed: u64) -> f64 {
        let idx = data.shuffled_indices(seed ^ 0xC0FFEE);
        let batch: Vec<usize> = idx.into_iter().take(32).collect();
        if batch.len() < 2 {
            return 0.0;
        }
        let ts = data.transitions();
        let augment = |noise: &mut Initializer, obs: &[f64]| -> Vec<f64> {
            obs.iter().map(|&v| v + noise.normal(0.0, 0.02)).collect()
        };
        // Keys (detached, normalized).
        let key_rows: Vec<Vec<f64>> = batch
            .iter()
            .map(|&i| {
                let aug = augment(&mut self.noise, &ts[i].obs);
                let mut k = self.inner.body.encode_one(&aug);
                sensact_math::vector::normalize(&mut k);
                k
            })
            .collect();
        let keys = Tensor::stack_rows(&key_rows);
        // Queries (with gradient).
        let query_obs: Vec<Vec<f64>> = batch
            .iter()
            .map(|&i| augment(&mut self.noise, &ts[i].obs))
            .collect();
        let q_in = Tensor::stack_rows(&query_obs);
        let queries = self.inner.body.encoder.forward(&q_in, true);
        // Normalize query rows, remembering norms for the backward Jacobian.
        let b = queries.shape()[0];
        let mut q_norm = queries.clone();
        let mut norms = Vec::with_capacity(b);
        for r in 0..b {
            let n = sensact_math::vector::normalize(q_norm.row_mut(r)).max(1e-8);
            norms.push(n);
        }
        let (loss, grad_qn) = sensact_nn::loss::info_nce(&q_norm, &keys, self.temperature);
        // dL/dq = (I − q̂ q̂ᵀ) / ‖q‖ · dL/dq̂.
        let mut grad_q = Tensor::zeros(vec![b, Z_DIM]);
        for (r, &norm) in norms.iter().enumerate().take(b) {
            let qh = q_norm.row(r);
            let g = grad_qn.row(r);
            let dot: f64 = qh.iter().zip(g).map(|(a, b)| a * b).sum();
            for ((gq, &gi), &qi) in grad_q.row_mut(r).iter_mut().zip(g).zip(qh) {
                *gq = (gi - qi * dot) / norm;
            }
        }
        let _ = self
            .inner
            .body
            .encoder
            .backward(&grad_q.scaled(self.contrastive_weight));
        use sensact_nn::optim::Optimizer;
        self.contrastive_opt.step(&mut self.inner.body.encoder);
        self.inner.body.encoder.zero_grad();
        loss
    }
}

impl LatentModel for SpectralKoopman {
    fn name(&self) -> &'static str {
        "SpectralKoopman"
    }

    fn encode(&mut self, obs: &[f64]) -> Vec<f64> {
        self.inner.encode(obs)
    }

    fn predict(&mut self, z: &[f64], u: f64) -> Vec<f64> {
        self.inner.predict(z, u)
    }

    fn read_state(&mut self, z: &[f64]) -> [f64; 4] {
        self.inner.read_state(z)
    }

    fn train_epoch(&mut self, data: &Dataset, epoch_seed: u64) -> f64 {
        let main = train_epoch_shared(
            &mut self.inner.body,
            &mut self.inner.dynamics,
            data,
            epoch_seed,
        );
        let multistep = self.multistep_pass(data, epoch_seed, 8);
        let contrastive = self.contrastive_pass(data, epoch_seed);
        let _ = multistep;
        // Stable-eigenvalue selection: gently decay any modulus above 1
        // toward the unit circle, so only modes the data genuinely needs
        // (e.g. the plant's unstable pole) stay outside.
        for raw in &mut self.inner.dynamics.rho_raw {
            let rho = RHO_MAX * sigmoid(*raw);
            if rho > 1.0 {
                *raw -= 0.02 * (rho - 1.0);
            }
        }
        main + self.contrastive_weight * contrastive
    }

    fn linear_dynamics(&mut self) -> Option<(Matrix, Matrix)> {
        self.inner.linear_dynamics()
    }

    fn readout(&mut self) -> (Matrix, Vec<f64>) {
        self.inner.readout()
    }

    fn prediction_macs(&self) -> u64 {
        self.inner.prediction_macs()
    }

    fn control_macs(&self) -> u64 {
        self.inner.control_macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::collect_dataset;

    #[test]
    fn eigenvalues_inside_spectral_budget() {
        let model = SpectralKoopman::new(0);
        for e in model.eigenvalues() {
            assert!(e.abs() < RHO_MAX, "eigenvalue {e} outside budget");
        }
    }

    #[test]
    fn eigenvalues_stay_bounded_after_training() {
        let mut model = SpectralKoopman::new(1);
        let data = collect_dataset(400, 20);
        for e in 0..6 {
            model.train_epoch(&data, e);
        }
        for e in model.eigenvalues() {
            assert!(e.abs() < RHO_MAX, "trained eigenvalue {e} escaped");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = SpectralKoopman::new(2);
        let data = collect_dataset(600, 21);
        let first = model.train_epoch(&data, 0);
        let mut last = first;
        for e in 1..8 {
            last = model.train_epoch(&data, e);
        }
        assert!(last < first, "first {first} last {last}");
    }

    #[test]
    fn spectral_gradient_check() {
        // Numeric check of the hand-derived spectral backward.
        let mut init = Initializer::new(3);
        let mut core = SpectralCore::new(&mut init);
        let z = Tensor::from_vec(
            vec![1, Z_DIM],
            (0..Z_DIM).map(|i| 0.1 * i as f64 - 0.3).collect(),
        );
        let u = [0.7];
        let out = core.forward(&z, &u, &[]);
        let g_z = core.backward(&out);
        // Input gradient check.
        let eps = 1e-6;
        for i in 0..Z_DIM {
            let mut zp = z.clone();
            zp[i] += eps;
            let mut zm = z.clone();
            zm[i] -= eps;
            let lp: f64 = core
                .forward(&zp, &u, &[])
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let lm: f64 = core
                .forward(&zm, &u, &[])
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - g_z[i]).abs() < 1e-6,
                "z grad {i}: numeric {numeric} vs {}",
                g_z[i]
            );
        }
        // Parameter gradient check (rho_raw[0]).
        core.zero_grad();
        let out = core.forward(&z, &u, &[]);
        let _ = core.backward(&out);
        let analytic = core.grad_rho_raw[0];
        core.rho_raw[0] += eps;
        let lp: f64 = core
            .forward(&z, &u, &[])
            .as_slice()
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        core.rho_raw[0] -= 2.0 * eps;
        let lm: f64 = core
            .forward(&z, &u, &[])
            .as_slice()
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        core.rho_raw[0] += eps;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 1e-6,
            "rho grad: numeric {numeric} vs {analytic}"
        );
    }

    #[test]
    fn linear_dynamics_matches_apply() {
        let mut model = SpectralKoopman::new(4);
        let (a, b) = model.linear_dynamics().unwrap();
        let z: Vec<f64> = (0..Z_DIM).map(|i| 0.2 * i as f64 - 0.5).collect();
        let u = 1.3;
        let direct = model.predict(&z, u);
        let az = a.matvec(&z).unwrap();
        let via_matrix: Vec<f64> = az
            .iter()
            .enumerate()
            .map(|(i, v)| v + b[(i, 0)] * u)
            .collect();
        for (d, m) in direct.iter().zip(&via_matrix) {
            assert!((d - m).abs() < 1e-12, "{d} vs {m}");
        }
    }

    #[test]
    fn prediction_macs_far_below_dense() {
        let model = SpectralKoopman::new(0);
        let dense = crate::baselines::DenseKoopman::new(0);
        assert!(model.prediction_macs() * 2 < dense.prediction_macs());
    }

    /// The concrete encoder's stack-buffer encode and the read-out's
    /// `apply_into` give the bits of the boxed `Sequential` forward and the
    /// tensor `apply` they replaced: fresh, after a training epoch and after
    /// a contrastive pass.
    #[test]
    fn encode_and_read_match_the_sequential_oracle_bit_for_bit() {
        use crate::cartpole::OBS_DIM;
        let data = collect_dataset(200, 23);
        let mut model = SpectralKoopman::new(7);
        let check = |model: &mut SpectralKoopman, stage: &str| {
            let mut oracle = model.inner.body.encoder.as_sequential();
            for t in data.transitions().iter().step_by(3) {
                let x = Tensor::from_vec(vec![1, OBS_DIM], t.obs.to_vec());
                let want = oracle.forward(&x, false).into_vec();
                let got = model.encode(&t.obs);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{stage}: encode");
                let z = Tensor::from_vec(vec![1, Z_DIM], got);
                let want = model.inner.body.readout.apply(&z).into_vec();
                let got = model.read_state(z.as_slice());
                assert_eq!(bits(&got), bits(&want), "{stage}: read_state");
            }
        };
        check(&mut model, "fresh");
        model.train_epoch(&data, 0);
        check(&mut model, "after train_epoch");
        model.contrastive_pass(&data, 1);
        check(&mut model, "after contrastive_pass");
    }

    #[test]
    fn contrastive_pass_returns_finite_loss() {
        let mut model = SpectralKoopman::new(5);
        let data = collect_dataset(100, 22);
        let l = model.contrastive_pass(&data, 0);
        assert!(l.is_finite() && l > 0.0);
    }
}

impl SpectralKoopman {
    /// Online operator adaptation (paper §IV, future work): one cheap
    /// gradient step on the spectral parameters `(ρ, ω, B)` from a short
    /// window of streaming transitions, leaving the encoder frozen. This is
    /// the *time-varying Koopman operator*: when the plant drifts (payload
    /// change, actuator aging), the eigenvalues track it at `O(H·Z_DIM)`
    /// cost per step — cheap enough to run inside the loop.
    ///
    /// `window` holds `(obs, action)` pairs for consecutive steps and
    /// `final_obs` is the observation after the last action. The operator
    /// error is measured (and back-propagated) over the whole rollout, where
    /// drift compounds — a single-step residual at 20 ms barely sees it.
    ///
    /// Returns the pre-update rollout error (mean squared latent distance).
    ///
    /// # Panics
    ///
    /// Panics if `window` is empty.
    pub fn adapt_online(
        &mut self,
        window: &[(Vec<f64>, f64)],
        final_obs: &[f64],
        learning_rate: f64,
    ) -> f64 {
        assert!(!window.is_empty(), "empty adaptation window");
        let target = self.inner.body.encode_one(final_obs);
        // Roll the spectral chain, caching inputs per step.
        let core = &mut self.inner.dynamics;
        let z0 = self.inner.body.encode_one(&window[0].0);
        let mut zs: Vec<Vec<f64>> = vec![z0];
        for (_, u) in window {
            let z_next = core.apply(zs.last().unwrap(), *u);
            zs.push(z_next);
        }
        let z_final = zs.last().unwrap();
        let err: f64 = z_final
            .iter()
            .zip(&target)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / Z_DIM as f64;
        // BPTT through the analytic blocks (single trajectory).
        let mut g: Vec<f64> = z_final
            .iter()
            .zip(&target)
            .map(|(a, b)| 2.0 * (a - b) / Z_DIM as f64)
            .collect();
        for h in (0..window.len()).rev() {
            let zr = &zs[h];
            let u = window[h].1;
            let mut g_prev = vec![0.0; Z_DIM];
            for i in 0..Z_DIM / 2 {
                let sig = sigmoid(core.rho_raw[i]);
                let rho = RHO_MAX * sig;
                let (sn, cs) = core.omega[i].sin_cos();
                let (z0v, z1v) = (zr[2 * i], zr[2 * i + 1]);
                let (g0, g1) = (g[2 * i], g[2 * i + 1]);
                let d_rho = g0 * (cs * z0v - sn * z1v) + g1 * (sn * z0v + cs * z1v);
                let d_omega = g0 * rho * (-sn * z0v - cs * z1v) + g1 * rho * (cs * z0v - sn * z1v);
                core.grad_rho_raw[i] += d_rho * RHO_MAX * sig * (1.0 - sig);
                core.grad_omega[i] += d_omega;
                core.grad_b[2 * i] += g0 * u;
                core.grad_b[2 * i + 1] += g1 * u;
                g_prev[2 * i] = rho * (cs * g0 + sn * g1);
                g_prev[2 * i + 1] = rho * (-sn * g0 + cs * g1);
            }
            g = g_prev;
        }
        // Clip the rollout gradient (it compounds through A^H), then one
        // plain SGD step on the spectral parameters.
        let mut norm_sq = 0.0;
        core.visit_params(&mut |_, grads| {
            norm_sq += grads.iter().map(|v| v * v).sum::<f64>();
        });
        let norm = norm_sq.sqrt();
        let scale = if norm > 1.0 { 1.0 / norm } else { 1.0 };
        core.visit_params(&mut |p, grads| {
            for (pi, gi) in p.iter_mut().zip(grads.iter()) {
                *pi -= learning_rate * scale * gi;
            }
        });
        core.zero_grad();
        err
    }
}

#[cfg(test)]
mod online_tests {
    use super::*;
    use crate::baselines::LatentModel;
    use crate::cartpole::{observe_state, CartPole, CartPoleConfig};
    use crate::train::collect_dataset;

    /// Collect transitions from a *drifted* plant (longer pole).
    fn drifted_transitions(n: usize, seed: u64) -> Vec<([f64; 16], f64, [f64; 16])> {
        let config = CartPoleConfig {
            pole_half_length: 0.9,
        };
        let mut env = CartPole::new(config, seed);
        let mut out = Vec::with_capacity(n);
        let mut state = env.reset();
        for i in 0..n {
            let [x, xd, t, td] = state;
            let u = (2.0 * x + 3.0 * xd + 30.0 * t + 4.0 * td + ((i % 7) as f64 - 3.0))
                .clamp(-10.0, 10.0);
            let next = env.step(u);
            out.push((
                observe_state(&state, &config),
                u,
                observe_state(&next, &config),
            ));
            state = if env.failed() { env.reset() } else { next };
        }
        out
    }

    #[test]
    fn online_adaptation_tracks_plant_drift() {
        // Train on the nominal plant…
        let mut model = SpectralKoopman::new(3);
        let data = collect_dataset(1200, 30);
        for e in 0..10 {
            model.train_epoch(&data, e);
        }
        // …then the pole grows 80 % (payload change). Frozen prediction error:
        let stream = drifted_transitions(400, 31);
        let rollout_err =
            |model: &mut SpectralKoopman, data: &[([f64; 16], f64, [f64; 16])]| -> f64 {
                // 6-step open-loop rollout error (where operator drift compounds).
                let mut total = 0.0;
                let mut count = 0;
                for chunk in data.windows(6).step_by(6) {
                    let mut z = model.encode(&chunk[0].0);
                    for (_, u, _) in chunk {
                        z = model.predict(&z, *u);
                    }
                    let target = model.encode(&chunk.last().unwrap().2);
                    total += z
                        .iter()
                        .zip(&target)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>();
                    count += 1;
                }
                total / count as f64
            };
        let fresh = drifted_transitions(120, 32);
        let frozen_err = rollout_err(&mut model, &fresh);
        // Adapt online over the stream in 6-step windows.
        for chunk in stream.windows(6).step_by(6) {
            let window: Vec<(Vec<f64>, f64)> =
                chunk.iter().map(|(o, u, _)| (o.to_vec(), *u)).collect();
            let final_obs = chunk.last().unwrap().2;
            let _ = model.adapt_online(&window, &final_obs, 2e-3);
        }
        // Post-adaptation error on the same held-out drifted transitions.
        let adapted_err = rollout_err(&mut model, &fresh);
        assert!(
            adapted_err < frozen_err,
            "adaptation did not help: frozen {frozen_err:.5} adapted {adapted_err:.5}"
        );
    }

    #[test]
    fn online_step_returns_finite_error_and_keeps_bound() {
        let mut model = SpectralKoopman::new(4);
        let data = collect_dataset(300, 40);
        for e in 0..4 {
            model.train_epoch(&data, e);
        }
        let ts = data.transitions();
        let window: Vec<(Vec<f64>, f64)> =
            ts[..4].iter().map(|t| (t.obs.to_vec(), t.action)).collect();
        let err = model.adapt_online(&window, &ts[3].next_obs, 0.01);
        assert!(err.is_finite() && err >= 0.0);
        for e in model.eigenvalues() {
            assert!(e.abs() < RHO_MAX, "eigenvalue escaped the budget: {e}");
        }
    }
}
