//! Latent dynamics models compared in Fig. 5.
//!
//! Every model shares the same body — an MLP encoder from visual observations
//! to a latent `z` and a *linear* state read-out `ŝ = Cz + b` — and differs
//! only in the latent transition `z' = f(z, u)`:
//!
//! | model | transition | control |
//! |---|---|---|
//! | spectral Koopman (ours, [`crate::encoder::SpectralKoopman`]) | block-diagonal stable eigenvalues | LQR |
//! | [`DenseKoopman`] | full linear `Az + Bu` | LQR |
//! | [`MlpDynamics`] | 2-layer MLP | shooting MPC |
//! | [`RecurrentDynamics`] | recurrent cell (2 applications) | shooting MPC |
//! | [`TransformerDynamics`] | single-head attention over past latents | shooting MPC |
//!
//! Training is identical across models: next-latent prediction (target
//! detached) plus the linear read-out regression, on the same dataset.

use crate::cartpole::OBS_DIM;
use crate::train::Dataset;
use sensact_math::Matrix;
use sensact_nn::layers::{ActKind, Activation, Dense, Layer};
use sensact_nn::optim::{Adam, Optimizer};
use sensact_nn::{Initializer, Sequential, Tensor};

/// Latent dimension used by all Fig. 5 models (4 complex pairs).
pub(crate) const Z_DIM: usize = 8;

const BATCH: usize = 32;
const READ_WEIGHT: f64 = 1.0;
const PRED_WEIGHT: f64 = 1.0;

/// A trained latent dynamics model: encoder + transition + linear read-out.
pub trait LatentModel {
    /// Display name (Fig. 5 legend).
    fn name(&self) -> &'static str;
    /// Latent dimension.
    fn latent_dim(&self) -> usize {
        Z_DIM
    }
    /// Encode one observation.
    fn encode(&mut self, obs: &[f64]) -> Vec<f64>;
    /// Predict the next latent for `(z, u)`.
    fn predict(&mut self, z: &[f64], u: f64) -> Vec<f64>;
    /// Linear state read-out `Cz + b`.
    fn read_state(&mut self, z: &[f64]) -> [f64; 4];
    /// One training epoch; returns the mean total loss.
    fn train_epoch(&mut self, data: &Dataset, epoch_seed: u64) -> f64;
    /// Linear `(A, B)` if the transition is linear (Koopman models).
    fn linear_dynamics(&mut self) -> Option<(Matrix, Matrix)>;
    /// Read-out as `(C, bias)` for building LQR state costs.
    fn readout(&mut self) -> (Matrix, Vec<f64>);
    /// MACs of one latent prediction step.
    fn prediction_macs(&self) -> u64;
    /// MACs of one control decision (LQR gain application or shooting MPC).
    fn control_macs(&self) -> u64;
    /// Reset any sequential inference state (recurrent/transformer windows).
    fn reset_rollout(&mut self) {}
}

/// The latent transition sub-module: batched forward/backward on `(z, u)`
/// plus per-sample context for attention models. `Send` so models migrate
/// across the fleet runtime's worker threads (see [`Layer`]).
pub(crate) trait DynCore: Send {
    fn forward(&mut self, z: &Tensor, u: &[f64], ctx: &[Vec<Vec<f64>>]) -> Tensor;
    fn backward(&mut self, grad: &Tensor) -> Tensor;
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64]));
    fn zero_grad(&mut self);
    fn macs_per_step(&self) -> u64;
    fn linear(&self) -> Option<(Matrix, Matrix)>;
    /// Single-sample rollout step (maintains windows/hidden state).
    fn step(&mut self, z: &[f64], u: f64) -> Vec<f64>;
    fn reset_rollout(&mut self) {}
    /// Context window length needed during training (0 = none).
    fn context_len(&self) -> usize {
        0
    }
}

/// Hidden width of the shared encoder.
const HIDDEN: usize = 32;

/// The shared observation encoder `Dense → tanh → Dense`, concrete so a
/// single-observation encode ([`Body::encode_one`]) runs through stack
/// buffers, as `sensact_nn::vae::Vae` does. As a [`Layer`] it visits its
/// parameters in layer order, the order the optimiser's moments follow.
pub(crate) struct Encoder {
    hidden: Dense,
    act: Activation,
    out: Dense,
}

impl Encoder {
    fn new(init: &mut Initializer) -> Self {
        Encoder {
            hidden: Dense::new(OBS_DIM, HIDDEN, init),
            act: Activation::new(ActKind::Tanh),
            out: Dense::new(HIDDEN, Z_DIM, init),
        }
    }
}

impl Layer for Encoder {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let h = self.hidden.forward(input, train);
        let h = self.act.forward(&h, train);
        self.out.forward(&h, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.out.backward(grad_out);
        let g = self.act.backward(&g);
        self.hidden.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.hidden.visit_params(f);
        self.out.visit_params(f);
    }

    fn param_count(&self) -> usize {
        self.hidden.param_count() + self.out.param_count()
    }

    fn macs(&self, batch: usize) -> u64 {
        self.hidden.macs(batch) + self.out.macs(batch)
    }

    fn name(&self) -> &'static str {
        "Encoder"
    }
}

/// The boxed stack the encoder replaced, carrying its weights: the bit
/// oracle for [`Body::encode_one`].
#[cfg(test)]
impl Encoder {
    pub(crate) fn as_sequential(&self) -> Sequential {
        Sequential::new(vec![
            Box::new(self.hidden.clone()),
            Box::new(Activation::new(ActKind::Tanh)),
            Box::new(self.out.clone()),
        ])
    }
}

/// Shared encoder + read-out body.
pub(crate) struct Body {
    pub encoder: Encoder,
    pub readout: Dense,
    pub opt: Adam,
}

impl Body {
    pub(crate) fn new(seed: u64) -> Self {
        let mut init = Initializer::new(seed);
        let encoder = Encoder::new(&mut init);
        let readout = Dense::new(Z_DIM, 4, &mut init);
        Body {
            encoder,
            readout,
            opt: Adam::new(3e-3),
        }
    }

    /// The latent of one observation; the returned latent is the only
    /// allocation.
    pub(crate) fn encode_one(&self, obs: &[f64]) -> Vec<f64> {
        assert_eq!(obs.len(), OBS_DIM, "Body: observation dim mismatch");
        let enc = &self.encoder;
        let mut h = [0.0; HIDDEN];
        enc.hidden.apply_into(1, obs, &mut h);
        enc.act.apply_in_place(&mut h);
        let mut z = vec![0.0; Z_DIM];
        enc.out.apply_into(1, &h, &mut z);
        z
    }

    pub(crate) fn read_one(&self, z: &[f64]) -> [f64; 4] {
        assert_eq!(z.len(), Z_DIM, "Body: latent dim mismatch");
        let mut s = [0.0; 4];
        self.readout.apply_into(1, z, &mut s);
        s
    }

    pub(crate) fn readout_matrix(&self) -> (Matrix, Vec<f64>) {
        // Dense stores W as [in, out]; C maps z -> state, so C = Wᵀ (4 × z).
        let mut c = Matrix::zeros(4, Z_DIM);
        for i in 0..Z_DIM {
            for o in 0..4 {
                c[(o, i)] = self.readout.weights[i * 4 + o];
            }
        }
        (c, self.readout.bias.clone())
    }
}

/// Shared training epoch for any [`DynCore`].
pub(crate) fn train_epoch_shared(
    body: &mut Body,
    dyn_core: &mut dyn DynCore,
    data: &Dataset,
    epoch_seed: u64,
) -> f64 {
    let idx = data.shuffled_indices(epoch_seed);
    let mut total = 0.0;
    let mut batches = 0usize;
    let ts = data.transitions();
    for chunk in idx.chunks(BATCH) {
        if chunk.len() < 2 {
            continue;
        }
        let b = chunk.len();
        // Context latents for attention models (detached — computed before
        // the cached forward pass).
        let k = dyn_core.context_len();
        let ctx: Vec<Vec<Vec<f64>>> = if k == 0 {
            vec![Vec::new(); b]
        } else {
            chunk
                .iter()
                .map(|&i| {
                    data.context(i, k)
                        .iter()
                        .map(|t| body.encode_one(&t.obs))
                        .collect()
                })
                .collect()
        };

        // Stacked forward: rows 0..b are obs, rows b..2b are next_obs.
        let mut rows = Vec::with_capacity(2 * b);
        for &i in chunk {
            rows.push(ts[i].obs.to_vec());
        }
        for &i in chunk {
            rows.push(ts[i].next_obs.to_vec());
        }
        let obs_all = Tensor::stack_rows(&rows);
        let z_all = body.encoder.forward(&obs_all, true);
        let mut z = Tensor::zeros(vec![b, Z_DIM]);
        let mut z_next = Tensor::zeros(vec![b, Z_DIM]);
        for r in 0..b {
            z.row_mut(r).copy_from_slice(z_all.row(r));
            z_next.row_mut(r).copy_from_slice(z_all.row(b + r));
        }
        let u: Vec<f64> = chunk.iter().map(|&i| ts[i].action).collect();

        // Prediction loss (target detached).
        let zp = dyn_core.forward(&z, &u, &ctx);
        let (lp, g_zp) = sensact_nn::loss::mse(&zp, &z_next);
        let g_z_dyn = dyn_core.backward(&g_zp.scaled(PRED_WEIGHT));

        // Read-out loss on both halves.
        let mut targets = Vec::with_capacity(2 * b);
        for &i in chunk {
            targets.push(ts[i].state.to_vec());
        }
        for &i in chunk {
            targets.push(ts[i].next_state.to_vec());
        }
        let t_all = Tensor::stack_rows(&targets);
        let s_all = body.readout.forward(&z_all, true);
        let (ls, g_s) = sensact_nn::loss::mse(&s_all, &t_all);
        let g_read_all = body.readout.backward(&g_s.scaled(READ_WEIGHT));

        // Combine encoder gradients: read-out on all rows, dynamics on the
        // first half only (prediction targets are detached).
        let mut g_all = g_read_all;
        for r in 0..b {
            let src = g_z_dyn.row(r).to_vec();
            let dst = g_all.row_mut(r);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        let _ = body.encoder.backward(&g_all);

        // One optimizer step across all parts.
        struct All<'a>(&'a mut Body, &'a mut dyn DynCore);
        impl Layer for All<'_> {
            fn forward(&mut self, i: &Tensor, _t: bool) -> Tensor {
                i.clone()
            }
            fn backward(&mut self, g: &Tensor) -> Tensor {
                g.clone()
            }
            fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
                self.0.encoder.visit_params(f);
                self.0.readout.visit_params(f);
                self.1.visit_params(f);
            }
            fn param_count(&self) -> usize {
                0
            }
            fn macs(&self, _b: usize) -> u64 {
                0
            }
            fn name(&self) -> &'static str {
                "AllParams"
            }
        }
        let mut opt = std::mem::replace(&mut body.opt, Adam::new(0.0));
        opt.step(&mut All(body, dyn_core));
        body.opt = opt;
        body.encoder.zero_grad();
        body.readout.zero_grad();
        dyn_core.zero_grad();

        total += lp * PRED_WEIGHT + ls * READ_WEIGHT;
        batches += 1;
    }
    if batches == 0 {
        0.0
    } else {
        total / batches as f64
    }
}

/// Generic model wrapper: body + one dynamics core.
pub(crate) struct ModelImpl<D: DynCore> {
    pub body: Body,
    pub dynamics: D,
    pub name: &'static str,
}

impl<D: DynCore> LatentModel for ModelImpl<D> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn encode(&mut self, obs: &[f64]) -> Vec<f64> {
        self.body.encode_one(obs)
    }

    fn predict(&mut self, z: &[f64], u: f64) -> Vec<f64> {
        self.dynamics.step(z, u)
    }

    fn read_state(&mut self, z: &[f64]) -> [f64; 4] {
        self.body.read_one(z)
    }

    fn train_epoch(&mut self, data: &Dataset, epoch_seed: u64) -> f64 {
        train_epoch_shared(&mut self.body, &mut self.dynamics, data, epoch_seed)
    }

    fn linear_dynamics(&mut self) -> Option<(Matrix, Matrix)> {
        self.dynamics.linear()
    }

    fn readout(&mut self) -> (Matrix, Vec<f64>) {
        self.body.readout_matrix()
    }

    fn prediction_macs(&self) -> u64 {
        self.dynamics.macs_per_step()
    }

    fn control_macs(&self) -> u64 {
        match self.dynamics.linear() {
            // LQR: u = -K(z - z*) — one dot product.
            Some(_) => Z_DIM as u64,
            // Shooting MPC: candidates × horizon × (dynamics + read-out).
            None => {
                let readout_macs = (Z_DIM * 4) as u64;
                crate::control::SHOOTING_CANDIDATES as u64
                    * crate::control::SHOOTING_HORIZON as u64
                    * (self.dynamics.macs_per_step() + readout_macs)
            }
        }
    }

    fn reset_rollout(&mut self) {
        self.dynamics.reset_rollout();
    }
}

// ---------------------------------------------------------------------------
// Dense Koopman: z' = A z + B u (full matrix).
// ---------------------------------------------------------------------------

/// Full-matrix linear latent dynamics (the dense-Koopman baseline).
pub struct DenseKoopman;

pub(crate) struct DenseLinearCore {
    a: Vec<f64>, // [Z, Z] row-major
    b: Vec<f64>, // [Z]
    grad_a: Vec<f64>,
    grad_b: Vec<f64>,
    cached: Option<(Tensor, Vec<f64>)>,
}

impl DenseLinearCore {
    fn new(init: &mut Initializer) -> Self {
        // Initialize near identity (stable start).
        let mut a = vec![0.0; Z_DIM * Z_DIM];
        for i in 0..Z_DIM {
            a[i * Z_DIM + i] = 0.9;
        }
        for v in a.iter_mut() {
            *v += init.normal(0.0, 0.02);
        }
        DenseLinearCore {
            a,
            b: (0..Z_DIM).map(|_| init.normal(0.0, 0.05)).collect(),
            grad_a: vec![0.0; Z_DIM * Z_DIM],
            grad_b: vec![0.0; Z_DIM],
            cached: None,
        }
    }

    fn apply(&self, z: &[f64], u: f64) -> Vec<f64> {
        (0..Z_DIM)
            .map(|i| {
                let row = &self.a[i * Z_DIM..(i + 1) * Z_DIM];
                row.iter().zip(z).map(|(a, zz)| a * zz).sum::<f64>() + self.b[i] * u
            })
            .collect()
    }
}

impl DynCore for DenseLinearCore {
    fn forward(&mut self, z: &Tensor, u: &[f64], _ctx: &[Vec<Vec<f64>>]) -> Tensor {
        let b = z.shape()[0];
        let mut out = Tensor::zeros(vec![b, Z_DIM]);
        for (r, &ur) in u.iter().enumerate().take(b) {
            out.row_mut(r).copy_from_slice(&self.apply(z.row(r), ur));
        }
        self.cached = Some((z.clone(), u.to_vec()));
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (z, u) = self.cached.as_ref().expect("backward before forward");
        let b = grad.shape()[0];
        let mut g_z = Tensor::zeros(vec![b, Z_DIM]);
        for (r, &ur) in u.iter().enumerate().take(b) {
            let g = grad.row(r);
            let zr = z.row(r);
            for (i, &gi) in g.iter().enumerate() {
                for (j, &zj) in zr.iter().enumerate() {
                    self.grad_a[i * Z_DIM + j] += gi * zj;
                }
                self.grad_b[i] += gi * ur;
            }
            let gz = g_z.row_mut(r);
            for (j, gzj) in gz.iter_mut().enumerate() {
                *gzj = (0..Z_DIM).map(|i| self.a[i * Z_DIM + j] * g[i]).sum();
            }
        }
        g_z
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.a, &mut self.grad_a);
        f(&mut self.b, &mut self.grad_b);
    }

    fn zero_grad(&mut self) {
        self.grad_a.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn macs_per_step(&self) -> u64 {
        (Z_DIM * Z_DIM + Z_DIM) as u64
    }

    fn linear(&self) -> Option<(Matrix, Matrix)> {
        let a = Matrix::from_vec(Z_DIM, Z_DIM, self.a.clone());
        let b = Matrix::from_vec(Z_DIM, 1, self.b.clone());
        Some((a, b))
    }

    fn step(&mut self, z: &[f64], u: f64) -> Vec<f64> {
        self.apply(z, u)
    }
}

impl DenseKoopman {
    /// Fresh dense-Koopman model.
    // Factory on a marker type: the concrete model is deliberately opaque.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(seed: u64) -> impl LatentModel {
        let mut init = Initializer::new(seed.wrapping_add(101));
        ModelImpl {
            body: Body::new(seed),
            dynamics: DenseLinearCore::new(&mut init),
            name: "DenseKoopman",
        }
    }
}

// ---------------------------------------------------------------------------
// MLP dynamics.
// ---------------------------------------------------------------------------

/// Two-layer MLP latent dynamics (CURL-style model baseline).
pub struct MlpDynamics;

pub(crate) struct MlpCore {
    net: Sequential,
}

impl MlpCore {
    fn new(init: &mut Initializer, hidden: usize) -> Self {
        MlpCore {
            net: Sequential::new(vec![
                Box::new(Dense::new(Z_DIM + 1, hidden, init)),
                Box::new(Activation::new(ActKind::Relu)),
                Box::new(Dense::new(hidden, Z_DIM, init)),
            ]),
        }
    }

    fn stack_zu(z: &Tensor, u: &[f64]) -> Tensor {
        let b = z.shape()[0];
        let mut rows = Vec::with_capacity(b);
        for (r, &ur) in u.iter().enumerate().take(b) {
            let mut row = z.row(r).to_vec();
            row.push(ur);
            rows.push(row);
        }
        Tensor::stack_rows(&rows)
    }
}

impl DynCore for MlpCore {
    fn forward(&mut self, z: &Tensor, u: &[f64], _ctx: &[Vec<Vec<f64>>]) -> Tensor {
        self.net.forward(&Self::stack_zu(z, u), true)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g_zu = self.net.backward(grad);
        // Strip the action column.
        let b = g_zu.shape()[0];
        let mut g_z = Tensor::zeros(vec![b, Z_DIM]);
        for r in 0..b {
            g_z.row_mut(r).copy_from_slice(&g_zu.row(r)[..Z_DIM]);
        }
        g_z
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.net.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    fn macs_per_step(&self) -> u64 {
        self.net.macs(1)
    }

    fn linear(&self) -> Option<(Matrix, Matrix)> {
        None
    }

    fn step(&mut self, z: &[f64], u: f64) -> Vec<f64> {
        let mut row = z.to_vec();
        row.push(u);
        let x = Tensor::from_vec(vec![1, Z_DIM + 1], row);
        self.net.forward(&x, false).into_vec()
    }
}

impl MlpDynamics {
    /// Fresh MLP-dynamics model (hidden width 64).
    // Factory on a marker type: the concrete model is deliberately opaque.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(seed: u64) -> impl LatentModel {
        let mut init = Initializer::new(seed.wrapping_add(202));
        ModelImpl {
            body: Body::new(seed),
            dynamics: MlpCore::new(&mut init, 64),
            name: "MLP",
        }
    }
}

// ---------------------------------------------------------------------------
// Recurrent dynamics: h₀ = tanh(Wᵢ z); h₁ = tanh(W_h h₀ + W_x [z,u]); z' = W_o h₁.
// ---------------------------------------------------------------------------

/// Recurrent-cell latent dynamics (Dreamer-style RSSM stand-in).
pub struct RecurrentDynamics;

pub(crate) struct RecurrentCore {
    init_proj: Dense,
    hidden_proj: Dense,
    input_proj: Dense,
    out_proj: Dense,
    tanh0: Activation,
    tanh1: Activation,
    hidden: usize,
    rollout_h: Option<Vec<f64>>,
    cached_h0: Option<Tensor>,
}

impl RecurrentCore {
    fn new(init: &mut Initializer, hidden: usize) -> Self {
        RecurrentCore {
            init_proj: Dense::new(Z_DIM, hidden, init),
            hidden_proj: Dense::new(hidden, hidden, init),
            input_proj: Dense::new(Z_DIM + 1, hidden, init),
            out_proj: Dense::new(hidden, Z_DIM, init),
            tanh0: Activation::new(ActKind::Tanh),
            tanh1: Activation::new(ActKind::Tanh),
            hidden,
            rollout_h: None,
            cached_h0: None,
        }
    }
}

impl DynCore for RecurrentCore {
    fn forward(&mut self, z: &Tensor, u: &[f64], _ctx: &[Vec<Vec<f64>>]) -> Tensor {
        let pre_h0 = self.init_proj.forward(z, true);
        let h0 = self.tanh0.forward(&pre_h0, true);
        let hh = self.hidden_proj.forward(&h0, true);
        let zu = MlpCore::stack_zu(z, u);
        let hx = self.input_proj.forward(&zu, true);
        let pre_h1 = hh.add(&hx);
        let h1 = self.tanh1.forward(&pre_h1, true);
        self.cached_h0 = Some(h0);
        self.out_proj.forward(&h1, true)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g_h1 = self.out_proj.backward(grad);
        let g_pre_h1 = self.tanh1.backward(&g_h1);
        let g_h0 = self.hidden_proj.backward(&g_pre_h1);
        let g_zu = self.input_proj.backward(&g_pre_h1);
        let g_pre_h0 = self.tanh0.backward(&g_h0);
        let g_z_init = self.init_proj.backward(&g_pre_h0);
        // Combine the two z-paths.
        let b = grad.shape()[0];
        let mut g_z = g_z_init;
        for r in 0..b {
            let src = g_zu.row(r)[..Z_DIM].to_vec();
            let dst = g_z.row_mut(r);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        g_z
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.init_proj.visit_params(f);
        self.hidden_proj.visit_params(f);
        self.input_proj.visit_params(f);
        self.out_proj.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.init_proj.zero_grad();
        self.hidden_proj.zero_grad();
        self.input_proj.zero_grad();
        self.out_proj.zero_grad();
    }

    fn macs_per_step(&self) -> u64 {
        (self.hidden * self.hidden + self.hidden * (Z_DIM + 1) + self.hidden * Z_DIM) as u64
    }

    fn linear(&self) -> Option<(Matrix, Matrix)> {
        None
    }

    fn step(&mut self, z: &[f64], u: f64) -> Vec<f64> {
        // Maintain the hidden state across rollout steps.
        let h_prev = match &self.rollout_h {
            Some(h) => h.clone(),
            None => {
                let x = Tensor::from_vec(vec![1, Z_DIM], z.to_vec());
                self.init_proj
                    .apply(&x)
                    .into_vec()
                    .iter()
                    .map(|v| v.tanh())
                    .collect()
            }
        };
        let hh = self
            .hidden_proj
            .apply(&Tensor::from_vec(vec![1, self.hidden], h_prev));
        let mut zu = z.to_vec();
        zu.push(u);
        let hx = self
            .input_proj
            .apply(&Tensor::from_vec(vec![1, Z_DIM + 1], zu));
        let h1: Vec<f64> = hh
            .as_slice()
            .iter()
            .zip(hx.as_slice())
            .map(|(a, b)| (a + b).tanh())
            .collect();
        self.rollout_h = Some(h1.clone());
        self.out_proj
            .apply(&Tensor::from_vec(vec![1, self.hidden], h1))
            .into_vec()
    }

    fn reset_rollout(&mut self) {
        self.rollout_h = None;
    }
}

impl RecurrentDynamics {
    /// Fresh recurrent-dynamics model (hidden width 32).
    // Factory on a marker type: the concrete model is deliberately opaque.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(seed: u64) -> impl LatentModel {
        let mut init = Initializer::new(seed.wrapping_add(303));
        ModelImpl {
            body: Body::new(seed),
            dynamics: RecurrentCore::new(&mut init, 32),
            name: "Recurrent",
        }
    }
}

// ---------------------------------------------------------------------------
// Transformer dynamics: single-head attention over past latents.
// ---------------------------------------------------------------------------

/// Attention-based latent dynamics (Decision-Transformer-style baseline).
pub struct TransformerDynamics;

/// Context window length.
pub(crate) const TF_WINDOW: usize = 6;

pub(crate) struct TransformerCore {
    wq: Dense,
    wk: Dense,
    wv: Dense,
    out: Sequential,
    window: Vec<Vec<f64>>,
    cached: Option<TfCache>,
}

struct TfCache {
    z: Tensor,
    ctx: Vec<Vec<Vec<f64>>>,
    attn: Vec<Vec<f64>>,
    q: Tensor,
}

impl TransformerCore {
    fn new(init: &mut Initializer) -> Self {
        TransformerCore {
            wq: Dense::new(Z_DIM, Z_DIM, init),
            wk: Dense::new(Z_DIM, Z_DIM, init),
            wv: Dense::new(Z_DIM, Z_DIM, init),
            out: Sequential::new(vec![
                Box::new(Dense::new(2 * Z_DIM + 1, 32, init)),
                Box::new(Activation::new(ActKind::Relu)),
                Box::new(Dense::new(32, Z_DIM, init)),
            ]),
            window: Vec::new(),
            cached: None,
        }
    }

    /// Attention of one query latent over its context (returns attn weights
    /// and the context vector).
    fn attend(&self, z: &[f64], ctx: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
        if ctx.is_empty() {
            return (Vec::new(), vec![0.0; Z_DIM]);
        }
        let q = self
            .wq
            .apply(&Tensor::from_vec(vec![1, Z_DIM], z.to_vec()))
            .into_vec();
        let scale = 1.0 / (Z_DIM as f64).sqrt();
        let mut scores = Vec::with_capacity(ctx.len());
        for c in ctx {
            let k = self
                .wk
                .apply(&Tensor::from_vec(vec![1, Z_DIM], c.clone()))
                .into_vec();
            scores.push(q.iter().zip(&k).map(|(a, b)| a * b).sum::<f64>() * scale);
        }
        let attn = sensact_math::vector::softmax(&scores);
        let mut out = vec![0.0; Z_DIM];
        for (a, c) in attn.iter().zip(ctx) {
            let v = self
                .wv
                .apply(&Tensor::from_vec(vec![1, Z_DIM], c.clone()))
                .into_vec();
            for (o, vi) in out.iter_mut().zip(&v) {
                *o += a * vi;
            }
        }
        (attn, out)
    }
}

impl DynCore for TransformerCore {
    fn forward(&mut self, z: &Tensor, u: &[f64], ctx: &[Vec<Vec<f64>>]) -> Tensor {
        let b = z.shape()[0];
        let mut q_rows = Vec::with_capacity(b);
        let mut attns = Vec::with_capacity(b);
        let mut out_rows = Vec::with_capacity(b);
        for r in 0..b {
            let (attn, ctx_vec) = self.attend(z.row(r), &ctx[r]);
            let q = self
                .wq
                .apply(&Tensor::from_vec(vec![1, Z_DIM], z.row(r).to_vec()))
                .into_vec();
            q_rows.push(q);
            attns.push(attn);
            let mut row = z.row(r).to_vec();
            row.extend_from_slice(&ctx_vec);
            row.push(u[r]);
            out_rows.push(row);
        }
        let out_in = Tensor::stack_rows(&out_rows);
        let result = self.out.forward(&out_in, true);
        self.cached = Some(TfCache {
            z: z.clone(),
            ctx: ctx.to_vec(),
            attn: attns,
            q: Tensor::stack_rows(&q_rows),
        });
        result
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        // Take the cache to avoid aliasing &self while mutating param grads.
        let cache = self.cached.take().expect("backward before forward");
        let g_in = self.out.backward(grad);
        let b = grad.shape()[0];
        let scale = 1.0 / (Z_DIM as f64).sqrt();
        let mut g_z = Tensor::zeros(vec![b, Z_DIM]);
        for r in 0..b {
            // Split [g_z_direct | g_ctx | g_u].
            let g_row = g_in.row(r);
            let g_z_direct = &g_row[..Z_DIM];
            let g_ctx = &g_row[Z_DIM..2 * Z_DIM];
            let ctx = &cache.ctx[r];
            let z_row = cache.z.row(r);
            let mut g_z_total: Vec<f64> = g_z_direct.to_vec();
            if !ctx.is_empty() {
                let attn = &cache.attn[r];
                // Values and their grads.
                let mut g_a = vec![0.0; ctx.len()];
                for (j, c) in ctx.iter().enumerate() {
                    let v = self
                        .wv
                        .apply(&Tensor::from_vec(vec![1, Z_DIM], c.clone()))
                        .into_vec();
                    g_a[j] = g_ctx.iter().zip(&v).map(|(a, b)| a * b).sum();
                    // grad W_v += a_j * g_ctx ⊗ c_j  (W_v stored [in, out]).
                    let mut gv = vec![0.0; Z_DIM];
                    for (gvi, gc) in gv.iter_mut().zip(g_ctx) {
                        *gvi = attn[j] * gc;
                    }
                    accumulate_dense_grad(&mut self.wv, c, &gv);
                }
                // Softmax backward.
                let dot: f64 = attn.iter().zip(&g_a).map(|(a, g)| a * g).sum();
                let g_s: Vec<f64> = attn.iter().zip(&g_a).map(|(a, g)| a * (g - dot)).collect();
                // q and k paths.
                let q = cache.q.row(r);
                let mut g_q = vec![0.0; Z_DIM];
                for (j, c) in ctx.iter().enumerate() {
                    let k = self
                        .wk
                        .apply(&Tensor::from_vec(vec![1, Z_DIM], c.clone()))
                        .into_vec();
                    for (gq, kk) in g_q.iter_mut().zip(&k) {
                        *gq += g_s[j] * kk * scale;
                    }
                    let gk: Vec<f64> = q.iter().map(|qq| g_s[j] * qq * scale).collect();
                    accumulate_dense_grad(&mut self.wk, c, &gk);
                }
                accumulate_dense_grad(&mut self.wq, z_row, &g_q);
                // g_z through q = W_q z.
                for (i, gzi) in g_z_total.iter_mut().enumerate() {
                    let wrow = &self.wq.weights[i * Z_DIM..(i + 1) * Z_DIM];
                    *gzi += wrow.iter().zip(&g_q).map(|(w, g)| w * g).sum::<f64>();
                }
            }
            g_z.row_mut(r).copy_from_slice(&g_z_total);
        }
        g_z
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.out.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.wq.zero_grad();
        self.wk.zero_grad();
        self.wv.zero_grad();
        self.out.zero_grad();
    }

    fn macs_per_step(&self) -> u64 {
        // Per step: q/k/v projections over the window + scores + out MLP.
        let proj = (Z_DIM * Z_DIM) as u64;
        let window = TF_WINDOW as u64;
        proj + window * (2 * proj + 2 * Z_DIM as u64) + self.out.macs(1)
    }

    fn linear(&self) -> Option<(Matrix, Matrix)> {
        None
    }

    fn step(&mut self, z: &[f64], u: f64) -> Vec<f64> {
        let ctx = self.window.clone();
        let (_, ctx_vec) = self.attend(z, &ctx);
        let mut row = z.to_vec();
        row.extend_from_slice(&ctx_vec);
        row.push(u);
        let x = Tensor::from_vec(vec![1, 2 * Z_DIM + 1], row);
        let out = self.out.forward(&x, false).into_vec();
        self.window.push(z.to_vec());
        if self.window.len() > TF_WINDOW {
            self.window.remove(0);
        }
        out
    }

    fn reset_rollout(&mut self) {
        self.window.clear();
    }

    fn context_len(&self) -> usize {
        TF_WINDOW
    }
}

/// Accumulate `grad_W += input ⊗ grad_out` into a Dense layer's weight/bias
/// gradients directly (bias gets `grad_out`). W is stored `[in, out]`.
fn accumulate_dense_grad(dense: &mut Dense, input: &[f64], grad_out: &[f64]) {
    let out_dim = grad_out.len();
    let mut handled = false;
    dense.visit_params(&mut |p, g| {
        if p.len() == input.len() * out_dim && !handled {
            for (i, &xi) in input.iter().enumerate() {
                for (o, &go) in grad_out.iter().enumerate() {
                    g[i * out_dim + o] += xi * go;
                }
            }
            handled = true;
        } else if p.len() == out_dim {
            for (gb, &go) in g.iter_mut().zip(grad_out) {
                *gb += go;
            }
        }
    });
}

impl TransformerDynamics {
    /// Fresh Transformer-dynamics model (window 6, single head).
    // Factory on a marker type: the concrete model is deliberately opaque.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(seed: u64) -> impl LatentModel {
        let mut init = Initializer::new(seed.wrapping_add(404));
        ModelImpl {
            body: Body::new(seed),
            dynamics: TransformerCore::new(&mut init),
            name: "Transformer",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::collect_dataset;

    fn check_training_reduces_loss(mut model: impl LatentModel) {
        let data = collect_dataset(600, 11);
        let first = model.train_epoch(&data, 0);
        let mut last = first;
        for e in 1..8 {
            last = model.train_epoch(&data, e);
        }
        assert!(
            last < first * 0.8,
            "{}: first {first} last {last}",
            model.name()
        );
    }

    #[test]
    fn dense_koopman_trains() {
        check_training_reduces_loss(DenseKoopman::new(1));
    }

    #[test]
    fn mlp_trains() {
        check_training_reduces_loss(MlpDynamics::new(1));
    }

    #[test]
    fn recurrent_trains() {
        check_training_reduces_loss(RecurrentDynamics::new(1));
    }

    #[test]
    fn transformer_trains() {
        check_training_reduces_loss(TransformerDynamics::new(1));
    }

    #[test]
    fn readout_learns_state() {
        let mut model = DenseKoopman::new(2);
        let data = collect_dataset(800, 12);
        for e in 0..15 {
            model.train_epoch(&data, e);
        }
        // Read-out should recover the state from the latent.
        let mut err = 0.0;
        for t in data.transitions().iter().take(100) {
            let z = model.encode(&t.obs);
            let s = model.read_state(&z);
            err += s
                .iter()
                .zip(&t.state)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        err /= 100.0;
        assert!(err < 0.05, "read-out MSE {err}");
    }

    #[test]
    fn prediction_beats_identity_baseline() {
        let mut model = MlpDynamics::new(3);
        let data = collect_dataset(800, 13);
        for e in 0..15 {
            model.train_epoch(&data, e);
        }
        let mut model_err = 0.0;
        let mut identity_err = 0.0;
        for t in data.transitions().iter().take(200) {
            let z = model.encode(&t.obs);
            let z_next = model.encode(&t.next_obs);
            let zp = model.predict(&z, t.action);
            model_err += zp
                .iter()
                .zip(&z_next)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
            identity_err += z
                .iter()
                .zip(&z_next)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        assert!(
            model_err < identity_err,
            "model {model_err} vs identity {identity_err}"
        );
    }

    #[test]
    fn linear_dynamics_only_for_koopman() {
        assert!(DenseKoopman::new(0).linear_dynamics().is_some());
        assert!(MlpDynamics::new(0).linear_dynamics().is_none());
        assert!(RecurrentDynamics::new(0).linear_dynamics().is_none());
        assert!(TransformerDynamics::new(0).linear_dynamics().is_none());
    }

    #[test]
    fn mac_ordering_matches_fig5a() {
        let dense = DenseKoopman::new(0);
        let mlp = MlpDynamics::new(0);
        let rec = RecurrentDynamics::new(0);
        let tf = TransformerDynamics::new(0);
        // Prediction: transformer > mlp/recurrent > dense linear.
        assert!(tf.prediction_macs() > mlp.prediction_macs());
        assert!(mlp.prediction_macs() > dense.prediction_macs());
        assert!(rec.prediction_macs() > dense.prediction_macs());
        // Control: LQR (dense) ≪ shooting (others).
        assert!(dense.control_macs() * 100 < mlp.control_macs());
    }

    #[test]
    fn recurrent_rollout_state_resets() {
        let mut model = RecurrentDynamics::new(4);
        let z = vec![0.1; Z_DIM];
        let a1 = model.predict(&z, 1.0);
        let _ = model.predict(&z, 1.0); // hidden state advanced
        model.reset_rollout();
        let a2 = model.predict(&z, 1.0);
        assert_eq!(a1, a2, "reset must restore initial hidden state");
    }

    #[test]
    fn transformer_window_bounded() {
        let mut model = TransformerDynamics::new(5);
        let z = vec![0.1; Z_DIM];
        for _ in 0..20 {
            let out = model.predict(&z, 0.5);
            assert_eq!(out.len(), Z_DIM);
            assert!(out.iter().all(|v| v.is_finite()));
        }
    }
}
