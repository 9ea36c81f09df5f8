//! # sensact-koopman
//!
//! RoboKoop (paper §IV): control-conditioned representations from visual
//! input using the Koopman operator.
//!
//! The hypothesis: robust agent representations can be learned with fewer
//! interactions if the task embedding space is modeled *linearly* and a
//! finite set of stable eigenvalues of the Koopman operator is identified.
//! The crate implements that pipeline end to end on a cart-pole:
//!
//! * [`cartpole`] — analytic cart-pole dynamics with the paper's disturbance
//!   protocol (`F ~ Uniform(a_min, a_max)` applied with probability `p`) and
//!   a redundant nonlinear "visual" observation vector.
//! * [`encoder`] — the contrastive spectral Koopman model: an MLP encoder to
//!   a latent where dynamics are the block-diagonal matrix of learnable
//!   complex eigenvalues `ρ·e^{jω}` (kept inside the unit circle by
//!   construction), trained with next-latent prediction, a linear state
//!   read-out, and an InfoNCE contrastive term.
//! * [`baselines`] — the comparison models of Fig. 5: dense-Koopman, MLP,
//!   recurrent and Transformer latent dynamics, trained identically.
//! * [`control`] — LQR synthesis on the linear latent dynamics (Koopman
//!   models) and random-shooting MPC (nonlinear models), plus the
//!   disturbance-robustness evaluation of Fig. 5b.
//!
//! Substitution note: the paper trains with Soft Actor-Critic and dual
//! Q-functions; here the control-conditioning signal is a linear state
//! read-out trained jointly with the embedding, and control is synthesized
//! by LQR directly — same embedding structure, deterministic training.

pub mod baselines;
pub mod cartpole;
pub mod control;
pub mod encoder;
pub mod ensemble;
pub mod train;

pub use baselines::{
    DenseKoopman, LatentModel, MlpDynamics, RecurrentDynamics, TransformerDynamics,
};
pub use cartpole::{CartPole, CartPoleConfig, Disturbance};
pub use control::{evaluate_robustness, LqrLatentController, ShootingController};
pub use encoder::SpectralKoopman;
pub use ensemble::KoopmanEnsemble;
pub use train::{collect_dataset, Dataset};
