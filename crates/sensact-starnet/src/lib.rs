//! # sensact-starnet
//!
//! STARNet (paper §V): sensor trustworthiness and anomaly recognition via
//! approximated likelihood regret, keeping sensing-to-action loops reliable
//! under natural corruptions, external disruptions and internal sensor
//! failures.
//!
//! The two-stage mechanism:
//!
//! 1. A [`sensact_nn::vae::Vae`] learns the distribution of *intermediate
//!    features* extracted from the primary task's sensor stream
//!    ([`features`]).
//! 2. At inference, the **likelihood regret** ([`regret`]) of each incoming
//!    feature vector — how much the encoder must be adapted to explain the
//!    input — separates trustworthy from anomalous streams. The adaptation is
//!    gradient-free ([`spsa`], Simultaneous Perturbation Stochastic
//!    Approximation) and optionally constrained to a low-rank subspace
//!    (the paper's LoRA-style on-device efficiency trick).
//!
//! [`monitor`] packages this as a [`sensact_core::stage::Monitor`] so any
//! sensing-action loop can mount it; [`fuse`] reproduces the Fig. 7
//! experiment — LiDAR under snow, with trust-gated filtering restoring
//! detection accuracy.

pub mod features;
pub mod fuse;
pub mod monitor;
pub mod regret;
pub mod spsa;
pub mod temporal;

pub use features::extract_features;
pub use monitor::{Starnet, StarnetConfig};
pub use regret::{likelihood_regret, RegretConfig};
pub use spsa::SpsaConfig;
pub use temporal::TemporalConsistency;
