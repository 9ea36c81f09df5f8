//! # sensact — Intelligent Sensing-to-Action Loops for Edge Autonomy
//!
//! Facade crate re-exporting the whole `sensact` workspace, a Rust
//! reproduction of *"Intelligent Sensing-to-Action for Robust Autonomy at the
//! Edge: Opportunities and Challenges"* (Trivedi et al., DATE 2025).
//!
//! The workspace is organized around the paper's central abstraction, the
//! **sensing-to-action loop** ([`core`]), with one crate per subsystem:
//!
//! * [`lidar`] — LiDAR + 3-D street-scene simulator (rays, voxels, masking,
//!   energy, corruptions).
//! * [`rmae`] — §III generative sensing: masked occupancy autoencoding and
//!   voxel detection.
//! * [`koopman`] — §IV RoboKoop: spectral Koopman embeddings + LQR control.
//! * [`starnet`] — §V reliability: VAE likelihood-regret trust monitoring.
//! * [`neuro`] — §VI neuromorphic loops: event cameras, SNNs, optical flow.
//! * [`fed`] — §VII federated multi-agent loops: DC-NAS, HaLo-FL,
//!   speculative decoding.
//! * [`sched`] — §VII fleet runtime: deadline-aware multiplexing of
//!   heterogeneous loops over a worker pool, with drop-oldest
//!   backpressure, an energy arbiter and one event loop that runs
//!   deterministically under a simulated clock or partitioned over threads.
//! * [`serve`] — fleets-as-a-service ingress: leased loops behind a framed
//!   TCP/HTTP front-end with cross-loop batched inference, admission
//!   control, load shedding and checkpoint-based lease recovery.
//! * [`math`] / [`nn`] — numerical and neural-network substrates.
//!
//! ## Quickstart
//!
//! ```
//! use sensact::core::{LoopBuilder, budget::EnergyBudget};
//!
//! // Build a minimal sensing-action loop; see `examples/quickstart.rs`
//! // for a complete closed-loop run.
//! let builder = LoopBuilder::new("demo");
//! let _ = builder;
//! let _ = EnergyBudget::unlimited();
//! ```

pub use sensact_core as core;
pub use sensact_fed as fed;
pub use sensact_koopman as koopman;
pub use sensact_lidar as lidar;
pub use sensact_math as math;
pub use sensact_neuro as neuro;
pub use sensact_nn as nn;
pub use sensact_rmae as rmae;
pub use sensact_sched as sched;
pub use sensact_serve as serve;
pub use sensact_starnet as starnet;
