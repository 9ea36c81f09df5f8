//! # sensact-neuro
//!
//! Neuromorphic sensing-action loops (paper §VI): event cameras, spiking
//! neural networks and the optical-flow benchmark of Fig. 9.
//!
//! * [`event`] — a DVS-style event-camera simulator over procedurally
//!   rendered moving scenes, with ground-truth optical flow (the MVSEC
//!   substitute) and a compact binary event packing.
//! * [`snn`] — leaky integrate-and-fire layers with surrogate-gradient BPTT
//!   and *learnable* leak/threshold dynamics (Adaptive-SpikeNet).
//! * [`flow`] — the Fig. 9 model family: full-ANN (EV-FlowNet-like), hybrid
//!   SNN→ANN (Spike-FlowNet-like), event+frame fusion (Fusion-FlowNet-like),
//!   and the Adaptive-SpikeNet size sweep; all trained on the same synthetic
//!   streams and scored by average endpoint error.
//! * [`dotie`] — DOTIE-style single-layer spiking event clustering: fast
//!   objects isolate temporally and pop out as bounding boxes.
//! * [`energy`] — the spike-count energy model (synaptic accumulate vs MAC)
//!   used to reproduce the paper's energy ratios.

pub mod dotie;
pub mod energy;
pub mod event;
pub mod flow;
pub mod snn;

pub use energy::OpEnergy;
pub use event::{MovingScene, MovingSceneConfig};
pub use flow::{FlowModel, FlowModelKind};
