//! # sensact-fed
//!
//! Federated, multi-agent sensing-action loops (paper §VII).
//!
//! Real FL fleets are heterogeneous: clients differ in compute, memory and
//! energy. Static FedAvg with a uniform model wastes the strong clients and
//! drowns the weak ones. This crate implements the paper's two adaptive
//! frameworks plus the edge-cloud pattern:
//!
//! * [`data`] — a synthetic CIFAR-10-like dataset with non-IID client splits
//!   (the paper's evaluation substrate, substituted per DESIGN.md).
//! * [`coverage`] — coordinated coverage: agents split the azimuth circle
//!   by remaining battery, sense their own arc and receive the rest from
//!   their peers (the conclusion's ~3× energy claim).
//! * [`client`] / [`server`] — FedAvg over MLP classifiers with per-client
//!   [`client::HardwareProfile`]s and full energy/latency accounting.
//! * [`dcnas`] — DC-NAS-style architecture adaptation: nested channel
//!   pruning sizes each client's subnetwork to its compute budget.
//! * [`halo`] — HaLo-FL-style precision selection: per-client weight/
//!   activation/gradient precision chosen against a hardware cost model
//!   (energy/latency/area), with fake-quantized local training.
//! * [`speculative`] — edge-cloud speculative decoding over character-level
//!   n-gram models: the draft model runs on the edge, the target verifies in
//!   batches, provably matching the target's greedy output.
//! * [`sim`] — a deterministic simulated network (seeded per-link latency,
//!   loss, partitions, stragglers) making communication a schedulable
//!   resource.
//! * [`fleet`] — federated clients as [`sensact_sched::DynLoop`]s: the EDF
//!   scheduler multiplexes download → train → upload ticks, the server
//!   aggregates online with straggler cutoffs, and upload/download time
//!   feeds the same deadline/energy model as compute.

pub mod client;
pub mod coverage;
pub mod data;
pub mod dcnas;
pub mod fleet;
pub mod halo;
pub mod server;
pub mod sim;
pub mod speculative;

pub use client::{Client, HardwareTier};
pub use data::Dataset;
pub use fleet::{
    broadcast_context, round_aggregate_context, round_trace_root, run_federated_scheduled,
    FedFleetConfig, FedFleetReport,
};
pub use server::{aggregate_masked, run_federated, FedConfig, FedReport, MaskedUpdate, Strategy};
pub use sim::NetworkConfig;
