//! # sensact-serve — fleets-as-a-service ingress
//!
//! A zero-dependency serving front-end for sensing-to-action loops:
//! clients **lease** a loop out of a [`FleetScheduler`]-backed pool,
//! stream observations in over a length-prefixed binary frame protocol,
//! and stream actions plus per-tick telemetry back out. A plain HTTP/1.1
//! control plane on the same port (first byte sniffs the protocol) serves
//! `/metrics` in Prometheus exposition format, `/healthz`, and `/stats`.
//!
//! The headline refactor is **cross-loop batched inference**: leases
//! sharing a perceptor signature are grouped by the [`BatchPlanner`] and
//! their forward passes lowered onto one wide GEMM call per drain cycle
//! (the panel packer unfolds every member's patches, on every ISA; no
//! column matrix is materialised). Because the batched kernels are bitwise
//! identical to the per-loop path and every tick is released at its own
//! arrival time, batching changes wall-clock throughput only — actions,
//! telemetry, and scheduler accounting are bit-identical in both modes
//! (tested).
//!
//! Robustness machinery rides the existing layers:
//!
//! - **Admission control** rejects leases when summed latency demand would
//!   exceed the worker pool; **load shedding** drops an observation at
//!   ingress (with a retry-after hint) when the pending-tick arithmetic
//!   says its deadline is unmeetable.
//! - **Lease expiry** reaps clients that stop observing or heartbeating.
//! - **Crash recovery**: a live lease snapshots through the workspace
//!   checkpoint layer (controller state + telemetry + scheduler slot) and
//!   a replacement server built from the same seed resumes it bit-exactly.
//!
//! One transport core, [`Loopback`], owns the connections and the one
//! lease → connection routing table around one [`ServeEngine`]. Tests and
//! benches drive it under a virtual clock; the thread-per-core TCP
//! front-end ([`ServeServer`]) is sockets, threads and the wall clock
//! around it.
//!
//! [`FleetScheduler`]: sensact_sched::FleetScheduler

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod engine;
pub mod http;
pub mod lease;
pub mod loopback;
pub mod metrics;
pub mod model;
pub mod server;
pub mod wire;

pub use batch::BatchPlanner;
pub use engine::{ConnState, ServeConfig, ServeEngine};
pub use lease::{Admitted, LeasePool, PoolConfig};
pub use loopback::{ConnId, Loopback};
pub use model::{ModelKind, SharedPerceptor};
pub use server::ServeServer;
pub use wire::Frame;
