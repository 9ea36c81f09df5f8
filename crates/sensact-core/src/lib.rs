//! # sensact-core
//!
//! The paper's central abstraction: the **sensing-to-action loop** (§II).
//!
//! A loop iterates five stages against an environment:
//!
//! ```text
//!   environment ──► Sensor ──► Perceptor ──► Monitor ──► Controller ──► actuation
//!        ▲                                                     │
//!        └──────────────── action-to-sensing adaptation ◄──────┘
//! ```
//!
//! What makes the loop *intelligent* (and what distinguishes it from a
//! feed-forward sensing-to-insight pipeline) is the feedback edge: after each
//! decision an `adapt::AdaptationPolicy` may retune the sensor — its
//! sensing rate, in the shipped policy — based on the action, the monitor's
//! trust verdict, and the remaining [`budget::EnergyBudget`].
//!
//! Every stage charges its energy and latency to a [`stage::StageContext`];
//! the per-tick ledger feeds the [`telemetry::LoopTelemetry`] that the
//! experiments report. [`fault`] makes stage failure a typed
//! runtime event with graceful-degradation policies (retry, last-good hold,
//! fail-safe fallback) plus a deterministic fault injector.
//!
//! The observability layer attributes cost per stage: [`trace`] provides
//! lightweight spans over one clock (deterministic [`trace::SimClock`] time
//! for tests, monotonic wall time for benches), [`metrics`] provides a hermetic [`metrics::MetricsRegistry`]
//! of counters, gauges and log-bucketed [`metrics::Histogram`]s, and
//! [`export`] serializes spans/ticks as round-trippable JSONL plus a
//! human-readable text report and a Prometheus text exposition. On top of
//! those, [`trace::FleetTracer`] collects *causally linked*
//! [`trace::CausalSpan`]s — deterministic trace/span ids derived from seeds
//! and structural indices, each span built by [`trace::TraceContext::span`]
//! — and [`health`] scores loop and fleet SLO state
//! (healthy/degraded/critical) with hysteresis. Every trace hash in the
//! workspace folds through [`export::fnv1a_words`].
//!
//! ## Example
//!
//! ```
//! use sensact_core::{LoopBuilder, StageContext, Trust,
//!                    stage::{FnSensor, FnPerceptor, FnController}};
//!
//! // A thermostat-style loop: sense a scalar, act to drive it to zero.
//! let mut env = 10.0f64;
//! let mut looop = LoopBuilder::new("thermostat")
//!     .build(
//!         FnSensor::new(|env: &f64, ctx: &mut StageContext| { ctx.charge(1e-6, 1e-4); *env }),
//!         FnPerceptor::new(|r: &f64, _ctx: &mut StageContext| *r),
//!         FnController::new(|f: &f64, _trust: Trust, _ctx: &mut StageContext| -0.5 * f),
//!     );
//! for _ in 0..32 {
//!     let out = looop.tick(&env);
//!     env += out.action;
//! }
//! assert!(env.abs() < 0.1);
//! ```

pub mod adapt;
pub mod budget;
pub mod checkpoint;
pub mod export;
pub mod fault;
pub mod health;
pub mod metrics;
pub mod replay;
pub mod stage;
pub mod telemetry;
pub mod trace;

mod loop_;
mod ring;

pub use budget::EnergyBudget;
pub use checkpoint::{
    Checkpoint, CheckpointError, Section, Snapshot, StageState, CHECKPOINT_VERSION,
};
pub use fault::{
    FallibleLoop, FallibleOutput, FaultInjector, FaultProfile, RecoveryPolicy, Reliable,
    StageError, TickResolution, TrySensor, WithFallback,
};
pub use health::{FleetHealth, HealthScorer, HealthSignals, HealthStatus};
pub use loop_::{Checkpointed, LoopBuilder, LoopRunner, SensingActionLoop};
pub use metrics::{Histogram, MetricsRegistry};
pub use replay::{first_divergence, Recording};
pub use sensact_math::kernels::Precision;
pub use sensact_math::rng::splitmix64_finalize;
pub use stage::{StageContext, Trust};
pub use telemetry::{LoopTelemetry, TickRecord};
pub use trace::{
    CausalSpan, FleetTracer, SimClock, Span, SpanKind, StageBreakdown, StageId, TraceContext,
    Tracer,
};
