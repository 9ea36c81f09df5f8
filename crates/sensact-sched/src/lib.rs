//! # sensact-sched
//!
//! A fleet-scale runtime for sensing-to-action loops (paper §VII).
//!
//! The loop abstraction in [`sensact_core`] runs one loop at a time; the
//! paper's fleet argument — coordinated agents splitting coverage cut
//! energy ~3× — needs a runtime that multiplexes *thousands* of
//! heterogeneous loops over a bounded worker pool. This crate provides it,
//! std-only and dependency-free:
//!
//! * [`LoopHandle`] / [`DynLoop`] — one object-safe adapter closing any
//!   [`LoopRunner`](sensact_core::LoopRunner) — a
//!   [`SensingActionLoop`](sensact_core::SensingActionLoop) or
//!   [`FallibleLoop`](sensact_core::FallibleLoop) of any stage types — over
//!   its environment, so one fleet mixes lidar→STARNet and cartpole→Koopman
//!   members;
//! * [`FleetScheduler`] — deadline-aware (EDF) scheduling onto a pool of
//!   virtual workers; each loop registers a tick period and latency budget
//!   ([`LoopSpec`]), and a tick that overruns its budget is surfaced through
//!   the loop's own [`StageError::Timeout`](sensact_core::StageError) fault
//!   path;
//! * admission control and backpressure — a bounded pending-tick backlog
//!   per loop with drop-oldest semantics and per-loop drop accounting, plus
//!   an [`EnergyArbiter`] that stretches release strides when the fleet's
//!   summed energy burn exceeds a configured watts cap;
//! * full observability — per-loop
//!   [`LoopTelemetry`](sensact_core::LoopTelemetry) preserved, and
//!   scheduler-level [`FleetReport::export_into`] publishing queue depth,
//!   deadline misses and per-worker utilization into a
//!   [`MetricsRegistry`](sensact_core::MetricsRegistry);
//! * one event loop — [`FleetScheduler::run_deterministic`] simulates the
//!   worker pool event-by-event under a caller-provided
//!   [`SimClock`](sensact_core::trace::SimClock) with seeded EDF
//!   tie-breaking, so a fleet run is reproducible tick-for-tick and member
//!   loops still verify bit-exactly through the
//!   [`replay`](sensact_core::replay) path; [`FleetScheduler::run`] puts
//!   that same loop on OS threads, one partition of the fleet each.
//!
//! ## Example
//!
//! ```
//! use sensact_core::stage::{FnController, FnPerceptor, FnSensor, StageContext};
//! use sensact_core::trace::SimClock;
//! use sensact_core::LoopBuilder;
//! use sensact_sched::{FleetConfig, FleetScheduler, LoopHandle, LoopSpec};
//!
//! let mut fleet = FleetScheduler::new(FleetConfig { workers: 2, ..FleetConfig::default() });
//! for i in 0..4 {
//!     let looop = LoopBuilder::new(format!("member-{i}")).build(
//!         FnSensor::new(|e: &f64, ctx: &mut StageContext| { ctx.charge(1e-6, 1e-4); *e }),
//!         FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
//!         FnController::new(|f: &f64, _t, _: &mut StageContext| -0.5 * f),
//!     );
//!     fleet.register(
//!         LoopHandle::closed(looop, 4.0f64, |e, a| *e += a),
//!         LoopSpec::periodic(1e-2).with_budget(5e-3),
//!     );
//! }
//! let report = fleet.run_deterministic(0.1, &mut SimClock::new());
//! assert_eq!(report.ticks, 40);
//! assert_eq!(report.deadline_misses, 0);
//! ```

pub mod arbiter;
pub mod handle;
pub mod sched;

mod queue;

pub use arbiter::EnergyArbiter;
pub use handle::{DynLoop, LoopHandle, TickOutcome};
pub use sched::{FleetConfig, FleetReport, FleetScheduler, LoopId, LoopSpec, LoopStats};
