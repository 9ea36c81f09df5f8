//! The object-safe loop adapter.
//!
//! A fleet mixes loops of different stage types — a lidar→STARNet
//! [`FallibleLoop`] and a cartpole→Koopman [`SensingActionLoop`] must coexist
//! in one scheduler. The generic `tick<E>` entry points cannot be boxed
//! directly (they are generic over the environment), so the runtime closes
//! each loop over its own environment first: a [`LoopHandle`] owns the loop,
//! the environment, and the actuation closure, and dereferences to the
//! object-safe [`DynLoop`] surface the scheduler drives — the handle has no
//! methods of its own beyond its constructors. Both runners go through one
//! adapter, written against [`LoopRunner`]; whether it can checkpoint is
//! decided by the runner passed in ([`Checkpointed`] or not), not by a
//! second adapter or constructor.

use sensact_core::checkpoint::{Checkpoint, CheckpointError};
#[cfg(doc)]
use sensact_core::{Checkpointed, FallibleLoop, SensingActionLoop};
use sensact_core::{LoopRunner, LoopTelemetry, StageError};
use std::any::Any;

/// What one multiplexed tick cost, as observed by the scheduler.
///
/// `latency_s` is the loop's *charged* (simulated) latency — the currency in
/// which the scheduler advances its virtual worker clocks and checks
/// deadlines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickOutcome {
    /// Energy the tick charged (joules).
    pub energy_j: f64,
    /// Latency the tick charged (seconds).
    pub latency_s: f64,
    /// Off-worker communication tail (seconds): time the tick's result is
    /// still in flight on a network *after* compute finished. The scheduler
    /// frees the worker once `latency_s` elapses, but the loop stays
    /// sequential — and its deadline is checked — at
    /// `start + latency_s + comm_s`, so upload/download time feeds the same
    /// deadline model as compute without burning worker capacity. Zero for
    /// loops that never communicate.
    pub comm_s: f64,
    /// Stage faults observed during the tick (fallible loops only).
    pub faults: u32,
}

/// The object-safe surface a scheduler needs from any loop.
///
/// Implemented by the closed-over adapters behind [`LoopHandle`]; implement
/// it directly to multiplex a custom runner. [`Any`] lets the owner of a
/// fleet of its own loops get the concrete type back inside
/// [`FleetScheduler::tick_member_with`](crate::FleetScheduler::tick_member_with).
pub trait DynLoop: Any + Send {
    /// Loop name (for reports).
    fn name(&self) -> &str;

    /// Inform the loop of the virtual time at which its next tick starts.
    /// The scheduler calls this immediately before [`DynLoop::tick_once`],
    /// in both execution modes, so a loop that talks to other loops (a
    /// federated client timestamping an upload, say) can anchor its sends
    /// on the fleet's virtual timeline. Loops that don't care ignore it.
    fn set_tick_start(&mut self, _start_s: f64) {}

    /// Run exactly one tick against the owned environment and apply the
    /// action back to it.
    fn tick_once(&mut self) -> TickOutcome;

    /// The loop's accumulated telemetry.
    fn telemetry(&self) -> &LoopTelemetry;

    /// Attribute a scheduler-observed deadline miss to the loop through the
    /// existing [`StageError::Timeout`] fault path, so a tick that overran
    /// its budget shows up in the loop's own `FaultCounters`
    /// instead of silently skewing the fleet.
    fn record_deadline_miss(&mut self, latency_s: f64, budget_s: f64);

    /// Tell the loop the stride stretch the energy arbiter just applied to
    /// it (`1.0` = fleet under its watts cap). The scheduler calls this after
    /// every completed tick; a communicating loop sizes its next upload from
    /// it ([`EnergyArbiter::wire_bits`](crate::EnergyArbiter::wire_bits)).
    /// Loops that don't care ignore it.
    fn set_energy_stretch(&mut self, _stretch: f64) {}

    /// Serialize the loop's complete live state — stages, telemetry, and the
    /// closed-over environment — into a [`Checkpoint`] for kill-and-resume
    /// or live migration ([`FleetScheduler::snapshot_member`](crate::FleetScheduler::snapshot_member)).
    /// Only handles closed over a [`Checkpointed`] runner support this;
    /// other loops are honest about not supporting it rather than
    /// snapshotting partial state.
    fn save_state(&self) -> Result<Checkpoint, CheckpointError> {
        Err(CheckpointError::Unsupported)
    }

    /// Restore state saved by [`DynLoop::save_state`] onto an identically
    /// constructed loop. A [`LoopHandle::closed`] member reads the
    /// environment first, so a bad `env` section leaves it untouched.
    fn restore_from(&mut self, _ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        Err(CheckpointError::Unsupported)
    }
}

/// A loop runner — [`SensingActionLoop`] or [`FallibleLoop`] — closed over
/// its environment and actuation closure: the adapter behind
/// [`LoopHandle::closed`].
struct Closed<L, E, F> {
    inner: L,
    env: E,
    apply: F,
}

impl<L, E, F> DynLoop for Closed<L, E, F>
where
    L: LoopRunner<E> + Send + 'static,
    E: Send + 'static,
    F: FnMut(&mut E, &L::Action) + Send + 'static,
{
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tick_once(&mut self) -> TickOutcome {
        let out = self.inner.tick(&self.env);
        let (action, energy_j, latency_s, faults) = L::charged(&out);
        (self.apply)(&mut self.env, action);
        TickOutcome {
            energy_j,
            latency_s,
            comm_s: 0.0,
            faults,
        }
    }

    fn telemetry(&self) -> &LoopTelemetry {
        self.inner.telemetry()
    }

    fn record_deadline_miss(&mut self, latency_s: f64, budget_s: f64) {
        self.inner
            .telemetry_mut()
            .record_fault(&StageError::Timeout {
                latency_s,
                budget_s,
            });
    }

    fn save_state(&self) -> Result<Checkpoint, CheckpointError> {
        self.inner.save(&self.env)
    }

    fn restore_from(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.env = self.inner.load(ckpt)?;
        Ok(())
    }
}

/// An owned, type-erased member loop ready for fleet registration.
///
/// Constructed by closing a loop runner over its environment
/// ([`LoopHandle::closed`]) or from any custom [`DynLoop`]
/// ([`LoopHandle::from_dyn`]).
pub struct LoopHandle {
    inner: Box<dyn DynLoop>,
}

impl std::fmt::Debug for LoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopHandle")
            .field("name", &self.name())
            .field("ticks", &self.telemetry().ticks())
            .finish()
    }
}

impl LoopHandle {
    /// Close a loop runner — a [`SensingActionLoop`] or a [`FallibleLoop`] —
    /// over its environment; `apply` actuates each decided action back into
    /// the environment (the closed-loop edge). Wrap the runner in
    /// [`Checkpointed`] to make the handle checkpointable: its
    /// [`DynLoop::save_state`] then captures loop and environment together
    /// for kill-and-resume or migration.
    pub fn closed<L, E, F>(inner: L, env: E, apply: F) -> Self
    where
        L: LoopRunner<E> + Send + 'static,
        E: Send + 'static,
        F: FnMut(&mut E, &L::Action) + Send + 'static,
    {
        let inner = Box::new(Closed { inner, env, apply });
        LoopHandle { inner }
    }

    #[doc(hidden)]
    pub fn closed_fallible<L, E, F>(inner: L, env: E, apply: F) -> Self
    where
        L: LoopRunner<E> + Send + 'static,
        E: Send + 'static,
        F: FnMut(&mut E, &L::Action) + Send + 'static,
    {
        LoopHandle::closed(inner, env, apply)
    }

    /// Wrap a custom [`DynLoop`] implementation.
    pub fn from_dyn(inner: Box<dyn DynLoop>) -> Self {
        LoopHandle { inner }
    }
}

/// A handle *is* its loop: every [`DynLoop`] method is callable on it.
impl std::ops::Deref for LoopHandle {
    type Target = dyn DynLoop;

    fn deref(&self) -> &dyn DynLoop {
        &*self.inner
    }
}

impl std::ops::DerefMut for LoopHandle {
    fn deref_mut(&mut self) -> &mut dyn DynLoop {
        &mut *self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_core::stage::{FnController, FnPerceptor, FnSensor, StageContext};
    use sensact_core::LoopBuilder;

    fn scalar_handle(name: &str) -> LoopHandle {
        let looop = LoopBuilder::new(name).build(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(1e-6, 1e-4);
                *e
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.5 * f),
        );
        LoopHandle::closed(looop, 8.0f64, |e, a| *e += a)
    }

    #[test]
    fn closed_handle_ticks_and_regulates_its_env() {
        let mut h = scalar_handle("h");
        assert_eq!(h.name(), "h");
        let mut last = f64::INFINITY;
        for _ in 0..40 {
            let out = h.tick_once();
            assert_eq!(out.latency_s, 1e-4);
            assert_eq!(out.faults, 0);
            last = out.energy_j;
        }
        assert!(last > 0.0);
        assert_eq!(h.telemetry().ticks(), 40);
        // The env is owned by the handle: regulation shows up as shrinking
        // per-tick action energy isn't observable, but telemetry is.
        assert!(h.telemetry().total_energy_j() > 0.0);
    }

    #[test]
    fn deadline_miss_surfaces_as_timeout_fault() {
        let mut h = scalar_handle("miss");
        let _ = h.tick_once();
        assert_eq!(h.telemetry().fault_counters().timeouts, 0);
        h.record_deadline_miss(2e-3, 1e-3);
        let c = h.telemetry().fault_counters();
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.faults, 1);
    }

    #[test]
    fn heterogeneous_handles_coexist_in_one_vec() {
        let vec_loop = LoopBuilder::new("vec").build(
            FnSensor::new(|e: &Vec<f64>, ctx: &mut StageContext| {
                ctx.charge(1e-6, 2e-4);
                e.iter().sum::<f64>()
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.1 * f),
        );
        let mut fleet = vec![
            scalar_handle("scalar"),
            LoopHandle::closed(vec_loop, vec![1.0, 2.0], |e: &mut Vec<f64>, a: &f64| {
                e[0] += a;
            }),
        ];
        for h in &mut fleet {
            let _ = h.tick_once();
        }
        assert_eq!(fleet[0].telemetry().ticks(), 1);
        assert_eq!(fleet[1].telemetry().ticks(), 1);
        assert_eq!(
            format!("{:?}", fleet[1]),
            "LoopHandle { name: \"vec\", ticks: 1 }"
        );
    }
}
