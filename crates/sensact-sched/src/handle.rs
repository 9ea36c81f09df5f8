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
//! adapter, written against [`LoopRunner`]; whether it can checkpoint is a
//! capability its constructor attaches, not a second adapter.

use sensact_core::adapt::AdaptationPolicy;
use sensact_core::checkpoint::{Checkpoint, CheckpointError, Section, StageState, StateVec};
use sensact_core::fault::{FailSafe, FiniteCheck, TryPerceptor, TrySensor};
use sensact_core::stage::{Controller, Monitor, Perceptor, Sensor};
use sensact_core::{
    FallibleLoop, LoopRunner, LoopTelemetry, SensingActionLoop, StageError, TraceContext,
};
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
    /// its budget shows up in the loop's own [`FaultCounters`](sensact_core::FaultCounters)
    /// instead of silently skewing the fleet.
    fn record_deadline_miss(&mut self, latency_s: f64, budget_s: f64);

    /// Tell the loop the stride stretch the energy arbiter just applied to
    /// it (`1.0` = fleet under its watts cap). The scheduler calls this after
    /// every completed tick; a communicating loop sizes its next upload from
    /// it ([`EnergyArbiter::wire_bits`](crate::EnergyArbiter::wire_bits)).
    /// Loops that don't care ignore it.
    fn set_energy_stretch(&mut self, _stretch: f64) {}

    /// Hand the loop the causal [`TraceContext`] of the tick about to run.
    /// When fleet tracing is enabled the scheduler calls this immediately
    /// before [`DynLoop::tick_once`], so a communicating loop (a federated
    /// client, say) can parent its own causal spans — uploads, adoptions —
    /// under the scheduler's tick span and one distributed operation
    /// reconstructs as a single trace tree. Loops that don't trace ignore it.
    fn set_trace_context(&mut self, _ctx: TraceContext) {}

    /// Serialize the loop's complete live state — stages, telemetry, and the
    /// closed-over environment — into a [`Checkpoint`] for kill-and-resume
    /// or live migration ([`FleetScheduler::snapshot_member`](crate::FleetScheduler::snapshot_member)).
    /// Only handles built by the checkpointable constructors
    /// ([`LoopHandle::closed_checkpointable`],
    /// [`LoopHandle::closed_fallible_checkpointable`]) support this; other
    /// loops are honest about not supporting it rather than snapshotting
    /// partial state.
    fn save_state(&self) -> Result<Checkpoint, CheckpointError> {
        Err(CheckpointError::Unsupported)
    }

    /// Restore state saved by [`DynLoop::save_state`] onto an identically
    /// constructed loop.
    fn restore_from(&mut self, _ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        Err(CheckpointError::Unsupported)
    }
}

/// Saves and restores a closed loop together with its environment. Only the
/// `*_checkpointable` constructors know that every stage implements
/// [`StageState`] and the environment [`StateVec`], so they attach the
/// monomorphised functions; a [`Closed`] without them reports
/// [`CheckpointError::Unsupported`].
struct Codec<L, E> {
    snapshot: fn(&L) -> Checkpoint,
    restore: fn(&mut L, &Checkpoint) -> Result<(), CheckpointError>,
    with_env: fn(Checkpoint, &E) -> Checkpoint,
    env_of: fn(&Checkpoint) -> Result<E, CheckpointError>,
}

/// Section id under which the closed-over environment travels in a
/// checkpointed handle (alongside the loop's own sections).
const ENV_SECTION: &str = "env";

/// Append a closed-over environment to its loop's checkpoint.
fn with_env<E: StateVec>(mut ckpt: Checkpoint, env: &E) -> Checkpoint {
    let mut s = Section::new(ENV_SECTION);
    s.put_f64s("state", &env.to_state());
    ckpt.push(s);
    ckpt
}

/// Read a closed-over environment back from a loop checkpoint.
fn env_of<E: StateVec>(ckpt: &Checkpoint) -> Result<E, CheckpointError> {
    let state = ckpt.section(ENV_SECTION)?.get_f64s("state")?;
    E::from_state(&state).ok_or_else(|| CheckpointError::BadValue("env.state".into()))
}

/// A loop runner — [`SensingActionLoop`] or [`FallibleLoop`] — closed over
/// its environment and actuation closure: the one adapter behind every
/// `LoopHandle::closed*` constructor.
struct Closed<L, E, F> {
    inner: L,
    env: E,
    apply: F,
    codec: Option<Codec<L, E>>,
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
        let codec = self.codec.as_ref().ok_or(CheckpointError::Unsupported)?;
        Ok((codec.with_env)((codec.snapshot)(&self.inner), &self.env))
    }

    fn restore_from(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        let codec = self.codec.as_ref().ok_or(CheckpointError::Unsupported)?;
        (codec.restore)(&mut self.inner, ckpt)?;
        self.env = (codec.env_of)(ckpt)?;
        Ok(())
    }
}

/// An owned, type-erased member loop ready for fleet registration.
///
/// Constructed by closing a loop over its environment
/// ([`LoopHandle::closed`], [`LoopHandle::closed_fallible`]) or from any
/// custom [`DynLoop`] ([`LoopHandle::from_dyn`]).
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
    fn close<L, E, F>(inner: L, env: E, apply: F, codec: Option<Codec<L, E>>) -> Self
    where
        L: LoopRunner<E> + Send + 'static,
        E: Send + 'static,
        F: FnMut(&mut E, &L::Action) + Send + 'static,
    {
        let inner = Box::new(Closed {
            inner,
            env,
            apply,
            codec,
        });
        LoopHandle { inner }
    }

    /// Close a [`SensingActionLoop`] over its environment; `apply` actuates
    /// each decided action back into the environment (the closed-loop edge).
    pub fn closed<S, P, M, C, Ad, E, F>(
        inner: SensingActionLoop<S, P, M, C, Ad>,
        env: E,
        apply: F,
    ) -> Self
    where
        S: Sensor<E> + Send + 'static,
        P: Perceptor<S::Reading> + Send + 'static,
        M: Monitor<P::Features> + Send + 'static,
        C: Controller<P::Features> + Send + 'static,
        Ad: AdaptationPolicy<S, C::Action> + Send + 'static,
        E: Send + 'static,
        F: FnMut(&mut E, &C::Action) + Send + 'static,
    {
        LoopHandle::close(inner, env, apply, None)
    }

    /// Close a [`FallibleLoop`] over its environment.
    pub fn closed_fallible<S, P, M, C, Ad, Feat, E, F>(
        inner: FallibleLoop<S, P, M, C, Ad, Feat>,
        env: E,
        apply: F,
    ) -> Self
    where
        S: TrySensor<E> + Send + 'static,
        P: TryPerceptor<S::Reading, Features = Feat> + Send + 'static,
        Feat: Clone + FiniteCheck + Send + 'static,
        M: Monitor<Feat> + Send + 'static,
        C: FailSafe<Feat> + Send + 'static,
        Ad: AdaptationPolicy<S, C::Action> + Send + 'static,
        E: Send + 'static,
        F: FnMut(&mut E, &C::Action) + Send + 'static,
    {
        LoopHandle::close(inner, env, apply, None)
    }

    /// Like [`LoopHandle::closed`], but checkpointable: every stage
    /// implements [`StageState`] and the environment round-trips through
    /// [`StateVec`], so [`DynLoop::save_state`] captures loop and
    /// environment together for kill-and-resume or migration.
    pub fn closed_checkpointable<S, P, M, C, Ad, E, F>(
        inner: SensingActionLoop<S, P, M, C, Ad>,
        env: E,
        apply: F,
    ) -> Self
    where
        S: Sensor<E> + StageState + Send + 'static,
        P: Perceptor<S::Reading> + StageState + Send + 'static,
        M: Monitor<P::Features> + StageState + Send + 'static,
        C: Controller<P::Features> + StageState + Send + 'static,
        Ad: AdaptationPolicy<S, C::Action> + StageState + Send + 'static,
        E: StateVec + Send + 'static,
        F: FnMut(&mut E, &C::Action) + Send + 'static,
    {
        let codec = Some(Codec {
            snapshot: SensingActionLoop::snapshot,
            restore: SensingActionLoop::restore,
            with_env,
            env_of,
        });
        LoopHandle::close(inner, env, apply, codec)
    }

    /// Like [`LoopHandle::closed_fallible`], but checkpointable (see
    /// [`LoopHandle::closed_checkpointable`]); the snapshot additionally
    /// carries held features, staleness, and fault-injector RNG positions.
    pub fn closed_fallible_checkpointable<S, P, M, C, Ad, Feat, E, F>(
        inner: FallibleLoop<S, P, M, C, Ad, Feat>,
        env: E,
        apply: F,
    ) -> Self
    where
        S: TrySensor<E> + StageState + Send + 'static,
        P: TryPerceptor<S::Reading, Features = Feat> + StageState + Send + 'static,
        Feat: Clone + FiniteCheck + StateVec + Send + 'static,
        M: Monitor<Feat> + StageState + Send + 'static,
        C: FailSafe<Feat> + StageState + Send + 'static,
        Ad: AdaptationPolicy<S, C::Action> + StageState + Send + 'static,
        E: StateVec + Send + 'static,
        F: FnMut(&mut E, &C::Action) + Send + 'static,
    {
        let codec = Some(Codec {
            snapshot: FallibleLoop::snapshot,
            restore: FallibleLoop::restore,
            with_env,
            env_of,
        });
        LoopHandle::close(inner, env, apply, codec)
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
