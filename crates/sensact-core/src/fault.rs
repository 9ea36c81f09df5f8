//! Fault tolerance for sensing-to-action loops (paper §II, §V).
//!
//! The cyclical structure of a sensing-action loop makes it uniquely
//! vulnerable to cascading errors: one bad reading becomes a bad action,
//! which changes what is sensed next. This module makes stage failure a
//! *typed, first-class runtime event* instead of a panic:
//!
//! * [`StageError`] — what went wrong: dropout, latency-budget timeout,
//!   out-of-range reading, NaN poisoning;
//! * [`TrySensor`] / `TryPerceptor` — fallible stage traits, with
//!   [`Reliable`] lifting any infallible stage and [`FnTryPerceptor`]
//!   adapting a closure;
//! * [`FaultInjector`] — a deterministic, seeded chaos wrapper around any
//!   sensor or perceptor that injects dropouts, stuck-at readings, latency
//!   spikes and NaN poisoning with configurable per-tick probabilities
//!   ([`FaultProfile`]);
//! * [`FallibleLoop`] — the shared loop state and tick frame of
//!   [`SensingActionLoop`](crate::SensingActionLoop) with a recovery ladder
//!   ([`RecoveryPolicy`]) in the feature-acquisition slot: bounded retry
//!   with energy accounting, last-good-value hold with staleness-decayed
//!   trust, and a fail-safe fallback action supplied by the controller
//!   (`FailSafe` / [`WithFallback`]).
//!
//! Dropouts and timeouts surface as [`StageError`]s the runner can retry;
//! stuck-at and NaN faults are *silent* — the injector returns them as
//! ordinary `Ok` outputs, and it is the downstream defenses (the
//! [`FiniteCheck`] on features, the trust [`Monitor`]) that must catch them,
//! exactly as in a real pipeline.
//!
//! Every recovery action is visible in [`LoopTelemetry`]'s
//! [`FaultCounters`](crate::telemetry::FaultCounters) so experiments can
//! assert fault/retry/fallback budgets.

use crate::adapt::{AdaptationPolicy, NoAdaptation};
use crate::budget::EnergyBudget;
use crate::checkpoint::{
    get_opt_state, put_opt_state, Checkpoint, CheckpointError, Section, Snapshot, StageState,
    StateVec,
};
use crate::loop_::{LoopBuilder, LoopRunner, LoopState, TickFrame};
use crate::stage::{Controller, Monitor, Perceptor, Sensor, StageContext, Trust};
use crate::telemetry::LoopTelemetry;
use crate::trace::{StageId, Tracer};
use sensact_math::rng::StdRng;
use std::ops::{Deref, DerefMut};

/// A typed stage failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageError {
    /// The stage produced no output this tick (sensor blackout, dropped
    /// frame, lost packet).
    Dropout,
    /// The stage finished but blew its per-attempt latency budget; acting on
    /// the result would violate the loop deadline.
    Timeout {
        /// Latency the attempt actually took (seconds).
        latency_s: f64,
        /// The budget it was allowed (seconds).
        budget_s: f64,
    },
    /// A reading left its physically plausible range.
    OutOfRange {
        /// The offending value.
        value: f64,
        /// Lower plausibility bound.
        min: f64,
        /// Upper plausibility bound.
        max: f64,
    },
    /// The output contains non-finite values (NaN poisoning).
    Poisoned,
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Dropout => write!(f, "dropout"),
            StageError::Timeout {
                latency_s,
                budget_s,
            } => write!(f, "timeout ({latency_s:.2e} s > budget {budget_s:.2e} s)"),
            StageError::OutOfRange { value, min, max } => {
                write!(f, "out of range ({value} outside [{min}, {max}])")
            }
            StageError::Poisoned => write!(f, "poisoned (non-finite output)"),
        }
    }
}

/// A sensor whose acquisition can fail with a typed [`StageError`].
pub trait TrySensor<E> {
    /// Raw sensor reading type.
    type Reading;
    /// Sense the environment, charging costs to `ctx`. Costs already charged
    /// by a failing attempt stay charged — failure is not free.
    fn try_sense(&mut self, env: &E, ctx: &mut StageContext) -> Result<Self::Reading, StageError>;
}

/// A perceptor whose feature extraction can fail with a typed [`StageError`].
pub(crate) trait TryPerceptor<R> {
    /// Extracted feature type.
    type Features;
    /// Extract features from a reading, charging costs to `ctx`.
    fn try_perceive(
        &mut self,
        reading: &R,
        ctx: &mut StageContext,
    ) -> Result<Self::Features, StageError>;
}

/// Lifts an infallible stage into the fallible world: `Reliable(sensor)`
/// implements [`TrySensor`] (and `Reliable(perceptor)` implements
/// `TryPerceptor`) by never failing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reliable<T>(pub T);

impl<E, S: Sensor<E>> TrySensor<E> for Reliable<S> {
    type Reading = S::Reading;
    fn try_sense(&mut self, env: &E, ctx: &mut StageContext) -> Result<S::Reading, StageError> {
        Ok(self.0.sense(env, ctx))
    }
}

impl<R, P: Perceptor<R>> TryPerceptor<R> for Reliable<P> {
    type Features = P::Features;
    fn try_perceive(
        &mut self,
        reading: &R,
        ctx: &mut StageContext,
    ) -> Result<P::Features, StageError> {
        Ok(self.0.perceive(reading, ctx))
    }
}

/// Closure adapter implementing `TryPerceptor`.
pub struct FnTryPerceptor<F>(F);

impl<F> FnTryPerceptor<F> {
    /// Wrap a closure `(reading, ctx) -> Result<features, StageError>`.
    pub fn new(f: F) -> Self {
        FnTryPerceptor(f)
    }
}

impl<R, O, F: FnMut(&R, &mut StageContext) -> Result<O, StageError>> TryPerceptor<R>
    for FnTryPerceptor<F>
{
    type Features = O;
    fn try_perceive(&mut self, reading: &R, ctx: &mut StageContext) -> Result<O, StageError> {
        (self.0)(reading, ctx)
    }
}

/// Values that can report whether they are entirely finite — the cheap
/// poison detector [`FallibleLoop`] runs on every fresh feature vector.
pub trait FiniteCheck {
    /// `true` iff no component is NaN or infinite.
    fn all_finite(&self) -> bool;
}

impl FiniteCheck for f64 {
    fn all_finite(&self) -> bool {
        self.is_finite()
    }
}

impl FiniteCheck for Vec<f64> {
    fn all_finite(&self) -> bool {
        self.iter().all(|x| x.is_finite())
    }
}

impl<const N: usize> FiniteCheck for [f64; N] {
    fn all_finite(&self) -> bool {
        self.iter().all(|x| x.is_finite())
    }
}

/// Values the [`FaultInjector`] knows how to NaN-poison in place.
pub trait NanPoison {
    /// Overwrite the value with NaNs (every scalar component).
    fn poison(&mut self);
}

impl NanPoison for f64 {
    fn poison(&mut self) {
        *self = f64::NAN;
    }
}

impl NanPoison for Vec<f64> {
    fn poison(&mut self) {
        for x in self.iter_mut() {
            *x = f64::NAN;
        }
    }
}

impl<const N: usize> NanPoison for [f64; N] {
    fn poison(&mut self) {
        for x in self.iter_mut() {
            *x = f64::NAN;
        }
    }
}

/// Per-tick fault probabilities of a [`FaultInjector`]. All probabilities
/// are in `[0, 1]` and rolled independently, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability the stage produces nothing ([`StageError::Dropout`]).
    pub dropout: f64,
    /// Probability the stage silently replays its previous output
    /// (stuck-at fault; surfaces as `Ok`, not as an error).
    pub stuck: f64,
    /// Probability the attempt is charged an extra latency spike.
    pub latency_spike: f64,
    /// Extra latency charged when a spike fires (seconds).
    pub spike_latency_s: f64,
    /// Probability the output is NaN-poisoned (surfaces as `Ok`; caught by
    /// the loop's [`FiniteCheck`] or the trust monitor).
    pub nan: f64,
}

impl FaultProfile {
    /// No faults at all (the injector becomes a transparent wrapper).
    pub fn none() -> Self {
        FaultProfile {
            dropout: 0.0,
            stuck: 0.0,
            latency_spike: 0.0,
            spike_latency_s: 0.0,
            nan: 0.0,
        }
    }

    /// Pure dropout faults with probability `p`.
    pub fn dropout(p: f64) -> Self {
        FaultProfile {
            dropout: p,
            ..FaultProfile::none()
        }
    }

    /// Whether any fault can ever fire under this profile.
    pub(crate) fn is_active(&self) -> bool {
        self.dropout > 0.0 || self.stuck > 0.0 || self.latency_spike > 0.0 || self.nan > 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// A deterministic, seeded fault injector wrapping any sensor or perceptor.
///
/// `V` is the wrapped stage's output type ([`Sensor::Reading`] or
/// [`Perceptor::Features`]); it must be [`Clone`] (stuck-at replays the last
/// output) and [`NanPoison`]-able. Wrapping a [`Sensor`] yields a
/// [`TrySensor`]; wrapping a [`Perceptor`] yields a `TryPerceptor`.
///
/// Identical `(profile, seed)` pairs reproduce identical fault sequences —
/// the same guarantee `sensact_lidar::corrupt`-style corruptions give per
/// cloud, applied at the loop level.
#[derive(Debug)]
pub struct FaultInjector<T, V> {
    inner: T,
    profile: FaultProfile,
    /// Cached `profile.is_active()` so the fault-free fast path is a single
    /// predictable branch per call. Derived from the profile, so it never
    /// travels in a checkpoint.
    active: bool,
    rng: StdRng,
    last_good: Option<V>,
}

impl<T, V> FaultInjector<T, V> {
    /// Wrap `inner`, injecting faults per `profile`, deterministically from
    /// `seed`.
    pub fn new(inner: T, profile: FaultProfile, seed: u64) -> Self {
        FaultInjector {
            inner,
            profile,
            active: profile.is_active(),
            rng: StdRng::seed_from_u64(seed ^ 0xFA_17),
            last_good: None,
        }
    }
}

impl<T, V: Clone + NanPoison> FaultInjector<T, V> {
    /// Run one wrapped stage invocation through the fault dice.
    fn inject(
        &mut self,
        ctx: &mut StageContext,
        produce: impl FnOnce(&mut T, &mut StageContext) -> V,
    ) -> Result<V, StageError> {
        // Fault-free profiles take a zero-cost path: no dice, no last-good
        // bookkeeping (which would clone every output).
        if !self.active {
            return Ok(produce(&mut self.inner, ctx));
        }
        let p = self.profile;
        // Dropout: the stage never produces anything (and charges nothing).
        if p.dropout > 0.0 && self.rng.gen_f64() < p.dropout {
            return Err(StageError::Dropout);
        }
        // Stuck-at: silently replay the previous output. Only possible once
        // a good output exists.
        if p.stuck > 0.0 && self.rng.gen_f64() < p.stuck {
            if let Some(last) = &self.last_good {
                return Ok(last.clone());
            }
        }
        let mut v = produce(&mut self.inner, ctx);
        if p.latency_spike > 0.0 && self.rng.gen_f64() < p.latency_spike {
            ctx.charge(0.0, p.spike_latency_s);
        }
        if p.nan > 0.0 && self.rng.gen_f64() < p.nan {
            v.poison();
            // A poisoned output is not retained as last-good.
            return Ok(v);
        }
        // Last-good is only consulted by stuck-at faults; skip the clone
        // when the profile can never fire one.
        if p.stuck > 0.0 {
            self.last_good = Some(v.clone());
        }
        Ok(v)
    }
}

impl<T: StageState, V: StateVec> StageState for FaultInjector<T, V> {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        s.put_u64s("rng", &self.rng.state());
        put_opt_state(&mut s, "last_good", &self.last_good);
        ckpt.push(s);
        self.inner.save_state(ckpt, &format!("{ns}.inner"));
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        let rng = s.get_u64_array("rng")?;
        let last_good = get_opt_state(s, "last_good")?;
        // Resume the fault dice at their exact stream position. Reseeding
        // here would replay the fault sequence from tick 0 — the restored
        // run would see faults the recording never had (and vice versa),
        // and every downstream trust/adaptation decision would drift.
        self.rng = StdRng::from_state(rng);
        self.last_good = last_good;
        self.inner.restore_state(ckpt, &format!("{ns}.inner"))
    }
}

// `Reliable` is a transparent lift: it checkpoints as whatever it wraps.
impl<T: StageState> StageState for Reliable<T> {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        self.0.save_state(ckpt, ns);
    }
    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        self.0.restore_state(ckpt, ns)
    }
}

// Closure adapters are declared stateless by contract (see `stage.rs`).
impl<F> StageState for FnTryPerceptor<F> {}

impl<E, S: Sensor<E>> TrySensor<E> for FaultInjector<S, S::Reading>
where
    S::Reading: Clone + NanPoison,
{
    type Reading = S::Reading;
    fn try_sense(&mut self, env: &E, ctx: &mut StageContext) -> Result<S::Reading, StageError> {
        self.inject(ctx, |inner, ctx| inner.sense(env, ctx))
    }
}

impl<R, P: Perceptor<R>> TryPerceptor<R> for FaultInjector<P, P::Features>
where
    P::Features: Clone + NanPoison,
{
    type Features = P::Features;
    fn try_perceive(
        &mut self,
        reading: &R,
        ctx: &mut StageContext,
    ) -> Result<P::Features, StageError> {
        self.inject(ctx, |inner, ctx| inner.perceive(reading, ctx))
    }
}

/// A controller that can also supply a fail-safe action for ticks where no
/// features could be produced at all (sensing dead beyond recovery).
pub(crate) trait FailSafe<F>: Controller<F> {
    /// The action emitted when the loop must fail safe (brake, hover, hold
    /// position). Charged to `ctx` like any stage.
    fn fail_safe(&mut self, ctx: &mut StageContext) -> Self::Action;
}

/// Pairs any controller with a constant fail-safe action, implementing
/// `FailSafe`.
#[derive(Debug, Clone, Copy)]
pub struct WithFallback<C, A> {
    /// The decision-making controller.
    pub inner: C,
    /// The constant fail-safe action.
    pub fallback: A,
}

impl<C, A> WithFallback<C, A> {
    /// Pair `inner` with a constant `fallback` action.
    pub fn new(inner: C, fallback: A) -> Self {
        WithFallback { inner, fallback }
    }
}

impl<F, C: Controller<F>> Controller<F> for WithFallback<C, C::Action> {
    type Action = C::Action;
    fn decide(&mut self, features: &F, trust: Trust, ctx: &mut StageContext) -> C::Action {
        self.inner.decide(features, trust, ctx)
    }
}

impl<F, C: Controller<F>> FailSafe<F> for WithFallback<C, C::Action>
where
    C::Action: Clone,
{
    fn fail_safe(&mut self, _ctx: &mut StageContext) -> C::Action {
        self.fallback.clone()
    }
}

// The fallback action is configuration; only the wrapped controller may
// carry mutable state.
impl<C: StageState, A> StageState for WithFallback<C, A> {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        self.inner.save_state(ckpt, ns);
    }
    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        self.inner.restore_state(ckpt, ns)
    }
}

/// Recovery policy of a [`FallibleLoop`]: what to do when a stage fails.
///
/// Recovery escalates in order: bounded **retry** (each re-attempt re-runs
/// the stages, whose costs are charged to the tick — failure is never free),
/// then **hold** the last good features for up to `max_hold_ticks`
/// consecutive ticks with trust decayed by staleness, then emit the
/// controller's **fail-safe** action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum sense→perceive re-attempts within one tick.
    pub max_retries: u32,
    /// Fixed extra energy charged per retry (sensor re-arm cost), on top of
    /// whatever the re-run stages charge themselves (joules).
    pub retry_energy_j: f64,
    /// Maximum consecutive ticks served from held last-good features before
    /// falling back.
    pub max_hold_ticks: u32,
    /// Suspicion added per held tick — staleness decays trust until the
    /// verdict saturates at [`Trust::Untrusted`].
    pub staleness_decay: f64,
    /// Per-attempt latency budget; an attempt exceeding it fails with
    /// [`StageError::Timeout`] even though it produced output.
    pub latency_budget_s: Option<f64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            retry_energy_j: 0.0,
            max_hold_ticks: 3,
            staleness_decay: 0.25,
            latency_budget_s: None,
        }
    }
}

/// How a [`FallibleLoop`] tick obtained its action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickResolution {
    /// Fresh features from a successful sense→perceive pass.
    Fresh,
    /// Features held from a previous tick; `staleness` counts consecutive
    /// held ticks (≥ 1).
    Held {
        /// Consecutive ticks served from the same last-good features.
        staleness: u32,
    },
    /// No usable features — the controller's fail-safe action was emitted.
    Fallback,
}

/// Output of one [`FallibleLoop`] tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallibleOutput<A> {
    /// The decided (or fail-safe) action.
    pub action: A,
    /// Trust verdict, including any staleness degradation.
    pub trust: Trust,
    /// How the action was obtained.
    pub resolution: TickResolution,
    /// Stage errors observed this tick (including retried ones).
    pub faults: u32,
    /// Retries issued this tick.
    pub retries: u32,
    /// Energy charged this tick (joules), including failed attempts.
    pub energy_j: f64,
    /// Latency of this tick (seconds), including failed attempts.
    pub latency_s: f64,
    /// Tick index.
    pub tick: u64,
}

/// A sensing-to-action loop over *fallible* stages with graceful
/// degradation: the shared `LoopState` (which it dereferences to for name,
/// stages, budget, telemetry and tracer) plus a recovery ladder. Its tick is
/// the same frame
/// [`SensingActionLoop`](crate::SensingActionLoop) runs, with retry → hold →
/// fail-safe where that loop has a plain sense → perceive.
///
/// The type parameter `F` is the feature type held across ticks for the
/// last-good-value recovery path (it equals the perceptor's
/// `TryPerceptor::Features`; inference pins it at the first
/// [`FallibleLoop::tick`] call).
#[derive(Debug)]
pub struct FallibleLoop<S, P, M, C, Ad, F> {
    state: LoopState<S, P, M, C, Ad>,
    recovery: RecoveryPolicy,
    held: Option<F>,
    staleness: u32,
}

impl<S, P, M, C, Ad, F> Deref for FallibleLoop<S, P, M, C, Ad, F> {
    type Target = LoopState<S, P, M, C, Ad>;
    fn deref(&self) -> &Self::Target {
        &self.state
    }
}

impl<S, P, M, C, Ad, F> DerefMut for FallibleLoop<S, P, M, C, Ad, F> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.state
    }
}

impl<S, P, M, C, F> FallibleLoop<S, P, M, C, NoAdaptation, F> {
    /// A fallible loop with the default [`RecoveryPolicy`], an unlimited
    /// budget and no adaptation; chain `with_*` to customize.
    pub fn new(
        name: impl Into<String>,
        sensor: S,
        perceptor: P,
        monitor: M,
        controller: C,
    ) -> Self {
        FallibleLoop {
            state: LoopBuilder::new(name)
                .build_monitored(sensor, perceptor, monitor, controller)
                .state,
            recovery: RecoveryPolicy::default(),
            held: None,
            staleness: 0,
        }
    }
}

impl<S, P, M, C, Ad, F> FallibleLoop<S, P, M, C, Ad, F> {
    /// Attach an energy budget.
    pub fn with_budget(mut self, budget: EnergyBudget) -> Self {
        self.state.budget = budget;
        self
    }

    /// Replace the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Replace the adaptation policy (action-to-sensing feedback).
    pub fn with_policy<Ad2>(self, policy: Ad2) -> FallibleLoop<S, P, M, C, Ad2, F> {
        let s = self.state;
        FallibleLoop {
            state: LoopState {
                name: s.name,
                sensor: s.sensor,
                perceptor: s.perceptor,
                monitor: s.monitor,
                controller: s.controller,
                policy,
                budget: s.budget,
                telemetry: s.telemetry,
                tracer: s.tracer,
            },
            recovery: self.recovery,
            held: self.held,
            staleness: self.staleness,
        }
    }

    /// Cap the number of per-tick telemetry records retained.
    pub fn with_telemetry_capacity(mut self, capacity: usize) -> Self {
        let counters_fresh = self.state.telemetry.ticks() == 0;
        debug_assert!(counters_fresh, "set capacity before ticking");
        self.state.telemetry = LoopTelemetry::with_capacity(capacity);
        self
    }

    /// Attach a tracer (e.g. [`Tracer::sim`] for deterministic spans).
    /// Defaults to [`Tracer::disabled`]. Failed sense/perceive attempts emit
    /// spans with `ok == false`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.state.tracer = tracer;
        self
    }

    /// One sense→perceive attempt with timeout and poison detection.
    ///
    /// Both stages are attributed to the frame — *failed* attempts included
    /// (failure is charged where it happened) — and emit spans with
    /// `ok == false` on error when tracing is enabled.
    fn attempt<E>(&mut self, env: &E, frame: &mut TickFrame) -> Result<F, StageError>
    where
        S: TrySensor<E>,
        P: TryPerceptor<S::Reading, Features = F>,
        F: FiniteCheck,
    {
        let (state, budget_s) = (&mut self.state, self.recovery.latency_budget_s);
        let reading = try_staged(
            state,
            frame,
            StageId::Sense,
            budget_s,
            |s, ctx| s.sensor.try_sense(env, ctx),
            |_| true,
        )?;
        try_staged(
            state,
            frame,
            StageId::Perceive,
            budget_s,
            |s, ctx| s.perceptor.try_perceive(&reading, ctx),
            F::all_finite,
        )
    }

    #[doc(hidden)]
    pub fn tick<E>(&mut self, env: &E) -> <Self as LoopRunner<E>>::Output
    where
        Self: LoopRunner<E>,
    {
        LoopRunner::tick(self, env)
    }
}

/// Held features and staleness lead, in a `loop` section; the shared
/// sections follow, each fault injector's RNG position among them.
impl<S: StageState, P: StageState, M: StageState, C: StageState, Ad: StageState, F: StateVec>
    Snapshot for FallibleLoop<S, P, M, C, Ad, F>
{
    fn snapshot(&self) -> Checkpoint {
        let mut ckpt = Checkpoint::new(&self.state.name);
        let mut s = Section::new("loop");
        s.put_u64("staleness", self.staleness as u64);
        put_opt_state(&mut s, "held", &self.held);
        ckpt.push(s);
        self.state.save_sections(&mut ckpt);
        ckpt
    }

    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        let s = ckpt.section("loop")?;
        let staleness = s.get_as("staleness")?;
        let held = get_opt_state(s, "held")?;
        self.staleness = staleness;
        self.held = held;
        self.state.restore_sections(ckpt)
    }
}

/// One fallible stage of an attempt: run it, hold its charged latency to the
/// per-attempt budget and its output to the poison check, and charge it to
/// the frame whether or not it worked.
#[inline]
fn try_staged<S, P, M, C, Ad, T>(
    state: &mut LoopState<S, P, M, C, Ad>,
    frame: &mut TickFrame,
    stage: StageId,
    budget_s: Option<f64>,
    run: impl FnOnce(&mut LoopState<S, P, M, C, Ad>, &mut StageContext) -> Result<T, StageError>,
    finite: impl FnOnce(&T) -> bool,
) -> Result<T, StageError> {
    let lat0 = frame.ctx.latency_s();
    let t0 = state.tracer.start();
    let out = run(state, &mut frame.ctx).and_then(|v| {
        let latency_s = frame.ctx.latency_s() - lat0;
        match budget_s {
            Some(budget_s) if latency_s > budget_s => Err(StageError::Timeout {
                latency_s,
                budget_s,
            }),
            _ if !finite(&v) => Err(StageError::Poisoned),
            _ => Ok(v),
        }
    });
    frame.close(&mut state.tracer, stage, t0, out.is_ok());
    out
}

impl<S, P, M, C, Ad, F, E> LoopRunner<E> for FallibleLoop<S, P, M, C, Ad, F>
where
    S: TrySensor<E>,
    P: TryPerceptor<S::Reading, Features = F>,
    F: Clone + FiniteCheck,
    M: Monitor<F>,
    C: FailSafe<F>,
    Ad: AdaptationPolicy<S, C::Action>,
{
    type Action = C::Action;
    type Output = FallibleOutput<C::Action>;

    /// Sense → perceive (with retry/timeout/poison handling) → assess →
    /// decide — or degrade to held features / the fail-safe action. Never
    /// panics on stage faults; every tick yields an action.
    fn tick(&mut self, env: &E) -> Self::Output {
        let mut frame = self.state.begin_tick();
        let mut retries = 0u32;
        let mut faults = 0u32;
        let fresh: Option<F> = loop {
            match self.attempt(env, &mut frame) {
                Ok(features) => break Some(features),
                Err(error) => {
                    faults += 1;
                    self.state.telemetry.record_fault(&error);
                    if retries < self.recovery.max_retries && !self.state.budget.exhausted() {
                        retries += 1;
                        // The re-arm surcharge lands before the next
                        // attempt's sense window closes, so it is
                        // attributed to the Sense stage.
                        frame.ctx.charge(self.recovery.retry_energy_j, 0.0);
                        continue;
                    }
                    break None;
                }
            }
        };
        if retries > 0 {
            self.state.telemetry.record_retries(retries);
        }
        let (action, trust, resolution) = match (fresh, &self.held) {
            (Some(features), _) => {
                let (action, trust) = self.state.decide(&mut frame, &features, None);
                self.held = Some(features);
                self.staleness = 0;
                (action, trust, TickResolution::Fresh)
            }
            (None, Some(held)) if self.staleness < self.recovery.max_hold_ticks => {
                self.staleness += 1;
                let staleness = self.staleness;
                let suspicion = staleness as f64 * self.recovery.staleness_decay;
                let (action, trust) = self.state.decide(&mut frame, held, Some(suspicion));
                self.state.telemetry.record_hold();
                (action, trust, TickResolution::Held { staleness })
            }
            (None, _) => {
                let action = self.state.staged(&mut frame, StageId::Control, |s, ctx| {
                    s.controller.fail_safe(ctx)
                });
                self.state.telemetry.record_fallback();
                (action, Trust::Untrusted, TickResolution::Fallback)
            }
        };
        let out = self.state.finish_tick(frame, action, trust);
        FallibleOutput {
            action: out.action,
            trust,
            resolution,
            faults,
            retries,
            energy_j: out.energy_j,
            latency_s: out.latency_s,
            tick: out.tick,
        }
    }

    fn charged(out: &Self::Output) -> (&C::Action, f64, f64, u32) {
        (&out.action, out.energy_j, out.latency_s, out.faults)
    }

    fn name(&self) -> &str {
        &self.state.name
    }

    fn telemetry(&self) -> &LoopTelemetry {
        &self.state.telemetry
    }

    fn telemetry_mut(&mut self) -> &mut LoopTelemetry {
        &mut self.state.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{ActionMagnitudeRate, SensingKnobs};
    use crate::stage::{AlwaysTrust, FnController, FnMonitor, FnPerceptor, FnSensor};

    /// Closure adapter implementing [`TrySensor`]: the tests' fallible sensor.
    struct FnTrySensor<F>(F);

    impl<F> FnTrySensor<F> {
        fn new(f: F) -> Self {
            FnTrySensor(f)
        }
    }

    impl<E, R, F: FnMut(&E, &mut StageContext) -> Result<R, StageError>> TrySensor<E>
        for FnTrySensor<F>
    {
        type Reading = R;
        fn try_sense(&mut self, env: &E, ctx: &mut StageContext) -> Result<R, StageError> {
            (self.0)(env, ctx)
        }
    }

    impl<F> StageState for FnTrySensor<F> {}

    fn scalar_sensor() -> FnSensor<impl FnMut(&f64, &mut StageContext) -> f64> {
        FnSensor::new(|e: &f64, ctx: &mut StageContext| {
            ctx.charge(1e-3, 1e-4);
            *e
        })
    }

    fn identity_perceptor() -> FnPerceptor<impl FnMut(&f64, &mut StageContext) -> f64> {
        FnPerceptor::new(|r: &f64, _: &mut StageContext| *r)
    }

    fn gain_controller(
    ) -> WithFallback<FnController<impl FnMut(&f64, Trust, &mut StageContext) -> f64>, f64> {
        WithFallback::new(
            FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.5 * f),
            0.0,
        )
    }

    /// A sensor with an adaptable rate knob; the rate scales its energy cost.
    #[derive(Debug)]
    struct KnobSensor {
        rate: f64,
    }
    impl SensingKnobs for KnobSensor {
        fn rate(&self) -> f64 {
            self.rate
        }
        fn set_rate(&mut self, r: f64) {
            self.rate = r.clamp(0.0, 1.0);
        }
    }
    impl Sensor<f64> for KnobSensor {
        type Reading = f64;
        fn sense(&mut self, env: &f64, ctx: &mut StageContext) -> f64 {
            ctx.charge(1e-3 * self.rate, 0.0);
            *env
        }
    }
    // Let adaptation reach the wrapped sensor through the injector.
    impl<V> SensingKnobs for FaultInjector<KnobSensor, V> {
        fn rate(&self) -> f64 {
            self.inner.rate()
        }
        fn set_rate(&mut self, r: f64) {
            self.inner.set_rate(r);
        }
    }
    // `Reliable` is a transparent lift for the knobs too.
    impl SensingKnobs for Reliable<KnobSensor> {
        fn rate(&self) -> f64 {
            self.0.rate()
        }
        fn set_rate(&mut self, r: f64) {
            self.0.set_rate(r);
        }
    }

    #[test]
    fn stage_error_displays() {
        assert_eq!(StageError::Dropout.to_string(), "dropout");
        assert!(StageError::Timeout {
            latency_s: 0.2,
            budget_s: 0.1
        }
        .to_string()
        .contains("timeout"));
        assert!(StageError::OutOfRange {
            value: 9.0,
            min: 0.0,
            max: 1.0
        }
        .to_string()
        .contains("out of range"));
        assert!(StageError::Poisoned.to_string().contains("poisoned"));
    }

    #[test]
    fn reliable_lifts_infallible_stages() {
        let mut s = Reliable(scalar_sensor());
        let mut p = Reliable(identity_perceptor());
        let mut ctx = StageContext::new();
        let r = s.try_sense(&2.0, &mut ctx).unwrap();
        assert_eq!(p.try_perceive(&r, &mut ctx).unwrap(), 2.0);
        assert!(ctx.energy_j() > 0.0);
    }

    #[test]
    fn clean_loop_matches_infallible_behavior() {
        let mut env = 8.0f64;
        let mut looop = FallibleLoop::new(
            "clean",
            Reliable(scalar_sensor()),
            Reliable(identity_perceptor()),
            AlwaysTrust,
            gain_controller(),
        );
        let outs = looop.run(&mut env, 40, |e, a| *e += a);
        assert!(env.abs() < 1e-3, "env {env}");
        assert!(outs.iter().all(|o| o.resolution == TickResolution::Fresh));
        assert!(outs.iter().all(|o| o.faults == 0 && o.retries == 0));
        let c = looop.telemetry().fault_counters();
        assert_eq!((c.faults, c.retries, c.holds, c.fallbacks), (0, 0, 0, 0));
        assert_eq!(looop.telemetry().ticks(), 40);
        assert_eq!(looop.name(), "clean");

        // The two runners are one frame: over `Reliable(..)` copies of the
        // same stages — budgeted, a trust spike mid-run, action-to-sensing
        // adaptation, sim-traced — the fallible runner is the infallible one,
        // bit for bit, every tick.
        let perceptor = || {
            FnPerceptor::new(|r: &f64, ctx: &mut StageContext| {
                ctx.charge(2e-4, 5e-5);
                *r
            })
        };
        let monitor = || {
            FnMonitor::new(|f: &f64, ctx: &mut StageContext| {
                ctx.charge(1e-5, 0.0);
                if f.abs() > 10.0 {
                    Trust::Suspect(0.9)
                } else {
                    Trust::Trusted
                }
            })
        };
        let controller = || {
            FnController::new(|f: &f64, _t: Trust, ctx: &mut StageContext| {
                ctx.charge(1e-4, 2e-5);
                -0.3 * f
            })
        };
        let mut plain = LoopBuilder::new("plain")
            .with_budget(EnergyBudget::new(0.05))
            .with_tracer(Tracer::sim(0.5))
            .build_full(
                KnobSensor { rate: 1.0 },
                perceptor(),
                monitor(),
                controller(),
                ActionMagnitudeRate::default(),
            );
        let mut lifted = FallibleLoop::new(
            "lifted",
            Reliable(KnobSensor { rate: 1.0 }),
            Reliable(perceptor()),
            monitor(),
            WithFallback::new(controller(), 0.0),
        )
        .with_budget(EnergyBudget::new(0.05))
        .with_tracer(Tracer::sim(0.5))
        .with_policy(ActionMagnitudeRate::default());
        let (mut env_plain, mut env_lifted) = (8.0f64, 8.0f64);
        let mut suspected = false;
        for t in 0..60 {
            if t == 30 {
                // Budget well under pressure: the monitor flags the spike.
                (env_plain, env_lifted) = (50.0, 50.0);
            }
            let a = plain.tick(&env_plain);
            let b = lifted.tick(&env_lifted);
            assert_eq!(a.action.to_bits(), b.action.to_bits(), "tick {t} action");
            assert_eq!((a.trust, a.tick), (b.trust, b.tick));
            assert_eq!(b.resolution, TickResolution::Fresh);
            let (ra, rb) = (
                plain.telemetry().last_record(),
                lifted.telemetry().last_record(),
            );
            assert_eq!(
                crate::replay::diff_records(&ra.unwrap(), &rb.unwrap()),
                None
            );
            env_plain += a.action;
            env_lifted += b.action;
            suspected |= a.trust != Trust::Trusted;
        }
        assert!(suspected, "the spike must reach the monitor");
        assert!(
            plain.sensor().rate() < 1.0,
            "adaptation must have moved the knob"
        );
        assert_eq!(
            plain.sensor().rate().to_bits(),
            lifted.sensor().rate().to_bits()
        );
        assert_eq!(
            plain.budget().consumed_j().to_bits(),
            lifted.budget().consumed_j().to_bits()
        );
        let spans = |t: &Tracer| t.spans().copied().collect::<Vec<_>>();
        assert_eq!(spans(plain.tracer()), spans(lifted.tracer()));
        assert_eq!(plain.tracer().spans().count(), 60 * 5);
    }

    #[test]
    fn injector_dropout_is_deterministic_and_counted() {
        let run = |seed: u64| -> Vec<bool> {
            let mut inj: FaultInjector<_, f64> =
                FaultInjector::new(scalar_sensor(), FaultProfile::dropout(0.3), seed);
            (0..64)
                .map(|_| inj.try_sense(&1.0, &mut StageContext::new()).is_err())
                .collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same fault sequence");
        assert_ne!(a, run(8), "different seed, different faults");
        let dropped = a.iter().filter(|&&d| d).count();
        assert!((5..30).contains(&dropped), "{dropped}/64 dropped at p=0.3");
    }

    #[test]
    fn injector_stuck_at_replays_last_good() {
        let mut counter = 0.0;
        let sensor = FnSensor::new(move |_: &f64, _: &mut StageContext| {
            counter += 1.0;
            counter
        });
        let mut inj: FaultInjector<_, f64> = FaultInjector::new(
            sensor,
            FaultProfile {
                stuck: 0.5,
                ..FaultProfile::none()
            },
            3,
        );
        let mut ctx = StageContext::new();
        let vals: Vec<f64> = (0..32)
            .map(|_| inj.try_sense(&0.0, &mut ctx).unwrap())
            .collect();
        // Stuck ticks repeat the previous value instead of advancing.
        let repeats = vals.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 4, "only {repeats} stuck repeats in {vals:?}");
        // Monotone non-decreasing: stuck-at never invents new values.
        assert!(vals.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn injector_nan_poisons_output() {
        let mut inj: FaultInjector<_, f64> = FaultInjector::new(
            scalar_sensor(),
            FaultProfile {
                nan: 1.0,
                ..FaultProfile::none()
            },
            1,
        );
        let v = inj.try_sense(&1.0, &mut StageContext::new()).unwrap();
        assert!(v.is_nan());
    }

    #[test]
    fn injector_latency_spike_charges_ctx() {
        let mut inj: FaultInjector<_, f64> = FaultInjector::new(
            scalar_sensor(),
            FaultProfile {
                latency_spike: 1.0,
                spike_latency_s: 0.5,
                ..FaultProfile::none()
            },
            1,
        );
        let mut ctx = StageContext::new();
        let _ = inj.try_sense(&1.0, &mut ctx).unwrap();
        assert!(ctx.latency_s() > 0.5);
    }

    #[test]
    fn retry_recovers_from_transient_dropout() {
        // Fails exactly twice, then succeeds: default policy (2 retries)
        // recovers within the tick.
        let mut remaining_failures = 2;
        let sensor = FnTrySensor::new(move |e: &f64, ctx: &mut StageContext| {
            ctx.charge(1e-3, 0.0);
            if remaining_failures > 0 {
                remaining_failures -= 1;
                Err(StageError::Dropout)
            } else {
                Ok(*e)
            }
        });
        let mut looop = FallibleLoop::new(
            "retry",
            sensor,
            Reliable(identity_perceptor()),
            AlwaysTrust,
            gain_controller(),
        )
        .with_recovery(RecoveryPolicy {
            retry_energy_j: 1e-4,
            ..RecoveryPolicy::default()
        });
        let out = looop.tick(&4.0);
        assert_eq!(out.resolution, TickResolution::Fresh);
        assert_eq!(out.action, -2.0);
        assert_eq!(out.faults, 2);
        assert_eq!(out.retries, 2);
        // Three sense attempts + two retry surcharges all charged.
        assert!(
            (out.energy_j - (3e-3 + 2e-4)).abs() < 1e-12,
            "{}",
            out.energy_j
        );
        let c = looop.telemetry().fault_counters();
        assert_eq!(c.faults, 2);
        assert_eq!(c.retries, 2);
        assert_eq!(c.dropouts, 2);
    }

    #[test]
    fn retry_surcharge_is_attributed_to_sense_and_failed_spans_marked() {
        use crate::trace::Tracer;
        // Fails exactly twice, then succeeds, with a retry surcharge.
        let mut remaining_failures = 2;
        let sensor = FnTrySensor::new(move |e: &f64, ctx: &mut StageContext| {
            ctx.charge(1e-3, 1e-4);
            if remaining_failures > 0 {
                remaining_failures -= 1;
                Err(StageError::Dropout)
            } else {
                Ok(*e)
            }
        });
        let mut looop = FallibleLoop::new(
            "retry-attr",
            sensor,
            Reliable(identity_perceptor()),
            AlwaysTrust,
            gain_controller(),
        )
        .with_recovery(RecoveryPolicy {
            retry_energy_j: 1e-4,
            ..RecoveryPolicy::default()
        })
        .with_tracer(Tracer::sim(1.0));
        let out = looop.tick(&4.0);
        assert_eq!(out.resolution, TickResolution::Fresh);
        let rec = looop.telemetry().records().next().unwrap();
        // Sense carries all three attempts plus both retry surcharges.
        let sense = rec.stages.get(StageId::Sense);
        assert!((sense.energy_j - (3e-3 + 2e-4)).abs() < 1e-12, "{sense:?}");
        assert!((sense.latency_s - 3e-4).abs() < 1e-12, "{sense:?}");
        // Breakdown sums to the blended totals.
        assert!((rec.stages.total_energy_j() - out.energy_j).abs() < 1e-12);
        assert!((rec.stages.total_latency_s() - out.latency_s).abs() < 1e-12);
        // Spans: two failed sense attempts, then sense/perceive/monitor/
        // control/act of the successful pass.
        let spans: Vec<_> = looop.tracer().spans().copied().collect();
        assert_eq!(spans.len(), 7);
        assert!(!spans[0].ok && spans[0].stage == StageId::Sense);
        assert!(!spans[1].ok && spans[1].stage == StageId::Sense);
        assert!(spans[2..].iter().all(|s| s.ok));
        assert_eq!(
            spans[2..].iter().map(|s| s.stage).collect::<Vec<_>>(),
            StageId::ALL.to_vec()
        );
        assert!(spans.iter().all(|s| s.tick == 0));
    }

    #[test]
    fn fallback_tick_attributes_failed_sense_and_failsafe_control() {
        // Sensor always down, no retries, no held features: the fail-safe
        // path must still attribute the failed attempt and the controller's
        // fail-safe cost.
        let sensor = FnTrySensor::new(|_e: &f64, ctx: &mut StageContext| {
            ctx.charge(5e-4, 2e-5);
            Err::<f64, _>(StageError::Dropout)
        });
        let mut looop = FallibleLoop::new(
            "fallback-attr",
            sensor,
            Reliable(identity_perceptor()),
            AlwaysTrust,
            gain_controller(),
        )
        .with_recovery(RecoveryPolicy {
            max_retries: 0,
            max_hold_ticks: 0,
            ..RecoveryPolicy::default()
        });
        let out = looop.tick(&1.0);
        assert_eq!(out.resolution, TickResolution::Fallback);
        let rec = looop.telemetry().records().next().unwrap();
        assert!((rec.stages.get(StageId::Sense).energy_j - 5e-4).abs() < 1e-15);
        // Perceive never ran; its attribution stays zero.
        assert_eq!(rec.stages.get(StageId::Perceive).energy_j, 0.0);
        assert!((rec.stages.total_energy_j() - out.energy_j).abs() < 1e-15);
        // Per-stage histograms: sense active, perceive idle.
        assert_eq!(looop.telemetry().stage_latency(StageId::Sense).count(), 1);
        assert_eq!(
            looop.telemetry().stage_latency(StageId::Perceive).count(),
            0
        );
    }

    #[test]
    fn hold_then_fallback_with_staleness_decayed_trust() {
        // One good tick, then the sensor dies for good.
        let mut alive = true;
        let sensor = FnTrySensor::new(move |e: &f64, _: &mut StageContext| {
            if alive {
                alive = false;
                Ok(*e)
            } else {
                Err(StageError::Dropout)
            }
        });
        let mut looop = FallibleLoop::new(
            "hold",
            sensor,
            Reliable(identity_perceptor()),
            AlwaysTrust,
            WithFallback::new(
                FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| *f),
                -1.0,
            ),
        )
        .with_recovery(RecoveryPolicy {
            max_retries: 0,
            max_hold_ticks: 2,
            staleness_decay: 0.4,
            ..RecoveryPolicy::default()
        });
        let o0 = looop.tick(&7.0);
        assert_eq!(o0.resolution, TickResolution::Fresh);
        assert_eq!(o0.trust, Trust::Trusted);
        // Held tick 1: same features, trust degraded by one staleness step.
        let o1 = looop.tick(&99.0);
        assert_eq!(o1.resolution, TickResolution::Held { staleness: 1 });
        assert_eq!(o1.action, 7.0, "held features, not the new env");
        assert_eq!(o1.trust, Trust::Suspect(0.4));
        // Held tick 2: staleness decays trust further.
        let o2 = looop.tick(&99.0);
        assert_eq!(o2.resolution, TickResolution::Held { staleness: 2 });
        assert_eq!(o2.trust, Trust::Suspect(0.8));
        // Hold budget exhausted: fail-safe action, untrusted.
        let o3 = looop.tick(&99.0);
        assert_eq!(o3.resolution, TickResolution::Fallback);
        assert_eq!(o3.action, -1.0);
        assert_eq!(o3.trust, Trust::Untrusted);
        let c = looop.telemetry().fault_counters();
        assert_eq!(c.holds, 2);
        assert_eq!(c.fallbacks, 1);
        assert_eq!(c.faults, 3);
    }

    #[test]
    fn fresh_tick_resets_staleness() {
        // Alternating dead/alive sensor: each successful tick re-arms the
        // full hold budget.
        let mut tick = 0u32;
        let sensor = FnTrySensor::new(move |e: &f64, _: &mut StageContext| {
            tick += 1;
            if tick.is_multiple_of(2) {
                Err(StageError::Dropout)
            } else {
                Ok(*e)
            }
        });
        let mut looop = FallibleLoop::new(
            "alt",
            sensor,
            Reliable(identity_perceptor()),
            AlwaysTrust,
            gain_controller(),
        )
        .with_recovery(RecoveryPolicy {
            max_retries: 0,
            max_hold_ticks: 1,
            ..RecoveryPolicy::default()
        });
        for _ in 0..6 {
            let out = looop.tick(&1.0);
            assert_ne!(out.resolution, TickResolution::Fallback);
        }
        assert_eq!(looop.telemetry().fault_counters().holds, 3);
        assert_eq!(looop.telemetry().fault_counters().fallbacks, 0);
    }

    #[test]
    fn poisoned_features_detected_and_recovered() {
        // NaN-poisoning injector at p=1 on the first attempt only would be
        // nondeterministic; instead poison every attempt and verify the
        // finite check converts it into a typed fault and the loop falls
        // back (never handing NaN to the controller).
        let inj: FaultInjector<_, f64> = FaultInjector::new(
            scalar_sensor(),
            FaultProfile {
                nan: 1.0,
                ..FaultProfile::none()
            },
            5,
        );
        let mut looop = FallibleLoop::new(
            "poison",
            inj,
            Reliable(identity_perceptor()),
            FnMonitor::new(|_f: &f64, _: &mut StageContext| Trust::Trusted),
            WithFallback::new(
                FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| {
                    assert!(f.is_finite(), "controller must never see NaN features");
                    *f
                }),
                0.0,
            ),
        );
        let out = looop.tick(&1.0);
        assert_eq!(out.resolution, TickResolution::Fallback);
        assert_eq!(out.action, 0.0);
        assert!(out.faults >= 1);
        assert_eq!(
            looop.telemetry().fault_counters().poisoned,
            out.faults as u64
        );
    }

    #[test]
    fn latency_budget_turns_spikes_into_timeouts() {
        let inj: FaultInjector<_, f64> = FaultInjector::new(
            scalar_sensor(),
            FaultProfile {
                latency_spike: 1.0,
                spike_latency_s: 0.2,
                ..FaultProfile::none()
            },
            2,
        );
        let mut looop = FallibleLoop::new(
            "timeout",
            inj,
            Reliable(identity_perceptor()),
            AlwaysTrust,
            gain_controller(),
        )
        .with_recovery(RecoveryPolicy {
            max_retries: 1,
            latency_budget_s: Some(0.05),
            ..RecoveryPolicy::default()
        });
        let out = looop.tick(&1.0);
        // Every attempt spikes, so the tick degrades to fallback and the
        // faults are classified as timeouts.
        assert_eq!(out.resolution, TickResolution::Fallback);
        let c = looop.telemetry().fault_counters();
        assert_eq!(c.timeouts, out.faults as u64);
        assert!(c.timeouts >= 1);
    }

    #[test]
    fn retries_stop_when_budget_exhausted() {
        let sensor = FnTrySensor::new(|_: &f64, ctx: &mut StageContext| {
            ctx.charge(1.0, 0.0);
            Err::<f64, _>(StageError::Dropout)
        });
        let mut looop = FallibleLoop::new(
            "broke",
            sensor,
            Reliable(identity_perceptor()),
            AlwaysTrust,
            gain_controller(),
        )
        .with_budget(EnergyBudget::new(0.5))
        .with_recovery(RecoveryPolicy {
            max_retries: 10,
            ..RecoveryPolicy::default()
        });
        let out = looop.tick(&1.0);
        // First failed attempt alone exhausts the budget — but consumption
        // happens at tick end, so exhaustion is only visible to *later*
        // retries... within the tick the budget still reads fresh. The
        // second attempt's failure then sees the un-consumed budget too:
        // retries are bounded by max_retries here, not the budget.
        assert_eq!(out.retries, 10);
        // Next tick the budget is exhausted: no retries at all.
        let out2 = looop.tick(&1.0);
        assert_eq!(out2.retries, 0);
        assert_eq!(out2.resolution, TickResolution::Fallback);
    }

    #[test]
    fn with_policy_adapts_sensor_through_injector() {
        let inj: FaultInjector<_, f64> =
            FaultInjector::new(KnobSensor { rate: 1.0 }, FaultProfile::none(), 0);
        let mut looop = FallibleLoop::new(
            "adapt",
            inj,
            Reliable(identity_perceptor()),
            AlwaysTrust,
            WithFallback::new(
                FnController::new(|_f: &f64, _t: Trust, _: &mut StageContext| 0.0f64),
                0.0,
            ),
        )
        .with_policy(ActionMagnitudeRate::default());
        for _ in 0..50 {
            let _ = looop.tick(&0.0);
        }
        // Quiet environment: the rate decays to idle through the wrapper.
        assert!(
            (looop.sensor().rate() - 0.1).abs() < 1e-6,
            "rate {}",
            looop.sensor().rate()
        );
    }

    #[test]
    fn finite_check_impls() {
        assert!(1.0f64.all_finite());
        assert!(!f64::NAN.all_finite());
        assert!(!f64::INFINITY.all_finite());
        assert!(vec![1.0, 2.0].all_finite());
        assert!(!vec![1.0, f64::NAN].all_finite());
        assert!([1.0, 2.0].all_finite());
        assert!(![f64::NAN].all_finite());
    }

    #[test]
    fn nan_poison_impls() {
        let mut x = 1.0f64;
        x.poison();
        assert!(x.is_nan());
        let mut v = vec![1.0, 2.0];
        v.poison();
        assert!(v.iter().all(|x| x.is_nan()));
        let mut a = [1.0; 3];
        a.poison();
        assert!(a.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn fn_try_adapters_compose() {
        let mut s = FnTrySensor::new(|e: &f64, _: &mut StageContext| {
            if *e < 0.0 {
                Err(StageError::OutOfRange {
                    value: *e,
                    min: 0.0,
                    max: 10.0,
                })
            } else {
                Ok(*e)
            }
        });
        let mut p = FnTryPerceptor::new(|r: &f64, _: &mut StageContext| Ok(*r * 2.0));
        let mut ctx = StageContext::new();
        let r = s.try_sense(&3.0, &mut ctx).unwrap();
        assert_eq!(p.try_perceive(&r, &mut ctx).unwrap(), 6.0);
        assert!(matches!(
            s.try_sense(&-1.0, &mut ctx),
            Err(StageError::OutOfRange { .. })
        ));
    }

    /// One injector outcome, comparable bit-exactly (NaN included).
    fn outcome(r: Result<f64, StageError>) -> String {
        match r {
            Ok(v) => format!("ok:{:016x}", v.to_bits()),
            Err(e) => format!("err:{e}"),
        }
    }

    /// Satellite: restoring a [`FaultInjector`] must resume its RNG stream at
    /// the exact position it was snapshotted, not reseed. Property-style:
    /// for several profiles and cut points, the post-restore fault sequence
    /// equals the uninterrupted one — even when the restore target was
    /// constructed with a *different* seed.
    #[test]
    fn injector_checkpoint_resumes_rng_stream_exactly() {
        let profiles = [
            FaultProfile {
                dropout: 0.2,
                stuck: 0.3,
                latency_spike: 0.15,
                spike_latency_s: 0.05,
                nan: 0.1,
            },
            FaultProfile::dropout(0.4),
            FaultProfile {
                stuck: 0.6,
                nan: 0.05,
                ..FaultProfile::none()
            },
        ];
        for (pi, profile) in profiles.iter().enumerate() {
            let make = |seed: u64| -> FaultInjector<_, f64> {
                FaultInjector::new(scalar_sensor(), *profile, seed)
            };
            // Uninterrupted reference sequence over a varying environment
            // (so stuck-at replays are observable in the values).
            let mut reference = make(42);
            let full: Vec<String> = (0..240)
                .map(|i| outcome(reference.try_sense(&(i as f64), &mut StageContext::new())))
                .collect();
            for cut in [1usize, 9, 120, 239] {
                let mut original = make(42);
                for i in 0..cut {
                    let _ = original.try_sense(&(i as f64), &mut StageContext::new());
                }
                let mut ckpt = Checkpoint::new("inj");
                original.save_state(&mut ckpt, "inj");
                // Through the wire, onto a differently-seeded fresh injector:
                // every bit that matters must come from the checkpoint.
                let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
                let mut resumed = make(0xDEAD);
                resumed.restore_state(&ckpt, "inj").unwrap();
                let tail: Vec<String> = (cut..240)
                    .map(|i| outcome(resumed.try_sense(&(i as f64), &mut StageContext::new())))
                    .collect();
                assert_eq!(
                    tail,
                    full[cut..],
                    "profile {pi}: restored injector diverged after cut {cut}"
                );
            }
        }
    }

    /// Whether an injector fires is its profile's business, not the
    /// document's: a section carrying `active: b:0` (as older writers put
    /// it) restored onto a dropout injector still faults exactly like the
    /// uninterrupted twin.
    #[test]
    fn an_active_word_on_the_wire_cannot_silence_the_injector() {
        let make = || FaultInjector::<_, f64>::new(scalar_sensor(), FaultProfile::dropout(0.4), 5);
        let mut reference = make();
        let full: Vec<String> = (0..64)
            .map(|i| outcome(reference.try_sense(&(i as f64), &mut StageContext::new())))
            .collect();
        let mut original = make();
        for i in 0..16 {
            let _ = original.try_sense(&(i as f64), &mut StageContext::new());
        }
        let mut saved = Checkpoint::new("inj");
        original.save_state(&mut saved, "inj");
        let mut s = saved.section("inj").unwrap().clone();
        s.put_bool("active", false);
        s.put_u64("injected", 0);
        let mut hostile = Checkpoint::new("inj");
        hostile.push(s);
        let mut resumed = make();
        resumed.restore_state(&hostile, "inj").unwrap();
        let tail: Vec<String> = (16..64)
            .map(|i| outcome(resumed.try_sense(&(i as f64), &mut StageContext::new())))
            .collect();
        assert_eq!(tail, full[16..]);
        assert!(tail.iter().any(|o| o.starts_with("err:")), "faults fire");
    }

    /// A refused section leaves its component as it was, whichever field is
    /// refused: an injector section missing `last_good` (which the reader
    /// meets after the RNG words) and a `loop` section missing `held` (after
    /// `staleness`) change nothing.
    #[test]
    fn a_refused_section_leaves_injector_and_loop_unchanged() {
        let profile = FaultProfile::dropout(0.4);
        fn saved(injector: &impl StageState) -> Checkpoint {
            let mut ckpt = Checkpoint::new("inj");
            injector.save_state(&mut ckpt, "inj");
            ckpt
        }
        let mut injector = FaultInjector::<_, f64>::new(scalar_sensor(), profile, 7);
        let before = saved(&injector);
        let mut hostile = Checkpoint::new("inj");
        let mut s = Section::new("inj");
        s.put_u64s("rng", &StdRng::seed_from_u64(99).state());
        s.put_bool("last_good_some", true);
        hostile.push(s);
        assert_eq!(
            injector.restore_state(&hostile, "inj"),
            Err(CheckpointError::MissingField("inj.last_good".into()))
        );
        assert_eq!(saved(&injector), before);

        let mut l: FallibleLoop<_, _, _, _, _, f64> = FallibleLoop::new(
            "refused",
            FaultInjector::<_, f64>::new(scalar_sensor(), profile, 11),
            Reliable(identity_perceptor()),
            FnMonitor::new(|_: &f64, _: &mut StageContext| Trust::Trusted),
            gain_controller(),
        );
        let saved = l.snapshot();
        let mut hostile = saved.clone();
        let mut s = Section::new("loop");
        s.put_u64("staleness", 2);
        s.put_bool("held_some", true);
        hostile.push(s);
        assert_eq!(
            l.restore(&hostile),
            Err(CheckpointError::MissingField("loop.held".into()))
        );
        assert_eq!(l.snapshot(), saved);
    }

    /// A faulty, budgeted loop snapshot-killed-resumed mid-run must tick
    /// forward bit-identically to the uninterrupted original — including
    /// held-feature staleness and every fault/recovery decision.
    #[test]
    fn fallible_loop_snapshot_resume_is_bit_exact() {
        let profile = FaultProfile {
            dropout: 0.25,
            stuck: 0.2,
            latency_spike: 0.1,
            spike_latency_s: 0.01,
            nan: 0.1,
        };
        let build = || {
            FallibleLoop::new(
                "ckpt-loop",
                FaultInjector::<_, f64>::new(scalar_sensor(), profile, 11),
                Reliable(identity_perceptor()),
                FnMonitor::new(|f: &f64, _: &mut StageContext| {
                    if f.abs() > 6.0 {
                        Trust::Suspect(0.7)
                    } else {
                        Trust::Trusted
                    }
                }),
                gain_controller(),
            )
            .with_budget(EnergyBudget::new(5.0))
            .with_recovery(RecoveryPolicy {
                max_retries: 1,
                max_hold_ticks: 2,
                staleness_decay: 0.3,
                ..RecoveryPolicy::default()
            })
            .with_telemetry_capacity(32)
        };
        let mut env_a = 8.0f64;
        let mut uninterrupted = build();
        for _ in 0..50 {
            let out = uninterrupted.tick(&env_a);
            env_a += out.action * 0.1;
        }
        // Interrupted twin: 20 ticks, snapshot, "kill", restore onto a
        // freshly built loop, then finish the run in lockstep.
        let mut env_b = 8.0f64;
        let mut first = build();
        for _ in 0..20 {
            let out = first.tick(&env_b);
            env_b += out.action * 0.1;
        }
        let wire = first.snapshot().to_jsonl();
        drop(first);
        let mut resumed = build();
        resumed
            .restore(&Checkpoint::from_jsonl(&wire).unwrap())
            .unwrap();
        for _ in 20..50 {
            let out = resumed.tick(&env_b);
            env_b += out.action * 0.1;
        }
        assert_eq!(env_a.to_bits(), env_b.to_bits(), "trajectories diverged");
        let (ta, tb) = (uninterrupted.telemetry(), resumed.telemetry());
        assert_eq!(ta.ticks(), tb.ticks());
        assert_eq!(ta.fault_counters(), tb.fault_counters());
        assert_eq!(ta.total_energy_j().to_bits(), tb.total_energy_j().to_bits());
        let recs_a: Vec<_> = ta.records().collect();
        let recs_b: Vec<_> = tb.records().collect();
        assert_eq!(recs_a, recs_b, "telemetry rings diverged");
    }
}
