//! The sensing-to-action loop: the state every runner shares, the one tick
//! frame both runners execute, and the infallible runner.
//!
//! A tick is `begin_tick` (fresh ledger) → *feature
//! acquisition* → `decide` (monitor → control) → `finish_tick` (Act: consume,
//! adapt, record). [`SensingActionLoop`] fills the acquisition slot with a
//! plain sense → perceive; [`FallibleLoop`](crate::fault::FallibleLoop) fills
//! it with its retry / hold / fail-safe ladder. Everything else — state,
//! accessors, per-stage charging, the checkpoint sections, `run` and `replay`
//! ([`LoopRunner`]), and checkpointing a runner with its environment
//! ([`Checkpointed`]) — is written once, here.

use crate::adapt::{AdaptationPolicy, NoAdaptation};
use crate::budget::EnergyBudget;
use crate::checkpoint::{Checkpoint, CheckpointError, Section, Snapshot, StageState, StateVec};
use crate::replay::{diff_records, Divergence, Recording};
use crate::stage::{AlwaysTrust, Controller, Monitor, Perceptor, Sensor, StageContext, Trust};
use crate::telemetry::LoopTelemetry;
use crate::trace::{StageBreakdown, StageId, Tracer};
use std::ops::{Deref, DerefMut};

/// Output of one loop tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopOutput<A> {
    /// The decided action.
    pub action: A,
    /// Monitor verdict for this tick.
    pub trust: Trust,
    /// Energy charged this tick (joules).
    pub energy_j: f64,
    /// Latency of this tick (seconds).
    pub latency_s: f64,
    /// Tick index.
    pub tick: u64,
}

/// One tick in flight: the ledger its stages charge, the per-stage
/// attribution of that ledger (a cursor into it plus the accumulating
/// [`StageBreakdown`]).
pub(crate) struct TickFrame {
    pub(crate) ctx: StageContext,
    tick: u64,
    cursor: (f64, f64),
    stages: StageBreakdown,
}

impl TickFrame {
    /// Close one stage's window: compute the ledger delta since the cursor,
    /// attribute it to `stage` — a *failed* attempt's too (`ok == false`):
    /// failure is charged where it happened — and emit a span (no-op when
    /// the tracer is disabled).
    #[inline]
    pub(crate) fn close(&mut self, tracer: &mut Tracer, stage: StageId, t0: f64, ok: bool) {
        let (energy_j, latency_s) = (self.ctx.energy_j(), self.ctx.latency_s());
        let (de, dl) = (energy_j - self.cursor.0, latency_s - self.cursor.1);
        self.cursor = (energy_j, latency_s);
        self.stages.add(stage, de, dl);
        tracer.finish(self.tick, stage, t0, de, dl, ok);
    }
}

/// The state every loop runner shares — name, the five stages, energy
/// budget, telemetry and tracer — and its accessors.
/// Both [`SensingActionLoop`] and [`FallibleLoop`](crate::fault::FallibleLoop)
/// dereference to it.
#[derive(Debug)]
pub struct LoopState<S, P, M, C, Ad> {
    pub(crate) name: String,
    pub(crate) sensor: S,
    pub(crate) perceptor: P,
    pub(crate) monitor: M,
    pub(crate) controller: C,
    pub(crate) policy: Ad,
    pub(crate) budget: EnergyBudget,
    pub(crate) telemetry: LoopTelemetry,
    pub(crate) tracer: Tracer,
}

impl<S, P, M, C, Ad> LoopState<S, P, M, C, Ad> {
    /// Loop name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Telemetry accumulated so far (including fault counters).
    pub fn telemetry(&self) -> &LoopTelemetry {
        &self.telemetry
    }

    /// Budget state.
    pub fn budget(&self) -> &EnergyBudget {
        &self.budget
    }

    /// Borrow the sensor (e.g. to read its adapted knobs).
    pub fn sensor(&self) -> &S {
        &self.sensor
    }

    /// Borrow the tracer (e.g. to export collected spans).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutably borrow the tracer (e.g. to drain spans via
    /// [`Tracer::take_spans`]).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Tick prologue: a fresh ledger before any stage runs.
    #[inline]
    pub(crate) fn begin_tick(&mut self) -> TickFrame {
        self.tracer.new_tick();
        TickFrame {
            ctx: StageContext::new(),
            tick: self.telemetry.ticks(),
            cursor: (0.0, 0.0),
            stages: StageBreakdown::new(),
        }
    }

    /// Run one infallible stage inside the frame and charge what it added to
    /// the ledger to `stage` (tracer start/finish are single branches when
    /// disabled).
    #[inline]
    pub(crate) fn staged<T>(
        &mut self,
        frame: &mut TickFrame,
        stage: StageId,
        run: impl FnOnce(&mut Self, &mut StageContext) -> T,
    ) -> T {
        let t0 = self.tracer.start();
        let out = run(self, &mut frame.ctx);
        frame.close(&mut self.tracer, stage, t0, true);
        out
    }

    /// Monitor → control over `features`. `staleness` is the extra suspicion
    /// held (stale) features carry; fresh features pass `None` and the
    /// monitor's verdict stands as is.
    #[inline]
    pub(crate) fn decide<F>(
        &mut self,
        frame: &mut TickFrame,
        features: &F,
        staleness: Option<f64>,
    ) -> (C::Action, Trust)
    where
        M: Monitor<F>,
        C: Controller<F>,
    {
        let trust = self.staged(frame, StageId::Monitor, |s, ctx| {
            let verdict = s.monitor.assess(features, ctx);
            staleness.map_or(verdict, |extra| verdict.degraded(extra))
        });
        let action = self.staged(frame, StageId::Control, |s, ctx| {
            s.controller.decide(features, trust, ctx)
        });
        (action, trust)
    }

    /// Tick epilogue — the Act stage and the books. Consume *before*
    /// adapting: the policy must see this tick's budget pressure, not last
    /// tick's, or a single huge-energy tick could not throttle the very next
    /// one.
    #[inline]
    pub(crate) fn finish_tick<A>(
        &mut self,
        mut frame: TickFrame,
        action: A,
        trust: Trust,
    ) -> LoopOutput<A>
    where
        Ad: AdaptationPolicy<S, A>,
    {
        let (energy_j, latency_s) = (frame.ctx.energy_j(), frame.ctx.latency_s());
        self.staged(&mut frame, StageId::Act, |s, _| {
            s.budget.consume(energy_j);
            s.policy.adapt(&mut s.sensor, &action, trust, &s.budget);
        });
        self.telemetry
            .record_with_stages(energy_j, latency_s, trust, frame.stages);
        LoopOutput {
            action,
            trust,
            energy_j,
            latency_s,
            tick: frame.tick,
        }
    }
}

impl<S: StageState, P: StageState, M: StageState, C: StageState, Ad: StageState>
    LoopState<S, P, M, C, Ad>
{
    /// The checkpoint sections every runner writes, in wire order: telemetry,
    /// budget, tracer ring, then each stage's [`StageState`].
    pub(crate) fn save_sections(&self, ckpt: &mut Checkpoint) {
        self.telemetry.save_state(ckpt, "telemetry");
        self.budget.save_state(ckpt, "budget");
        self.tracer.save_state(ckpt, "tracer");
        self.sensor.save_state(ckpt, "sensor");
        self.perceptor.save_state(ckpt, "perceptor");
        self.monitor.save_state(ckpt, "monitor");
        self.controller.save_state(ckpt, "controller");
        self.policy.save_state(ckpt, "policy");
    }

    /// Restore what [`LoopState::save_sections`] wrote.
    pub(crate) fn restore_sections(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.telemetry.restore_state(ckpt, "telemetry")?;
        self.budget.restore_state(ckpt, "budget")?;
        self.tracer.restore_state(ckpt, "tracer")?;
        self.sensor.restore_state(ckpt, "sensor")?;
        self.perceptor.restore_state(ckpt, "perceptor")?;
        self.monitor.restore_state(ckpt, "monitor")?;
        self.controller.restore_state(ckpt, "controller")?;
        self.policy.restore_state(ckpt, "policy")
    }
}

/// What a driver needs from a loop runner, whichever way it acquires its
/// features: one tick against an environment, the shared bookkeeping, and —
/// written once on top of those — [`run`](LoopRunner::run) and
/// [`replay`](LoopRunner::replay). Implemented by [`SensingActionLoop`] and
/// [`FallibleLoop`](crate::fault::FallibleLoop); a fleet runtime closes either
/// over its environment through this trait alone, and checkpoints it
/// through [`save`](LoopRunner::save) / [`load`](LoopRunner::load) when the
/// runner is [`Checkpointed`].
pub trait LoopRunner<E> {
    /// What the controller decides.
    type Action;
    /// What one tick returns (`LoopOutput` or
    /// [`FallibleOutput`](crate::fault::FallibleOutput)).
    type Output;

    /// Run one tick against an environment snapshot.
    fn tick(&mut self, env: &E) -> Self::Output;

    /// The action a tick decided and what the tick charged:
    /// `(action, energy_j, latency_s, stage faults)`.
    fn charged(out: &Self::Output) -> (&Self::Action, f64, f64, u32);

    /// Loop name (for reports).
    fn name(&self) -> &str;

    /// Telemetry accumulated so far.
    fn telemetry(&self) -> &LoopTelemetry;

    /// Mutably borrow the telemetry — how a fleet runtime attributes a
    /// deadline miss to the loop's own fault counters.
    fn telemetry_mut(&mut self) -> &mut LoopTelemetry;

    /// Run `n` ticks against a mutable environment, applying each action via
    /// `apply`. Returns the outputs.
    fn run(
        &mut self,
        env: &mut E,
        n: usize,
        mut apply: impl FnMut(&mut E, &Self::Action),
    ) -> Vec<Self::Output> {
        let mut outputs = Vec::with_capacity(n);
        for _ in 0..n {
            let out = self.tick(env);
            apply(env, Self::charged(&out).0);
            outputs.push(out);
        }
        outputs
    }

    /// Re-drive this (freshly built) loop against a recording, one tick per
    /// recorded tick, comparing each produced telemetry record bit-for-bit
    /// as it lands (so the loop's ring may be smaller than the recording).
    /// Returns the number of ticks verified, or the first [`Divergence`].
    fn replay(
        &mut self,
        env: &mut E,
        recording: &Recording,
        mut apply: impl FnMut(&mut E, &Self::Action),
    ) -> Result<u64, Divergence> {
        let mut verified = 0u64;
        for rec in &recording.ticks {
            let out = self.tick(env);
            apply(env, Self::charged(&out).0);
            let produced = self.telemetry().last_record().expect("tick() records");
            if let Some(d) = diff_records(rec, &produced) {
                return Err(d);
            }
            verified += 1;
        }
        Ok(verified)
    }

    /// Checkpoint the runner together with the environment it is closed
    /// over. Only a [`Checkpointed`] runner can; the default reports
    /// [`CheckpointError::Unsupported`].
    fn save(&self, _env: &E) -> Result<Checkpoint, CheckpointError> {
        Err(CheckpointError::Unsupported)
    }

    /// Restore what [`LoopRunner::save`] wrote and return the environment it
    /// carried. The default reports [`CheckpointError::Unsupported`].
    fn load(&mut self, _ckpt: &Checkpoint) -> Result<E, CheckpointError> {
        Err(CheckpointError::Unsupported)
    }
}

/// A runner checkpointed together with its environment: wraps a
/// [`Snapshot`] runner whose environment round-trips through [`StateVec`],
/// and answers [`LoopRunner::save`] / [`LoopRunner::load`] with the runner's
/// sections plus one `env` section. Everything else forwards to the runner.
#[derive(Debug)]
pub struct Checkpointed<L>(pub L);

/// Section id under which a [`Checkpointed`] runner's environment travels.
const ENV_SECTION: &str = "env";

impl<L: LoopRunner<E> + Snapshot, E: StateVec> LoopRunner<E> for Checkpointed<L> {
    type Action = L::Action;
    type Output = L::Output;

    #[inline]
    fn tick(&mut self, env: &E) -> Self::Output {
        self.0.tick(env)
    }

    fn charged(out: &Self::Output) -> (&Self::Action, f64, f64, u32) {
        L::charged(out)
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn telemetry(&self) -> &LoopTelemetry {
        self.0.telemetry()
    }

    fn telemetry_mut(&mut self) -> &mut LoopTelemetry {
        self.0.telemetry_mut()
    }

    fn save(&self, env: &E) -> Result<Checkpoint, CheckpointError> {
        let mut ckpt = self.0.snapshot();
        let mut s = Section::new(ENV_SECTION);
        s.put_f64s("state", &env.to_state());
        ckpt.push(s);
        Ok(ckpt)
    }

    /// Reads the environment before touching the runner, so a bad `env`
    /// section leaves it as it was. A one-word state is also accepted in the
    /// scalar form (`f:`) that documents written without a handle use.
    fn load(&mut self, ckpt: &Checkpoint) -> Result<E, CheckpointError> {
        let s = ckpt.section(ENV_SECTION)?;
        let state = s
            .get_f64s("state")
            .or_else(|e| s.get_f64("state").map(|x| vec![x]).map_err(|_| e))?;
        let env = E::from_state(&state).ok_or_else(|| s.bad("state"))?;
        self.0.restore(ckpt)?;
        Ok(env)
    }
}

/// A complete sensing-to-action loop: sensor → perceptor → monitor →
/// controller, with an action-to-sensing adaptation policy and an energy
/// budget.
///
/// Construct through [`LoopBuilder`]. Name, telemetry, budget, stages and
/// tracer are read through the `LoopState` it dereferences to.
#[derive(Debug)]
pub struct SensingActionLoop<S, P, M, C, Ad> {
    pub(crate) state: LoopState<S, P, M, C, Ad>,
}

impl<S, P, M, C, Ad> Deref for SensingActionLoop<S, P, M, C, Ad> {
    type Target = LoopState<S, P, M, C, Ad>;
    fn deref(&self) -> &Self::Target {
        &self.state
    }
}

impl<S, P, M, C, Ad> DerefMut for SensingActionLoop<S, P, M, C, Ad> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.state
    }
}

impl<S, P, M, C, Ad> SensingActionLoop<S, P, M, C, Ad> {
    #[doc(hidden)]
    #[inline]
    pub fn tick<E>(&mut self, env: &E) -> <Self as LoopRunner<E>>::Output
    where
        Self: LoopRunner<E>,
    {
        LoopRunner::tick(self, env)
    }
}

/// Telemetry, budget, tracer ring, then every stage's [`StageState`].
impl<S: StageState, P: StageState, M: StageState, C: StageState, Ad: StageState> Snapshot
    for SensingActionLoop<S, P, M, C, Ad>
{
    fn snapshot(&self) -> Checkpoint {
        let mut ckpt = Checkpoint::new(&self.state.name);
        self.state.save_sections(&mut ckpt);
        ckpt
    }

    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.state.restore_sections(ckpt)
    }
}

impl<S, P, M, C, Ad, E> LoopRunner<E> for SensingActionLoop<S, P, M, C, Ad>
where
    S: Sensor<E>,
    P: Perceptor<S::Reading>,
    M: Monitor<P::Features>,
    C: Controller<P::Features>,
    Ad: AdaptationPolicy<S, C::Action>,
{
    type Action = C::Action;
    type Output = LoopOutput<C::Action>;

    /// Sense, perceive, assess, decide, then adapt the sensor for the next
    /// tick. Every stage's charged energy/latency is attributed to a
    /// [`StageBreakdown`] carried by the tick's telemetry record; when the
    /// loop's [`Tracer`] is enabled, each stage also emits a
    /// [`Span`](crate::trace::Span).
    #[inline]
    fn tick(&mut self, env: &E) -> Self::Output {
        let state = &mut self.state;
        let mut frame = state.begin_tick();
        let reading = state.staged(&mut frame, StageId::Sense, |s, ctx| {
            s.sensor.sense(env, ctx)
        });
        let features = state.staged(&mut frame, StageId::Perceive, |s, ctx| {
            s.perceptor.perceive(&reading, ctx)
        });
        let (action, trust) = state.decide(&mut frame, &features, None);
        state.finish_tick(frame, action, trust)
    }

    fn charged(out: &Self::Output) -> (&C::Action, f64, f64, u32) {
        (&out.action, out.energy_j, out.latency_s, 0)
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

/// Builder for [`SensingActionLoop`].
#[derive(Debug)]
pub struct LoopBuilder {
    name: String,
    budget: EnergyBudget,
    telemetry_capacity: usize,
    tracer: Tracer,
}

impl LoopBuilder {
    /// Start building a loop with the given name, an unlimited budget and a
    /// disabled tracer.
    pub fn new(name: impl Into<String>) -> Self {
        LoopBuilder {
            name: name.into(),
            budget: EnergyBudget::unlimited(),
            telemetry_capacity: crate::telemetry::DEFAULT_RECORD_CAPACITY,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach an energy budget.
    pub fn with_budget(mut self, budget: EnergyBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Cap the number of per-tick telemetry records retained (aggregate
    /// statistics stay exact over all ticks regardless).
    pub fn with_telemetry_capacity(mut self, capacity: usize) -> Self {
        self.telemetry_capacity = capacity;
        self
    }

    /// Attach a tracer (e.g. [`Tracer::sim`] for deterministic spans,
    /// [`Tracer::wall`] for real timing). Defaults to [`Tracer::disabled`].
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Minimal loop: no monitor (always trusted), no adaptation.
    pub fn build<S, P, C>(
        self,
        sensor: S,
        perceptor: P,
        controller: C,
    ) -> SensingActionLoop<S, P, AlwaysTrust, C, NoAdaptation> {
        self.build_full(sensor, perceptor, AlwaysTrust, controller, NoAdaptation)
    }

    /// Monitored loop without adaptation.
    pub fn build_monitored<S, P, M, C>(
        self,
        sensor: S,
        perceptor: P,
        monitor: M,
        controller: C,
    ) -> SensingActionLoop<S, P, M, C, NoAdaptation> {
        self.build_full(sensor, perceptor, monitor, controller, NoAdaptation)
    }

    /// Fully-specified loop with monitor and adaptation policy.
    pub fn build_full<S, P, M, C, Ad>(
        self,
        sensor: S,
        perceptor: P,
        monitor: M,
        controller: C,
        policy: Ad,
    ) -> SensingActionLoop<S, P, M, C, Ad> {
        SensingActionLoop {
            state: LoopState {
                name: self.name,
                sensor,
                perceptor,
                monitor,
                controller,
                policy,
                budget: self.budget,
                telemetry: LoopTelemetry::with_capacity(self.telemetry_capacity),
                tracer: self.tracer,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{ActionMagnitudeRate, SensingKnobs};
    use crate::stage::{FnController, FnMonitor, FnPerceptor, FnSensor};

    #[test]
    fn closed_loop_regulates_scalar_env() {
        let mut env = 8.0f64;
        let mut looop = LoopBuilder::new("reg").build(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(1e-6, 1e-4);
                *e
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.4 * f),
        );
        let outs = looop.run(&mut env, 40, |e, a| *e += a);
        assert!(env.abs() < 1e-3, "env {env}");
        assert_eq!(outs.len(), 40);
        assert_eq!(looop.telemetry().ticks(), 40);
        assert!(looop.budget().consumed_j() > 0.0);
    }

    #[test]
    fn monitor_verdict_reaches_controller() {
        let mut looop = LoopBuilder::new("m").build_monitored(
            FnSensor::new(|e: &f64, _: &mut StageContext| *e),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnMonitor::new(|f: &f64, _: &mut StageContext| {
                if f.abs() > 5.0 {
                    Trust::Untrusted
                } else {
                    Trust::Trusted
                }
            }),
            FnController::new(|f: &f64, t: Trust, _: &mut StageContext| {
                if t.is_actionable() {
                    -*f
                } else {
                    0.0 // fail safe
                }
            }),
        );
        let safe = looop.tick(&10.0);
        assert_eq!(safe.action, 0.0);
        assert_eq!(safe.trust, Trust::Untrusted);
        let act = looop.tick(&2.0);
        assert_eq!(act.action, -2.0);
        assert_eq!(looop.telemetry().suspect_fraction(), 0.5);
    }

    /// Sensor with adjustable knobs; rate scales its (simulated) energy cost.
    #[derive(Debug)]
    struct RateSensor {
        rate: f64,
    }

    impl SensingKnobs for RateSensor {
        fn rate(&self) -> f64 {
            self.rate
        }
        fn set_rate(&mut self, r: f64) {
            self.rate = r.clamp(0.0, 1.0);
        }
    }

    impl Sensor<f64> for RateSensor {
        type Reading = f64;
        fn sense(&mut self, env: &f64, ctx: &mut StageContext) -> f64 {
            ctx.charge(1e-3 * self.rate, 1e-4);
            *env
        }
    }

    #[test]
    fn adaptation_cuts_energy_in_quiet_environment() {
        // Quiet environment (stays at 0): adaptive loop should spend far less
        // energy than a fixed-rate loop — the §IV effect.
        let run = |adaptive: bool| -> f64 {
            let sensor = RateSensor { rate: 1.0 };
            let perceptor = FnPerceptor::new(|r: &f64, _: &mut StageContext| *r);
            let controller = FnController::new(|f: &f64, _t, _: &mut StageContext| -0.1 * f);
            let mut env = 0.0f64;
            if adaptive {
                let mut l = LoopBuilder::new("a").build_full(
                    sensor,
                    perceptor,
                    AlwaysTrust,
                    controller,
                    ActionMagnitudeRate::default(),
                );
                l.run(&mut env, 100, |e, a| *e += a);
                l.telemetry().total_energy_j()
            } else {
                let mut l = LoopBuilder::new("f").build(sensor, perceptor, controller);
                l.run(&mut env, 100, |e, a| *e += a);
                l.telemetry().total_energy_j()
            }
        };
        let fixed = run(false);
        let adaptive = run(true);
        assert!(
            adaptive < fixed * 0.4,
            "adaptive {adaptive} vs fixed {fixed}"
        );
    }

    #[test]
    fn adaptation_keeps_rate_high_when_dynamic() {
        let sensor = RateSensor { rate: 1.0 };
        let mut l = LoopBuilder::new("dyn").build_full(
            sensor,
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            AlwaysTrust,
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.9 * f),
            ActionMagnitudeRate::default(),
        );
        // Environment driven by an external disturbance each tick.
        let mut env = 0.0f64;
        for i in 0..60 {
            let out = l.tick(&env);
            env += out.action + if i % 2 == 0 { 3.0 } else { -3.0 };
        }
        assert!(l.sensor().rate() > 0.6, "rate {}", l.sensor().rate());
    }

    /// Regression: `tick` must consume the budget *before* the adaptation
    /// policy runs, so `ActionMagnitudeRate`'s budget-pressure ceiling acts
    /// on this tick's pressure. With the old (adapt-then-consume) ordering a
    /// single huge-energy tick left the rate at full for the next tick.
    #[test]
    fn budget_pressure_throttles_the_very_next_tick() {
        let sensor = RateSensor { rate: 1.0 };
        let mut l = LoopBuilder::new("spike")
            .with_budget(EnergyBudget::new(1.0))
            .build_full(
                sensor,
                FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
                AlwaysTrust,
                // Huge action keeps the dynamism target at 1 — only the
                // budget ceiling can pull the rate down.
                FnController::new(|_f: &f64, _t, ctx: &mut StageContext| {
                    // One tick burns 90 % of the whole budget.
                    ctx.charge(0.9, 0.0);
                    100.0
                }),
                ActionMagnitudeRate { gain: 1.0 },
            );
        let _ = l.tick(&0.0);
        // Pressure after the spike is ≈0.9 ⇒ ceiling = 1 − 0.9·0.9 ≈ 0.19.
        // The *very next* tick must already sense at the throttled rate.
        assert!(
            l.sensor().rate() < 0.2,
            "rate {} not throttled by the spike tick",
            l.sensor().rate()
        );
    }

    #[test]
    fn telemetry_capacity_flows_through_builder() {
        let mut l = LoopBuilder::new("cap").with_telemetry_capacity(2).build(
            FnSensor::new(|e: &f64, _: &mut StageContext| *e),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|_f: &f64, _t, _: &mut StageContext| 0.0),
        );
        for _ in 0..5 {
            let _ = l.tick(&0.0);
        }
        assert_eq!(l.telemetry().capacity(), 2);
        assert_eq!(l.telemetry().records().count(), 2);
        assert_eq!(l.telemetry().ticks(), 5);
    }

    #[test]
    fn budget_exhaustion_visible() {
        let mut l = LoopBuilder::new("b")
            .with_budget(EnergyBudget::new(5e-3))
            .build(
                FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                    ctx.charge(1e-3, 0.0);
                    *e
                }),
                FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
                FnController::new(|_f: &f64, _t, _: &mut StageContext| 0.0),
            );
        for _ in 0..10 {
            let _ = l.tick(&0.0);
        }
        assert!(l.budget().exhausted());
        assert!((l.budget().consumed_j() - 10e-3).abs() < 1e-12);
    }

    #[test]
    fn tick_attributes_cost_per_stage() {
        let mut l = LoopBuilder::new("attr").build_monitored(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(3e-3, 1e-4);
                *e
            }),
            FnPerceptor::new(|r: &f64, ctx: &mut StageContext| {
                ctx.charge(1e-3, 2e-4);
                *r
            }),
            FnMonitor::new(|_f: &f64, ctx: &mut StageContext| {
                ctx.charge(5e-4, 0.0);
                Trust::Trusted
            }),
            FnController::new(|f: &f64, _t, ctx: &mut StageContext| {
                ctx.charge(2e-3, 5e-5);
                -*f
            }),
        );
        let out = l.tick(&1.0);
        let rec = l.telemetry().records().next().unwrap();
        use crate::trace::StageId::*;
        // Deltas come from ledger subtraction — tolerate ulp-level noise.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(close(rec.stages.get(Sense).energy_j, 3e-3));
        assert!(close(rec.stages.get(Perceive).latency_s, 2e-4));
        assert!(close(rec.stages.get(Monitor).energy_j, 5e-4));
        assert!(close(rec.stages.get(Control).energy_j, 2e-3));
        // Act (consume + no-op adaptation) charges nothing here.
        assert!(close(rec.stages.get(Act).energy_j, 0.0));
        // Breakdown sums to the blended totals.
        assert!((rec.stages.total_energy_j() - out.energy_j).abs() < 1e-15);
        assert!((rec.stages.total_latency_s() - out.latency_s).abs() < 1e-15);
        assert_eq!(l.telemetry().stage_latency(Sense).count(), 1);
    }

    #[test]
    fn traced_loop_emits_one_span_per_stage() {
        let mut l = LoopBuilder::new("traced")
            .with_tracer(Tracer::sim(1.0))
            .build(
                FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                    ctx.charge(1e-3, 1e-4);
                    *e
                }),
                FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
                FnController::new(|f: &f64, _t, _: &mut StageContext| -*f),
            );
        let _ = l.tick(&1.0);
        let _ = l.tick(&2.0);
        assert_eq!(l.tracer().spans().count(), 10); // 5 stages × 2 ticks
        let spans: Vec<_> = l.tracer().spans().copied().collect();
        let stage_order: Vec<StageId> = spans.iter().take(5).map(|s| s.stage).collect();
        assert_eq!(stage_order.as_slice(), StageId::ALL.as_slice());
        assert_eq!(spans[0].tick, 0);
        assert_eq!(spans[0].energy_j, 1e-3);
        assert_eq!(spans[5].tick, 1);
        // SimClock with step 1: span k runs [2k, 2k+1).
        assert_eq!(spans[3].start_s, 6.0);
        assert_eq!(spans[3].end_s, 7.0);
        assert!(spans.iter().all(|s| s.ok));
        // Untraced loop (default) stores no spans but still attributes.
        let drained = l.tracer_mut().take_spans();
        assert_eq!(drained.len(), 10);
        assert_eq!(l.tracer().spans().count(), 0);
    }

    /// A budgeted, monitored loop snapshotted mid-run (budget partly
    /// consumed, ring wrapped, a suspect streak in progress) and restored onto
    /// a freshly built twin must continue bit-identically to the
    /// uninterrupted run.
    #[test]
    fn snapshot_restore_resumes_bit_exactly_mid_run() {
        let build = || {
            LoopBuilder::new("ckpt")
                .with_budget(EnergyBudget::new(1.0))
                .with_telemetry_capacity(16)
                .build_monitored(
                    FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                        ctx.charge(0.02, 1e-4);
                        *e
                    }),
                    FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
                    FnMonitor::new(|f: &f64, _: &mut StageContext| {
                        if f.abs() > 10.0 {
                            Trust::Suspect(0.9)
                        } else {
                            Trust::Trusted
                        }
                    }),
                    FnController::new(|f: &f64, _t, _: &mut StageContext| -0.3 * f),
                )
        };
        let drive =
            |l: &mut SensingActionLoop<_, _, _, _, _>, env: &mut f64, from: u64, to: u64| {
                for i in from..to {
                    // A spike at tick 24 starts a suspect streak; the
                    // snapshot at tick 26 lands inside it.
                    if i == 24 {
                        *env = 50.0;
                    }
                    let out = l.tick(env);
                    *env += out.action;
                }
            };
        let mut env_a = 8.0f64;
        let mut uninterrupted = build();
        drive(&mut uninterrupted, &mut env_a, 0, 40);

        let mut env_b = 8.0f64;
        let mut first = build();
        drive(&mut first, &mut env_b, 0, 26);
        assert!(
            first.telemetry().current_suspect_streak() > 0 && first.budget().pressure() > 0.5,
            "snapshot point must land inside the suspect streak, budget half spent"
        );
        let wire = first.snapshot().to_jsonl();
        drop(first);
        let mut resumed = build();
        resumed
            .restore(&Checkpoint::from_jsonl(&wire).unwrap())
            .unwrap();
        drive(&mut resumed, &mut env_b, 26, 40);

        assert_eq!(env_a.to_bits(), env_b.to_bits(), "trajectories diverged");
        let recs_a: Vec<_> = uninterrupted.telemetry().records().collect();
        let recs_b: Vec<_> = resumed.telemetry().records().collect();
        assert_eq!(recs_a, recs_b);
        assert_eq!(
            uninterrupted.budget().consumed_j().to_bits(),
            resumed.budget().consumed_j().to_bits()
        );
        assert_eq!(
            uninterrupted.telemetry().max_suspect_streak(),
            resumed.telemetry().max_suspect_streak()
        );
    }

    #[test]
    fn loop_name_and_output_ticks() {
        let mut l = LoopBuilder::new("named").build(
            FnSensor::new(|e: &f64, _: &mut StageContext| *e),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|_f: &f64, _t, _: &mut StageContext| 0.0),
        );
        assert_eq!(l.name(), "named");
        assert_eq!(l.tick(&0.0).tick, 0);
        assert_eq!(l.tick(&0.0).tick, 1);
    }
}
