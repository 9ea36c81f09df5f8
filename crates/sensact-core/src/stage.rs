//! Stage traits of a sensing-to-action loop, plus closure adapters.

/// Trust verdict from a [`Monitor`] (STARNet-style) about the current
/// sensing/feature stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trust {
    /// Features match the learned distribution.
    Trusted,
    /// Features deviate; the payload is a suspicion score in `(0, 1]`.
    Suspect(f64),
    /// Features are unusable; the controller should fail safe.
    Untrusted,
}

impl Trust {
    /// Scalar suspicion in `[0, 1]` (0 = fully trusted).
    pub fn suspicion(&self) -> f64 {
        match self {
            Trust::Trusted => 0.0,
            Trust::Suspect(s) => s.clamp(0.0, 1.0),
            Trust::Untrusted => 1.0,
        }
    }

    /// Whether the controller may act on the features at all.
    pub fn is_actionable(&self) -> bool {
        !matches!(self, Trust::Untrusted)
    }

    /// This verdict worsened by `extra` additional suspicion (e.g. staleness
    /// decay while a fallible loop holds its last good features). Saturates
    /// at [`Trust::Untrusted`] once total suspicion reaches 1.
    pub(crate) fn degraded(&self, extra: f64) -> Trust {
        let s = self.suspicion() + extra.max(0.0);
        if s >= 1.0 {
            Trust::Untrusted
        } else if s <= 0.0 {
            Trust::Trusted
        } else {
            Trust::Suspect(s)
        }
    }
}

/// Per-tick cost ledger handed to every stage.
///
/// Stages call [`StageContext::charge`] with the energy (joules) and latency
/// (seconds) they consumed; the loop accumulates these into its budget and
/// telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageContext {
    energy_j: f64,
    latency_s: f64,
}

impl StageContext {
    /// A fresh (zero-cost) context.
    pub fn new() -> Self {
        StageContext::default()
    }

    /// Charge energy (joules) and latency (seconds) to this tick.
    ///
    /// # Panics
    ///
    /// Panics on negative charges.
    pub fn charge(&mut self, energy_j: f64, latency_s: f64) {
        assert!(energy_j >= 0.0 && latency_s >= 0.0, "negative charge");
        self.energy_j += energy_j;
        self.latency_s += latency_s;
    }

    /// Energy charged so far this tick (joules).
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Latency charged so far this tick (seconds).
    pub fn latency_s(&self) -> f64 {
        self.latency_s
    }
}

/// Acquires raw readings from the environment.
pub trait Sensor<E> {
    /// Raw sensor reading type.
    type Reading;
    /// Sense the environment, charging costs to `ctx`.
    fn sense(&mut self, env: &E, ctx: &mut StageContext) -> Self::Reading;
}

/// Extracts features from raw readings (the "learning module" front half).
pub trait Perceptor<R> {
    /// Extracted feature type.
    type Features;
    /// Turn a raw reading into features, charging costs to `ctx`.
    fn perceive(&mut self, reading: &R, ctx: &mut StageContext) -> Self::Features;
}

/// Assesses feature trustworthiness (the STARNet role, §V).
pub trait Monitor<F> {
    /// Produce a trust verdict for the current features.
    fn assess(&mut self, features: &F, ctx: &mut StageContext) -> Trust;
}

/// Maps features (and trust) to an action.
pub trait Controller<F> {
    /// Action type delivered to the actuator/environment.
    type Action;
    /// Decide an action, charging costs to `ctx`.
    fn decide(&mut self, features: &F, trust: Trust, ctx: &mut StageContext) -> Self::Action;
}

/// A monitor that always trusts — the default when no reliability layer is
/// installed.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysTrust;

impl<F> Monitor<F> for AlwaysTrust {
    fn assess(&mut self, _features: &F, _ctx: &mut StageContext) -> Trust {
        Trust::Trusted
    }
}

/// Closure adapter implementing [`Sensor`].
pub struct FnSensor<F>(F);

impl<F> FnSensor<F> {
    /// Wrap a closure `(env, ctx) -> reading`.
    pub fn new(f: F) -> Self {
        FnSensor(f)
    }
}

impl<E, R, F: FnMut(&E, &mut StageContext) -> R> Sensor<E> for FnSensor<F> {
    type Reading = R;
    fn sense(&mut self, env: &E, ctx: &mut StageContext) -> R {
        (self.0)(env, ctx)
    }
}

/// Closure adapter implementing [`Perceptor`].
pub struct FnPerceptor<F>(F);

impl<F> FnPerceptor<F> {
    /// Wrap a closure `(reading, ctx) -> features`.
    pub fn new(f: F) -> Self {
        FnPerceptor(f)
    }
}

impl<R, O, F: FnMut(&R, &mut StageContext) -> O> Perceptor<R> for FnPerceptor<F> {
    type Features = O;
    fn perceive(&mut self, reading: &R, ctx: &mut StageContext) -> O {
        (self.0)(reading, ctx)
    }
}

/// Closure adapter implementing [`Monitor`].
pub struct FnMonitor<F>(F);

impl<F> FnMonitor<F> {
    /// Wrap a closure `(features, ctx) -> Trust`.
    pub fn new(f: F) -> Self {
        FnMonitor(f)
    }
}

impl<Feat, F: FnMut(&Feat, &mut StageContext) -> Trust> Monitor<Feat> for FnMonitor<F> {
    fn assess(&mut self, features: &Feat, ctx: &mut StageContext) -> Trust {
        (self.0)(features, ctx)
    }
}

/// Closure adapter implementing [`Controller`].
pub struct FnController<F>(F);

impl<F> FnController<F> {
    /// Wrap a closure `(features, trust, ctx) -> action`.
    pub fn new(f: F) -> Self {
        FnController(f)
    }
}

impl<Feat, A, F: FnMut(&Feat, Trust, &mut StageContext) -> A> Controller<Feat> for FnController<F> {
    type Action = A;
    fn decide(&mut self, features: &Feat, trust: Trust, ctx: &mut StageContext) -> A {
        (self.0)(features, trust, ctx)
    }
}

// Stateless stages participate in checkpointing with the no-op defaults.
// Closure adapters are declared stateless by contract: a capture that *does*
// mutate across ticks will surface as a named `Divergence` in replay-after-
// restore — the checkpoint layer's intended bug detector.
impl crate::checkpoint::StageState for AlwaysTrust {}
impl<F> crate::checkpoint::StageState for FnSensor<F> {}
impl<F> crate::checkpoint::StageState for FnPerceptor<F> {}
impl<F> crate::checkpoint::StageState for FnMonitor<F> {}
impl<F> crate::checkpoint::StageState for FnController<F> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trust_suspicion_scale() {
        assert_eq!(Trust::Trusted.suspicion(), 0.0);
        assert_eq!(Trust::Untrusted.suspicion(), 1.0);
        assert_eq!(Trust::Suspect(0.4).suspicion(), 0.4);
        assert_eq!(Trust::Suspect(7.0).suspicion(), 1.0);
        assert!(Trust::Trusted.is_actionable());
        assert!(Trust::Suspect(0.9).is_actionable());
        assert!(!Trust::Untrusted.is_actionable());
    }

    #[test]
    fn trust_degrades_and_saturates() {
        assert_eq!(Trust::Trusted.degraded(0.0), Trust::Trusted);
        assert_eq!(Trust::Trusted.degraded(0.3), Trust::Suspect(0.3));
        assert_eq!(Trust::Suspect(0.5).degraded(0.25), Trust::Suspect(0.75));
        assert_eq!(Trust::Suspect(0.5).degraded(0.6), Trust::Untrusted);
        assert_eq!(Trust::Untrusted.degraded(0.0), Trust::Untrusted);
        // Negative extra never improves a verdict.
        assert_eq!(Trust::Suspect(0.5).degraded(-1.0), Trust::Suspect(0.5));
    }

    #[test]
    fn context_accumulates_charges() {
        let mut ctx = StageContext::new();
        ctx.charge(1e-3, 0.01);
        ctx.charge(2e-3, 0.02);
        assert!((ctx.energy_j() - 3e-3).abs() < 1e-15);
        assert!((ctx.latency_s() - 0.03).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "negative charge")]
    fn negative_charge_panics() {
        StageContext::new().charge(-1.0, 0.0);
    }

    #[test]
    fn closure_adapters_compose() {
        let mut sensor = FnSensor::new(|env: &i32, ctx: &mut StageContext| {
            ctx.charge(1e-6, 1e-5);
            *env * 2
        });
        let mut perceptor = FnPerceptor::new(|r: &i32, _: &mut StageContext| *r as f64);
        let mut monitor = FnMonitor::new(|f: &f64, _: &mut StageContext| {
            if *f > 100.0 {
                Trust::Untrusted
            } else {
                Trust::Trusted
            }
        });
        let mut controller = FnController::new(
            |f: &f64, t: Trust, _: &mut StageContext| {
                if t.is_actionable() {
                    -f
                } else {
                    0.0
                }
            },
        );

        let mut ctx = StageContext::new();
        let r = sensor.sense(&21, &mut ctx);
        let f = perceptor.perceive(&r, &mut ctx);
        let t = monitor.assess(&f, &mut ctx);
        let a = controller.decide(&f, t, &mut ctx);
        assert_eq!(a, -42.0);
        assert!(ctx.energy_j() > 0.0);

        // Untrusted path fails safe.
        let f_big = 1000.0;
        let t2 = monitor.assess(&f_big, &mut ctx);
        let a2 = controller.decide(&f_big, t2, &mut ctx);
        assert_eq!(a2, 0.0);
    }

    #[test]
    fn always_trust_is_trusted() {
        let mut m = AlwaysTrust;
        let mut ctx = StageContext::new();
        assert_eq!(
            Monitor::<f64>::assess(&mut m, &1.0, &mut ctx),
            Trust::Trusted
        );
    }
}
