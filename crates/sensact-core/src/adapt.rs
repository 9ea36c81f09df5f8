//! Action-to-sensing adaptation policies (paper §IV).
//!
//! The reverse pathway of the loop: after each decision, a policy may retune
//! the sensor. The policies here operate through the [`SensingKnobs`] trait —
//! a normalized rate knob in `[0, 1]` that concrete sensors map to duty
//! cycle, masking ratio, beam count, etc.

use crate::budget::EnergyBudget;
use crate::stage::Trust;

/// Normalized tuning knobs a sensor exposes to adaptation policies.
pub trait SensingKnobs {
    /// Current sensing rate in `[0, 1]` (1 = full duty cycle).
    fn rate(&self) -> f64;
    /// Set the sensing rate; implementations clamp to `[0, 1]`.
    fn set_rate(&mut self, rate: f64);
}

/// A policy that retunes the sensor after each control decision.
pub(crate) trait AdaptationPolicy<S, A> {
    /// Adjust `sensor` given the last action, the monitor verdict and budget
    /// state.
    fn adapt(&mut self, sensor: &mut S, action: &A, trust: Trust, budget: &EnergyBudget);
}

/// The identity policy: no adaptation (plain feed-forward loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdaptation;

impl<S, A> AdaptationPolicy<S, A> for NoAdaptation {
    fn adapt(&mut self, _s: &mut S, _a: &A, _t: Trust, _b: &EnergyBudget) {}
}

/// Action magnitude treated as "fully dynamic" (maps to rate 1).
const SATURATION: f64 = 1.0;
/// Rate floor when the environment is quiet.
const IDLE_RATE: f64 = 0.1;

/// Rate adaptation driven by action magnitude (the paper's "adjust sampling
/// rates in response to environmental changes"):
///
/// * large actions → the scene is dynamic → raise the rate toward 1;
/// * small actions → steady state → decay the rate toward the idle rate
///   (0.1);
/// * distrusted sensing → raise the rate (gather more evidence);
/// * budget pressure scales the ceiling down.
#[derive(Debug, Clone, Copy)]
pub struct ActionMagnitudeRate {
    /// Exponential smoothing factor in `(0, 1]` (1 = jump immediately).
    pub gain: f64,
}

impl Default for ActionMagnitudeRate {
    fn default() -> Self {
        ActionMagnitudeRate { gain: 0.5 }
    }
}

/// Actions that expose a magnitude for rate adaptation.
pub(crate) trait ActionMagnitude {
    /// Non-negative size of the action.
    fn magnitude(&self) -> f64;
}

impl ActionMagnitude for f64 {
    fn magnitude(&self) -> f64 {
        self.abs()
    }
}

impl ActionMagnitude for Vec<f64> {
    fn magnitude(&self) -> f64 {
        self.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl<S: SensingKnobs, A: ActionMagnitude> AdaptationPolicy<S, A> for ActionMagnitudeRate {
    fn adapt(&mut self, sensor: &mut S, action: &A, trust: Trust, budget: &EnergyBudget) {
        let dynamism = (action.magnitude() / SATURATION).clamp(0.0, 1.0);
        let evidence_need = trust.suspicion();
        let mut target = IDLE_RATE.max(dynamism.max(evidence_need));
        // Budget pressure lowers the ceiling linearly down to the idle rate.
        let ceiling = 1.0 - (1.0 - IDLE_RATE) * budget.pressure();
        target = target.min(ceiling);
        let new_rate = sensor.rate() + self.gain * (target - sensor.rate());
        sensor.set_rate(new_rate);
    }
}

// The shipped adaptation policies are pure configuration (the mutable knobs
// live in the sensor they steer), so they checkpoint with the no-op defaults.
impl crate::checkpoint::StageState for NoAdaptation {}
impl crate::checkpoint::StageState for ActionMagnitudeRate {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct KnobSensor {
        rate: f64,
    }

    impl Default for KnobSensor {
        fn default() -> Self {
            KnobSensor { rate: 1.0 }
        }
    }

    impl SensingKnobs for KnobSensor {
        fn rate(&self) -> f64 {
            self.rate
        }
        fn set_rate(&mut self, r: f64) {
            self.rate = r.clamp(0.0, 1.0);
        }
    }

    #[test]
    fn quiet_environment_decays_rate() {
        let mut s = KnobSensor::default();
        let mut p = ActionMagnitudeRate::default();
        let b = EnergyBudget::unlimited();
        for _ in 0..50 {
            p.adapt(&mut s, &0.0f64, Trust::Trusted, &b);
        }
        assert!((s.rate() - 0.1).abs() < 1e-6, "rate {}", s.rate());
    }

    #[test]
    fn dynamic_environment_raises_rate() {
        let mut s = KnobSensor::default();
        s.set_rate(0.1);
        let mut p = ActionMagnitudeRate::default();
        let b = EnergyBudget::unlimited();
        for _ in 0..50 {
            p.adapt(&mut s, &5.0f64, Trust::Trusted, &b);
        }
        assert!(s.rate() > 0.95, "rate {}", s.rate());
    }

    #[test]
    fn suspicion_raises_rate_even_when_quiet() {
        let mut s = KnobSensor::default();
        s.set_rate(0.1);
        let mut p = ActionMagnitudeRate::default();
        let b = EnergyBudget::unlimited();
        for _ in 0..50 {
            p.adapt(&mut s, &0.0f64, Trust::Suspect(0.8), &b);
        }
        assert!(s.rate() > 0.7, "rate {}", s.rate());
    }

    #[test]
    fn budget_pressure_caps_rate() {
        let mut s = KnobSensor::default();
        let mut p = ActionMagnitudeRate::default();
        let mut b = EnergyBudget::new(10.0);
        b.consume(9.0); // 90 % pressure
        for _ in 0..50 {
            p.adapt(&mut s, &10.0f64, Trust::Trusted, &b);
        }
        // Ceiling = 1 - 0.9*0.9 = 0.19.
        assert!(s.rate() < 0.25, "rate {}", s.rate());
    }

    #[test]
    fn vector_action_magnitude() {
        assert_eq!(vec![3.0, 4.0].magnitude(), 5.0);
        assert_eq!((-2.0f64).magnitude(), 2.0);
    }

    #[test]
    fn no_adaptation_leaves_sensor_alone() {
        let mut s = KnobSensor::default();
        let mut p = NoAdaptation;
        p.adapt(
            &mut s,
            &100.0f64,
            Trust::Untrusted,
            &EnergyBudget::unlimited(),
        );
        assert_eq!(s.rate(), 1.0);
    }
}
