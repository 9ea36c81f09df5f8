//! Runtime mixed-precision mode (the paper's §VII per-stage precision knob).
//!
//! Precision is a first-class runtime mode, not a build-time choice: every
//! tick the loop runner asks its [`PrecisionGovernor`] which numeric mode to
//! compute at, stamps it into the tick's
//! [`StageContext`](crate::stage::StageContext), and records the decision in
//! [`TickRecord`](crate::telemetry::TickRecord) so record/replay stays
//! deterministic.
//!
//! The governor composes three signals:
//!
//! 1. **Budget pressure** (local): the loop's
//!    [`EnergyBudget::pressure`](crate::budget::EnergyBudget::pressure) in
//!    `[0, 1]` is mapped through the [`PrecisionPolicy`] thresholds — high
//!    pressure drops perception to f32, then int8.
//! 2. **Scheduler hint** (fleet): the energy arbiter may recommend a
//!    cheaper mode fleet-wide; the effective mode is the cheaper of the
//!    local policy's choice and the hint.
//! 3. **Trust drift** (safety): when the STARNet-style monitor reports
//!    suspicion at or above the drift threshold, the governor forces full
//!    f64 for `hold_ticks` ticks — accuracy is restored before economy
//!    resumes.
//!
//! All three signals are deterministic functions of the simulated run, so a
//! replay with the same seed reproduces the same precision schedule
//! bit-exactly.

pub use sensact_math::kernels::Precision;

use crate::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use crate::stage::Trust;
use sensact_math::simd;

/// Threshold policy mapping budget pressure to a [`Precision`] mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionPolicy {
    /// Pressure at or above which perception drops to f32.
    pub f32_pressure: f64,
    /// Pressure at or above which perception drops to int8.
    pub int8_pressure: f64,
    /// Monitor suspicion at or above which the governor forces f64.
    pub drift_threshold: f64,
    /// Ticks of forced f64 after a drift flag (hysteresis, so trust
    /// flapping cannot oscillate the mode every tick).
    pub hold_ticks: u32,
}

impl Default for PrecisionPolicy {
    fn default() -> Self {
        PrecisionPolicy::adaptive(0.5, 0.85)
    }
}

impl PrecisionPolicy {
    /// Adaptive policy: f64 below `f32_at` pressure, f32 in
    /// `[f32_at, int8_at)`, int8 at or above `int8_at`. Drift threshold
    /// defaults to `0.5` suspicion with an 8-tick f64 hold.
    pub fn adaptive(f32_at: f64, int8_at: f64) -> Self {
        PrecisionPolicy {
            f32_pressure: f32_at,
            int8_pressure: int8_at,
            drift_threshold: 0.5,
            hold_ticks: 8,
        }
    }

    /// Policy pinned to one mode regardless of pressure (drift still forces
    /// f64).
    pub fn fixed(mode: Precision) -> Self {
        let (f32_at, int8_at) = match mode {
            Precision::F64 => (f64::INFINITY, f64::INFINITY),
            Precision::F32 => (0.0, f64::INFINITY),
            Precision::Int8 => (0.0, 0.0),
        };
        PrecisionPolicy {
            f32_pressure: f32_at,
            int8_pressure: int8_at,
            drift_threshold: 0.5,
            hold_ticks: 8,
        }
    }

    /// Same policy with a different drift threshold.
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold;
        self
    }

    /// Same policy with a different forced-f64 hold length.
    pub fn with_hold_ticks(mut self, ticks: u32) -> Self {
        self.hold_ticks = ticks;
        self
    }

    /// The mode this policy selects at a given budget pressure.
    pub fn for_pressure(&self, pressure: f64) -> Precision {
        if pressure >= self.int8_pressure {
            Precision::Int8
        } else if pressure >= self.f32_pressure {
            Precision::F32
        } else {
            Precision::F64
        }
    }
}

/// Per-loop precision decision state consulted by the loop runners each
/// tick.
///
/// A disabled governor (the default) always answers [`Precision::F64`] and
/// ignores hints — existing loops behave exactly as before the
/// mixed-precision mode existed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrecisionGovernor {
    policy: Option<PrecisionPolicy>,
    hint: Option<Precision>,
    hold: u32,
    current: Precision,
}

impl PrecisionGovernor {
    /// A governor that always stays at f64 (mixed precision off).
    pub fn disabled() -> Self {
        PrecisionGovernor::default()
    }

    /// A governor driving the given policy.
    pub fn new(policy: PrecisionPolicy) -> Self {
        PrecisionGovernor {
            policy: Some(policy),
            hint: None,
            hold: 0,
            current: Precision::F64,
        }
    }

    /// Whether a policy is installed.
    pub fn is_enabled(&self) -> bool {
        self.policy.is_some()
    }

    /// Install or clear a fleet-level hint (e.g. from the scheduler's
    /// energy arbiter). The effective mode is the cheaper of the local
    /// policy's choice and this hint; a disabled governor ignores it.
    pub fn set_hint(&mut self, hint: Option<Precision>) {
        self.hint = hint;
    }

    /// Feed the monitor's verdict back into the governor (call after the
    /// monitor stage). Suspicion at or above the policy's drift threshold
    /// arms the forced-f64 hold starting next tick.
    pub fn observe_trust(&mut self, trust: Trust) {
        if let Some(policy) = &self.policy {
            if trust.suspicion() >= policy.drift_threshold {
                self.hold = policy.hold_ticks.max(1);
            }
        }
    }

    /// Decide this tick's precision from the loop's budget pressure (call
    /// before the sense stage). Trust-drift holds override everything;
    /// otherwise the cheaper of the policy's pressure mapping and the
    /// scheduler hint wins.
    pub fn decide(&mut self, pressure: f64) -> Precision {
        let Some(policy) = &self.policy else {
            self.current = Precision::F64;
            return self.current;
        };
        if self.hold > 0 {
            self.hold -= 1;
            self.current = Precision::F64;
            return self.current;
        }
        let mut mode = policy.for_pressure(pressure);
        if let Some(hint) = self.hint {
            mode = mode.cheaper_of(hint);
        }
        self.current = mode;
        self.current
    }

    /// The mode most recently decided (f64 before the first tick).
    pub fn current(&self) -> Precision {
        self.current
    }

    /// Whether a trust-drift hold is forcing f64 for upcoming ticks.
    pub fn holding(&self) -> bool {
        self.hold > 0
    }
}

fn rank_to_precision(rank: u64) -> Option<Precision> {
    Precision::ALL.into_iter().find(|p| p.rank() as u64 == rank)
}

impl StageState for PrecisionGovernor {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        // The policy is construction-time config; only the runtime decision
        // state travels. `hold` is the load-bearing field: dropping it lets
        // a restored loop cheapen to f32 one tick early, diverging the
        // recorded precision schedule mid-hold.
        s.put_u64("hold", self.hold as u64);
        s.put_u64("current", self.current.rank() as u64);
        s.put_bool("hint_some", self.hint.is_some());
        s.put_u64("hint", self.hint.unwrap_or(Precision::F64).rank() as u64);
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        let bad = |key: &str| CheckpointError::BadValue(format!("{ns}.{key}"));
        self.hold = u32::try_from(s.get_u64("hold")?).map_err(|_| bad("hold"))?;
        self.current = rank_to_precision(s.get_u64("current")?).ok_or_else(|| bad("current"))?;
        self.hint = if s.get_bool("hint_some")? {
            Some(rank_to_precision(s.get_u64("hint")?).ok_or_else(|| bad("hint"))?)
        } else {
            None
        };
        Ok(())
    }
}

/// Record the host's CPU feature detection into a metrics registry as
/// gauges (`1.0` = available), so benches and exported telemetry are
/// attributable to the ISA path the kernels actually took.
pub fn export_cpu_features(metrics: &mut crate::metrics::MetricsRegistry) {
    let f = simd::cpu_features();
    metrics.set("cpu.avx2", f.avx2 as u8 as f64);
    metrics.set("cpu.fma", f.fma as u8 as f64);
    metrics.set("cpu.sse2", f.sse2 as u8 as f64);
    metrics.set("cpu.forced_scalar", f.forced_scalar as u8 as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_governor_always_answers_f64() {
        let mut g = PrecisionGovernor::disabled();
        assert!(!g.is_enabled());
        g.set_hint(Some(Precision::Int8));
        g.observe_trust(Trust::Untrusted);
        for pressure in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(g.decide(pressure), Precision::F64);
        }
    }

    #[test]
    fn policy_thresholds_map_pressure_to_modes() {
        let p = PrecisionPolicy::adaptive(0.4, 0.8);
        assert_eq!(p.for_pressure(0.0), Precision::F64);
        assert_eq!(p.for_pressure(0.39), Precision::F64);
        assert_eq!(p.for_pressure(0.4), Precision::F32);
        assert_eq!(p.for_pressure(0.79), Precision::F32);
        assert_eq!(p.for_pressure(0.8), Precision::Int8);
        assert_eq!(p.for_pressure(1.0), Precision::Int8);
    }

    #[test]
    fn fixed_policies_ignore_pressure() {
        for mode in Precision::ALL {
            let p = PrecisionPolicy::fixed(mode);
            for pressure in [0.0, 0.5, 1.0] {
                assert_eq!(p.for_pressure(pressure), mode, "{mode} at {pressure}");
            }
        }
    }

    #[test]
    fn drift_flag_forces_f64_for_hold_ticks_then_releases() {
        let mut g = PrecisionGovernor::new(PrecisionPolicy::adaptive(0.1, 0.9).with_hold_ticks(3));
        assert_eq!(g.decide(0.5), Precision::F32);
        g.observe_trust(Trust::Suspect(0.7));
        for i in 0..3 {
            assert_eq!(g.decide(0.5), Precision::F64, "hold tick {i}");
        }
        assert_eq!(g.decide(0.5), Precision::F32, "hold released");
        // Benign trust never arms the hold.
        g.observe_trust(Trust::Suspect(0.2));
        assert_eq!(g.decide(0.5), Precision::F32);
    }

    #[test]
    fn hint_can_only_cheapen_the_policy_choice() {
        let mut g = PrecisionGovernor::new(PrecisionPolicy::adaptive(0.5, 0.9));
        g.set_hint(Some(Precision::Int8));
        assert_eq!(g.decide(0.0), Precision::Int8, "hint cheapens f64");
        g.set_hint(Some(Precision::F64));
        assert_eq!(g.decide(0.6), Precision::F32, "hint cannot raise precision");
        g.set_hint(None);
        assert_eq!(g.decide(0.6), Precision::F32);
        assert_eq!(g.current(), Precision::F32);
    }

    /// Regression (hidden-state sweep): a governor snapshotted mid-hold must
    /// resume with the remaining hold ticks intact — without `hold` in the
    /// checkpoint, the restored governor cheapens to f32 one tick early.
    #[test]
    fn checkpoint_carries_hold_through_restore() {
        use crate::checkpoint::Checkpoint;
        let policy = PrecisionPolicy::adaptive(0.1, 0.9).with_hold_ticks(4);
        let mut live = PrecisionGovernor::new(policy);
        assert_eq!(live.decide(0.5), Precision::F32);
        live.observe_trust(Trust::Suspect(0.9)); // arm the 4-tick hold
        assert_eq!(live.decide(0.5), Precision::F64); // 3 hold ticks remain
        live.set_hint(Some(Precision::Int8));

        let mut ckpt = Checkpoint::new("g");
        live.save_state(&mut ckpt, "governor");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).expect("parses");
        // Restore onto an identically-constructed (fresh) governor.
        let mut restored = PrecisionGovernor::new(policy);
        restored.restore_state(&ckpt, "governor").expect("restores");
        assert_eq!(restored, live, "full decision state must round-trip");

        // Both schedules must agree tick for tick across the hold release.
        for tick in 0..6 {
            assert_eq!(live.decide(0.5), restored.decide(0.5), "tick {tick}");
        }
        // The released schedule honors the restored hint (int8 cheapening).
        assert_eq!(restored.current(), Precision::Int8);
    }

    #[test]
    fn checkpoint_rejects_corrupt_precision_ranks() {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let mut ckpt = Checkpoint::new("g");
        PrecisionGovernor::new(PrecisionPolicy::default()).save_state(&mut ckpt, "governor");
        let doc = ckpt
            .to_jsonl()
            .replace("\"current\":\"u:0\"", "\"current\":\"u:9\"");
        let ckpt = Checkpoint::from_jsonl(&doc).expect("parses");
        let mut g = PrecisionGovernor::new(PrecisionPolicy::default());
        assert!(matches!(
            g.restore_state(&ckpt, "governor"),
            Err(CheckpointError::BadValue(_))
        ));
        // A hold past `u32` is refused, not truncated.
        let mut ckpt = Checkpoint::new("g");
        g.save_state(&mut ckpt, "governor");
        let mut wide = ckpt.section("governor").unwrap().clone();
        wide.put_u64("hold", u32::MAX as u64 + 1);
        ckpt.push(wide);
        assert_eq!(
            g.restore_state(&ckpt, "governor"),
            Err(CheckpointError::BadValue("governor.hold".into()))
        );
    }

    #[test]
    fn cpu_feature_gauges_are_exported() {
        let mut m = crate::metrics::MetricsRegistry::new();
        export_cpu_features(&mut m);
        for key in ["cpu.avx2", "cpu.fma", "cpu.sse2", "cpu.forced_scalar"] {
            let v = m.gauge(key).expect("gauge present");
            assert!(v == 0.0 || v == 1.0, "{key} = {v}");
        }
    }
}
