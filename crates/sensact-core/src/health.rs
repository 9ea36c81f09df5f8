//! Fleet health / SLO scoring with hysteresis.
//!
//! The paper's robustness argument (§V) is that an edge fleet must *notice*
//! when a loop degrades — a miss storm, a straggler link, a drifting
//! monitor — and react before the failure cascades. This module turns the
//! raw signals the scheduler and network already count (deadline-miss rate,
//! backpressure drops, trust drift, staleness, retransmits) into a small
//! state machine:
//!
//! * [`HealthSignals`] — the normalized per-loop inputs;
//! * [`classify`] — the worst signal against fixed degraded/critical
//!   thresholds, one window at a time;
//! * [`HealthScorer`] — per-loop scorer with *hysteresis*: a state change
//!   must be observed for 2 (worsening) or 3 (recovering) consecutive
//!   evaluations before it is reported, so one noisy window never flaps the
//!   fleet state;
//! * [`FleetHealth`] — the fleet-level rollup of per-loop statuses.
//!
//! The thresholds, hysteresis depths and fleet fractions are constants:
//! every loop in the stack is scored under the same policy.
//!
//! Transitions are reported back to the caller so they can be recorded as
//! [`SpanKind::Health`](crate::trace::SpanKind) spans in the trace stream —
//! health state changes are events with causes, and belong in the same
//! timeline as the ticks and messages that produced them.

/// A loop's (or the fleet's) health state, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum HealthStatus {
    /// All signals under their degraded thresholds.
    #[default]
    Healthy,
    /// At least one signal at or above its degraded threshold.
    Degraded,
    /// At least one signal at or above its critical threshold.
    Critical,
}

impl HealthStatus {
    /// All statuses, benign first.
    #[cfg(test)]
    pub(crate) const ALL: [HealthStatus; 3] = [
        HealthStatus::Healthy,
        HealthStatus::Degraded,
        HealthStatus::Critical,
    ];

    /// Short static name used in exports (`"healthy"`, …).
    pub(crate) const fn name(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }

    /// Stable numeric code (0 healthy, 1 degraded, 2 critical).
    pub const fn code(self) -> u64 {
        match self {
            HealthStatus::Healthy => 0,
            HealthStatus::Degraded => 1,
            HealthStatus::Critical => 2,
        }
    }

    /// Inverse of [`HealthStatus::code`].
    pub(crate) const fn from_code(code: u64) -> Option<HealthStatus> {
        match code {
            0 => Some(HealthStatus::Healthy),
            1 => Some(HealthStatus::Degraded),
            2 => Some(HealthStatus::Critical),
            _ => None,
        }
    }
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Encode a health transition into a span `detail` payload.
pub const fn encode_transition(from: HealthStatus, to: HealthStatus) -> u64 {
    (from.code() << 8) | to.code()
}

/// Decode a span `detail` payload back into a health transition.
pub const fn decode_transition(detail: u64) -> Option<(HealthStatus, HealthStatus)> {
    match (
        HealthStatus::from_code(detail >> 8),
        HealthStatus::from_code(detail & 0xFF),
    ) {
        (Some(f), Some(t)) => Some((f, t)),
        _ => None,
    }
}

/// Normalized health inputs for one evaluation window.
///
/// All rates are fractions of opportunities in the window (0 = clean);
/// `staleness` is the completion lag in units of the loop's period (1.0 =
/// one full period late); `trust_drift` is the fraction of ticks whose
/// monitor verdict was suspect or worse.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthSignals {
    /// Deadline misses / releases.
    pub miss_rate: f64,
    /// Backpressure-dropped releases / releases.
    pub drop_rate: f64,
    /// Suspect-or-worse ticks / ticks.
    pub trust_drift: f64,
    /// Completion lag in periods (0 = on time).
    pub staleness: f64,
    /// Network retransmissions / messages sent.
    pub retransmit_rate: f64,
}

impl HealthSignals {
    /// `(name, value)` pairs in declaration order, for reports.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> {
        [
            ("miss_rate", self.miss_rate),
            ("drop_rate", self.drop_rate),
            ("trust_drift", self.trust_drift),
            ("staleness", self.staleness),
            ("retransmit_rate", self.retransmit_rate),
        ]
        .into_iter()
    }
}

/// Per-signal values at or above which a loop is degraded.
const DEGRADED: HealthSignals = HealthSignals {
    miss_rate: 0.05,
    drop_rate: 0.02,
    trust_drift: 0.20,
    staleness: 2.0,
    retransmit_rate: 0.15,
};

/// Per-signal values at or above which a loop is critical.
const CRITICAL: HealthSignals = HealthSignals {
    miss_rate: 0.25,
    drop_rate: 0.15,
    trust_drift: 0.50,
    staleness: 5.0,
    retransmit_rate: 0.50,
};

/// Consecutive worsening evaluations before a downgrade is reported.
const TRIP: u32 = 2;

/// Consecutive recovering evaluations before an upgrade is reported.
const CLEAR: u32 = 3;

/// The fleet is critical when at least this fraction of loops is critical.
const FLEET_CRITICAL_FRAC: f64 = 0.10;

/// The fleet is degraded when at least this fraction of loops is not healthy.
const FLEET_DEGRADED_FRAC: f64 = 0.25;

/// Instantaneous (hysteresis-free) classification of one window: the worst
/// signal against the inclusive degraded and critical thresholds.
pub fn classify(s: &HealthSignals) -> HealthStatus {
    let mut worst = HealthStatus::Healthy;
    for ((_, v), ((_, deg), (_, crit))) in s.iter().zip(DEGRADED.iter().zip(CRITICAL.iter())) {
        let status = if v >= crit {
            HealthStatus::Critical
        } else if v >= deg {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        };
        worst = worst.max(status);
    }
    worst
}

/// Per-loop health state machine with hysteresis.
#[derive(Debug, Clone, Default)]
pub struct HealthScorer {
    status: HealthStatus,
    candidate: HealthStatus,
    streak: u32,
}

impl HealthScorer {
    /// Evaluate one window. Returns `Some((from, to))` when the filtered
    /// status transitions — after 2 consecutive worsening windows or 3
    /// consecutive recovering ones.
    pub fn observe(&mut self, signals: &HealthSignals) -> Option<(HealthStatus, HealthStatus)> {
        let raw = classify(signals);
        if raw == self.status {
            // Back in agreement: any pending candidate streak dissolves.
            self.candidate = self.status;
            self.streak = 0;
            return None;
        }
        if raw == self.candidate {
            self.streak += 1;
        } else {
            self.candidate = raw;
            self.streak = 1;
        }
        let needed = if raw > self.status { TRIP } else { CLEAR };
        if self.streak >= needed {
            let from = self.status;
            self.status = raw;
            self.streak = 0;
            return Some((from, raw));
        }
        None
    }
}

/// Fleet-level rollup of per-loop health statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetHealth {
    /// Loops currently healthy.
    pub healthy: usize,
    /// Loops currently degraded.
    pub degraded: usize,
    /// Loops currently critical.
    pub critical: usize,
    /// The rolled-up fleet status.
    pub status: HealthStatus,
}

impl FleetHealth {
    /// Roll up per-loop statuses: the fleet is critical when ≥ 10 % of loops
    /// are critical, degraded when ≥ 25 % are non-healthy (or any loop is
    /// critical), healthy otherwise. An empty fleet is healthy.
    pub fn roll_up(statuses: impl IntoIterator<Item = HealthStatus>) -> Self {
        let mut h = FleetHealth::default();
        for s in statuses {
            match s {
                HealthStatus::Healthy => h.healthy += 1,
                HealthStatus::Degraded => h.degraded += 1,
                HealthStatus::Critical => h.critical += 1,
            }
        }
        let total = h.healthy + h.degraded + h.critical;
        h.status = if total == 0 {
            HealthStatus::Healthy
        } else {
            let critical_frac = h.critical as f64 / total as f64;
            let unhealthy_frac = (h.degraded + h.critical) as f64 / total as f64;
            if critical_frac >= FLEET_CRITICAL_FRAC {
                HealthStatus::Critical
            } else if h.critical > 0 || unhealthy_frac >= FLEET_DEGRADED_FRAC {
                HealthStatus::Degraded
            } else {
                HealthStatus::Healthy
            }
        };
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> HealthSignals {
        HealthSignals::default()
    }

    fn missy(rate: f64) -> HealthSignals {
        HealthSignals {
            miss_rate: rate,
            ..HealthSignals::default()
        }
    }

    #[test]
    fn status_names_codes_round_trip() {
        for s in HealthStatus::ALL {
            assert_eq!(HealthStatus::from_code(s.code()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(HealthStatus::from_code(9), None);
        assert!(HealthStatus::Healthy < HealthStatus::Degraded);
        assert!(HealthStatus::Degraded < HealthStatus::Critical);
    }

    #[test]
    fn transition_encoding_round_trips() {
        for from in HealthStatus::ALL {
            for to in HealthStatus::ALL {
                let d = encode_transition(from, to);
                assert_eq!(decode_transition(d), Some((from, to)));
            }
        }
        assert_eq!(decode_transition(0xFFFF), None);
    }

    #[test]
    fn classify_takes_the_worst_signal() {
        assert_eq!(classify(&clean()), HealthStatus::Healthy);
        assert_eq!(classify(&missy(0.05)), HealthStatus::Degraded);
        assert_eq!(classify(&missy(0.25)), HealthStatus::Critical);
        let mixed = HealthSignals {
            miss_rate: 0.06,      // degraded
            retransmit_rate: 0.9, // critical
            ..HealthSignals::default()
        };
        assert_eq!(classify(&mixed), HealthStatus::Critical);
        // Thresholds are inclusive.
        assert_eq!(classify(&missy(0.049)), HealthStatus::Healthy);
    }

    #[test]
    fn hysteresis_filters_one_bad_window() {
        let mut sc = HealthScorer::default();
        // One bad window: no transition yet.
        assert_eq!(sc.observe(&missy(0.3)), None);
        assert_eq!(sc.status, HealthStatus::Healthy);
        // A clean window dissolves the streak.
        assert_eq!(sc.observe(&clean()), None);
        assert_eq!(sc.observe(&missy(0.3)), None);
        // Second *consecutive* bad window trips it.
        assert_eq!(
            sc.observe(&missy(0.3)),
            Some((HealthStatus::Healthy, HealthStatus::Critical))
        );
        assert_eq!(sc.status, HealthStatus::Critical);
        // Recovery needs 3 consecutive clean windows.
        assert_eq!(sc.observe(&clean()), None);
        assert_eq!(sc.observe(&clean()), None);
        assert_eq!(
            sc.observe(&clean()),
            Some((HealthStatus::Critical, HealthStatus::Healthy))
        );
        assert_eq!(sc.status, HealthStatus::Healthy);
    }

    /// The hysteresis depths are fixed: a downgrade is reported on exactly
    /// the 2nd consecutive worse window of each severity, an upgrade on
    /// exactly the 3rd consecutive better one.
    #[test]
    fn hysteresis_is_two_windows_down_and_three_up() {
        use HealthStatus::{Critical, Degraded, Healthy};
        let steps = [
            (missy(0.06), Healthy, Degraded, 2),
            (missy(0.3), Degraded, Critical, 2),
            (missy(0.06), Critical, Degraded, 3),
            (clean(), Degraded, Healthy, 3),
        ];
        let mut sc = HealthScorer::default();
        for (window, from, to, depth) in steps {
            for n in 1..depth {
                assert_eq!(sc.observe(&window), None, "{from} -> {to}, window {n}");
                assert_eq!(sc.status, from);
            }
            assert_eq!(sc.observe(&window), Some((from, to)), "{from} -> {to}");
            assert_eq!(sc.status, to);
        }
    }

    #[test]
    fn candidate_switch_resets_the_streak() {
        let mut sc = HealthScorer::default();
        assert_eq!(sc.observe(&missy(0.3)), None); // candidate critical, streak 1
        assert_eq!(sc.observe(&missy(0.06)), None); // candidate degraded, streak 1
                                                    // Degraded again: streak 2 trips -> transition to degraded.
        assert_eq!(
            sc.observe(&missy(0.06)),
            Some((HealthStatus::Healthy, HealthStatus::Degraded))
        );
    }

    #[test]
    fn fleet_roll_up_applies_fractions() {
        // Critical ≥ 10 %, degraded ≥ 25 %.
        let mk = |h: usize, d: usize, c: usize| {
            let statuses = std::iter::repeat_n(HealthStatus::Healthy, h)
                .chain(std::iter::repeat_n(HealthStatus::Degraded, d))
                .chain(std::iter::repeat_n(HealthStatus::Critical, c));
            FleetHealth::roll_up(statuses)
        };
        assert_eq!(mk(0, 0, 0).status, HealthStatus::Healthy);
        assert_eq!(mk(10, 0, 0).status, HealthStatus::Healthy);
        assert_eq!(mk(9, 1, 0).status, HealthStatus::Healthy); // 10% degraded < 25%
        assert_eq!(mk(6, 4, 0).status, HealthStatus::Degraded); // 40% ≥ 25%
        assert_eq!(mk(19, 0, 1).status, HealthStatus::Degraded); // any critical
        assert_eq!(mk(9, 0, 1).status, HealthStatus::Critical); // 10% ≥ 10%
        let h = mk(6, 3, 1);
        assert_eq!((h.healthy, h.degraded, h.critical), (6, 3, 1));
    }
}
