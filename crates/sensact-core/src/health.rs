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
//! * [`HealthPolicy`] — degraded/critical thresholds per signal plus
//!   hysteresis depths and fleet-rollup fractions;
//! * [`HealthScorer`] — per-loop scorer with *hysteresis*: a state change
//!   must be observed for `trip` (worsening) or `clear` (recovering)
//!   consecutive evaluations before it is reported, so one noisy window
//!   never flaps the fleet state;
//! * [`FleetHealth`] — the fleet-level rollup of per-loop statuses.
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
    pub const ALL: [HealthStatus; 3] = [
        HealthStatus::Healthy,
        HealthStatus::Degraded,
        HealthStatus::Critical,
    ];

    /// Short static name used in exports (`"healthy"`, …).
    pub const fn name(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }

    /// Parse a status from its [`HealthStatus::name`].
    pub fn from_name(name: &str) -> Option<HealthStatus> {
        HealthStatus::ALL.into_iter().find(|s| s.name() == name)
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
    pub const fn from_code(code: u64) -> Option<HealthStatus> {
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
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> {
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

/// Thresholds and hysteresis depths for health classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Per-signal values at or above which a loop is degraded.
    pub degraded: HealthSignals,
    /// Per-signal values at or above which a loop is critical.
    pub critical: HealthSignals,
    /// Consecutive worsening evaluations before a downgrade is reported.
    pub trip: u32,
    /// Consecutive recovering evaluations before an upgrade is reported.
    pub clear: u32,
    /// Fleet is critical when ≥ this fraction of loops are critical.
    pub fleet_critical_frac: f64,
    /// Fleet is degraded when ≥ this fraction of loops are non-healthy.
    pub fleet_degraded_frac: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degraded: HealthSignals {
                miss_rate: 0.05,
                drop_rate: 0.02,
                trust_drift: 0.20,
                staleness: 2.0,
                retransmit_rate: 0.15,
            },
            critical: HealthSignals {
                miss_rate: 0.25,
                drop_rate: 0.15,
                trust_drift: 0.50,
                staleness: 5.0,
                retransmit_rate: 0.50,
            },
            trip: 2,
            clear: 3,
            fleet_critical_frac: 0.10,
            fleet_degraded_frac: 0.25,
        }
    }
}

impl HealthPolicy {
    /// Instantaneous (hysteresis-free) classification of one window.
    pub fn classify(&self, s: &HealthSignals) -> HealthStatus {
        let mut worst = HealthStatus::Healthy;
        for ((_, v), ((_, deg), (_, crit))) in
            s.iter().zip(self.degraded.iter().zip(self.critical.iter()))
        {
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

    /// Continuous severity score: the worst signal's fraction of its
    /// critical threshold (1.0 = at critical, may exceed 1).
    pub fn score(&self, s: &HealthSignals) -> f64 {
        s.iter()
            .zip(self.critical.iter())
            .map(|((_, v), (_, crit))| if crit > 0.0 { v / crit } else { 0.0 })
            .fold(0.0, f64::max)
    }
}

/// Per-loop health state machine with hysteresis.
#[derive(Debug, Clone)]
pub struct HealthScorer {
    policy: HealthPolicy,
    status: HealthStatus,
    candidate: HealthStatus,
    streak: u32,
    last_score: f64,
    evaluations: u64,
}

impl HealthScorer {
    /// A scorer starting healthy under `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        HealthScorer {
            policy,
            status: HealthStatus::Healthy,
            candidate: HealthStatus::Healthy,
            streak: 0,
            last_score: 0.0,
            evaluations: 0,
        }
    }

    /// Current (hysteresis-filtered) status.
    pub fn status(&self) -> HealthStatus {
        self.status
    }

    /// Severity score of the most recent evaluation.
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    /// Number of windows evaluated so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The policy this scorer classifies under.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Evaluate one window. Returns `Some((from, to))` when the filtered
    /// status transitions — after `trip` consecutive worsening windows or
    /// `clear` consecutive recovering ones.
    pub fn observe(&mut self, signals: &HealthSignals) -> Option<(HealthStatus, HealthStatus)> {
        self.evaluations += 1;
        self.last_score = self.policy.score(signals);
        let raw = self.policy.classify(signals);
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
        let needed = if raw > self.status {
            self.policy.trip
        } else {
            self.policy.clear
        };
        if self.streak >= needed.max(1) {
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
    /// Roll up per-loop statuses under `policy`'s fleet fractions: the
    /// fleet is critical when ≥ `fleet_critical_frac` of loops are
    /// critical, degraded when ≥ `fleet_degraded_frac` are non-healthy (or
    /// any loop is critical), healthy otherwise. An empty fleet is healthy.
    pub fn roll_up(
        statuses: impl IntoIterator<Item = HealthStatus>,
        policy: &HealthPolicy,
    ) -> Self {
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
            if critical_frac >= policy.fleet_critical_frac {
                HealthStatus::Critical
            } else if h.critical > 0 || unhealthy_frac >= policy.fleet_degraded_frac {
                HealthStatus::Degraded
            } else {
                HealthStatus::Healthy
            }
        };
        h
    }

    /// Total loops rolled up.
    pub fn total(&self) -> usize {
        self.healthy + self.degraded + self.critical
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
            assert_eq!(HealthStatus::from_name(s.name()), Some(s));
            assert_eq!(HealthStatus::from_code(s.code()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(HealthStatus::from_name("fine"), None);
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
        let p = HealthPolicy::default();
        assert_eq!(p.classify(&clean()), HealthStatus::Healthy);
        assert_eq!(p.classify(&missy(0.05)), HealthStatus::Degraded);
        assert_eq!(p.classify(&missy(0.25)), HealthStatus::Critical);
        let mixed = HealthSignals {
            miss_rate: 0.06,      // degraded
            retransmit_rate: 0.9, // critical
            ..HealthSignals::default()
        };
        assert_eq!(p.classify(&mixed), HealthStatus::Critical);
        // Thresholds are inclusive.
        assert_eq!(p.classify(&missy(0.049)), HealthStatus::Healthy);
    }

    #[test]
    fn score_is_worst_fraction_of_critical() {
        let p = HealthPolicy::default();
        assert_eq!(p.score(&clean()), 0.0);
        let s = p.score(&missy(0.125)); // half of the 0.25 critical bar
        assert!((s - 0.5).abs() < 1e-12, "score {s}");
        assert!(p.score(&missy(0.5)) > 1.0);
    }

    #[test]
    fn hysteresis_filters_one_bad_window() {
        let mut sc = HealthScorer::new(HealthPolicy {
            trip: 2,
            clear: 3,
            ..HealthPolicy::default()
        });
        // One bad window: no transition yet.
        assert_eq!(sc.observe(&missy(0.3)), None);
        assert_eq!(sc.status(), HealthStatus::Healthy);
        // A clean window dissolves the streak.
        assert_eq!(sc.observe(&clean()), None);
        assert_eq!(sc.observe(&missy(0.3)), None);
        // Second *consecutive* bad window trips it.
        assert_eq!(
            sc.observe(&missy(0.3)),
            Some((HealthStatus::Healthy, HealthStatus::Critical))
        );
        assert_eq!(sc.status(), HealthStatus::Critical);
        // Recovery needs `clear` = 3 consecutive clean windows.
        assert_eq!(sc.observe(&clean()), None);
        assert_eq!(sc.observe(&clean()), None);
        assert_eq!(
            sc.observe(&clean()),
            Some((HealthStatus::Critical, HealthStatus::Healthy))
        );
        assert_eq!(sc.status(), HealthStatus::Healthy);
        assert_eq!(sc.evaluations(), 7);
    }

    #[test]
    fn candidate_switch_resets_the_streak() {
        let mut sc = HealthScorer::new(HealthPolicy {
            trip: 2,
            ..HealthPolicy::default()
        });
        assert_eq!(sc.observe(&missy(0.3)), None); // candidate critical, streak 1
        assert_eq!(sc.observe(&missy(0.06)), None); // candidate degraded, streak 1
                                                    // Degraded again: streak 2 >= trip -> transition to degraded.
        assert_eq!(
            sc.observe(&missy(0.06)),
            Some((HealthStatus::Healthy, HealthStatus::Degraded))
        );
    }

    #[test]
    fn fleet_roll_up_applies_fractions() {
        let p = HealthPolicy::default(); // critical ≥10%, degraded ≥25%
        let mk = |h: usize, d: usize, c: usize| {
            let statuses = std::iter::repeat_n(HealthStatus::Healthy, h)
                .chain(std::iter::repeat_n(HealthStatus::Degraded, d))
                .chain(std::iter::repeat_n(HealthStatus::Critical, c));
            FleetHealth::roll_up(statuses, &p)
        };
        assert_eq!(mk(0, 0, 0).status, HealthStatus::Healthy);
        assert_eq!(mk(10, 0, 0).status, HealthStatus::Healthy);
        assert_eq!(mk(9, 1, 0).status, HealthStatus::Healthy); // 10% degraded < 25%
        assert_eq!(mk(6, 4, 0).status, HealthStatus::Degraded); // 40% ≥ 25%
        assert_eq!(mk(19, 0, 1).status, HealthStatus::Degraded); // any critical
        assert_eq!(mk(9, 0, 1).status, HealthStatus::Critical); // 10% ≥ 10%
        let h = mk(6, 3, 1);
        assert_eq!((h.healthy, h.degraded, h.critical), (6, 3, 1));
        assert_eq!(h.total(), 10);
    }
}
