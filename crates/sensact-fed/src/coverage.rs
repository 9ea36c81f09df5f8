//! Coordinated multi-agent coverage (paper §VII).
//!
//! The coordination primitive: `N` agents that each need full 360°
//! situational awareness split the azimuth circle into arcs proportional to
//! their remaining battery, sense only their own arc, and receive the rest
//! from their peers. Communication is orders of magnitude cheaper than
//! active sensing, so coordinated awareness costs roughly `1/N` of solo
//! sensing — the paper's conclusion reports a ~3× reduction with this scheme.
//! This module assigns the arcs and prices the exchange; the messages
//! themselves travel over the simulated network in [`sim`](crate::sim).

/// Identifier of an agent in a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub usize);

impl std::fmt::Display for AgentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "agent-{}", self.0)
    }
}

/// A contiguous azimuth arc `[start, end)` in degrees, `0..360`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AzimuthArc {
    /// Inclusive start (degrees).
    pub start_deg: f64,
    /// Exclusive end (degrees); may exceed 360 to express wrap-around.
    pub end_deg: f64,
}

impl AzimuthArc {
    /// Arc width in degrees.
    pub(crate) fn width(&self) -> f64 {
        (self.end_deg - self.start_deg).max(0.0)
    }

    /// Whether an azimuth (degrees, any real) falls inside the arc.
    #[cfg(test)]
    pub(crate) fn contains(&self, azimuth_deg: f64) -> bool {
        let a = azimuth_deg.rem_euclid(360.0);
        let s = self.start_deg.rem_euclid(360.0);
        let w = self.width();
        let rel = (a - s).rem_euclid(360.0);
        rel < w
    }
}

/// An agent's sensing economics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentProfile {
    /// Agent identity.
    pub id: AgentId,
    /// Energy to actively sense one degree of azimuth (joules).
    pub sense_energy_per_deg: f64,
    /// Energy to receive one degree of shared observation (joules).
    pub comm_energy_per_deg: f64,
    /// Remaining battery (joules) — arcs are sized proportionally to this.
    pub battery_j: f64,
}

impl AgentProfile {
    /// A homogeneous default profile: sensing 100× the cost of communication.
    pub fn homogeneous(id: AgentId) -> Self {
        AgentProfile {
            id,
            sense_energy_per_deg: 1e-3,
            comm_energy_per_deg: 1e-5,
            battery_j: 100.0,
        }
    }
}

/// An arc assignment for one agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ArcAssignment {
    /// The agent.
    pub id: AgentId,
    /// The arc it must actively sense.
    pub arc: AzimuthArc,
}

/// Splits the circle among agents proportionally to battery and prices the
/// resulting energy.
#[derive(Debug, Clone, Default)]
pub struct CoverageCoordinator;

impl CoverageCoordinator {
    /// New coordinator.
    pub fn new() -> Self {
        CoverageCoordinator
    }

    /// Partition 360° among the agents, arc width proportional to remaining
    /// battery (healthier agents sense more).
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty or total battery is not positive.
    pub(crate) fn assign(&self, agents: &[AgentProfile]) -> Vec<ArcAssignment> {
        assert!(!agents.is_empty(), "no agents to coordinate");
        let total_battery: f64 = agents.iter().map(|a| a.battery_j).sum();
        assert!(total_battery > 0.0, "fleet battery exhausted");
        let mut start = 0.0;
        let mut out = Vec::with_capacity(agents.len());
        for a in agents {
            let width = 360.0 * a.battery_j / total_battery;
            out.push(ArcAssignment {
                id: a.id,
                arc: AzimuthArc {
                    start_deg: start,
                    end_deg: start + width,
                },
            });
            start += width;
        }
        // Close the circle exactly despite floating-point accumulation.
        if let Some(last) = out.last_mut() {
            last.arc.end_deg = 360.0;
        }
        out
    }

    /// Energy for one agent to sense the full circle alone.
    pub(crate) fn solo_energy(&self, agent: &AgentProfile) -> f64 {
        agent.sense_energy_per_deg * 360.0
    }

    /// Energy for one agent under an assignment: active sensing of its own
    /// arc plus receiving the remaining degrees from peers.
    pub(crate) fn coordinated_energy(
        &self,
        agent: &AgentProfile,
        assignment: &ArcAssignment,
    ) -> f64 {
        let own = assignment.arc.width();
        agent.sense_energy_per_deg * own + agent.comm_energy_per_deg * (360.0 - own)
    }

    /// Fleet-wide energy-reduction factor of coordination vs. everyone
    /// sensing solo.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty (via `CoverageCoordinator::assign`).
    pub fn fleet_reduction_factor(&self, agents: &[AgentProfile]) -> f64 {
        let assignments = self.assign(agents);
        let solo: f64 = agents.iter().map(|a| self.solo_energy(a)).sum();
        let coord: f64 = agents
            .iter()
            .zip(&assignments)
            .map(|(a, asg)| self.coordinated_energy(a, asg))
            .sum();
        solo / coord
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<AgentProfile> {
        (0..n)
            .map(|i| AgentProfile::homogeneous(AgentId(i)))
            .collect()
    }

    #[test]
    fn arc_contains_handles_wraparound() {
        let arc = AzimuthArc {
            start_deg: 350.0,
            end_deg: 370.0,
        };
        assert!(arc.contains(355.0));
        assert!(arc.contains(5.0));
        assert!(!arc.contains(20.0));
        assert_eq!(arc.width(), 20.0);
    }

    #[test]
    fn assignment_partitions_circle() {
        let coordinator = CoverageCoordinator::new();
        let assignments = coordinator.assign(&fleet(4));
        assert_eq!(assignments.len(), 4);
        let total: f64 = assignments.iter().map(|a| a.arc.width()).sum();
        assert!((total - 360.0).abs() < 1e-9);
        // Contiguous arcs.
        for w in assignments.windows(2) {
            assert!((w[0].arc.end_deg - w[1].arc.start_deg).abs() < 1e-9);
        }
    }

    #[test]
    fn battery_weighted_assignment() {
        let mut agents = fleet(2);
        agents[0].battery_j = 75.0;
        agents[1].battery_j = 25.0;
        let assignments = CoverageCoordinator::new().assign(&agents);
        assert!((assignments[0].arc.width() - 270.0).abs() < 1e-9);
        assert!((assignments[1].arc.width() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn three_agents_give_threefold_energy_reduction() {
        // The conclusion's headline claim: ~3× with a 3-agent fleet.
        let factor = CoverageCoordinator::new().fleet_reduction_factor(&fleet(3));
        assert!(
            (2.5..3.2).contains(&factor),
            "3-agent reduction factor {factor}"
        );
    }

    #[test]
    fn reduction_grows_with_fleet_size_until_comm_bound() {
        let coordinator = CoverageCoordinator::new();
        let f2 = coordinator.fleet_reduction_factor(&fleet(2));
        let f4 = coordinator.fleet_reduction_factor(&fleet(4));
        let f8 = coordinator.fleet_reduction_factor(&fleet(8));
        assert!(f2 < f4 && f4 < f8, "{f2} {f4} {f8}");
        // Communication floor bounds the saving: factor < sense/comm ratio.
        assert!(f8 < 100.0);
    }

    #[test]
    fn coordinated_energy_cheaper_than_solo() {
        let coordinator = CoverageCoordinator::new();
        let agents = fleet(3);
        let assignments = coordinator.assign(&agents);
        for (a, asg) in agents.iter().zip(&assignments) {
            assert!(coordinator.coordinated_energy(a, asg) < coordinator.solo_energy(a));
        }
    }

    #[test]
    #[should_panic(expected = "no agents")]
    fn empty_fleet_panics() {
        let _ = CoverageCoordinator::new().assign(&[]);
    }

    #[test]
    fn arc_contains_agrees_with_width_accounting() {
        // Property: the number of contained half-degree sample points equals
        // the arc width (capped at the full circle), for arbitrary start
        // angles (any real, including negatives) and widths (including
        // zero-width and ≥ 360° arcs).
        let mut rng = sensact_math::rng::StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let start = rng.random_range(-720.0..720.0);
            let width = rng.random_range(0.0..450.0);
            let arc = AzimuthArc {
                start_deg: start,
                end_deg: start + width,
            };
            let contained = (0..360).filter(|k| arc.contains(*k as f64 + 0.5)).count() as f64;
            let expected = width.min(360.0);
            assert!(
                (contained - expected).abs() <= 1.0,
                "arc [{start}, {}) contains {contained} samples, width {expected}",
                start + width
            );
        }
        // Degenerate endpoints of the property.
        let empty = AzimuthArc {
            start_deg: 10.0,
            end_deg: 10.0,
        };
        assert!((0..360).all(|k| !empty.contains(k as f64 + 0.5)));
        let full = AzimuthArc {
            start_deg: 123.0,
            end_deg: 123.0 + 360.0,
        };
        assert!((0..360).all(|k| full.contains(k as f64 + 0.5)));
    }

    #[test]
    fn assignment_stays_disjoint_partition_with_zero_battery_agents() {
        // Property: even with zero-battery agents (zero-width arcs), every
        // azimuth belongs to exactly one assigned arc — no gaps, no double
        // coverage.
        let mut rng = sensact_math::rng::StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let n = 2 + (trial % 6);
            let agents: Vec<AgentProfile> = (0..n)
                .map(|i| {
                    let mut a = AgentProfile::homogeneous(AgentId(i));
                    // Roughly a third of the fleet is fully drained.
                    a.battery_j = if rng.gen_f64() < 0.33 {
                        0.0
                    } else {
                        rng.random_range(1.0..100.0)
                    };
                    a
                })
                .collect();
            if agents.iter().map(|a| a.battery_j).sum::<f64>() <= 0.0 {
                continue; // assign() panics on a fully dead fleet, by contract
            }
            let assignments = CoverageCoordinator::new().assign(&agents);
            let total: f64 = assignments.iter().map(|a| a.arc.width()).sum();
            assert!((total - 360.0).abs() < 1e-9, "total width {total}");
            for _ in 0..64 {
                let az = rng.random_range(0.0..360.0);
                let owners = assignments
                    .iter()
                    .filter(|asg| asg.arc.contains(az))
                    .count();
                assert_eq!(owners, 1, "azimuth {az} owned by {owners} arcs");
            }
        }
    }
}
