//! Interaction-data collection for representation learning.
//!
//! All models of Fig. 5 train on the same dataset: trajectories gathered by a
//! noisy hand-tuned stabilizer (so the data concentrates around the operating
//! region, like the paper's SAC exploration phase) with episode resets on
//! failure.

use crate::cartpole::{observe_state, CartPole, CartPoleConfig, MAX_FORCE, OBS_DIM};
use sensact_math::rng::StdRng;

/// One environment transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transition {
    /// Visual observation at `t`.
    pub obs: [f64; OBS_DIM],
    /// Applied force.
    pub action: f64,
    /// Visual observation at `t + 1`.
    pub next_obs: [f64; OBS_DIM],
    /// True state at `t` (supervision for the linear read-out).
    pub state: [f64; 4],
    /// True state at `t + 1`.
    pub next_state: [f64; 4],
}

/// A sequentially-ordered transition dataset with episode boundaries.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    transitions: Vec<Transition>,
    episode_starts: Vec<usize>,
}

impl Dataset {
    /// Empty dataset.
    pub(crate) fn new() -> Self {
        Dataset::default()
    }

    /// All transitions in collection order.
    pub(crate) fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Number of transitions.
    pub(crate) fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Begin a new episode.
    pub(crate) fn start_episode(&mut self) {
        self.episode_starts.push(self.transitions.len());
    }

    /// Append a transition to the current episode.
    pub(crate) fn push(&mut self, t: Transition) {
        if self.episode_starts.is_empty() {
            self.episode_starts.push(0);
        }
        self.transitions.push(t);
    }

    /// Up to `k` transitions immediately preceding index `i` within the same
    /// episode (most recent last) — the Transformer baseline's context.
    pub(crate) fn context(&self, i: usize, k: usize) -> &[Transition] {
        let episode_start = self
            .episode_starts
            .iter()
            .copied()
            .filter(|&s| s <= i)
            .max()
            .unwrap_or(0);
        let from = i.saturating_sub(k).max(episode_start);
        &self.transitions[from..i]
    }

    /// Deterministic minibatch index order for an epoch.
    pub(crate) fn shuffled_indices(&self, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.transitions.len()).collect();
        for i in (1..idx.len()).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        idx
    }
}

/// Collect `n` transitions with a noisy stabilizing behavior policy.
pub fn collect_dataset(n: usize, seed: u64) -> Dataset {
    let config = CartPoleConfig::default();
    let mut env = CartPole::new(config, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD5EA5E);
    let mut data = Dataset::new();
    data.start_episode();
    let mut state = env.reset();
    while data.len() < n {
        let obs = observe_state(&state, &config);
        // Hand stabilizer + exploration noise.
        let [x, xd, t, td] = state;
        let noise = (rng.random::<f64>() - 0.5) * 8.0;
        let action =
            (2.0 * x + 3.0 * xd + 30.0 * t + 4.0 * td + noise).clamp(-MAX_FORCE, MAX_FORCE);
        let next_state = env.step(action);
        data.push(Transition {
            obs,
            action,
            next_obs: observe_state(&next_state, &config),
            state,
            next_state,
        });
        if env.failed() || env.steps() >= 200 {
            state = env.reset();
            data.start_episode();
        } else {
            state = next_state;
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_produces_requested_count() {
        let d = collect_dataset(500, 0);
        assert_eq!(d.len(), 500);
        assert!(!d.episode_starts.is_empty());
    }

    #[test]
    fn transitions_are_dynamically_consistent() {
        // next_state of transition i equals state of transition i+1 within an
        // episode.
        let d = collect_dataset(300, 1);
        let mut checked = 0;
        for i in 0..d.len() - 1 {
            let same_episode = d.context(i + 1, 1).len() == 1;
            if same_episode {
                assert_eq!(d.transitions()[i].next_state, d.transitions()[i + 1].state);
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn context_respects_episode_boundaries() {
        let mut d = Dataset::new();
        let t = Transition {
            obs: [0.0; OBS_DIM],
            action: 0.0,
            next_obs: [0.0; OBS_DIM],
            state: [0.0; 4],
            next_state: [0.0; 4],
        };
        d.start_episode();
        for _ in 0..5 {
            d.push(t);
        }
        d.start_episode();
        for _ in 0..3 {
            d.push(t);
        }
        // Index 6 is the second transition of episode 2.
        assert_eq!(d.context(6, 4).len(), 1);
        // Index 4 is the last of episode 1 with 4 predecessors.
        assert_eq!(d.context(4, 4).len(), 4);
        // Index 0 has no context.
        assert!(d.context(0, 4).is_empty());
    }

    #[test]
    fn exploration_covers_action_range() {
        let d = collect_dataset(1000, 2);
        let max_a = d
            .transitions()
            .iter()
            .map(|t| t.action)
            .fold(f64::NEG_INFINITY, f64::max);
        let min_a = d
            .transitions()
            .iter()
            .map(|t| t.action)
            .fold(f64::INFINITY, f64::min);
        assert!(max_a > 2.0 && min_a < -2.0, "actions [{min_a}, {max_a}]");
    }

    #[test]
    fn data_stays_near_operating_region() {
        let d = collect_dataset(1000, 3);
        let frac_upright = d
            .transitions()
            .iter()
            .filter(|t| t.state[2].abs() < 0.25)
            .count() as f64
            / d.len() as f64;
        assert!(frac_upright > 0.8, "only {frac_upright} near upright");
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let d = collect_dataset(100, 4);
        let a = d.shuffled_indices(7);
        let b = d.shuffled_indices(7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<usize>>());
    }
}
