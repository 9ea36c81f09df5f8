//! Cart-pole dynamics with disturbance injection and "visual" observations.
//!
//! The paper evaluates RoboKoop on a vision-based cart-pole with an external
//! force `F ~ Uniform(a_min, a_max)` applied with probability `p` during
//! evaluation (Fig. 5b). We reproduce the dynamics analytically and render a
//! redundant, nonlinear observation vector standing in for visual features:
//! the information content matches pixels (position of cart and pole tip
//! smeared over a receptive-field grid) without a renderer.

use sensact_math::rng::StdRng;

/// Cart mass (kg).
const CART_MASS: f64 = 1.0;
/// Pole mass (kg).
const POLE_MASS: f64 = 0.1;
/// Gravity (m/s²).
const GRAVITY: f64 = 9.8;
/// Integration step (s).
const DT: f64 = 0.02;
/// Maximum |force| the controller may apply (N).
pub(crate) const MAX_FORCE: f64 = 10.0;
/// Episode fails when |θ| exceeds this (radians).
const THETA_LIMIT: f64 = 12.0f64.to_radians();
/// Episode fails when |x| exceeds this (m).
const X_LIMIT: f64 = 2.4;

/// Physical parameters of the cart-pole. The masses, gravity, step, force
/// bound and failure limits are the Gym constants (1 kg cart, 0.1 kg pole,
/// 9.8 m/s², 20 ms, ±10 N, ±12°, ±2.4 m).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CartPoleConfig {
    /// Pole half-length (m).
    pub pole_half_length: f64,
}

impl Default for CartPoleConfig {
    fn default() -> Self {
        CartPoleConfig {
            pole_half_length: 0.5,
        }
    }
}

/// Evaluation-time disturbance: with probability `p` per step, an extra force
/// drawn from `Uniform(a_min, a_max)` (sign randomized) acts on the cart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disturbance {
    /// Per-step probability of a disturbance.
    pub probability: f64,
    /// Minimum disturbance magnitude (N).
    pub a_min: f64,
    /// Maximum disturbance magnitude (N).
    pub a_max: f64,
}

impl Disturbance {
    /// No disturbance.
    pub(crate) fn none() -> Self {
        Disturbance {
            probability: 0.0,
            a_min: 0.0,
            a_max: 0.0,
        }
    }

    /// The paper's protocol at a given probability with forces in `[2, 6]` N.
    pub fn with_probability(p: f64) -> Self {
        Disturbance {
            probability: p,
            a_min: 2.0,
            a_max: 6.0,
        }
    }
}

/// The cart-pole simulator.
#[derive(Debug)]
pub struct CartPole {
    config: CartPoleConfig,
    /// State `[x, ẋ, θ, θ̇]`.
    state: [f64; 4],
    rng: StdRng,
    disturbance: Disturbance,
    steps: u64,
}

/// Dimension of the "visual" observation vector.
pub const OBS_DIM: usize = 16;

impl CartPole {
    /// New simulator near the upright equilibrium, seeded.
    pub fn new(config: CartPoleConfig, seed: u64) -> Self {
        let mut cp = CartPole {
            config,
            state: [0.0; 4],
            rng: StdRng::seed_from_u64(seed),
            disturbance: Disturbance::none(),
            steps: 0,
        };
        cp.reset();
        cp
    }

    /// Install a disturbance protocol.
    pub fn set_disturbance(&mut self, d: Disturbance) {
        self.disturbance = d;
    }

    /// Reset near upright with small random perturbations; returns the state.
    pub fn reset(&mut self) -> [f64; 4] {
        for s in self.state.iter_mut() {
            *s = self.rng.random::<f64>() * 0.1 - 0.05;
        }
        self.steps = 0;
        self.state
    }

    /// Whether the pole has fallen or the cart left the track.
    pub fn failed(&self) -> bool {
        self.state[2].abs() > THETA_LIMIT || self.state[0].abs() > X_LIMIT
    }

    /// Apply a force for one step (semi-implicit Euler; the standard Gym
    /// formulation). Returns the new state. Disturbances are injected here.
    pub fn step(&mut self, force: f64) -> [f64; 4] {
        let half_length = self.config.pole_half_length;
        let mut f = force.clamp(-MAX_FORCE, MAX_FORCE);
        if self.disturbance.probability > 0.0
            && self.rng.random::<f64>() < self.disturbance.probability
        {
            let magnitude = self.disturbance.a_min
                + (self.disturbance.a_max - self.disturbance.a_min) * self.rng.random::<f64>();
            let sign = if self.rng.random::<f64>() < 0.5 {
                -1.0
            } else {
                1.0
            };
            f += sign * magnitude;
        }
        let [x, x_dot, theta, theta_dot] = self.state;
        let total_mass = CART_MASS + POLE_MASS;
        let pml = POLE_MASS * half_length;
        let cos_t = theta.cos();
        let sin_t = theta.sin();
        let temp = (f + pml * theta_dot * theta_dot * sin_t) / total_mass;
        let theta_acc = (GRAVITY * sin_t - cos_t * temp)
            / (half_length * (4.0 / 3.0 - POLE_MASS * cos_t * cos_t / total_mass));
        let x_acc = temp - pml * theta_acc * cos_t / total_mass;
        self.state = [
            x + DT * x_dot,
            x_dot + DT * x_acc,
            theta + DT * theta_dot,
            theta_dot + DT * theta_acc,
        ];
        self.steps += 1;
        self.state
    }

    /// The "visual" observation: a 16-dimensional redundant nonlinear
    /// rendering of the state — Gaussian receptive fields over cart position
    /// and pole-tip position plus tachometer-like channels.
    pub fn observe(&self) -> [f64; OBS_DIM] {
        observe_state(&self.state, &self.config)
    }

    /// Steps taken since reset.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }
}

/// Render any state to the visual observation (shared with goal encoding).
pub fn observe_state(state: &[f64; 4], config: &CartPoleConfig) -> [f64; OBS_DIM] {
    let [x, x_dot, theta, theta_dot] = *state;
    let tip_x = x + 2.0 * config.pole_half_length * theta.sin();
    let tip_y = 2.0 * config.pole_half_length * theta.cos();
    let mut obs = [0.0; OBS_DIM];
    // 6 receptive fields over cart position in [-2.4, 2.4].
    for (i, o) in obs.iter_mut().enumerate().take(6) {
        let center = -2.4 + 4.8 * i as f64 / 5.0;
        *o = (-(x - center) * (x - center) / (2.0 * 0.8 * 0.8)).exp();
    }
    // 6 receptive fields over pole-tip x in [-1.2, 1.2] (relative to cart).
    for i in 0..6 {
        let center = -1.2 + 2.4 * i as f64 / 5.0;
        let rel = tip_x - x;
        obs[6 + i] = (-(rel - center) * (rel - center) / (2.0 * 0.35 * 0.35)).exp();
    }
    obs[12] = tip_y;
    obs[13] = x_dot * 0.25;
    obs[14] = theta_dot * 0.25;
    obs[15] = theta.sin();
    obs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_near_upright() {
        let mut cp = CartPole::new(CartPoleConfig::default(), 0);
        let s = cp.reset();
        for v in s {
            assert!(v.abs() <= 0.05);
        }
        assert!(!cp.failed());
    }

    #[test]
    fn unforced_pole_falls() {
        let mut cp = CartPole::new(CartPoleConfig::default(), 1);
        cp.state = [0.0, 0.0, 0.05, 0.0];
        for _ in 0..500 {
            cp.step(0.0);
            if cp.failed() {
                break;
            }
        }
        assert!(cp.failed(), "inverted pendulum should fall unforced");
    }

    #[test]
    fn force_accelerates_cart() {
        let mut cp = CartPole::new(CartPoleConfig::default(), 2);
        cp.state = [0.0; 4];
        for _ in 0..10 {
            cp.step(10.0);
        }
        assert!(cp.state[1] > 0.0, "positive force must speed cart up");
        assert!(cp.state[0] > 0.0);
    }

    #[test]
    fn state_feedback_balances() {
        // A hand-tuned state-feedback law keeps the pole up: confirms the
        // plant is stabilizable (prerequisite for the learned controllers).
        let mut cp = CartPole::new(CartPoleConfig::default(), 3);
        cp.state = [0.1, 0.0, 0.05, 0.0];
        for _ in 0..1000 {
            let [x, xd, t, td] = cp.state;
            let u = 2.0 * x + 3.0 * xd + 30.0 * t + 4.0 * td;
            cp.step(u);
            assert!(!cp.failed(), "feedback failed at step {}", cp.steps());
        }
    }

    #[test]
    fn disturbance_degrades_stability() {
        let run = |p: f64, seed: u64| -> u64 {
            let mut cp = CartPole::new(CartPoleConfig::default(), seed);
            cp.set_disturbance(Disturbance {
                probability: p,
                a_min: 4.0,
                a_max: 10.0,
            });
            cp.state = [0.0, 0.0, 0.02, 0.0];
            for _ in 0..500 {
                let [x, xd, t, td] = cp.state;
                // Weak controller so disturbances matter.
                let u = 0.5 * x + 1.0 * xd + 14.0 * t + 1.5 * td;
                cp.step(u);
                if cp.failed() {
                    break;
                }
            }
            cp.steps()
        };
        let calm: u64 = (0..8).map(|s| run(0.0, s)).sum();
        let stormy: u64 = (0..8).map(|s| run(0.9, s)).sum();
        assert!(stormy <= calm, "stormy {stormy} vs calm {calm}");
    }

    #[test]
    fn disturbance_is_seed_deterministic() {
        let mut a = CartPole::new(CartPoleConfig::default(), 42);
        let mut b = CartPole::new(CartPoleConfig::default(), 42);
        a.set_disturbance(Disturbance::with_probability(0.5));
        b.set_disturbance(Disturbance::with_probability(0.5));
        for _ in 0..50 {
            assert_eq!(a.step(1.0), b.step(1.0));
        }
    }

    #[test]
    fn observation_is_smooth_and_bounded() {
        let cfg = CartPoleConfig::default();
        let o1 = observe_state(&[0.0, 0.0, 0.0, 0.0], &cfg);
        let o2 = observe_state(&[0.001, 0.0, 0.001, 0.0], &cfg);
        let diff: f64 = o1.iter().zip(&o2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff < 0.1, "observation jumped: {diff}");
        for v in o1 {
            assert!(v.abs() <= 2.0);
        }
    }

    #[test]
    fn observation_distinguishes_states() {
        let cfg = CartPoleConfig::default();
        let a = observe_state(&[0.0, 0.0, 0.0, 0.0], &cfg);
        let b = observe_state(&[1.0, 0.0, 0.1, 0.0], &cfg);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 0.5, "distinct states look identical");
    }

    #[test]
    fn force_clamped_to_max() {
        let mut a = CartPole::new(CartPoleConfig::default(), 5);
        let mut b = CartPole::new(CartPoleConfig::default(), 5);
        a.state = [0.0; 4];
        b.state = [0.0; 4];
        a.step(1e6);
        b.step(10.0);
        assert_eq!(a.state, b.state);
    }
}
