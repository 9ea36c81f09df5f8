//! Control synthesis on learned latent dynamics and the Fig. 5b robustness
//! evaluation.
//!
//! Koopman models expose linear `(A, B)` latent dynamics, so control is an
//! LQR problem in latent space with the state cost pulled back through the
//! linear read-out (`Q_z = Cᵀ Q_x C`). Nonlinear models (MLP / recurrent /
//! Transformer) use random-shooting MPC over their learned transition.

use crate::baselines::LatentModel;
use crate::cartpole::{observe_state, CartPole, CartPoleConfig, Disturbance};
use sensact_core::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use sensact_math::lqr::{dlqr_finite, LqrProblem};
use sensact_math::rng::StdRng;
use sensact_math::{MathError, Matrix};

/// Finite LQR horizon used for gain synthesis (the paper solves the LQR
/// "over a finite time horizon"; a finite backward recursion is also the only
/// well-posed choice when the learned latent carries unstabilizable modes).
pub(crate) const LQR_HORIZON: usize = 50;

/// Candidate action sequences per shooting step.
pub(crate) const SHOOTING_CANDIDATES: usize = 48;
/// Shooting horizon (steps).
pub(crate) const SHOOTING_HORIZON: usize = 8;

/// State cost used by every controller: heavily penalize pole angle, mildly
/// cart excursion.
pub(crate) fn state_cost_diag() -> [f64; 4] {
    [1.0, 0.2, 30.0, 0.4]
}

fn state_cost(state: &[f64; 4]) -> f64 {
    let q = state_cost_diag();
    state.iter().zip(&q).map(|(s, w)| w * s * s).sum()
}

/// LQR controller in latent space.
#[derive(Debug, Clone)]
pub struct LqrLatentController {
    gain: Matrix,
    z_goal: Vec<f64>,
}

impl LqrLatentController {
    /// Synthesize from a Koopman model: builds `Q_z = CᵀQ_xC + εI`, solves the
    /// DARE, and encodes the upright goal observation.
    ///
    /// # Errors
    ///
    /// [`MathError::InvalidArgument`] if the model has no linear dynamics;
    /// otherwise propagates Riccati failures.
    pub fn synthesize(
        model: &mut dyn LatentModel,
        r_weight: f64,
    ) -> Result<LqrLatentController, MathError> {
        let (a, b) = model
            .linear_dynamics()
            .ok_or(MathError::InvalidArgument("model has no linear dynamics"))?;
        let (c, _bias) = model.readout();
        let qx = Matrix::from_diag(&state_cost_diag());
        let mut qz = c.tr_matmul(&qx)?.matmul(&c)?;
        let n = qz.rows();
        for i in 0..n {
            qz[(i, i)] += 1e-6;
        }
        let r = Matrix::from_vec(1, 1, vec![r_weight]);
        let gains = dlqr_finite(&LqrProblem::new(a, b, qz, r), LQR_HORIZON)?;
        let goal_obs = observe_state(&[0.0; 4], &CartPoleConfig::default());
        let z_goal = model.encode(&goal_obs);
        Ok(LqrLatentController {
            gain: gains[0].feedback.clone(),
            z_goal,
        })
    }

    /// Control `u = -K (z - z_goal)`, folded in place in
    /// `kernels::matvec_into`'s multiply-then-add order: no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `z`'s length is not the latent dimension.
    pub fn act(&self, z: &[f64]) -> f64 {
        assert_eq!(z.len(), self.gain.cols(), "gain/latent dim mismatch");
        let mut acc = 0.0;
        for ((&k, &zi), &gi) in self.gain.row(0).iter().zip(z).zip(&self.z_goal) {
            acc += k * (zi - gi);
        }
        -acc
    }
}

/// Random-shooting MPC over a learned latent transition.
#[derive(Debug)]
pub struct ShootingController {
    rng: StdRng,
    max_force: f64,
    action_cost: f64,
}

impl ShootingController {
    /// Shooting controller sampling forces in `[-max_force, max_force]`.
    pub fn new(max_force: f64, seed: u64) -> Self {
        ShootingController {
            rng: StdRng::seed_from_u64(seed),
            max_force,
            action_cost: 0.01,
        }
    }

    /// Pick the best first action by rolling candidate action sequences
    /// through the model.
    pub fn act(&mut self, model: &mut dyn LatentModel, z: &[f64]) -> f64 {
        let mut best_u = 0.0;
        let mut best_cost = f64::INFINITY;
        for _ in 0..SHOOTING_CANDIDATES {
            let actions: Vec<f64> = (0..SHOOTING_HORIZON)
                .map(|_| (self.rng.random::<f64>() * 2.0 - 1.0) * self.max_force)
                .collect();
            model.reset_rollout();
            let mut zc = z.to_vec();
            let mut cost = 0.0;
            for &u in &actions {
                zc = model.predict(&zc, u);
                let s = model.read_state(&zc);
                cost += state_cost(&s) + self.action_cost * u * u;
            }
            if cost < best_cost {
                best_cost = cost;
                best_u = actions[0];
            }
        }
        model.reset_rollout();
        best_u
    }
}

// The LQR gain and goal encoding are synthesized once and never mutate: the
// controller checkpoints with the no-op defaults.
impl StageState for LqrLatentController {}

impl StageState for ShootingController {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        // The candidate-sampling RNG is the controller's only mutable state;
        // resuming it at its exact stream position keeps post-restore action
        // choices identical to the uninterrupted run.
        s.put_u64s("rng", &self.rng.state());
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        self.rng = StdRng::from_state(ckpt.section(ns)?.get_u64_array("rng")?);
        Ok(())
    }
}

impl StageState for ControllerKind {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        match self {
            ControllerKind::Lqr(c) => c.save_state(ckpt, ns),
            ControllerKind::Shooting(c) => c.save_state(ckpt, ns),
        }
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        match self {
            ControllerKind::Lqr(c) => c.restore_state(ckpt, ns),
            ControllerKind::Shooting(c) => c.restore_state(ckpt, ns),
        }
    }
}

/// Which controller a model uses in the Fig. 5b evaluation.
#[derive(Debug)]
pub enum ControllerKind {
    /// LQR on linear latent dynamics.
    Lqr(LqrLatentController),
    /// Random-shooting MPC.
    Shooting(ShootingController),
}

impl ControllerKind {
    /// Pick the natural controller for the model: LQR when the dynamics are
    /// linear, shooting otherwise.
    ///
    /// # Errors
    ///
    /// Propagates LQR synthesis failures.
    pub fn for_model(model: &mut dyn LatentModel, seed: u64) -> Result<Self, MathError> {
        if model.linear_dynamics().is_some() {
            Ok(ControllerKind::Lqr(LqrLatentController::synthesize(
                model, 0.001,
            )?))
        } else {
            Ok(ControllerKind::Shooting(ShootingController::new(
                10.0, seed,
            )))
        }
    }

    fn act(&mut self, model: &mut dyn LatentModel, z: &[f64]) -> f64 {
        match self {
            ControllerKind::Lqr(c) => c.act(z),
            ControllerKind::Shooting(c) => c.act(model, z),
        }
    }
}

/// One point of the Fig. 5b curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessPoint {
    /// Disturbance probability `p`.
    pub probability: f64,
    /// Mean normalized reward (fraction of the episode survived).
    pub mean_reward: f64,
}

/// Evaluate a model+controller under the paper's disturbance protocol:
/// for each `p`, run `episodes` episodes of up to `max_steps`, reward =
/// survived fraction.
pub fn evaluate_robustness(
    model: &mut dyn LatentModel,
    controller: &mut ControllerKind,
    probabilities: &[f64],
    episodes: usize,
    max_steps: usize,
    seed: u64,
) -> Vec<RobustnessPoint> {
    let config = CartPoleConfig::default();
    probabilities
        .iter()
        .map(|&p| {
            let mut total = 0.0;
            for ep in 0..episodes {
                let mut env =
                    CartPole::new(config, seed ^ (ep as u64 * 7919 + (p * 1000.0) as u64));
                env.set_disturbance(Disturbance::with_probability(p));
                let mut survived = 0usize;
                for _ in 0..max_steps {
                    let obs = env.observe();
                    let z = model.encode(&obs);
                    let u = controller.act(model, &z);
                    env.step(u);
                    if env.failed() {
                        break;
                    }
                    survived += 1;
                }
                total += survived as f64 / max_steps as f64;
            }
            RobustnessPoint {
                probability: p,
                mean_reward: total / episodes as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::MlpDynamics;
    use crate::encoder::SpectralKoopman;
    use crate::train::collect_dataset;

    fn trained_spectral(seed: u64, epochs: u64) -> SpectralKoopman {
        let mut model = SpectralKoopman::new(seed);
        let data = collect_dataset(1500, seed ^ 0xAB);
        for e in 0..epochs {
            model.train_epoch(&data, e);
        }
        model
    }

    #[test]
    fn lqr_synthesis_succeeds_on_trained_model() {
        let mut model = trained_spectral(1, 10);
        let controller = LqrLatentController::synthesize(&mut model, 0.001);
        assert!(controller.is_ok(), "{controller:?}");
    }

    #[test]
    fn lqr_balances_cartpole_without_disturbance() {
        let mut model = trained_spectral(5, 25);
        let mut controller = ControllerKind::for_model(&mut model, 0).expect("synthesis failed");
        let points = evaluate_robustness(&mut model, &mut controller, &[0.0], 4, 200, 3);
        assert!(
            points[0].mean_reward > 0.5,
            "LQR-Koopman reward {}",
            points[0].mean_reward
        );
    }

    #[test]
    fn controller_beats_no_control() {
        let mut model = trained_spectral(3, 15);
        let mut controller = ControllerKind::for_model(&mut model, 0).unwrap();
        let with = evaluate_robustness(&mut model, &mut controller, &[0.0], 3, 200, 5);
        // "No control": zero force every step.
        let config = CartPoleConfig::default();
        let mut nothing = 0.0;
        for ep in 0..3 {
            let mut env = CartPole::new(config, 5 ^ (ep * 7919));
            let mut survived = 0;
            for _ in 0..200 {
                env.step(0.0);
                if env.failed() {
                    break;
                }
                survived += 1;
            }
            nothing += survived as f64 / 200.0;
        }
        nothing /= 3.0;
        assert!(
            with[0].mean_reward > nothing,
            "controller {} vs passive {nothing}",
            with[0].mean_reward
        );
    }

    #[test]
    fn shooting_controller_returns_bounded_actions() {
        let mut model = MlpDynamics::new(4);
        let data = collect_dataset(400, 40);
        for e in 0..4 {
            model.train_epoch(&data, e);
        }
        let mut c = ShootingController::new(10.0, 0);
        let z = model.encode(&[0.1; crate::cartpole::OBS_DIM]);
        for _ in 0..5 {
            let u = c.act(&mut model, &z);
            assert!(u.abs() <= 10.0);
        }
    }

    /// Restoring a shooting controller must resume its candidate-sampling
    /// RNG at the exact stream position: post-restore actions match the
    /// uninterrupted sequence bit-for-bit.
    #[test]
    fn shooting_checkpoint_resumes_action_stream_exactly() {
        let mut model = MlpDynamics::new(4);
        let data = collect_dataset(200, 41);
        for e in 0..2 {
            model.train_epoch(&data, e);
        }
        let z = model.encode(&[0.1; crate::cartpole::OBS_DIM]);
        let mut reference = ShootingController::new(10.0, 9);
        let full: Vec<u64> = (0..12)
            .map(|_| reference.act(&mut model, &z).to_bits())
            .collect();
        let mut a = ShootingController::new(10.0, 9);
        for _ in 0..5 {
            let _ = a.act(&mut model, &z);
        }
        let mut ckpt = Checkpoint::new("shoot");
        a.save_state(&mut ckpt, "ctrl");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
        // Differently-seeded target: the stream position must come from the
        // checkpoint alone.
        let mut b = ShootingController::new(10.0, 777);
        b.restore_state(&ckpt, "ctrl").unwrap();
        let tail: Vec<u64> = (5..12).map(|_| b.act(&mut model, &z).to_bits()).collect();
        assert_eq!(tail, full[5..]);
    }

    #[test]
    fn disturbance_monotonically_erodes_reward() {
        let mut model = trained_spectral(6, 20);
        let mut controller = ControllerKind::for_model(&mut model, 0).unwrap();
        let points = evaluate_robustness(&mut model, &mut controller, &[0.0, 0.5], 4, 150, 7);
        assert!(
            points[1].mean_reward <= points[0].mean_reward + 0.05,
            "p=0.5 reward {} vs p=0 reward {}",
            points[1].mean_reward,
            points[0].mean_reward
        );
    }

    /// The in-place fold gives the bits of the `matvec` over a `delta`
    /// vector it replaced, on seeded latents and on signed zeros,
    /// infinities and NaN.
    #[test]
    fn act_matches_the_matvec_oracle_bit_for_bit() {
        let mut model = trained_spectral(2, 2);
        let c = LqrLatentController::synthesize(&mut model, 0.001).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let n = c.z_goal.len();
        let mut latents: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..n).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect())
            .collect();
        latents.push(c.z_goal.clone());
        latents.push(vec![-0.0; n]);
        latents.push(
            (0..n)
                .map(|i| [f64::INFINITY, -0.0, f64::NAN][i % 3])
                .collect(),
        );
        for z in &latents {
            let delta: Vec<f64> = z.iter().zip(&c.z_goal).map(|(a, b)| a - b).collect();
            let want = -c.gain.matvec(&delta).unwrap()[0];
            assert_eq!(c.act(z).to_bits(), want.to_bits(), "z = {z:?}");
        }
    }

    #[test]
    fn controller_kind_picks_by_linearity() {
        let mut koop = SpectralKoopman::new(0);
        assert!(matches!(
            ControllerKind::for_model(&mut koop, 0).unwrap(),
            ControllerKind::Lqr(_)
        ));
        let mut mlp = MlpDynamics::new(0);
        assert!(matches!(
            ControllerKind::for_model(&mut mlp, 0).unwrap(),
            ControllerKind::Shooting(_)
        ));
    }
}
