//! Served model catalogue: what a client can lease.
//!
//! A [`ModelKind`] bundles a *shared* perception stage (one weight set per
//! server, built deterministically from the server seed) with a tiny
//! *per-lease* controller whose state is personalised by the client's lease
//! seed. Two design rules make cross-loop batching sound:
//!
//! 1. Perception is **stateless given the weights** — a leased loop's
//!    identity lives entirely in its controller state, so any number of
//!    leases can share one [`SharedPerceptor`] and their forward passes can
//!    be stacked into a single batched GEMM
//!    ([`Conv3d::forward_batch_into`]) without coupling their trajectories.
//! 2. Controller arithmetic uses exactly representable binary-fraction
//!    coefficients, so an action is a pure function of (weights, state,
//!    observation) bits — the wire carries it bit-exactly and a restored
//!    lease replays it bit-exactly.

use sensact_nn::conv::{Conv3d, Dims3};
use sensact_nn::init::Initializer;

/// Which loop a client leases. Wire discriminants are stable protocol
/// surface: `0 = LidarConv`, `1 = Cartpole`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelKind {
    /// Voxel-grid perception: a shared `Conv3d` over an `8³` occupancy
    /// grid (1 input channel, 4 output channels, stride 2) feeding a
    /// per-channel damped-integrator controller. This is the batchable
    /// signature: all LidarConv leases share one weight set and their
    /// patches are packed into the panels of one GEMM.
    LidarConv,
    /// Classic 4-state cart-pole with a per-lease linear gain vector and an
    /// integral term. Perception is the identity (4 floats in, 4 out), so
    /// there is nothing to batch — it rides the per-loop path in both
    /// modes.
    Cartpole,
}

/// Static description of a leased model: wire shapes, virtual tick costs,
/// and the timing spec its scheduler slot registers with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// Observation vector length (floats).
    pub obs_len: usize,
    /// Action vector length (floats).
    pub act_len: usize,
    /// Charged compute latency of one tick (virtual seconds). Identical in
    /// batched and per-loop mode by construction — batching changes
    /// wall-clock cost, never the virtual timeline.
    pub latency_s: f64,
    /// Charged energy of one tick (joules), before the state-sensitive
    /// component.
    pub energy_j: f64,
    /// Expected observation inter-arrival (seconds) — the demand model
    /// admission control charges a lease against.
    pub period_s: f64,
    /// Response-time budget (seconds): an observation whose projected
    /// completion exceeds `release + budget` is shed at ingress.
    pub budget_s: f64,
}

impl ModelKind {
    /// All served kinds, in wire order.
    pub(crate) const ALL: [ModelKind; 2] = [ModelKind::LidarConv, ModelKind::Cartpole];

    /// Decode a wire discriminant.
    pub(crate) fn from_wire(b: u8) -> Option<ModelKind> {
        match b {
            0 => Some(ModelKind::LidarConv),
            1 => Some(ModelKind::Cartpole),
            _ => None,
        }
    }

    /// Wire discriminant.
    pub fn wire(self) -> u8 {
        match self {
            ModelKind::LidarConv => 0,
            ModelKind::Cartpole => 1,
        }
    }

    /// Human-readable name (metrics, reports).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::LidarConv => "lidar-conv",
            ModelKind::Cartpole => "cartpole",
        }
    }

    /// Whether leases of this kind share a perceptor whose forward passes
    /// can be stacked into one batched GEMM.
    pub(crate) fn batchable(self) -> bool {
        matches!(self, ModelKind::LidarConv)
    }

    /// The model's static spec.
    pub fn spec(self) -> ModelSpec {
        match self {
            ModelKind::LidarConv => ModelSpec {
                obs_len: 512, // 1 × 8³ occupancy grid
                act_len: 4,
                latency_s: 2e-5,
                energy_j: 5e-6,
                period_s: 1e-3,
                budget_s: 1e-4,
            },
            ModelKind::Cartpole => ModelSpec {
                obs_len: 4,
                act_len: 1,
                latency_s: 2e-6,
                energy_j: 1e-7,
                period_s: 2e-4,
                budget_s: 2e-5,
            },
        }
    }

    /// Length of the per-lease feature vector perception produces.
    pub fn feat_len(self) -> usize {
        match self {
            ModelKind::LidarConv => 256, // 4 channels × 4³ output volume
            ModelKind::Cartpole => 4,
        }
    }

    /// Initial controller state, personalised by the lease seed. Exactly
    /// representable values only, so a lease rebuilt from `(kind, seed)`
    /// starts bit-identically.
    pub fn init_state(self, seed: u64) -> Vec<f64> {
        let n = match self {
            ModelKind::LidarConv => 4,
            ModelKind::Cartpole => 5, // 4 gains + 1 integral term
        };
        (0..n)
            .map(|i| ((seed >> (8 * i as u32)) & 0xFF) as f64 / 256.0)
            .collect()
    }

    /// One controller step: consume `feats`, update `state`, write the
    /// action. All coefficients are binary fractions, so the result is a
    /// deterministic function of the input bits on every host.
    pub fn control(self, state: &mut [f64], feats: &[f64], action: &mut [f64]) {
        match self {
            ModelKind::LidarConv => {
                let vol = feats.len() / action.len();
                for (c, a) in action.iter_mut().enumerate() {
                    let mut sum = 0.0;
                    for v in &feats[c * vol..(c + 1) * vol] {
                        sum += *v;
                    }
                    let mean = sum / vol as f64;
                    state[c] = 0.875 * state[c] + 0.125 * mean;
                    *a = -(0.5 * mean + 0.25 * state[c]);
                }
            }
            ModelKind::Cartpole => {
                let (gains, integral) = state.split_at_mut(4);
                let mut u = 0.0;
                for (g, x) in gains.iter().zip(feats) {
                    u += (1.0 + g) * x;
                }
                integral[0] = 0.9375 * integral[0] + 0.0625 * feats[2];
                action[0] = -(u + 0.5 * integral[0]);
            }
        }
    }
}

/// The server-side shared perception stage of one [`ModelKind`]: a single
/// weight set every lease of that kind runs through, owned by the pool and
/// called by `&mut` — the mutability below is only scratch reuse inside
/// [`Conv3d`].
pub struct SharedPerceptor {
    conv: Option<Conv3d>,
}

impl SharedPerceptor {
    /// Build the perceptor for `kind` from the server's weight seed.
    /// Deterministic: two servers built from the same seed serve
    /// bit-identical models (the crash-recovery contract).
    pub fn new(kind: ModelKind, weight_seed: u64) -> Self {
        let conv = match kind {
            ModelKind::LidarConv => {
                let mut init = Initializer::new(weight_seed ^ 0x11DA2);
                Some(Conv3d::new(1, 4, 3, 2, 1, Dims3::new(8, 8, 8), &mut init))
            }
            ModelKind::Cartpole => None,
        };
        SharedPerceptor { conv }
    }

    /// Per-loop forward: one observation row to one feature row. The
    /// canonical numeric path — [`SharedPerceptor::forward_many_into`] is
    /// bitwise identical to repeating this per row.
    pub fn forward_one(&mut self, obs: &[f64], feats: &mut [f64]) {
        match &mut self.conv {
            Some(conv) => conv.forward_batch_into(&[obs], &mut [feats]),
            None => feats.copy_from_slice(obs),
        }
    }

    /// Cross-loop batched forward: all rows through **one** wide GEMM whose
    /// panel packer unfolds each row's patches
    /// ([`Conv3d::forward_batch_into`]), each feature row written directly
    /// into its own buffer (a row of the planner's arena), which the tick
    /// then reads in place. Bitwise identical to the per-row path for every
    /// batch size.
    pub fn forward_many_into(&mut self, rows: &[&[f64]], outs: &mut [&mut [f64]]) {
        match &mut self.conv {
            Some(conv) => conv.forward_batch_into(rows, outs),
            None => {
                for (row, out) in rows.iter().zip(outs.iter_mut()) {
                    out.copy_from_slice(row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_discriminants_round_trip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_wire(kind.wire()), Some(kind));
        }
        assert_eq!(ModelKind::from_wire(0xFF), None);
    }

    #[test]
    fn specs_are_internally_consistent() {
        for kind in ModelKind::ALL {
            let spec = kind.spec();
            assert!(
                spec.latency_s < spec.budget_s,
                "{kind:?} can never meet its budget"
            );
            assert!(
                spec.latency_s < spec.period_s,
                "{kind:?} is over-subscribed solo"
            );
            assert!(spec.obs_len > 0 && spec.act_len > 0);
        }
        // The conv shape must agree with the published spec.
        let mut p = SharedPerceptor::new(ModelKind::LidarConv, 7);
        let conv = p.conv.as_mut().expect("lidar has a conv");
        assert_eq!(conv.in_features(), ModelKind::LidarConv.spec().obs_len);
        assert_eq!(conv.out_features(), ModelKind::LidarConv.feat_len());
    }

    #[test]
    fn batched_perception_is_bitwise_identical_to_per_row() {
        for kind in ModelKind::ALL {
            let spec = kind.spec();
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|r| {
                    (0..spec.obs_len)
                        .map(|i| ((r * 31 + i * 7) % 13) as f64 / 8.0 - 0.5)
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let mut batched: Vec<Vec<f64>> = vec![vec![f64::NAN; kind.feat_len()]; rows.len()];
            let mut views: Vec<&mut [f64]> = batched.iter_mut().map(|v| v.as_mut_slice()).collect();
            SharedPerceptor::new(kind, 42).forward_many_into(&refs, &mut views);
            let mut single = SharedPerceptor::new(kind, 42);
            for (t, row) in rows.iter().enumerate() {
                let mut feats = vec![0.0; kind.feat_len()];
                single.forward_one(row, &mut feats);
                assert!(
                    feats
                        .iter()
                        .zip(&batched[t])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kind:?} row {t} diverged between batched and per-row perception"
                );
            }
            // The empty batch is a no-op, not a panic.
            single.forward_many_into(&[], &mut []);
        }
    }

    #[test]
    fn controller_is_deterministic_and_seed_sensitive() {
        for kind in ModelKind::ALL {
            let feats: Vec<f64> = (0..kind.feat_len()).map(|i| (i % 7) as f64 / 4.0).collect();
            let run = |seed: u64| {
                let mut state = kind.init_state(seed);
                let mut action = vec![0.0; kind.spec().act_len];
                for _ in 0..3 {
                    kind.control(&mut state, &feats, &mut action);
                }
                (state, action)
            };
            assert_eq!(run(1), run(1), "{kind:?} must be deterministic");
            assert_ne!(run(1), run(2), "{kind:?} must be personalised by seed");
        }
    }
}
