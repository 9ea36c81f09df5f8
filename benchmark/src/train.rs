//! `rmae_train`: masked-occupancy pre-training steps of the full-size R-MAE.
//!
//! `Pretrainer::masked_pair` + `RmaeModel::train_step` (Adam) over eight
//! pre-scanned scenes. Same conv/GEMM kernels as `edge_loop`, but with
//! backward passes and weights rewritten every step — so a weight-panel
//! cache or a fused packer that wins on inference and loses on training
//! shows here. Op = one train step.

use crate::measure::{lat_ns, Exact, Fold, SegCounts};
use crate::replay::RmaeNet;
use crate::trace::{self, now_ns, Drained};
use crate::workload::{Check, Layers, Sizing, Workload};
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::SceneGenerator;
use sensact_lidar::PointCloud;
use sensact_nn::count::MacEnergyModel;
use sensact_nn::optim::Adam;
use sensact_rmae::model::{RmaeConfig, RmaeModel};
use sensact_rmae::pretrain::{Pretrainer, Strategy};

const SCENES: usize = 8;
const LEARNING_RATE: f64 = 0.005;

pub struct RmaeTrain {
    seed: u64,
    clouds: Vec<PointCloud>,
    trainer: Pretrainer,
    opt: Adam,
    steps: u64,
    failed: u64,
    fold: Fold,
    /// Modelled energy of one step: forward plus the two backward GEMMs per
    /// layer, on a 32-bit MAC array (training precision).
    step_energy_j: f64,
    last_masked: Vec<f64>,
    /// Loss of every step of the first pass over the scenes, and of the
    /// most recent pass (a ring): training must bring the second below the
    /// first.
    first_pass: Vec<f64>,
    recent_pass: [f64; SCENES],
    steps_per_segment: usize,
}

fn trainer(seed: u64) -> Pretrainer {
    Pretrainer::new(
        RmaeModel::new(RmaeConfig::full(), seed),
        Strategy::RadialMae,
        seed,
    )
}

impl RmaeTrain {
    pub fn build(seed: u64, _: Sizing) -> Box<dyn Workload> {
        let lidar = Lidar::new(LidarConfig::default());
        let clouds = SceneGenerator::new(seed)
            .generate_many(SCENES)
            .iter()
            .map(|scene| lidar.scan(scene))
            .collect();
        let mut trainer = trainer(seed);
        let macs = trainer.model_mut().stats().macs;
        let mut w = RmaeTrain {
            seed,
            clouds,
            trainer,
            opt: Adam::new(LEARNING_RATE),
            steps: 0,
            failed: 0,
            fold: Fold::default(),
            step_energy_j: MacEnergyModel::default().energy_mj(3 * macs, 32) * 1e-3,
            last_masked: Vec::new(),
            first_pass: Vec::new(),
            recent_pass: [0.0; SCENES],
            steps_per_segment: SCENES,
        };
        // One warm step allocates Adam's moment buffers.
        let mut lat = Vec::new();
        w.step(&mut lat);
        Box::new(w)
    }

    fn step(&mut self, lat: &mut Vec<u32>) {
        let t0 = now_ns();
        trace::set_op(self.steps);
        let cloud = &self.clouds[self.steps as usize % SCENES];
        let (masked, full) = trace::scope("rmae.pretrain.masked_pair_us", || {
            self.trainer.masked_pair(cloud)
        });
        let loss = trace::scope("rmae.model.train_step_us", || {
            self.trainer
                .model_mut()
                .train_step(&masked, &full, &mut self.opt)
        });
        lat.push(lat_ns(now_ns() - t0));
        if self.first_pass.len() < SCENES {
            self.first_pass.push(loss);
        }
        self.recent_pass[self.steps as usize % SCENES] = loss;
        self.steps += 1;
        self.fold.f64(loss);
        if !loss.is_finite() {
            self.failed += 1;
        }
        self.last_masked = masked;
    }
}

impl Workload for RmaeTrain {
    fn segment(&mut self, lat: &mut Vec<u32>) -> SegCounts {
        let failed = self.failed;
        for _ in 0..self.steps_per_segment {
            self.step(lat);
        }
        SegCounts {
            attempted: self.steps_per_segment as u64,
            refused: 0,
            failed: self.failed - failed,
        }
    }

    fn exact(&mut self) -> Exact {
        Exact {
            ops: self.steps - self.failed,
            refused: 0,
            failed: self.failed,
            energy_j: self.step_energy_j * (self.steps - self.failed) as f64,
            hash: self.fold.0,
        }
    }

    fn check(&mut self) -> Vec<Check> {
        // Two fresh trainers from the seed must produce bit-identical
        // losses, and the run's latest pass over the scenes must score below
        // its first.
        let losses = |steps: usize| -> Vec<u64> {
            let mut t = trainer(self.seed);
            let mut opt = Adam::new(LEARNING_RATE);
            (0..steps)
                .map(|i| {
                    let (masked, full) = t.masked_pair(&self.clouds[i % SCENES]);
                    t.model_mut().train_step(&masked, &full, &mut opt).to_bits()
                })
                .collect()
        };
        let (a, b) = (losses(4), losses(4));
        let first: f64 = self.first_pass.iter().sum::<f64>() / SCENES as f64;
        let recent: f64 = self.recent_pass.iter().sum::<f64>() / SCENES as f64;
        vec![
            Check::new(
                "losses_repeat",
                a == b && self.failed == 0,
                format!("4 steps twice: {a:x?}"),
            ),
            Check::new(
                "loss_falls",
                self.steps as usize >= 2 * SCENES && recent < first,
                format!(
                    "mean loss {first:.6} over the first pass, {recent:.6} over the latest, {} steps",
                    self.steps
                ),
            ),
        ]
    }

    fn layers(&mut self, spans: &Drained, traced_ops: u64, budget_s: f64, out: &mut Layers) {
        out.wrapped(spans, "rmae.pretrain.masked_pair_us", traced_ops);
        out.wrapped(spans, "rmae.model.train_step_us", traced_ops);
        let mut net = RmaeNet::new(&RmaeConfig::full(), self.seed);
        assert_eq!(
            net.macs(),
            self.trainer.model_mut().stats().macs,
            "the replay net mirrors RmaeModel::new"
        );
        net.replay(&self.last_masked, true, budget_s, out);
        let step = out.get("rmae.model.train_step_us").0;
        if step > 0.0 {
            let kids = out.get("nn.conv.forward_us").0
                + out.get("nn.conv.backward_us").0
                + out.get("nn.optim.adam_step_us").0;
            out.set("bench.replay_closure_pct", 100.0 * kids / step, 9);
        }
    }
}
