//! Fig. 2 / Fig. 8 — end-to-end pipeline comparison: a clocked (frame + ANN)
//! sensing-action loop vs. an event-driven (DVS + SNN) loop.
//!
//! The neuromorphic claim is architectural: a clocked pipeline pays its full
//! compute on every tick regardless of scene activity, while the event-driven
//! pipeline's cost *scales with activity*. We run both loops over quiet and
//! busy scenes inside the `sensact-core` loop abstraction and report the
//! per-tick energy from the stage ledger.

use sensact_bench::{compare, header, scaled, write_csv};
use sensact_core::stage::{FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact_core::LoopBuilder;
use sensact_neuro::energy::OpEnergy;
use sensact_neuro::event::{MovingScene, MovingSceneConfig};
use sensact_neuro::flow::{flow_dataset, FlowModel, FlowModelKind};

/// Run one pipeline over a set of scenes inside a sensing-action loop;
/// returns total energy (µJ).
fn run_loop(model: &mut FlowModel, scenes: &[MovingScene], op: &OpEnergy) -> f64 {
    // The "environment" for each tick is one scene snapshot.
    let model_cell = std::cell::RefCell::new(model);
    let op = *op;
    let mut looop = LoopBuilder::new("flow-loop").build(
        FnSensor::new(move |scene: &MovingScene, ctx: &mut StageContext| {
            // Sensing: 10 µs per tick and no energy, for both pipelines —
            // the comparison is the perception stage's cost.
            ctx.charge(0.0, 1e-5);
            scene.clone()
        }),
        FnPerceptor::new(move |scene: &MovingScene, ctx: &mut StageContext| {
            let mut m = model_cell.borrow_mut();
            let ledger = m.inference_energy(scene);
            ctx.charge(ledger.energy_uj(&op) * 1e-6, 1e-4);
            m.predict(scene)
        }),
        FnController::new(
            |flow: &Vec<(f64, f64)>, _t: Trust, ctx: &mut StageContext| {
                ctx.charge(1e-9, 1e-6);
                // Steer toward the dominant motion.
                let (u, v) = flow
                    .iter()
                    .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
                (u, v)
            },
        ),
    );
    for scene in scenes {
        let _ = looop.tick(scene);
    }
    looop.telemetry().total_energy_j() * 1e6
}

fn scenes(activity: f64, n: usize, seed: u64) -> Vec<MovingScene> {
    (0..n)
        .map(|i| {
            MovingScene::generate(
                MovingSceneConfig {
                    max_speed: activity,
                    ..MovingSceneConfig::default()
                },
                seed ^ (i as u64 * 13),
            )
        })
        .collect()
}

fn main() {
    header("Fig. 2/8: clocked (frame+ANN) vs event-driven (DVS+SNN) loop energy");
    let op = OpEnergy::default();
    let train = flow_dataset(scaled(60, 16), 3);
    let epochs = scaled(12, 4);
    let mut ann = FlowModel::new(FlowModelKind::FullAnn, 32, 1);
    let mut snn = FlowModel::new(FlowModelKind::FullSnn, 32, 1);
    for _ in 0..epochs {
        ann.train_epoch(&train);
        snn.train_epoch(&train);
    }

    let n = scaled(24, 8);
    let mut csv = Vec::new();
    let mut rows = Vec::new();
    for (label, activity) in [("quiet (speed 0.2)", 0.2), ("busy (speed 2.0)", 2.0)] {
        let batch = scenes(activity, n, 50);
        let e_ann = run_loop(&mut ann, &batch, &op);
        let e_snn = run_loop(&mut snn, &batch, &op);
        println!(
            "{label:<20} ANN loop {e_ann:>10.2} uJ   SNN loop {e_snn:>10.2} uJ   ratio {:.1}x",
            e_ann / e_snn
        );
        csv.push(format!("{label},{e_ann:.4},{e_snn:.4}"));
        rows.push((label, e_ann, e_snn));
    }

    header("shape check vs paper");
    let quiet_ratio = rows[0].1 / rows[0].2;
    let busy_ratio = rows[1].1 / rows[1].2;
    compare(
        "event-driven cheaper than clocked",
        "lower energy",
        &format!("quiet {quiet_ratio:.1}x, busy {busy_ratio:.1}x"),
    );
    compare(
        "saving grows as the scene quiets",
        "activity-proportional compute",
        &format!("{quiet_ratio:.1}x vs {busy_ratio:.1}x"),
    );
    assert!(quiet_ratio > 1.0, "SNN loop not cheaper in quiet scenes");
    assert!(
        quiet_ratio > busy_ratio * 0.9,
        "saving did not grow with quietness"
    );
    println!("shape check passed");
    write_csv("fig8_energy", "scenario,ann_uj,snn_uj", &csv);
}
