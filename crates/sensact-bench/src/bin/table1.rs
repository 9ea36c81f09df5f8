//! Table I — Average precision of R-MAE against pre-training baselines.
//!
//! Paper (KITTI val, moderate): SECOND 79.08/44.52/64.49; +R-MAE improves to
//! 79.10/46.93/67.75. PV-RCNN 82.28/51.51/69.45; +R-MAE 82.82/51.61/73.82.
//! Every cell is a mean over [`SEEDS`] draws. What reproduces at our scale,
//! and is asserted: every scheme reconstructs (recon-IoU > 0) and the
//! two-stage detector is no worse than the single-stage one. The paper's
//! small-class lift from pre-training is printed but **not** asserted: its
//! mean over the seeds is smaller than its spread (see EXPERIMENTS.md, a
//! recorded deviation), as are AP differences between schemes.

use sensact_bench::{compare, header, scaled, write_csv};
use sensact_lidar::scene::{SceneConfig, SceneGenerator};
use sensact_math::RunningStats;
use sensact_rmae::detect::Detector;
use sensact_rmae::eval::{evaluate_cell, PipelineConfig};
use sensact_rmae::pretrain::Strategy;

/// Scene / mask / initialisation draws each cell is averaged over. One draw
/// scores a handful of small-class objects, so a single seed's AP difference
/// is noise; the shape checks read the mean.
const SEEDS: u64 = 5;

fn main() {
    header("Table I: AP by pre-training scheme and detector");
    let train_n = scaled(24, 6);
    let eval_n = scaled(16, 6);
    let config = PipelineConfig {
        pretrain_epochs: scaled(20, 5),
    };

    let detectors = [
        ("SECOND-like (single stage)", Detector::second_like()),
        ("PV-RCNN-like (two stage)", Detector::pvrcnn_like()),
    ];
    let strategies = Strategy::table1_rows();
    // Rows of `strategies` the shape checks read.
    const BASELINE: usize = 0;
    const RMAE: usize = 3;
    // [detector][strategy][car, ped, cyc, recon-IoU], over the seeds.
    let mut cells = [[[RunningStats::new(); 4]; 4]; 2];
    // Per-seed ped+cyc mean AP of R-MAE minus the baseline's, per detector.
    let mut lift = [RunningStats::new(); 2];
    let scenes = |seed: u64| {
        let mut generator = SceneGenerator::with_config(seed, SceneConfig::default());
        (
            generator.generate_many(train_n),
            generator.generate_many(eval_n),
        )
    };
    let both = [&detectors[0].1, &detectors[1].1];
    for k in 0..SEEDS {
        let (train, eval) = scenes(42 + k);
        // [detector][strategy] ped+cyc mean AP of this draw.
        let mut small = [[0.0f64; 4]; 2];
        for (si, &strategy) in strategies.iter().enumerate() {
            let rows = evaluate_cell(strategy, &both, &train, &eval, &config, 7 + k);
            for (di, row) in rows.iter().enumerate() {
                let values = [row.car, row.pedestrian, row.cyclist, row.recon_iou];
                for (stat, v) in cells[di][si].iter_mut().zip(values) {
                    stat.push(v);
                }
                small[di][si] = (row.pedestrian + row.cyclist) / 2.0;
            }
        }
        for (stat, small) in lift.iter_mut().zip(small) {
            stat.push(small[RMAE] - small[BASELINE]);
        }
    }

    let mut csv = Vec::new();
    let pct = |s: RunningStats| format!("{:5.1} ± {:4.1}", s.mean() * 100.0, s.std_dev() * 100.0);
    for (di, (name, _)) in detectors.iter().enumerate() {
        println!("\n-- {name} (mean ± sd over {SEEDS} seeds) --");
        for (si, strategy) in strategies.iter().enumerate() {
            let [car, ped, cyc, iou] = cells[di][si];
            println!(
                "{:<10}  Car {}  Pedestrian {}  Cyclist {}  recon-IoU {:.3} ± {:.3}",
                strategy.to_string(),
                pct(car),
                pct(ped),
                pct(cyc),
                iou.mean(),
                iou.std_dev()
            );
            csv.push(format!(
                "{name},{strategy},{:.4},{:.4},{:.4},{:.4}",
                car.mean(),
                ped.mean(),
                cyc.mean(),
                iou.mean()
            ));
        }
    }
    let mean_ap =
        |di: usize, si: usize| cells[di][si][..3].iter().map(|s| s.mean()).sum::<f64>() / 3.0;

    header("shape check vs paper");
    for (di, (paper, label)) in [
        (
            "+2.41 ped / +3.26 cyc",
            "R-MAE small-class AP lift (SECOND)",
        ),
        (
            "+0.10 ped / +4.37 cyc",
            "R-MAE small-class AP lift (PV-RCNN)",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        compare(
            label,
            paper,
            &format!(
                "{:+.1} ± {:.1} ped+cyc mean AP",
                lift[di].mean() * 100.0,
                lift[di].std_dev() * 100.0
            ),
        );
    }
    compare(
        "two-stage beats single-stage (R-MAE row)",
        "PV-RCNN > SECOND",
        &format!(
            "{:.1} vs {:.1} mean AP",
            mean_ap(1, RMAE) * 100.0,
            mean_ap(0, RMAE) * 100.0
        ),
    );
    for (si, strategy) in strategies.iter().enumerate().skip(BASELINE + 1) {
        assert!(
            cells[0][si][3].min() > 0.0,
            "{strategy} reconstructed nothing on some seed"
        );
    }
    assert!(
        mean_ap(1, RMAE) >= mean_ap(0, RMAE),
        "two-stage detector fell below single-stage"
    );
    println!("shape check passed");
    write_csv(
        "table1",
        "detector,strategy,car,pedestrian,cyclist,recon_iou",
        &csv,
    );

    // DESIGN.md §5 ablation: what a radially pre-trained model reconstructs
    // when deployment masking is *uniform* instead (distribution mismatch).
    if std::env::args().any(|a| a == "--ablate-mask") {
        header("ablation: eval-time masking distribution (radial vs uniform)");
        use sensact_lidar::raycast::{Lidar, LidarConfig};
        use sensact_lidar::voxel::VoxelGrid;
        use sensact_rmae::model::{RmaeConfig, RmaeModel};
        use sensact_rmae::pretrain::{radial_masked_cloud, uniform_masked_cloud, Pretrainer};
        let (train, eval) = scenes(42);
        let lidar = Lidar::new(LidarConfig::default());
        let mut trainer = Pretrainer::new(
            RmaeModel::new(RmaeConfig::full(), 7),
            Strategy::RadialMae,
            7,
        );
        trainer.train(&train, config.pretrain_epochs);
        let mut model = trainer.into_model();
        let grid_cfg = RmaeConfig::full().grid;
        let mut iou_radial = 0.0;
        let mut iou_uniform = 0.0;
        for (i, scene) in eval.iter().enumerate() {
            let full = lidar.scan(scene);
            let full_flat = VoxelGrid::from_cloud(grid_cfg, &full).occupancy_flat();
            let radial = radial_masked_cloud(&full, i as u64);
            let ratio = radial.len() as f64 / full.len() as f64;
            let uniform = uniform_masked_cloud(&full, ratio.clamp(0.01, 1.0), i as u64);
            let radial_flat = VoxelGrid::from_cloud(grid_cfg, &radial).occupancy_flat();
            let uniform_flat = VoxelGrid::from_cloud(grid_cfg, &uniform).occupancy_flat();
            iou_radial += model.reconstruction_iou_above_ground(&radial_flat, &full_flat, 0.5);
            iou_uniform += model.reconstruction_iou_above_ground(&uniform_flat, &full_flat, 0.5);
        }
        let n = eval.len() as f64;
        compare(
            "recon IoU under radial vs uniform eval masking",
            "trade-off vs the 1.5x energy saving (table2)",
            &format!("{:.3} vs {:.3}", iou_radial / n, iou_uniform / n),
        );
        println!(
            "note: uniform masking reconstructs better at equal coverage (it touches\n             every object), but costs 1.5x more sensing energy (see table2's ablation)\n             — the two-stage radial mask is the energy-optimal point of that trade-off."
        );
    }
}
