//! §VIII headline claims, checked end to end.
//!
//! 1. "only 8 % of the environment needs to be actively sensed" — masked
//!    firing ratio and reconstruction quality of the generative-sensing loop.
//! 2. "improving prediction accuracy by over 10 % on complex datasets" —
//!    STARNet's recovery under heavy corruption.
//! 3. "a threefold reduction in energy consumption" — coordinated multi-agent
//!    coverage vs. solo sensing.

use sensact_bench::{compare, header, scaled, write_csv};
use sensact_fed::coverage::{AgentId, AgentProfile, CoverageCoordinator};
use sensact_lidar::mask::{RadialMask, RadialMaskConfig};
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::SceneGenerator;
use sensact_rmae::model::{RmaeConfig, RmaeModel};
use sensact_rmae::pretrain::{radial_pair, Pretrainer, Strategy};

fn main() {
    header("Conclusion claim 1: ~8% active sensing suffices");
    let lidar = Lidar::new(LidarConfig::default());
    let mut generator = SceneGenerator::new(5);
    let train = generator.generate_many(scaled(16, 4));
    let mut trainer = Pretrainer::new(
        RmaeModel::new(RmaeConfig::full(), 1),
        Strategy::RadialMae,
        1,
    );
    trainer.train(&train, scaled(10, 3));
    let mut model = trainer.into_model();

    let eval_scene = generator.generate();
    let full = lidar.scan(&eval_scene);
    let mut mask = RadialMask::sample(RadialMaskConfig::default(), lidar.config().azimuth_steps, 2);
    let expected = full.mean_range();
    let (_, fired) = lidar.scan_masked(&eval_scene, |_, az| mask.fire(az, expected));
    let coverage = fired as f64 / lidar.config().pulses_per_scan() as f64;
    let (full_grid, masked_grid) = radial_pair(model.config().grid, &full, 3);
    let iou = model.reconstruction_iou(
        &masked_grid.occupancy_flat(),
        &full_grid.occupancy_flat(),
        0.5,
    );
    // Without reconstruction, the sparse view itself.
    let sparse_iou = masked_grid.occupancy_iou(&full_grid);
    compare(
        "active sensing fraction",
        "~8%",
        &format!("{:.1}%", coverage * 100.0),
    );
    compare(
        "scene occupancy recovered (IoU)",
        "task accuracy maintained",
        &format!("{iou:.2} (sparse view alone: {sparse_iou:.2})"),
    );
    assert!(coverage < 0.15, "coverage {coverage}");
    assert!(iou > sparse_iou, "reconstruction did not add coverage");

    header("Conclusion claim 2: monitor recovers >10% accuracy");
    println!("(full sweep in `fig7`; summary point at snow severity 5)");
    let eval_scenes = SceneGenerator::new(77).generate_many(scaled(8, 3));
    let clouds: Vec<_> = SceneGenerator::new(3)
        .generate_many(scaled(24, 8))
        .iter()
        .map(|s| lidar.scan(s))
        .collect();
    let mut monitor = sensact_starnet::monitor::train_on_clouds(
        &clouds,
        sensact_starnet::monitor::StarnetConfig::default(),
        0,
    );
    let raw = sensact_starnet::fuse::evaluate_detection_under_snow(&eval_scenes, 5, None, 1);
    let guarded = sensact_starnet::fuse::evaluate_detection_under_snow(
        &eval_scenes,
        5,
        Some(&mut monitor),
        1,
    );
    compare(
        "accuracy recovery at heavy snow",
        ">10 pts",
        &format!("{:+.1} pts", (guarded.mean() - raw.mean()) * 100.0),
    );

    header("Conclusion claim 3: threefold multi-agent energy reduction");
    let coordinator = CoverageCoordinator::new();
    let fleet: Vec<AgentProfile> = (0..3)
        .map(|i| AgentProfile::homogeneous(AgentId(i)))
        .collect();
    let factor = coordinator.fleet_reduction_factor(&fleet);
    compare(
        "3-agent coordinated sensing",
        "3x energy reduction",
        &format!("{factor:.2}x"),
    );
    assert!((2.5..3.5).contains(&factor), "factor {factor}");
    println!("shape checks passed");

    write_csv(
        "conclusions",
        "claim,paper,measured",
        &[
            format!("active_sensing_fraction,0.08,{coverage:.4}"),
            format!(
                "monitor_recovery_pts,10,{:.2}",
                (guarded.mean() - raw.mean()) * 100.0
            ),
            format!("multiagent_energy_factor,3.0,{factor:.3}"),
        ],
    );
}
