//! The paper's "future work" directions, implemented end to end:
//!
//! * §III adaptive masking — the sensing budget tracks scene activity.
//! * §IV time-varying Koopman operators — online adaptation to plant drift.
//! * §IV uncertainty quantification — ensemble disagreement gates confidence.
//! * §V temporal consistency — drift detection for gradual degradation.
//!
//! Run: `cargo run --release --example adaptive_extensions`

use sensact::core::stage::Trust;
use sensact::koopman::cartpole::{observe_state, CartPole, CartPoleConfig};
use sensact::koopman::ensemble::KoopmanEnsemble;
use sensact::koopman::train::collect_dataset;
use sensact::lidar::mask::{scene_change, AdaptiveMask};
use sensact::lidar::raycast::{Lidar, LidarConfig};
use sensact::lidar::scene::SceneGenerator;
use sensact::starnet::temporal::TemporalConsistency;

fn main() {
    // --- §III: adaptive masking follows scene activity -------------------
    println!("== adaptive masking (III, future work) ==");
    let lidar = Lidar::new(LidarConfig::default());
    let mut generator = SceneGenerator::new(1);
    let mut mask = AdaptiveMask::new(0.08, 0.6);
    let mut prev = lidar.scan(&generator.generate());
    for phase in ["static", "static", "dynamic", "dynamic"] {
        let cloud = if phase == "static" {
            prev.clone() // nothing moved
        } else {
            lidar.scan(&generator.generate()) // everything changed
        };
        let change = scene_change(&prev, &cloud);
        mask.update_activity(change);
        println!(
            "  scene {phase:<8} change {change:.2} -> segment keep {:.2}",
            mask.segment_keep()
        );
        prev = cloud;
    }

    // --- §IV: online operator adaptation + ensemble uncertainty ----------
    println!("\n== time-varying Koopman + uncertainty gate (IV, future work) ==");
    let data = collect_dataset(800, 7);
    let mut ensemble = KoopmanEnsemble::new(3, 7);
    ensemble.train(&data, 6);
    let threshold = ensemble.calibrate(&data, 0.95);
    let config = CartPoleConfig::default();
    let nominal = observe_state(&[0.02, 0.0, 0.01, 0.0], &config);
    let crazy = observe_state(&[2.3, 3.0, 1.4, 5.0], &config);
    for (label, obs) in [("nominal state", &nominal), ("unseen regime", &crazy)] {
        let (_, disagreement) = ensemble.predict_with_uncertainty(obs, 0.5);
        let verdict = KoopmanEnsemble::gate(disagreement, threshold);
        println!("  {label:<14} disagreement {disagreement:.4} -> {verdict:?}");
    }
    // Online adaptation to a drifted plant (pole grew 80 %).
    let drift_config = CartPoleConfig {
        pole_half_length: 0.9,
    };
    let mut env = CartPole::new(drift_config, 3);
    let model = ensemble.primary();
    let mut window: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut last_err = 0.0;
    let mut state = env.reset();
    for step in 0..240 {
        let [x, xd, t, td] = state;
        let u = (2.0 * x + 3.0 * xd + 30.0 * t + 4.0 * td).clamp(-10.0, 10.0);
        let obs = observe_state(&state, &drift_config).to_vec();
        let next = env.step(u);
        window.push((obs, u));
        if window.len() == 6 {
            let final_obs = observe_state(&next, &drift_config);
            last_err = model.adapt_online(&window, &final_obs, 2e-3);
            window.clear();
        }
        state = if env.failed() { env.reset() } else { next };
        if step % 80 == 79 {
            println!("  online adaptation step {step}: rollout error {last_err:.5}");
        }
    }

    // --- §V: temporal-consistency drift detection ------------------------
    println!("\n== temporal consistency (V, future work) ==");
    let mut tracker = TemporalConsistency::new();
    let mut alarm_frame = None;
    for frame in 0..250u32 {
        // Monitor score creeps up 0.8 %/frame after frame 60 — a slowly
        // dirtying sensor window.
        let level = if frame < 60 {
            1.0
        } else {
            1.008f64.powi(frame as i32 - 60)
        };
        let verdict = tracker.observe(level);
        if alarm_frame.is_none() && !matches!(verdict, Trust::Trusted) {
            alarm_frame = Some(frame);
        }
    }
    match alarm_frame {
        Some(f) => println!(
            "  gradual degradation flagged at frame {f} (drift {:.2})",
            tracker.drift()
        ),
        None => println!("  no alarm raised (unexpected)"),
    }
    assert!(alarm_frame.is_some(), "drift detector must fire");
}
