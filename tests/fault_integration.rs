//! Cross-crate fault-tolerance integration: a lidar → STARNet → controller
//! loop surviving heavy sensor dropout gracefully.
//!
//! The fallible loop must (1) complete every tick without panicking, (2) emit
//! the controller's fail-safe action on ticks where sensing is dead beyond
//! recovery, and (3) account for every fault, hold and fallback in telemetry.

mod common;

use common::fast_monitor_config;
use sensact::core::fault::{
    FaultInjector, FaultProfile, RecoveryPolicy, Reliable, TickResolution, WithFallback,
};
use sensact::core::stage::{FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact::core::FallibleLoop;
use sensact::lidar::raycast::{Lidar, LidarConfig};
use sensact::lidar::scene::SceneGenerator;
use sensact::lidar::PointCloud;
use sensact::starnet::features::extract_features;
use sensact::starnet::monitor::train_on_clouds;

const GO: f64 = 1.0;
const STOP: f64 = 0.0;
const FAIL_SAFE: f64 = -1.0;

#[test]
fn loop_survives_twenty_percent_sensor_dropout_gracefully() {
    let lidar = Lidar::new(LidarConfig::default());
    let clean_clouds: Vec<PointCloud> = SceneGenerator::new(1)
        .generate_many(12)
        .iter()
        .map(|s| lidar.scan(s))
        .collect();
    let monitor = train_on_clouds(&clean_clouds, fast_monitor_config(), 0);

    // The acquisition stage sees a 20% dropout rate plus occasional NaN
    // poisoning — the §V internal-sensor-failure regime.
    let faulty_sensor = FaultInjector::new(
        FnSensor::new(|cloud: &PointCloud, ctx: &mut StageContext| {
            ctx.charge(1e-3, 1e-3);
            cloud.clone()
        }),
        FaultProfile {
            dropout: 0.20,
            nan: 0.05,
            ..FaultProfile::none()
        },
        9,
    );

    let mut looop = FallibleLoop::new(
        "fault-integration",
        faulty_sensor,
        Reliable(FnPerceptor::new(
            |cloud: &PointCloud, _: &mut StageContext| extract_features(cloud),
        )),
        monitor,
        WithFallback::new(
            FnController::new(
                |_f: &Vec<f64>, trust: Trust, _: &mut StageContext| {
                    if trust.is_actionable() {
                        GO
                    } else {
                        STOP
                    }
                },
            ),
            FAIL_SAFE,
        ),
    )
    // No in-tick retries and a one-tick hold budget so dropouts visibly
    // escalate through the hold → fallback ladder within the run.
    .with_recovery(RecoveryPolicy {
        max_retries: 0,
        max_hold_ticks: 1,
        staleness_decay: 0.3,
        ..RecoveryPolicy::default()
    });

    let mut eval = SceneGenerator::new(40);
    let n_ticks = 60usize;
    let mut outputs = Vec::with_capacity(n_ticks);
    for _ in 0..n_ticks {
        let cloud = lidar.scan(&eval.generate());
        outputs.push(looop.tick(&cloud));
    }

    // 1. Graceful: every tick completed and produced an action.
    assert_eq!(outputs.len(), n_ticks);
    assert_eq!(looop.telemetry().ticks(), n_ticks as u64);

    let fresh = outputs
        .iter()
        .filter(|o| o.resolution == TickResolution::Fresh)
        .count();
    let held = outputs
        .iter()
        .filter(|o| matches!(o.resolution, TickResolution::Held { .. }))
        .count();
    let fallback = outputs
        .iter()
        .filter(|o| o.resolution == TickResolution::Fallback)
        .count();
    assert_eq!(fresh + held + fallback, n_ticks);

    // 2. At 20% dropout the fault ladder is actually exercised: most ticks
    // stay fresh, but holds and fallbacks both occur.
    assert!(fresh > n_ticks / 2, "only {fresh}/{n_ticks} fresh ticks");
    assert!(held >= 1, "dropouts never reached the hold path");
    assert!(
        fallback >= 1,
        "consecutive dropouts never forced a fallback"
    );

    // 3. Faulted ticks degrade in the documented way: fallback ticks emit
    // the fail-safe action with zero trust; held ticks never act on
    // fully-trusted features (staleness decays the verdict).
    for o in &outputs {
        match o.resolution {
            TickResolution::Fallback => {
                assert_eq!(o.action, FAIL_SAFE);
                assert_eq!(o.trust, Trust::Untrusted);
            }
            TickResolution::Held { staleness } => {
                assert!(staleness >= 1);
                assert!(o.trust.suspicion() >= 0.3, "held tick fully trusted");
            }
            TickResolution::Fresh => {
                assert!(o.action == GO || o.action == STOP);
            }
        }
    }

    // 4. Telemetry accounts for every fault, hold and fallback exactly.
    let c = looop.telemetry().fault_counters();
    assert_eq!(c.holds, held as u64);
    assert_eq!(c.fallbacks, fallback as u64);
    assert_eq!(
        c.faults,
        outputs.iter().map(|o| o.faults as u64).sum::<u64>()
    );
    assert_eq!(
        c.retries,
        outputs.iter().map(|o| o.retries as u64).sum::<u64>()
    );
    assert_eq!(
        c.faults,
        c.dropouts + c.timeouts + c.out_of_range + c.poisoned
    );
    assert!(c.dropouts >= 1, "no dropouts at p=0.2 over {n_ticks} ticks");
    // Injected NaN clouds are caught by the finite check before the
    // controller ever sees them.
    assert!(
        c.poisoned >= 1,
        "no poisoning at p=0.05 over {n_ticks} ticks"
    );
    // Roughly 25% of ticks fault; leave slack for the seeded draw.
    let fault_rate = c.faults as f64 / n_ticks as f64;
    assert!(
        (0.10..0.45).contains(&fault_rate),
        "fault rate {fault_rate}"
    );

    // 5. The Display summary reports the fault section.
    let summary = looop.telemetry().to_string();
    assert!(summary.contains("faults"), "{summary}");
}
