//! Cross-crate integration: the sensing-to-action loop abstraction running
//! real subsystem stages (LiDAR sensing, STARNet monitoring, adaptation).

mod common;

use common::fast_monitor_config;
use sensact::core::adapt::{ActionMagnitudeRate, SensingKnobs};
use sensact::core::fault::TrySensor;
use sensact::core::replay::diff_records;
use sensact::core::stage::{
    FnController, FnMonitor, FnPerceptor, FnSensor, Sensor, StageContext, Trust,
};
use sensact::core::{
    EnergyBudget, FallibleLoop, LoopBuilder, Reliable, StageError, TickResolution, Tracer,
    WithFallback,
};
use sensact::lidar::corrupt::{Corruption, CorruptionKind};
use sensact::lidar::raycast::{Lidar, LidarConfig};
use sensact::lidar::scene::SceneGenerator;
use sensact::lidar::PointCloud;
use sensact::starnet::features::extract_features;
use sensact::starnet::monitor::train_on_clouds;

#[test]
fn lidar_starnet_loop_distrusts_corruption_and_fails_safe() {
    let lidar = Lidar::new(LidarConfig::default());
    let clean_clouds: Vec<PointCloud> = SceneGenerator::new(1)
        .generate_many(12)
        .iter()
        .map(|s| lidar.scan(s))
        .collect();
    let monitor = train_on_clouds(&clean_clouds, fast_monitor_config(), 0);

    let mut looop = LoopBuilder::new("integration").build_full(
        FnSensor::new(|cloud: &PointCloud, ctx: &mut StageContext| {
            ctx.charge(1e-3, 1e-3);
            cloud.clone()
        }),
        FnPerceptor::new(|cloud: &PointCloud, _: &mut StageContext| extract_features(cloud)),
        monitor,
        FnController::new(
            |_f: &Vec<f64>, trust: Trust, _: &mut StageContext| {
                if trust.is_actionable() {
                    1.0
                } else {
                    0.0
                }
            },
        ),
        sensact::core::adapt::NoAdaptation,
    );

    let mut eval = SceneGenerator::new(40);
    let mut clear_actions = Vec::new();
    let mut corrupt_actions = Vec::new();
    for tick in 0..8u64 {
        let clean = lidar.scan(&eval.generate());
        // Alternate clean / heavily corrupted streams.
        if tick % 2 == 0 {
            clear_actions.push(looop.tick(&clean).action);
        } else {
            let bad = Corruption::new(CorruptionKind::Crosstalk, 5).apply(&clean, tick);
            corrupt_actions.push(looop.tick(&bad).action);
        }
    }
    // Clean ticks act; corrupted ticks mostly fail safe.
    let clear_go = clear_actions.iter().filter(|&&a| a == 1.0).count();
    let corrupt_stop = corrupt_actions.iter().filter(|&&a| a == 0.0).count();
    assert!(clear_go >= 3, "only {clear_go}/4 clean ticks trusted");
    assert!(
        corrupt_stop >= 3,
        "only {corrupt_stop}/4 corrupted ticks stopped"
    );
    // Telemetry captured the alternating suspicion.
    assert!(looop.telemetry().suspect_fraction() >= 0.3);
    assert!(looop.budget().consumed_j() > 0.0);
}

/// A LiDAR sensor whose pulse budget follows the loop's adapted rate.
#[derive(Debug)]
struct AdaptiveLidarSensor {
    lidar: Lidar,
    rate: f64,
}

impl SensingKnobs for AdaptiveLidarSensor {
    fn rate(&self) -> f64 {
        self.rate
    }
    fn set_rate(&mut self, r: f64) {
        self.rate = r.clamp(0.05, 1.0);
    }
}

impl Sensor<sensact::lidar::scene::Scene> for AdaptiveLidarSensor {
    type Reading = usize;
    fn sense(&mut self, scene: &sensact::lidar::scene::Scene, ctx: &mut StageContext) -> usize {
        // Fire a rate-proportional azimuth subset; charge per pulse.
        let keep = (512.0 * self.rate) as u16;
        let (cloud, fired) = self.lidar.scan_masked(scene, |_, az| az % 512 < keep);
        ctx.charge(fired as f64 * 50e-6, 1e-3);
        cloud.len()
    }
}

#[test]
fn action_to_sensing_adaptation_cuts_lidar_energy_when_quiet() {
    let scene = SceneGenerator::new(2).generate();
    let run = |adaptive: bool| -> f64 {
        let sensor = AdaptiveLidarSensor {
            lidar: Lidar::new(LidarConfig::default()),
            rate: 1.0,
        };
        let perceptor = FnPerceptor::new(|n: &usize, _: &mut StageContext| *n as f64);
        let controller = FnController::new(|_f: &f64, _t: Trust, _: &mut StageContext| 0.0f64);
        if adaptive {
            let mut l = LoopBuilder::new("adaptive")
                .with_budget(EnergyBudget::unlimited())
                .build_full(
                    sensor,
                    perceptor,
                    sensact::core::stage::AlwaysTrust,
                    controller,
                    ActionMagnitudeRate::default(),
                );
            for _ in 0..10 {
                let _ = l.tick(&scene);
            }
            l.telemetry().total_energy_j()
        } else {
            let mut l = LoopBuilder::new("fixed").build(sensor, perceptor, controller);
            for _ in 0..10 {
                let _ = l.tick(&scene);
            }
            l.telemetry().total_energy_j()
        }
    };
    let fixed = run(false);
    let adaptive = run(true);
    assert!(
        adaptive < fixed * 0.6,
        "adaptive {adaptive} J vs fixed {fixed} J"
    );
}

/// A scalar sensor with a rate knob that is both a `Sensor` and a (never
/// failing) `TrySensor`, so the same stage drives either runner.
struct RateSensor {
    rate: f64,
}

impl SensingKnobs for RateSensor {
    fn rate(&self) -> f64 {
        self.rate
    }
    fn set_rate(&mut self, r: f64) {
        self.rate = r.clamp(0.0, 1.0);
    }
}

impl Sensor<f64> for RateSensor {
    type Reading = f64;
    fn sense(&mut self, env: &f64, ctx: &mut StageContext) -> f64 {
        ctx.charge(1e-3 * self.rate, 1e-4);
        *env
    }
}

impl TrySensor<f64> for RateSensor {
    type Reading = f64;
    fn try_sense(&mut self, env: &f64, ctx: &mut StageContext) -> Result<f64, StageError> {
        Ok(self.sense(env, ctx))
    }
}

/// The two runners are one tick frame: over the same never-failing stages —
/// budgeted, a trust spike mid-run, adaptive sensing, traced —
/// `FallibleLoop` is `SensingActionLoop`, bit for bit, every tick. (Short
/// mirror of `fault::tests::clean_loop_matches_infallible_behavior`.)
#[test]
fn fallible_runner_over_reliable_stages_is_the_infallible_runner() {
    let perceptor = || FnPerceptor::new(|r: &f64, _: &mut StageContext| *r);
    let monitor = || {
        FnMonitor::new(|f: &f64, _: &mut StageContext| {
            if f.abs() > 10.0 {
                Trust::Suspect(0.9)
            } else {
                Trust::Trusted
            }
        })
    };
    let controller = || FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.3 * f);
    let mut plain = LoopBuilder::new("plain")
        .with_budget(EnergyBudget::new(0.03))
        .with_tracer(Tracer::sim(0.5))
        .build_full(
            RateSensor { rate: 1.0 },
            perceptor(),
            monitor(),
            controller(),
            ActionMagnitudeRate::default(),
        );
    let mut lifted = FallibleLoop::new(
        "lifted",
        RateSensor { rate: 1.0 },
        Reliable(perceptor()),
        monitor(),
        WithFallback::new(controller(), 0.0),
    )
    .with_budget(EnergyBudget::new(0.03))
    .with_tracer(Tracer::sim(0.5))
    .with_policy(ActionMagnitudeRate::default());
    let (mut env_plain, mut env_lifted) = (8.0f64, 8.0f64);
    for t in 0..48 {
        if t == 30 {
            (env_plain, env_lifted) = (50.0, 50.0);
        }
        let a = plain.tick(&env_plain);
        let b = lifted.tick(&env_lifted);
        assert_eq!(a.action.to_bits(), b.action.to_bits(), "tick {t} action");
        assert_eq!(b.resolution, TickResolution::Fresh);
        let (ra, rb) = (
            plain.telemetry().last_record().unwrap(),
            lifted.telemetry().last_record().unwrap(),
        );
        assert_eq!(diff_records(&ra, &rb), None, "tick {t} record");
        env_plain += a.action;
        env_lifted += b.action;
    }
    assert!(
        plain.telemetry().suspect_fraction() > 0.0,
        "the spike must reach the monitor"
    );
    assert_eq!(
        plain.sensor().rate().to_bits(),
        lifted.sensor().rate().to_bits()
    );
    assert_eq!(
        plain.budget().consumed_j().to_bits(),
        lifted.budget().consumed_j().to_bits()
    );
    let spans = |t: &Tracer| t.spans().copied().collect::<Vec<_>>();
    assert_eq!(spans(plain.tracer()), spans(lifted.tracer()));
}
