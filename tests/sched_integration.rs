//! Cross-crate fleet-runtime integration.
//!
//! Three pillars:
//!
//! 1. A **mixed fleet** — a fault-injected lidar → STARNet monitor loop, two
//!    cartpole → Koopman control loops under disturbances, and a handful of
//!    scalar control loops — multiplexed by one [`FleetScheduler`] over a
//!    deterministic 4-worker pool. Every member executes its full release
//!    schedule, per-loop telemetry survives the multiplexing, and the
//!    injected faults land in the right member's counters.
//! 2. The **determinism acceptance proof**: a seeded `SimClock` fleet run is
//!    captured through PR 4's [`Recording`] from a member loop, then a
//!    freshly built identical loop replays the recording standalone with
//!    zero [`Divergence`] — scheduling thousands of interleaved ticks does
//!    not perturb a member's virtual-time behavior by a single bit.
//! 3. The **threaded driver is the same event loop**: with one worker
//!    `run` equals `run_deterministic` field for field, without a watts cap
//!    it repeats, and a panicking member surfaces instead of hanging.

mod common;

use common::fast_monitor_config;
use sensact::core::fault::{FaultInjector, FaultProfile, RecoveryPolicy, Reliable, WithFallback};
use sensact::core::replay::{first_divergence, Recording};
use sensact::core::stage::{AlwaysTrust, FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact::core::trace::SimClock;
use sensact::core::{
    FallibleLoop, FleetTracer, LoopBuilder, LoopRunner, MetricsRegistry, TickRecord,
};
use sensact::koopman::baselines::LatentModel;
use sensact::koopman::cartpole::{CartPole, CartPoleConfig, Disturbance, OBS_DIM};
use sensact::koopman::control::LqrLatentController;
use sensact::koopman::encoder::SpectralKoopman;
use sensact::koopman::train::collect_dataset;
use sensact::lidar::raycast::{Lidar, LidarConfig};
use sensact::lidar::scene::SceneGenerator;
use sensact::lidar::PointCloud;
use sensact::sched::{
    FleetConfig, FleetReport, FleetScheduler, LoopHandle, LoopId, LoopSpec, LoopStats,
};
use sensact::starnet::features::extract_features;
use sensact::starnet::monitor::train_on_clouds;

/// A lidar → STARNet member with a fault-injected acquisition stage. The
/// handle owns the scene stream: each tick re-scans a fresh generated scene.
fn starnet_member() -> LoopHandle {
    let lidar = Lidar::new(LidarConfig::default());
    let clean: Vec<PointCloud> = SceneGenerator::new(1)
        .generate_many(12)
        .iter()
        .map(|s| lidar.scan(s))
        .collect();
    let monitor = train_on_clouds(&clean, fast_monitor_config(), 0);

    let looop = FallibleLoop::new(
        "starnet-lidar",
        FaultInjector::new(
            FnSensor::new(|cloud: &PointCloud, ctx: &mut StageContext| {
                ctx.charge(1e-3, 1e-4);
                cloud.clone()
            }),
            FaultProfile {
                dropout: 0.25,
                nan: 0.05,
                ..FaultProfile::none()
            },
            9,
        ),
        Reliable(FnPerceptor::new(
            |cloud: &PointCloud, _: &mut StageContext| extract_features(cloud),
        )),
        monitor,
        WithFallback::new(
            FnController::new(
                |_f: &Vec<f64>, trust: Trust, _: &mut StageContext| {
                    if trust.is_actionable() {
                        1.0
                    } else {
                        0.0
                    }
                },
            ),
            -1.0,
        ),
    )
    .with_recovery(RecoveryPolicy {
        max_retries: 0,
        max_hold_ticks: 1,
        staleness_decay: 0.3,
        ..RecoveryPolicy::default()
    });

    let mut eval = SceneGenerator::new(40);
    let first = lidar.scan(&eval.generate());
    LoopHandle::closed(looop, first, move |cloud, _action| {
        *cloud = lidar.scan(&eval.generate());
    })
}

/// A cartpole → Koopman member: spectral Koopman encoder, latent LQR
/// controller, disturbance-injected plant owned by the handle.
fn koopman_member(seed: u64) -> LoopHandle {
    let data = collect_dataset(300, seed);
    let mut model = SpectralKoopman::new(seed);
    for epoch in 0..3 {
        model.train_epoch(&data, epoch);
    }
    let lqr = LqrLatentController::synthesize(&mut model, 0.001).expect("LQR synthesis");

    let looop = LoopBuilder::new(format!("koopman-{seed}")).build(
        FnSensor::new(|env: &CartPole, ctx: &mut StageContext| {
            ctx.charge(2e-4, 1e-4);
            env.observe()
        }),
        FnPerceptor::new(move |obs: &[f64; OBS_DIM], _: &mut StageContext| model.encode(&obs[..])),
        FnController::new(move |z: &Vec<f64>, _t: Trust, ctx: &mut StageContext| {
            ctx.charge(1e-5, 1e-5);
            lqr.act(z)
        }),
    );

    let mut plant = CartPole::new(CartPoleConfig::default(), seed);
    plant.set_disturbance(Disturbance::with_probability(0.1));
    LoopHandle::closed(looop, plant, |env, force| {
        env.step(*force);
    })
}

/// A trivial scalar control member.
fn scalar_member(name: &str) -> LoopHandle {
    costed_member(name, 1e-4)
}

/// A scalar control member charging `latency_s` per tick.
fn costed_member(name: &str, latency_s: f64) -> LoopHandle {
    let looop = LoopBuilder::new(name).build(
        FnSensor::new(move |e: &f64, ctx: &mut StageContext| {
            ctx.charge(1e-6, latency_s);
            *e
        }),
        FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
        FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.4 * f),
    );
    LoopHandle::closed(looop, 1.0f64, |e, a| *e += a)
}

#[test]
fn mixed_fleet_multiplexes_starnet_and_koopman_members_through_faults() {
    let mut fleet = FleetScheduler::new(FleetConfig {
        workers: 4,
        watts_cap: None,
        seed: 11,
    });
    // Periods divide the 0.1 s horizon exactly: 20 / 50 / 50 / 10 / 10 ticks.
    let starnet = fleet.register(starnet_member(), LoopSpec::periodic(5e-3));
    let koop_a = fleet.register(koopman_member(3), LoopSpec::periodic(2e-3));
    let koop_b = fleet.register(koopman_member(4), LoopSpec::periodic(2e-3));
    let ctrl_a = fleet.register(scalar_member("ctrl-a"), LoopSpec::periodic(1e-2));
    let ctrl_b = fleet.register(scalar_member("ctrl-b"), LoopSpec::periodic(1e-2));

    let mut clock = SimClock::new();
    let report = fleet.run_deterministic(0.1, &mut clock);

    // Every member executed its full release schedule — the fleet is far
    // under capacity, so nothing may be dropped or late.
    let expected = [
        (starnet, 20),
        (koop_a, 50),
        (koop_b, 50),
        (ctrl_a, 10),
        (ctrl_b, 10),
    ];
    for (id, ticks) in expected {
        assert_eq!(fleet.loop_stats(id).ticks, ticks, "{}", fleet.loop_name(id));
        assert_eq!(
            fleet.loop_telemetry(id).ticks(),
            ticks,
            "telemetry survives multiplexing"
        );
    }
    assert_eq!(report.ticks, 140);
    assert_eq!(report.drops, 0);
    assert!(
        clock.peek_s() > 0.0,
        "SimClock must track the virtual frontier"
    );

    // The injected faults landed in the STARNet member — and only there.
    let starnet_faults = fleet.loop_telemetry(starnet).fault_counters();
    assert!(
        starnet_faults.dropouts > 0,
        "25% dropout over 20 ticks must fault at least once"
    );
    for id in [koop_a, koop_b, ctrl_a, ctrl_b] {
        assert_eq!(fleet.loop_telemetry(id).fault_counters().faults, 0);
    }

    // The cartpole plants actually ran under LQR: charged energy flowed.
    assert!(fleet.loop_stats(koop_a).energy_j > 0.0);

    // Scheduler metrics export: counters visible in the registry text.
    let mut registry = MetricsRegistry::new();
    report.export_into(&mut registry);
    assert_eq!(registry.counter("sched.ticks_total"), 140);
    let text = registry.to_string();
    assert!(text.contains("sched.deadline_miss_total"), "{text}");
    assert!(report.to_string().contains("starnet-lidar"));
}

const REPLAY_TICKS: u64 = 100;
const FAULT_SEED: u64 = 21;

/// The fleet member and the standalone replay loop must be built from
/// identical ingredients; one constructor keeps them from drifting apart.
#[allow(clippy::type_complexity)]
fn faulty_member(
    seed: u64,
) -> FallibleLoop<
    FaultInjector<FnSensor<impl FnMut(&f64, &mut StageContext) -> f64>, f64>,
    Reliable<FnPerceptor<impl FnMut(&f64, &mut StageContext) -> f64>>,
    AlwaysTrust,
    WithFallback<FnController<impl FnMut(&f64, Trust, &mut StageContext) -> f64>, f64>,
    sensact::core::adapt::NoAdaptation,
    f64,
> {
    FallibleLoop::new(
        "replay-member",
        FaultInjector::new(
            FnSensor::new(|env: &f64, ctx: &mut StageContext| {
                ctx.charge(2e-4, 1e-4);
                *env
            }),
            FaultProfile {
                dropout: 0.15,
                nan: 0.05,
                ..FaultProfile::none()
            },
            seed,
        ),
        Reliable(FnPerceptor::new(|r: &f64, _: &mut StageContext| *r)),
        AlwaysTrust,
        WithFallback::new(
            FnController::new(|f: &f64, trust: Trust, _: &mut StageContext| {
                -0.4 * f * (1.0 - trust.suspicion())
            }),
            0.0,
        ),
    )
    .with_recovery(RecoveryPolicy {
        max_retries: 1,
        retry_energy_j: 5e-5,
        max_hold_ticks: 2,
        staleness_decay: 0.3,
        ..RecoveryPolicy::default()
    })
    .with_telemetry_capacity(REPLAY_TICKS as usize)
}

fn apply_plant(env: &mut f64, action: &f64) {
    *env += action + 0.01;
}

#[test]
fn seeded_fleet_run_replays_member_loop_with_zero_divergence() {
    let mut fleet = FleetScheduler::new(FleetConfig {
        workers: 2,
        watts_cap: None,
        seed: 5,
    });
    let member = fleet.register(
        LoopHandle::closed(faulty_member(FAULT_SEED), 3.0f64, apply_plant),
        LoopSpec::periodic(1e-3),
    );
    // Interleaving pressure: other members contend for the virtual workers.
    for i in 0..3 {
        fleet.register(scalar_member(&format!("bg-{i}")), LoopSpec::periodic(4e-3));
    }

    let report = fleet.run_deterministic(0.1, &mut SimClock::new());
    assert_eq!(fleet.loop_stats(member).ticks, REPLAY_TICKS);
    assert!(
        report.ticks > REPLAY_TICKS,
        "the fleet must actually interleave"
    );
    assert!(
        fleet.loop_telemetry(member).fault_counters().faults > 0,
        "the member must run through injected faults"
    );

    // Capture the member through the PR 4 recording format...
    let recording = Recording::capture("replay-member", FAULT_SEED, fleet.loop_telemetry(member));
    assert_eq!(recording.meta.ticks, REPLAY_TICKS);

    // ...and replay a freshly built identical loop, standalone — no
    // scheduler. Zero divergence: fleet multiplexing left no trace in the
    // member's virtual-time telemetry.
    let mut standalone = faulty_member(FAULT_SEED);
    let mut plant = 3.0f64;
    let verified = standalone
        .replay(&mut plant, &recording, apply_plant)
        .expect("seeded fleet run must replay with zero divergence");
    assert_eq!(verified, REPLAY_TICKS);

    // And a second fleet run reproduces the same recording bit-for-bit.
    let mut fleet2 = FleetScheduler::new(FleetConfig {
        workers: 2,
        watts_cap: None,
        seed: 5,
    });
    let member2 = fleet2.register(
        LoopHandle::closed(faulty_member(FAULT_SEED), 3.0f64, apply_plant),
        LoopSpec::periodic(1e-3),
    );
    for i in 0..3 {
        fleet2.register(scalar_member(&format!("bg-{i}")), LoopSpec::periodic(4e-3));
    }
    let report2 = fleet2.run_deterministic(0.1, &mut SimClock::new());
    assert_eq!(report2.trace_hash, report.trace_hash);
    let recording2 =
        Recording::capture("replay-member", FAULT_SEED, fleet2.loop_telemetry(member2));
    assert_eq!(recording2, recording);
}

/// A scalar member whose sensor panics on its fourth tick.
fn panicking_member() -> LoopHandle {
    let mut ticks = 0u32;
    let looop = LoopBuilder::new("doomed").build(
        FnSensor::new(move |e: &f64, ctx: &mut StageContext| {
            ticks += 1;
            assert!(ticks < 4, "member exploded");
            ctx.charge(1e-6, 1e-4);
            *e
        }),
        FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
        FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.4 * f),
    );
    LoopHandle::closed(looop, 1.0f64, |e, a| *e += a)
}

/// A member panic used to leave the other workers spinning on a counter
/// that could no longer reach zero, so `run` never returned. The run is on
/// its own thread and bounded through a channel so that regression fails
/// this test instead of stalling the harness.
#[test]
fn threaded_run_propagates_a_member_panic() {
    let mut fleet = FleetScheduler::new(FleetConfig {
        workers: 4,
        watts_cap: None,
        seed: 1,
    });
    for i in 0..7 {
        fleet.register(scalar_member(&format!("ok-{i}")), LoopSpec::periodic(1e-3));
    }
    fleet.register(panicking_member(), LoopSpec::periodic(1e-3));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let run = std::panic::AssertUnwindSafe(move || fleet.run(0.05));
        let _ = tx.send(std::panic::catch_unwind(run).map(|report| report.ticks));
    });
    let panic = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("run must return or unwind, not hang")
        .expect_err("the member's panic must surface from run");
    let message = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(message.contains("member exploded"), "{message:?}");
}

/// Every [`FleetReport`] field but `wall_s`, floats by bit pattern.
fn assert_same_report(a: &FleetReport, b: &FleetReport) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(
        (
            a.workers,
            a.ticks,
            a.drops,
            a.deadline_misses,
            a.throttle_events
        ),
        (
            b.workers,
            b.ticks,
            b.drops,
            b.deadline_misses,
            b.throttle_events
        )
    );
    assert_eq!(
        bits(&[a.horizon_s, a.makespan_s, a.energy_j]),
        bits(&[b.horizon_s, b.makespan_s, b.energy_j])
    );
    assert_eq!(bits(&a.worker_busy_s), bits(&b.worker_busy_s));
    let depth = |r: &FleetReport| {
        let q = &r.queue_depth;
        (
            q.count(),
            bits(&[q.sum(), q.min(), q.max()]),
            q.nonzero_buckets().iter().map(|b| b.2).collect::<Vec<_>>(),
        )
    };
    assert_eq!(depth(a), depth(b));
    assert_eq!(a.loops, b.loops);
    assert_eq!(a.loop_health, b.loop_health);
    assert_eq!(a.health, b.health);
    assert_eq!(a.incidents.len(), b.incidents.len());
    for (x, y) in a.incidents.iter().zip(&b.incidents) {
        assert_eq!(
            (x.worker, x.loop_idx, x.at_s.to_bits(), x.reason, &x.spans),
            (y.worker, y.loop_idx, y.at_s.to_bits(), y.reason, &y.spans)
        );
    }
}

/// One thread over the whole fleet on one virtual worker is the
/// deterministic run: same report — flight-recorder incidents of a miss
/// storm included — and the same telemetry in every member.
#[test]
fn one_worker_threaded_run_equals_the_deterministic_run() {
    let build = || {
        let mut fleet = FleetScheduler::new(FleetConfig {
            workers: 1,
            watts_cap: None,
            seed: 3,
        });
        fleet.set_tracer(std::sync::Arc::new(FleetTracer::new()));
        // Every tick of the first member misses: 5 ms against a 1 ms budget.
        fleet.register(
            costed_member("stormy", 5e-3),
            LoopSpec::periodic(1e-2).with_budget(1e-3),
        );
        fleet.register(scalar_member("calm"), LoopSpec::periodic(1e-2));
        fleet.register(
            costed_member("swamped", 9e-3),
            LoopSpec::periodic(2e-3).with_queue_capacity(2),
        );
        fleet
    };
    let mut simulated = build();
    let mut threaded = build();
    let want = simulated.run_deterministic(2.0, &mut SimClock::new());
    let got = threaded.run(2.0);
    assert!(
        !want.incidents.is_empty(),
        "the storm must trip the recorder"
    );
    assert!(want.drops > 0 && want.deadline_misses > 0);
    assert_same_report(&got, &want);
    for i in 0..simulated.len() {
        let records = |fleet: &FleetScheduler| -> Vec<TickRecord> {
            fleet.loop_telemetry(LoopId(i)).records().collect()
        };
        assert_eq!(
            first_divergence(&records(&simulated), &records(&threaded)),
            None
        );
        assert_eq!(
            threaded.loop_stats(LoopId(i)),
            simulated.loop_stats(LoopId(i))
        );
    }
    assert_eq!(
        threaded.tracer().spans(),
        simulated.tracer().spans(),
        "one lane records the same span stream"
    );
}

/// Partitions share nothing but the arbiter, and without a watts cap the
/// arbiter never feeds back: the threaded run is reproducible.
#[test]
fn threaded_run_repeats_without_a_watts_cap() {
    let run = |workers: usize, loops: usize| -> (FleetReport, Vec<LoopStats>) {
        let mut fleet = FleetScheduler::new(FleetConfig {
            workers,
            watts_cap: None,
            seed: 13,
        });
        for i in 0..loops {
            // Mixed load: most members idle along, every fifth overruns its
            // budget, every seventh sheds releases.
            let (latency_s, spec) = match i {
                _ if i % 5 == 4 => (3e-3, LoopSpec::periodic(4e-3).with_budget(2e-3)),
                _ if i % 7 == 6 => (2e-3, LoopSpec::periodic(5e-4).with_queue_capacity(2)),
                _ => (1e-4 + 1e-5 * i as f64, LoopSpec::periodic(2e-3)),
            };
            fleet.register(costed_member(&format!("m{i}"), latency_s), spec);
        }
        let report = fleet.run(0.2);
        let stats = (0..loops).map(|i| fleet.loop_stats(LoopId(i))).collect();
        (report, stats)
    };
    let (first, first_stats) = run(4, 37);
    let (second, second_stats) = run(4, 37);
    assert_ne!(first.trace_hash, 0);
    assert_eq!(first.trace_hash, second.trace_hash);
    assert_eq!(first_stats, second_stats);
    assert!(first.drops > 0 && first.deadline_misses > 0);
    assert!(first.worker_busy_s.iter().all(|&busy| busy > 0.0));

    // More workers than loops: one loop per thread, the rest never start.
    let (sparse, _) = run(8, 3);
    assert_eq!(sparse.worker_busy_s.len(), 8);
    assert!(sparse.worker_busy_s[..3].iter().all(|&busy| busy > 0.0));
    assert!(sparse.worker_busy_s[3..].iter().all(|&busy| busy == 0.0));
}
