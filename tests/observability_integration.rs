//! Cross-crate observability integration.
//!
//! Two scenarios:
//!
//! 1. A 1k-tick faulty scalar loop whose tick telemetry must export to JSONL
//!    and parse back **bit-exactly** (`parse(export(t)) == t`) — the
//!    acceptance criterion for the structured exporter — with the per-stage
//!    breakdown consistent with the blended totals on every record.
//! 2. A traced lidar → STARNet monitor loop proving the span/attribution
//!    machinery composes with the real perception stack: spans cover every
//!    stage, the deterministic `SimClock` makes them reproducible, and the
//!    perceive stage dominates the energy ledger as charged.

mod common;

use sensact::core::export::{
    parse_spans, parse_ticks, spans_to_jsonl, text_report, ticks_to_jsonl,
};
use sensact::core::fault::{FaultInjector, FaultProfile, RecoveryPolicy, Reliable, WithFallback};
use sensact::core::stage::{FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact::core::{FallibleLoop, MetricsRegistry, StageId, Tracer};
use sensact::lidar::raycast::{Lidar, LidarConfig};
use sensact::lidar::scene::SceneGenerator;
use sensact::lidar::PointCloud;
use sensact::starnet::features::extract_features;
use sensact::starnet::monitor::train_on_clouds;

#[test]
fn jsonl_tick_export_round_trips_for_a_1k_tick_faulty_run() {
    const TICKS: usize = common::FAULTY_TICKS;
    let mut looop = common::faulty_loop(77);

    let mut plant = 3.0f64;
    for _ in 0..TICKS {
        let out = looop.tick(&plant);
        plant += out.action + 0.01;
    }
    assert_eq!(looop.telemetry().ticks(), TICKS as u64);

    // The run actually exercised the fault machinery.
    let c = looop.telemetry().fault_counters();
    assert!(c.faults > 50, "only {} faults in 1k faulty ticks", c.faults);
    assert!(c.holds > 0 || c.fallbacks > 0);

    // All 1000 records retained (capacity was sized to the run)…
    let originals: Vec<_> = looop.telemetry().records().collect();
    assert_eq!(originals.len(), TICKS);
    // …and every one round-trips bit-exactly through JSONL.
    let jsonl = ticks_to_jsonl(looop.telemetry());
    assert_eq!(jsonl.lines().count(), TICKS);
    let reparsed = parse_ticks(&jsonl);
    assert_eq!(reparsed, originals, "parse(export(t)) != t");

    // Per-stage attribution is present and consistent on every record.
    for rec in &originals {
        assert!(
            (rec.stages.total_energy_j() - rec.energy_j).abs() < 1e-12,
            "tick {}: stage energies {} != blended {}",
            rec.tick,
            rec.stages.total_energy_j(),
            rec.energy_j
        );
        assert!((rec.stages.total_latency_s() - rec.latency_s).abs() < 1e-12);
    }
    // The sensor dominates energy, as charged (2e-4 vs 3e-5 vs 1e-5).
    let totals = looop.telemetry().stage_totals();
    assert!(
        totals.get(StageId::Sense).energy_j > totals.get(StageId::Perceive).energy_j,
        "sense should dominate perceive"
    );
    assert!(totals.get(StageId::Perceive).energy_j > totals.get(StageId::Control).energy_j);

    // The registry export carries the same aggregates.
    let mut reg = MetricsRegistry::new();
    looop.telemetry().export_into(&mut reg);
    assert_eq!(reg.counter("loop.ticks_total"), TICKS as u64);
    assert_eq!(reg.counter("loop.faults_total"), c.faults);
    assert_eq!(
        reg.histogram("loop.tick.latency_s").unwrap().count(),
        TICKS as u64
    );
}

#[test]
fn traced_lidar_starnet_loop_attributes_perception_cost() {
    let lidar = Lidar::new(LidarConfig::default());
    let clean_clouds: Vec<PointCloud> = SceneGenerator::new(5)
        .generate_many(12)
        .iter()
        .map(|s| lidar.scan(s))
        .collect();
    let monitor = train_on_clouds(&clean_clouds, common::fast_monitor_config(), 0);

    let sensor = FaultInjector::new(
        FnSensor::new(|cloud: &PointCloud, ctx: &mut StageContext| {
            ctx.charge(5e-4, 2e-3);
            cloud.clone()
        }),
        FaultProfile {
            dropout: 0.10,
            ..FaultProfile::none()
        },
        3,
    );
    let mut looop = FallibleLoop::new(
        "traced-lidar",
        sensor,
        Reliable(FnPerceptor::new(
            |cloud: &PointCloud, ctx: &mut StageContext| {
                ctx.charge(2e-3, 5e-3);
                extract_features(cloud)
            },
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
        ..RecoveryPolicy::default()
    })
    .with_tracer(Tracer::sim(1e-3));

    let n_ticks = 40usize;
    let mut eval = SceneGenerator::new(50);
    for _ in 0..n_ticks {
        let cloud = lidar.scan(&eval.generate());
        let _ = looop.tick(&cloud);
    }
    assert_eq!(looop.telemetry().ticks(), n_ticks as u64);

    // Spans cover every tick; each successful tick emits all five stages.
    let spans: Vec<_> = looop.tracer().spans().copied().collect();
    assert!(spans.len() >= n_ticks * 3, "only {} spans", spans.len());
    let ticks_covered: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tick).collect();
    assert_eq!(ticks_covered.len(), n_ticks);
    let full_ticks = (0..n_ticks as u64)
        .filter(|t| {
            let stages: std::collections::BTreeSet<usize> = spans
                .iter()
                .filter(|s| s.tick == *t && s.ok)
                .map(|s| s.stage.index())
                .collect();
            stages.len() == StageId::ALL.len()
        })
        .count();
    assert!(
        full_ticks > n_ticks / 2,
        "only {full_ticks} full-span ticks"
    );
    // Dropouts show up as failed sense spans.
    let failed_sense = spans
        .iter()
        .filter(|s| !s.ok && s.stage == StageId::Sense)
        .count() as u64;
    assert_eq!(failed_sense, looop.telemetry().fault_counters().dropouts);

    // Span JSONL round-trips too.
    let reparsed = parse_spans(&spans_to_jsonl(&spans));
    assert_eq!(reparsed, spans);

    // The perceptor (feature extraction) is the energy hog, as charged:
    // exactly the Fig. 5a-style per-stage visibility the issue asks for.
    let totals = looop.telemetry().stage_totals();
    assert!(
        totals.get(StageId::Perceive).energy_j > totals.get(StageId::Sense).energy_j,
        "perceive {} <= sense {}",
        totals.get(StageId::Perceive).energy_j,
        totals.get(StageId::Sense).energy_j
    );
    // The monitor (STARNet likelihood regret) charges real energy too.
    assert!(totals.get(StageId::Monitor).energy_j > 0.0);

    // The text report renders the whole thing without panicking and names
    // every stage.
    let report = text_report(looop.name(), looop.telemetry());
    for stage in StageId::ALL {
        assert!(report.contains(stage.name()), "report missing {stage}");
    }
    assert!(report.contains("tick latency histogram"));
}
