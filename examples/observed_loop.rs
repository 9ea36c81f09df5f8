//! Per-stage observability of a sensing-to-action loop.
//!
//! A faulty tracking loop runs with a deterministic `SimClock` tracer; the
//! demo then prints the three views the observability layer offers:
//!
//! 1. the human-readable text report (per-stage attribution table + ASCII
//!    latency histogram),
//! 2. a `MetricsRegistry` populated from the loop telemetry and bus
//!    counters, and
//! 3. round-trippable JSONL events (spans + ticks) with a proof that
//!    `parse(export(t)) == t`.
//!
//! Run: `cargo run --release --example observed_loop`

use sensact::core::export::{parse_ticks, spans_to_jsonl, text_report, ticks_to_jsonl};
use sensact::core::fault::{FaultInjector, FaultProfile, RecoveryPolicy, Reliable, WithFallback};
use sensact::core::stage::{AlwaysTrust, FnController, FnPerceptor, FnSensor, StageContext, Trust};
use sensact::core::{FallibleLoop, MetricsRegistry, Tracer};

fn main() {
    let mut plant = 4.0f64;
    let profile = FaultProfile {
        dropout: 0.10,
        stuck: 0.05,
        latency_spike: 0.08,
        spike_latency_s: 0.05,
        nan: 0.05,
    };
    let sensor = FaultInjector::new(
        FnSensor::new(|env: &f64, ctx: &mut StageContext| {
            ctx.charge(2e-4, 2e-3);
            *env
        }),
        profile,
        23,
    );

    let mut looop = FallibleLoop::new(
        "observed-demo",
        sensor,
        Reliable(FnPerceptor::new(|r: &f64, ctx: &mut StageContext| {
            ctx.charge(5e-5, 8e-4);
            *r
        })),
        AlwaysTrust,
        WithFallback::new(
            FnController::new(|f: &f64, trust: Trust, ctx: &mut StageContext| {
                ctx.charge(1e-5, 1e-4);
                -0.5 * f * (1.0 - trust.suspicion())
            }),
            0.0,
        ),
    )
    .with_recovery(RecoveryPolicy {
        max_retries: 1,
        retry_energy_j: 5e-5,
        max_hold_ticks: 2,
        staleness_decay: 0.35,
        latency_budget_s: Some(0.01),
    })
    // Deterministic clock: the same run always produces the same spans.
    .with_tracer(Tracer::sim(1e-4));

    for _ in 0..200 {
        let out = looop.tick(&plant);
        plant += out.action + 0.05;
    }

    // 1. The text report: where did the energy and latency go?
    print!("{}", text_report(looop.name(), looop.telemetry()));

    // 2. The metrics registry view (counters / gauges / histograms).
    let mut registry = MetricsRegistry::new();
    looop.telemetry().export_into(&mut registry);
    println!("\nmetrics registry:\n{registry}");

    // 3. Structured JSONL export — and proof that it round-trips.
    let spans = looop.tracer_mut().take_spans();
    let span_lines = spans_to_jsonl(&spans);
    let tick_lines = ticks_to_jsonl(looop.telemetry());
    println!("first span events:");
    for line in span_lines.lines().take(3) {
        println!("  {line}");
    }
    println!("first tick events:");
    for line in tick_lines.lines().take(2) {
        println!("  {line}");
    }
    let reparsed = parse_ticks(&tick_lines);
    let originals: Vec<_> = looop.telemetry().records().collect();
    assert_eq!(reparsed, originals, "JSONL tick export must round-trip");
    println!(
        "\n{} spans + {} tick events exported; tick JSONL round-trips bit-exactly",
        spans.len(),
        reparsed.len()
    );
}
