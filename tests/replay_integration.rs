//! Cross-crate record/replay conformance.
//!
//! The ISSUE 4 acceptance criterion, end to end: a 1k-tick faulty run —
//! dropouts, NaN poisoning, latency spikes, retries, holds and fallbacks —
//! is recorded, shipped through JSONL, and replayed by a freshly built loop
//! with `replayed.records() == recorded.records()` holding **bit-exactly**.
//! A loop rebuilt with the wrong fault seed must instead diverge, and the
//! diagnosis must name the first divergent tick.

mod common;

use common::FAULTY_TICKS as TICKS;
use sensact::core::export::parse_ticks;
use sensact::core::replay::{first_divergence, Recording};
use sensact::core::telemetry::TickRecord;
use sensact::core::{LoopRunner, Precision, Tracer};

const SEED: u64 = 77;

fn drive(looop: &mut impl FnMut(&f64) -> f64) -> f64 {
    let mut plant = 3.0f64;
    for _ in 0..TICKS {
        plant += looop(&plant) + 0.01;
    }
    plant
}

#[test]
fn faulty_1k_tick_run_replays_bit_exactly_through_jsonl() {
    let faulty_loop = |seed| common::faulty_loop(seed).with_tracer(Tracer::sim(1e-3));
    let mut recorded_loop = faulty_loop(SEED);
    drive(&mut |p| recorded_loop.tick(p).action);
    let counters = recorded_loop.telemetry().fault_counters();
    assert!(
        counters.faults > 50,
        "only {} faults in 1k faulty ticks",
        counters.faults
    );
    assert!(counters.retries > 0 && (counters.holds > 0 || counters.fallbacks > 0));

    // Record, with spans, and ship through the PR 3 JSONL format.
    let spans: Vec<_> = recorded_loop.tracer().spans().copied().collect();
    assert!(!spans.is_empty(), "traced run must produce spans");
    let recording =
        Recording::capture("replay-it", SEED, recorded_loop.telemetry()).with_spans(spans.clone());
    let jsonl = recording.to_jsonl();
    // The stream is plain PR 3 tick events plus one meta line — the
    // existing consumers keep working on it.
    assert_eq!(parse_ticks(&jsonl).len(), TICKS);
    let parsed = Recording::from_jsonl(&jsonl);
    assert_eq!(parsed, recording, "JSONL recording round-trip");
    assert_eq!(parsed.meta.seed, SEED);
    assert_eq!(parsed.meta.ticks, TICKS as u64);
    assert_eq!(parsed.spans, spans);

    // Replay a freshly built loop against the parsed recording.
    let mut replayed_loop = faulty_loop(parsed.meta.seed);
    let mut plant = 3.0f64;
    let verified = replayed_loop
        .replay(&mut plant, &parsed, |p, a| *p += a + 0.01)
        .expect("same seed must replay bit-exactly");
    assert_eq!(verified, TICKS as u64);

    // The acceptance criterion, literally.
    let recorded: Vec<TickRecord> = recorded_loop.telemetry().records().collect();
    let replayed: Vec<TickRecord> = replayed_loop.telemetry().records().collect();
    assert_eq!(
        replayed, recorded,
        "replayed.records() != recorded.records()"
    );
    assert_eq!(first_divergence(&recorded, &replayed), None);

    // A recording made while a precision schedule existed carries non-f64
    // ticks; every loop now ticks at f64, so such a recording must name the
    // first of them rather than pass.
    let mut mixed = parsed.clone();
    mixed.ticks[123].precision = Precision::F32;
    mixed.ticks[500].precision = Precision::Int8;
    let mut plant = 3.0f64;
    let divergence = faulty_loop(mixed.meta.seed)
        .replay(&mut plant, &mixed, |p, a| *p += a + 0.01)
        .expect_err("a mixed-precision recording cannot replay");
    assert_eq!(
        (divergence.tick, divergence.field.as_str()),
        (123, "precision")
    );
}

#[test]
fn wrong_fault_seed_diverges_with_named_tick() {
    let faulty_loop = |seed| common::faulty_loop(seed).with_tracer(Tracer::sim(1e-3));
    let mut recorded_loop = faulty_loop(SEED);
    drive(&mut |p| recorded_loop.tick(p).action);
    let recording = Recording::capture("replay-it", SEED, recorded_loop.telemetry());

    let mut imposter = faulty_loop(SEED + 1);
    let mut plant = 3.0f64;
    let divergence = imposter
        .replay(&mut plant, &recording, |p, a| *p += a + 0.01)
        .expect_err("a different fault schedule cannot replay bit-exactly");
    assert!(
        divergence.tick < TICKS as u64,
        "divergent tick out of range: {divergence}"
    );
    let msg = divergence.to_string();
    assert!(
        msg.contains(&format!("first divergence at tick {}", divergence.tick)),
        "diagnosis must name the tick: {msg}"
    );
    assert!(!divergence.field.is_empty());
}
