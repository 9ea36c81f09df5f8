//! End-to-end checkpoint conformance: restoring a live fallible loop
//! mid-recording and replaying the tail must produce zero [`Divergence`].
//!
//! The scenario is the hardest one the checkpoint layer supports: a
//! 1000-tick run with an active fault injector (dropouts, stuck-at, latency
//! spikes, NaN poison), retry/hold/fallback recovery and an energy budget.
//! The run is snapshotted at three adversarially chosen ticks — early,
//! exactly at the telemetry ring's wrap boundary, and inside a recovery hold
//! (stale features held, `staleness > 0`) — each checkpoint shipped through
//! its JSONL wire form, restored onto a freshly built twin, and the twin
//! replayed against the recorded tail through the replay differ.

use sensact_core::checkpoint::{Checkpoint, Section, Snapshot};
use sensact_core::fault::FnTryPerceptor;
use sensact_core::stage::{
    AlwaysTrust, FnController, FnMonitor, FnPerceptor, FnSensor, StageContext,
};
use sensact_core::{
    EnergyBudget, FallibleLoop, FaultInjector, FaultProfile, LoopBuilder, LoopRunner, Recording,
    RecoveryPolicy, SensingActionLoop, TickResolution, Tracer, Trust, WithFallback,
    CHECKPOINT_VERSION,
};

const TICKS: usize = 1000;
/// Telemetry ring capacity: wraps at tick 256, well inside the run.
const RING: usize = 256;
const SEED: u64 = 0x00C0_FFEE;

#[test]
fn restore_mid_recording_replays_tail_with_zero_divergence() {
    let profile = FaultProfile {
        dropout: 0.12,
        stuck: 0.05,
        latency_spike: 0.04,
        spike_latency_s: 5e-4,
        nan: 0.03,
    };
    let build = || {
        let sensor = FaultInjector::new(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                // Energy depends on the environment, so every record is
                // sensitive to each restored bit of env and action history.
                ctx.charge(2e-4 * (1.0 + 0.1 * e.abs()), 1e-4);
                *e
            }),
            profile,
            SEED,
        );
        FallibleLoop::new(
            "ckpt-conformance",
            sensor,
            FnTryPerceptor::new(|r: &f64, _: &mut StageContext| Ok(*r)),
            AlwaysTrust,
            WithFallback::new(
                FnController::new(|f: &f64, _t, _: &mut StageContext| -0.4 * f + 0.03),
                0.0,
            ),
        )
        .with_budget(EnergyBudget::new(0.5))
        .with_recovery(RecoveryPolicy {
            max_retries: 1,
            retry_energy_j: 1e-5,
            max_hold_ticks: 2,
            staleness_decay: 0.35,
            latency_budget_s: None,
        })
        .with_telemetry_capacity(RING)
    };

    // Uninterrupted reference run: collect every tick record (the ring only
    // retains the last RING of them) and locate a snapshot tick that lands
    // inside a recovery hold after the ring has wrapped twice.
    let mut reference = build();
    let mut env = 8.0f64;
    let mut records = Vec::with_capacity(TICKS);
    let mut hold_cut = None;
    for t in 0..TICKS {
        let out = reference.tick(&env);
        env += out.action;
        records.push(reference.telemetry().last_record().unwrap());
        let held = matches!(out.resolution, TickResolution::Held { .. });
        if hold_cut.is_none() && t > 2 * RING && held {
            hold_cut = Some(t + 1);
        }
    }
    let hold_cut = hold_cut.expect("a 12 % dropout run must hold after the second wrap");
    assert!(
        reference.telemetry().fault_counters().faults > 0,
        "faults must fire"
    );

    // Early / ring-wrap-boundary / mid-recovery-hold.
    for cut in [17, RING, hold_cut] {
        // Re-run the prefix on a fresh loop (bit-identical to the reference
        // prefix by determinism) and snapshot at the cut …
        let mut warm = build();
        let mut warm_env = 8.0f64;
        for _ in 0..cut {
            let out = warm.tick(&warm_env);
            warm_env += out.action;
        }
        let ckpt = with_env(warm.snapshot(), warm_env);
        if cut == hold_cut {
            let staleness = ckpt.section("loop").unwrap().get_u64("staleness");
            assert!(staleness.unwrap() > 0, "cut {cut} must land mid-hold");
        }
        // … ship it through the wire, kill the loop, and restore a freshly
        // built twin from the parsed checkpoint.
        let wire = ckpt.to_jsonl();
        drop(warm);
        let ckpt = Checkpoint::from_jsonl(&wire)
            .unwrap_or_else(|e| panic!("checkpoint at tick {cut} failed to parse: {e:?}"));
        let mut resumed = build();
        resumed
            .restore(&ckpt)
            .unwrap_or_else(|e| panic!("restore at tick {cut} failed: {e:?}"));
        let mut resumed_env = ckpt.section("env").unwrap().get_f64("state").unwrap();

        // Replay the recorded tail: the differ compares every field of every
        // tick record bit-for-bit and reports the first Divergence.
        let mut tail = Recording::capture("ckpt-conformance", SEED, reference.telemetry());
        tail.ticks = records[cut..].to_vec();
        let verified = resumed
            .replay(&mut resumed_env, &tail, |e, a| *e += a)
            .unwrap_or_else(|d| panic!("tail replay after restore at tick {cut} diverged: {d:?}"));
        assert_eq!(
            verified as usize,
            TICKS - cut,
            "cut {cut} must verify the whole tail"
        );
        // And the resumed loop's final environment matches the reference's.
        assert_eq!(
            resumed_env.to_bits(),
            env.to_bits(),
            "cut {cut}: resumed environment must land bit-identically"
        );
    }
}

/// The checkpoint wire, pinned: same section ids in the same order (`loop`
/// first for the fallible runner), same key names, same
/// `CHECKPOINT_VERSION`, same bytes.
const PINNED_FALLIBLE: &str = include_str!("data/fallible_mid_hold_trimmed.ckpt.jsonl");
const PINNED_INFALLIBLE: &str = include_str!("data/sensing_action_mid_hold_trimmed.ckpt.jsonl");

/// The same two scenarios as the runners wrote them while the wire also
/// carried the [`RETIRED_KEYS`]. Kept as back-compat fixtures.
const UNTRIMMED_FALLIBLE: &str = include_str!("data/fallible_mid_hold.ckpt.jsonl");
const UNTRIMMED_INFALLIBLE: &str = include_str!("data/sensing_action_mid_hold.ckpt.jsonl");

/// The same two scenarios as the runners wrote them while a precision
/// schedule existed (adaptive policy on, a `governor` section on the wire,
/// f32 / int8 ticks in the telemetry ring) and the wire carried the
/// [`RETIRED_KEYS`]. Kept as back-compat fixtures.
const GOVERNED_FALLIBLE: &str = include_str!("data/fallible_mid_hold_with_governor.ckpt.jsonl");
const GOVERNED_INFALLIBLE: &str =
    include_str!("data/sensing_action_mid_hold_with_governor.ckpt.jsonl");

/// Keys older writers put that no restore reads: telemetry's Welford
/// accumulators (a mean the totals give, a spread nothing read), the
/// budget's uncounted `deadline_misses`, the injector's test-only
/// `injected` counter and its profile-derived `active` flag, and the drift
/// tracker's baseline-derived `baseline_scale`.
const RETIRED_KEYS: [&str; 8] = [
    "energy_count",
    "energy_acc",
    "latency_count",
    "latency_acc",
    "deadline_misses",
    "injected",
    "active",
    "baseline_scale",
];

/// `doc` with every [`RETIRED_KEYS`] field deleted, byte for byte otherwise
/// (a document's keys and values hold neither `,` nor `"`).
fn trimmed(doc: &str) -> String {
    doc.lines()
        .map(|line| {
            let kept: Vec<&str> = line[1..line.len() - 1]
                .split(',')
                .filter(|field| {
                    !RETIRED_KEYS
                        .iter()
                        .any(|k| field.starts_with(&format!("\"{k}\":")))
                })
                .collect();
            format!("{{{}}}\n", kept.join(","))
        })
        .collect()
}

/// Ticks replayed after each pinned snapshot.
const PIN_TAIL: usize = 64;

/// Append the environment to a loop snapshot, as a closed handle would.
fn with_env(mut ckpt: Checkpoint, env: f64) -> Checkpoint {
    let mut s = Section::new("env");
    s.put_f64("state", env);
    ckpt.push(s);
    ckpt
}

/// A runner restored from a pinned document must replay the tail recorded by
/// the uninterrupted run with zero divergence and land on its environment.
fn assert_pinned_tail_replays<L: LoopRunner<f64, Action = f64>>(
    resumed: &mut L,
    pinned: &Checkpoint,
    tail: &Recording,
    final_env: f64,
) {
    let mut env = pinned.section("env").unwrap().get_f64("state").unwrap();
    let verified = resumed
        .replay(&mut env, tail, |e, a| *e += a)
        .unwrap_or_else(|d| panic!("pinned {} tail diverged: {d}", tail.meta.name));
    assert_eq!(verified as usize, PIN_TAIL);
    assert_eq!(env.to_bits(), final_env.to_bits());
}

fn section_ids(ckpt: &Checkpoint) -> Vec<&str> {
    ckpt.sections().iter().map(|s| s.id()).collect()
}

/// The section lines of a checkpoint document minus the named sections (and
/// minus the meta line, which counts them).
fn lines_outside<'a>(doc: &'a str, skip: &[&str]) -> Vec<&'a str> {
    doc.lines()
        .skip(1)
        .filter(|line| {
            !skip
                .iter()
                .any(|id| line.contains(&format!("\"id\":\"{id}\"")))
        })
        .collect()
}

/// The precision schedule never touched energy, latency, trust, RNG position
/// or spans: the document a governed runner wrote, trimmed, equals today's
/// pin byte for byte in every section but `governor` (gone) and `telemetry`
/// (whose precision columns held the schedule).
fn assert_governor_steered_nothing(governed: &str, pinned: &str) {
    let parsed = Checkpoint::from_jsonl(governed).unwrap();
    assert!(
        parsed.section("governor").is_ok(),
        "fixture lost its section"
    );
    let governed = trimmed(governed);
    assert_eq!(
        lines_outside(&governed, &["governor", "telemetry"]),
        lines_outside(pinned, &["telemetry"])
    );
}

/// An older document is today's pin with exactly the retired keys added,
/// and today's pin carries none of them.
fn assert_trims_to_the_pin(untrimmed: &str, pinned: &str) {
    assert_ne!(untrimmed, pinned);
    assert_eq!(trimmed(untrimmed), pinned, "old pin minus the retired keys");
    assert_eq!(trimmed(pinned), pinned, "the pin carries no retired key");
}

/// A pinned document writes back byte for byte: parsed and serialized, and
/// restored onto a twin and snapshotted again — less the retired keys and
/// the `governor` section an older document carries, which no runner writes
/// any more.
fn assert_re_saves(doc: &str, pinned: &Checkpoint, resumed: Checkpoint) {
    assert_eq!(pinned.to_jsonl(), doc, "parse -> serialize");
    let env = pinned.section("env").unwrap().get_f64("state").unwrap();
    let current = Checkpoint::from_jsonl(&trimmed(doc)).unwrap();
    let mut expected = Checkpoint::new(pinned.name());
    for s in current.sections().iter().filter(|s| s.id() != "governor") {
        expected.push(s.clone());
    }
    assert_eq!(
        with_env(resumed, env).to_jsonl(),
        expected.to_jsonl(),
        "restore -> snapshot"
    );
}

#[test]
fn fallible_snapshot_is_byte_identical_to_the_pinned_wire_and_the_pin_restores() {
    let build = || {
        FallibleLoop::new(
            "pin-fallible",
            FaultInjector::new(
                FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                    ctx.charge(3e-4 * (1.0 + 0.05 * e.abs()), 1e-4);
                    *e
                }),
                FaultProfile {
                    dropout: 0.3,
                    stuck: 0.1,
                    latency_spike: 0.05,
                    spike_latency_s: 5e-4,
                    nan: 0.05,
                },
                SEED,
            ),
            FnTryPerceptor::new(|r: &f64, _: &mut StageContext| Ok(*r)),
            FnMonitor::new(|f: &f64, _: &mut StageContext| {
                if f.abs() > 6.0 {
                    Trust::Suspect(0.6)
                } else {
                    Trust::Trusted
                }
            }),
            WithFallback::new(
                FnController::new(|f: &f64, _t, _: &mut StageContext| -0.3 * f + 0.05),
                0.0,
            ),
        )
        .with_budget(EnergyBudget::new(0.1))
        .with_recovery(RecoveryPolicy {
            max_retries: 1,
            retry_energy_j: 2e-5,
            max_hold_ticks: 3,
            staleness_decay: 0.35,
            latency_budget_s: None,
        })
        .with_telemetry_capacity(8)
        .with_tracer(Tracer::sim(0.25).with_span_capacity(12))
    };

    // Run to the first held tick past the ring's first wrap, snapshot there
    // (staleness > 0, held features present), then record the tail.
    let mut reference = build();
    let mut env = 8.0f64;
    let mut cut = None;
    for t in 0..400 {
        let out = reference.tick(&env);
        env += out.action;
        if t >= 24 && matches!(out.resolution, TickResolution::Held { .. }) {
            cut = Some(t + 1);
            break;
        }
    }
    cut.expect("a 30 % dropout run must hold within 400 ticks");
    let ckpt = with_env(reference.snapshot(), env);
    let loop_section = ckpt.section("loop").unwrap();
    assert!(loop_section.get_u64("staleness").unwrap() > 0, "mid-hold");
    assert!(loop_section.has("held"), "held features travel");
    assert_eq!(ckpt.version(), CHECKPOINT_VERSION);
    assert_eq!(
        section_ids(&ckpt),
        ["loop", "telemetry", "budget", "tracer", "sensor", "env"],
        "section order is part of the wire: `loop` leads, stateless stages write nothing"
    );
    assert_eq!(
        ckpt.to_jsonl(),
        PINNED_FALLIBLE,
        "the snapshot must be byte-identical to the pinned document"
    );
    assert_governor_steered_nothing(GOVERNED_FALLIBLE, PINNED_FALLIBLE);
    assert_trims_to_the_pin(UNTRIMMED_FALLIBLE, PINNED_FALLIBLE);

    let mut records = Vec::with_capacity(PIN_TAIL);
    for _ in 0..PIN_TAIL {
        let out = reference.tick(&env);
        env += out.action;
        records.push(reference.telemetry().last_record().unwrap());
    }
    let mut tail = Recording::capture("pin-fallible", SEED, reference.telemetry());
    tail.ticks = records;
    // The pin — and the files older runners wrote, through the lenient
    // reader — restores and replays the recorded tail with zero divergence.
    for doc in [PINNED_FALLIBLE, UNTRIMMED_FALLIBLE, GOVERNED_FALLIBLE] {
        let pinned = Checkpoint::from_jsonl(doc).unwrap();
        let mut resumed = build();
        resumed.restore(&pinned).unwrap();
        assert_re_saves(doc, &pinned, resumed.snapshot());
        assert_pinned_tail_replays(&mut resumed, &pinned, &tail, env);
    }
}

#[test]
fn infallible_snapshot_is_byte_identical_to_the_pinned_wire_and_the_pin_restores() {
    let build = || {
        LoopBuilder::new("pin-infallible")
            .with_budget(EnergyBudget::new(1.0))
            .with_telemetry_capacity(8)
            .with_tracer(Tracer::sim(0.25).with_span_capacity(12))
            .build_monitored(
                FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                    ctx.charge(0.02, 1e-4);
                    *e
                }),
                FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
                FnMonitor::new(|f: &f64, _: &mut StageContext| {
                    if f.abs() > 10.0 {
                        Trust::Suspect(0.9)
                    } else {
                        Trust::Trusted
                    }
                }),
                FnController::new(|f: &f64, _t, _: &mut StageContext| -0.3 * f),
            )
    };
    // A spike at tick 24 starts a suspect streak; the snapshot at tick 26
    // lands inside it.
    let drive =
        |l: &mut SensingActionLoop<_, _, _, _, _>, env: &mut f64, from: usize, to: usize| {
            let mut records = Vec::new();
            for i in from..to {
                if i == 24 {
                    *env = 50.0;
                }
                let out = l.tick(env);
                *env += out.action;
                records.push(l.telemetry().last_record().unwrap());
            }
            records
        };
    let mut reference = build();
    let mut env = 8.0f64;
    drive(&mut reference, &mut env, 0, 26);
    assert!(
        reference.telemetry().current_suspect_streak() > 0,
        "mid-streak"
    );
    let ckpt = with_env(reference.snapshot(), env);
    assert_eq!(ckpt.version(), CHECKPOINT_VERSION);
    assert_eq!(
        section_ids(&ckpt),
        ["telemetry", "budget", "tracer", "env"],
        "section order is part of the wire (stateless stages write nothing)"
    );
    assert_eq!(
        ckpt.to_jsonl(),
        PINNED_INFALLIBLE,
        "the snapshot must be byte-identical to the pinned document"
    );
    assert_governor_steered_nothing(GOVERNED_INFALLIBLE, PINNED_INFALLIBLE);
    assert_trims_to_the_pin(UNTRIMMED_INFALLIBLE, PINNED_INFALLIBLE);

    let records = drive(&mut reference, &mut env, 26, 26 + PIN_TAIL);
    let mut tail = Recording::capture("pin-infallible", 0, reference.telemetry());
    tail.ticks = records;
    for doc in [PINNED_INFALLIBLE, UNTRIMMED_INFALLIBLE, GOVERNED_INFALLIBLE] {
        let pinned = Checkpoint::from_jsonl(doc).unwrap();
        let mut resumed = build();
        resumed.restore(&pinned).unwrap();
        assert_re_saves(doc, &pinned, resumed.snapshot());
        assert_pinned_tail_replays(&mut resumed, &pinned, &tail, env);
    }
}
