//! Deterministic record/replay for sensing-to-action loops.
//!
//! The optimization story of this workspace (blocked GEMM, im2col conv,
//! bucketed raycast, fallible runners) only holds if the optimized loop is
//! *provably* the same loop as the reference. This module closes that gap:
//! a run's per-tick telemetry is captured as a [`Recording`] (round-trippable
//! JSONL, built on [`export`](crate::export)), and an identically-constructed
//! loop can be **replayed** against it tick by tick. Any nondeterminism in
//! the five stages — an unseeded RNG, a `HashMap` iteration order, a
//! wall-clock read leaking into the ledger — surfaces as a [`Divergence`]
//! naming the first divergent tick and the exact field that differs.
//!
//! Determinism contract: a recording replays bit-exactly when the replayed
//! loop is built from the same ingredients — same stage implementations,
//! same [`FaultProfile`](crate::fault::FaultProfile)/seed pairs for every
//! [`FaultInjector`](crate::fault::FaultInjector) (the recorded *fault
//! schedule* is a pure function of them), the same
//! [`RecoveryPolicy`](crate::fault::RecoveryPolicy), and a deterministic
//! clock ([`SimClock`](crate::trace::SimClock)) if tracing is on. The
//! [`RecordingMeta`] carries the run's seed so a recording is
//! self-describing.
//!
//! Comparison is **bit-exact** ([`f64::to_bits`] equality, with all NaNs
//! considered equal since JSONL canonicalizes NaN payloads): replay relies on
//! the kernel layer's bitwise naive↔blocked guarantee rather than on
//! tolerances, so a single flipped ULP anywhere in a 1k-tick run is a test
//! failure, not noise.
//!
//! ```
//! use sensact_core::replay::Recording;
//! use sensact_core::stage::{FnController, FnPerceptor, FnSensor, StageContext};
//! use sensact_core::{LoopBuilder, LoopRunner};
//!
//! let build = || {
//!     LoopBuilder::new("replayable").build(
//!         FnSensor::new(|e: &f64, ctx: &mut StageContext| { ctx.charge(1e-6, 1e-4); *e }),
//!         FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
//!         FnController::new(|f: &f64, _t, _: &mut StageContext| -0.5 * f),
//!     )
//! };
//! // Record a run…
//! let mut looop = build();
//! let mut env = 4.0f64;
//! looop.run(&mut env, 32, |e, a| *e += a);
//! let recording = Recording::capture("replayable", 0, looop.telemetry());
//! // …ship it through JSONL…
//! let parsed = Recording::from_jsonl(&recording.to_jsonl());
//! // …and replay an identically-built loop against it.
//! let mut env = 4.0f64;
//! let ticks = build().replay(&mut env, &parsed, |e, a| *e += a).unwrap();
//! assert_eq!(ticks, 32);
//! ```

use crate::export::{
    field, parse_flat, parse_span, parse_tick, push_lines, span_to_json, str_field, tick_to_json,
};
use crate::stage::Trust;
use crate::telemetry::{LoopTelemetry, TickRecord};
use crate::trace::{Span, StageId};
use std::fmt::Write as _;

/// Header of a [`Recording`]: which run produced it and under what seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingMeta {
    /// Loop name the recording was captured from.
    pub name: String,
    /// Master seed of the run (fault injectors, environments). A recording
    /// replays only against a loop rebuilt from the same seed.
    pub seed: u64,
    /// Number of ticks the original run executed (may exceed the retained
    /// tick records when the telemetry ring was smaller than the run).
    pub ticks: u64,
    /// ISA path the math kernels took on the capturing host (`"avx2+fma"`,
    /// `"sse2"`, `"scalar"`, or `"unknown"` for recordings predating the
    /// field). Informational: replay compares ledgers, not ISAs, but a
    /// divergence across hosts is explicable from this header.
    pub isa: String,
}

/// A recorded run: meta header plus the retained per-tick records and spans,
/// serializable as flat JSONL (`"replay_meta"`, `"span"` and `"tick"` event
/// lines) via [`Recording::to_jsonl`] / [`Recording::from_jsonl`].
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Run header.
    pub meta: RecordingMeta,
    /// Per-tick telemetry records, oldest first.
    pub ticks: Vec<TickRecord>,
    /// Stage spans, oldest first (empty when the run was untraced).
    pub spans: Vec<Span>,
}

impl Recording {
    /// Capture the retained tick records of a telemetry as a recording.
    pub fn capture(name: impl Into<String>, seed: u64, telemetry: &LoopTelemetry) -> Self {
        Recording {
            meta: RecordingMeta {
                name: name.into(),
                seed,
                ticks: telemetry.ticks(),
                isa: sensact_math::simd::isa_name().to_string(),
            },
            ticks: telemetry.records().collect(),
            spans: Vec::new(),
        }
    }

    /// Attach stage spans (e.g. drained via
    /// [`Tracer::take_spans`](crate::trace::Tracer::take_spans)) to the
    /// recording.
    pub fn with_spans(mut self, spans: Vec<Span>) -> Self {
        self.spans = spans;
        self
    }

    /// Number of retained tick records.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether no tick records are retained.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Serialize as JSONL: one meta line, then span events, then tick events.
    /// Round-trips bit-exactly through [`Recording::from_jsonl`], except that
    /// the flat format stores the name unescaped: a `"`, `,`, brace,
    /// backslash or control character in it is written as `_`, so the header
    /// — and the seed a replay is rebuilt from — parses whatever the loop
    /// was called.
    pub fn to_jsonl(&self) -> String {
        let unescapable = |c: char| c.is_control() || matches!(c, '"' | ',' | '{' | '}' | '\\');
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"replay_meta\",\"name\":\"{}\",\"seed\":{},\"ticks\":{},\"isa\":\"{}\"}}",
            self.meta.name.replace(unescapable, "_"),
            self.meta.seed,
            self.meta.ticks,
            self.meta.isa
        );
        push_lines(&mut out, &self.spans, span_to_json);
        push_lines(&mut out, &self.ticks, tick_to_json);
        out
    }

    /// Parse a JSONL document into a recording. Malformed lines and unknown
    /// event types are skipped (never a panic); a document without a
    /// `replay_meta` line yields a default header with `ticks` set to the
    /// number of parsed tick events.
    pub fn from_jsonl(doc: &str) -> Recording {
        let mut meta = None;
        let mut ticks = Vec::new();
        let mut spans = Vec::new();
        for line in doc.lines() {
            if let Some(t) = parse_tick(line) {
                ticks.push(t);
            } else if let Some(s) = parse_span(line) {
                spans.push(s);
            } else if meta.is_none() {
                meta = parse_meta(line);
            }
        }
        let meta = meta.unwrap_or_else(|| RecordingMeta {
            name: "unnamed".to_string(),
            seed: 0,
            ticks: ticks.len() as u64,
            isa: "unknown".to_string(),
        });
        Recording { meta, ticks, spans }
    }
}

/// Parse one `replay_meta` JSONL line.
fn parse_meta(line: &str) -> Option<RecordingMeta> {
    let fields = parse_flat(line)?;
    if str_field(&fields, "type")? != "replay_meta" {
        return None;
    }
    Some(RecordingMeta {
        name: str_field(&fields, "name")?.to_string(),
        seed: field(&fields, "seed")?.parse().ok()?,
        ticks: field(&fields, "ticks")?.parse().ok()?,
        // Lenient: recordings captured before the ISA header existed.
        isa: str_field(&fields, "isa").unwrap_or("unknown").to_string(),
    })
}

/// The first point where a replayed run differs from its recording: the
/// tick, the field, and both values — the diagnosis a nondeterminism hunt
/// starts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first divergent tick (recording order).
    pub tick: u64,
    /// Which field diverged (`"energy_j"`, `"trust"`,
    /// `"stages.sense.latency_s"`, `"tick_count"`, …).
    pub field: String,
    /// The recorded value, rendered.
    pub recorded: String,
    /// The replayed value, rendered.
    pub replayed: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence at tick {}: {} recorded {} vs replayed {}",
            self.tick, self.field, self.recorded, self.replayed
        )
    }
}

/// Bit-exact float equality with all NaNs identified (JSONL canonicalizes
/// NaN payloads, so payload differences are not divergences).
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn trust_eq(a: Trust, b: Trust) -> bool {
    match (a, b) {
        (Trust::Suspect(x), Trust::Suspect(y)) => bits_eq(x, y),
        _ => a == b,
    }
}

fn render_trust(t: Trust) -> String {
    match t {
        Trust::Trusted => "trusted".to_string(),
        Trust::Suspect(s) => format!("suspect({s})"),
        Trust::Untrusted => "untrusted".to_string(),
    }
}

/// Compare one recorded tick against its replayed counterpart, field by
/// field. Returns the first differing field, if any.
pub fn diff_records(recorded: &TickRecord, replayed: &TickRecord) -> Option<Divergence> {
    let at = recorded.tick;
    let diverged = |field: &str, rec: String, rep: String| {
        Some(Divergence {
            tick: at,
            field: field.to_string(),
            recorded: rec,
            replayed: rep,
        })
    };
    if recorded.tick != replayed.tick {
        return diverged("tick", recorded.tick.to_string(), replayed.tick.to_string());
    }
    if !bits_eq(recorded.energy_j, replayed.energy_j) {
        return diverged(
            "energy_j",
            recorded.energy_j.to_string(),
            replayed.energy_j.to_string(),
        );
    }
    if !bits_eq(recorded.latency_s, replayed.latency_s) {
        return diverged(
            "latency_s",
            recorded.latency_s.to_string(),
            replayed.latency_s.to_string(),
        );
    }
    if !trust_eq(recorded.trust, replayed.trust) {
        return diverged(
            "trust",
            render_trust(recorded.trust),
            render_trust(replayed.trust),
        );
    }
    if recorded.precision != replayed.precision {
        return diverged(
            "precision",
            recorded.precision.to_string(),
            replayed.precision.to_string(),
        );
    }
    for stage in StageId::ALL {
        let (rec, rep) = (recorded.stages.get(stage), replayed.stages.get(stage));
        if !bits_eq(rec.energy_j, rep.energy_j) {
            return diverged(
                &format!("stages.{}.energy_j", stage.name()),
                rec.energy_j.to_string(),
                rep.energy_j.to_string(),
            );
        }
        if !bits_eq(rec.latency_s, rep.latency_s) {
            return diverged(
                &format!("stages.{}.latency_s", stage.name()),
                rec.latency_s.to_string(),
                rep.latency_s.to_string(),
            );
        }
    }
    None
}

/// Compare two record sequences, returning the first divergence (including
/// a `tick_count` divergence when one sequence is a strict prefix of the
/// other).
pub fn first_divergence(recorded: &[TickRecord], replayed: &[TickRecord]) -> Option<Divergence> {
    for (rec, rep) in recorded.iter().zip(replayed) {
        if let Some(d) = diff_records(rec, rep) {
            return Some(d);
        }
    }
    if recorded.len() != replayed.len() {
        return Some(Divergence {
            tick: recorded.len().min(replayed.len()) as u64,
            field: "tick_count".to_string(),
            recorded: recorded.len().to_string(),
            replayed: replayed.len().to_string(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{
        FallibleLoop, FaultInjector, FaultProfile, RecoveryPolicy, Reliable, WithFallback,
    };
    use crate::loop_::{LoopRunner, SensingActionLoop};
    use crate::stage::{AlwaysTrust, FnController, FnPerceptor, FnSensor, StageContext};
    use crate::trace::StageBreakdown;
    use crate::LoopBuilder;
    use crate::Precision;

    fn sample_record(tick: u64, energy: f64) -> TickRecord {
        let mut stages = StageBreakdown::new();
        stages.add(StageId::Sense, energy, 1e-4);
        TickRecord {
            tick,
            energy_j: energy,
            latency_s: 1e-4,
            trust: Trust::Trusted,
            precision: Precision::F64,
            stages,
        }
    }

    #[test]
    fn recording_jsonl_round_trips() {
        let mut t = LoopTelemetry::new();
        t.record(1.0, 0.1, Trust::Suspect(1.0 / 3.0));
        t.record(0.1 + 0.2, 2e-4, Trust::Trusted);
        let rec = Recording::capture("rt", 42, &t).with_spans(vec![Span {
            tick: 0,
            stage: StageId::Perceive,
            start_s: 0.5,
            end_s: 0.75,
            energy_j: 1e-3,
            latency_s: 2e-4,
            ok: true,
        }]);
        let doc = rec.to_jsonl();
        let parsed = Recording::from_jsonl(&doc);
        assert_eq!(parsed, rec);
        assert_eq!(parsed.meta.name, "rt");
        assert_eq!(parsed.meta.seed, 42);
        assert_eq!(parsed.meta.ticks, 2);
        assert_eq!(parsed.len(), 2);
        assert!(!parsed.is_empty());

        // A name the flat format cannot hold must not cost the header: the
        // seed is what a replay is rebuilt from.
        let hostile = Recording::capture("a,b{\"c\"}\\", 7, &t);
        let parsed = Recording::from_jsonl(&hostile.to_jsonl());
        assert_eq!(parsed.meta.name, "a_b__c___");
        assert_eq!(parsed.meta.seed, 7);
        assert_eq!(parsed.meta.ticks, 2);
        assert_eq!(parsed.ticks, hostile.ticks);
    }

    #[test]
    fn from_jsonl_skips_garbage_and_defaults_meta() {
        let mut t = LoopTelemetry::new();
        t.record(1.0, 0.1, Trust::Trusted);
        let mut doc = String::from("garbage\n{\"type\":\"unknown\"}\n");
        doc.push_str(&tick_to_json(&t.records().next().unwrap()));
        doc.push('\n');
        let parsed = Recording::from_jsonl(&doc);
        assert_eq!(parsed.meta.name, "unnamed");
        assert_eq!(parsed.meta.ticks, 1);
        assert_eq!(parsed.ticks.len(), 1);
        assert!(parsed.spans.is_empty());
    }

    #[test]
    fn diff_records_names_the_field() {
        let a = sample_record(3, 1e-3);
        assert_eq!(diff_records(&a, &a), None);

        let mut b = a;
        b.energy_j = 2e-3;
        let d = diff_records(&a, &b).unwrap();
        assert_eq!(d.tick, 3);
        assert_eq!(d.field, "energy_j");
        assert_eq!(d.recorded, "0.001");
        assert_eq!(d.replayed, "0.002");
        assert!(d.to_string().contains("tick 3"), "{d}");

        let mut c = a;
        c.stages.add(StageId::Monitor, 0.0, 5e-5);
        let d = diff_records(&a, &c).unwrap();
        assert_eq!(d.field, "stages.monitor.latency_s");

        let mut e = a;
        e.trust = Trust::Suspect(0.5);
        let d = diff_records(&a, &e).unwrap();
        assert_eq!(d.field, "trust");
        assert_eq!(d.recorded, "trusted");
        assert_eq!(d.replayed, "suspect(0.5)");

        let mut p = a;
        p.precision = Precision::F32;
        let d = diff_records(&a, &p).unwrap();
        assert_eq!(d.field, "precision");
        assert_eq!((d.recorded.as_str(), d.replayed.as_str()), ("f64", "f32"));
    }

    #[test]
    fn meta_captures_isa_and_legacy_meta_defaults_to_unknown() {
        let mut t = LoopTelemetry::new();
        t.record(1.0, 0.1, Trust::Trusted);
        let rec = Recording::capture("isa-rt", 1, &t);
        assert!(
            ["avx2+fma", "sse2", "scalar"].contains(&rec.meta.isa.as_str()),
            "unexpected isa {:?}",
            rec.meta.isa
        );
        let parsed = Recording::from_jsonl(&rec.to_jsonl());
        assert_eq!(parsed.meta, rec.meta);
        // A meta line written before the isa header existed still parses.
        let legacy = "{\"type\":\"replay_meta\",\"name\":\"old\",\"seed\":9,\"ticks\":0}\n";
        let parsed = Recording::from_jsonl(legacy);
        assert_eq!(parsed.meta.isa, "unknown");
        assert_eq!(parsed.meta.seed, 9);
        assert_eq!(parsed.meta.name, "old");
    }

    #[test]
    fn diff_records_identifies_nans_and_distinguishes_signed_zero() {
        let mut a = sample_record(0, 1e-3);
        let mut b = a;
        a.latency_s = f64::NAN;
        b.latency_s = -f64::NAN;
        assert_eq!(diff_records(&a, &b), None, "all NaNs compare equal");
        b.latency_s = 0.0;
        a.latency_s = -0.0;
        let d = diff_records(&a, &b).unwrap();
        assert_eq!(d.field, "latency_s", "-0.0 and 0.0 differ bitwise");
    }

    #[test]
    fn first_divergence_reports_prefix_truncation() {
        let recs = vec![sample_record(0, 1e-3), sample_record(1, 2e-3)];
        assert_eq!(first_divergence(&recs, &recs), None);
        let d = first_divergence(&recs, &recs[..1]).unwrap();
        assert_eq!(d.field, "tick_count");
        assert_eq!(d.tick, 1);
        assert_eq!((d.recorded.as_str(), d.replayed.as_str()), ("2", "1"));
    }

    #[allow(clippy::type_complexity)]
    fn scalar_loop() -> SensingActionLoop<
        FnSensor<impl FnMut(&f64, &mut StageContext) -> f64>,
        FnPerceptor<impl FnMut(&f64, &mut StageContext) -> f64>,
        AlwaysTrust,
        FnController<impl FnMut(&f64, Trust, &mut StageContext) -> f64>,
        crate::adapt::NoAdaptation,
    > {
        LoopBuilder::new("replay-unit").build(
            FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                ctx.charge(1e-6, 1e-4);
                *e
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.5 * f),
        )
    }

    #[test]
    fn deterministic_loop_replays_bit_exactly() {
        let mut looop = scalar_loop();
        let mut env = 4.0f64;
        looop.run(&mut env, 25, |e, a| *e += a);
        let recording = Recording::capture("replay-unit", 0, looop.telemetry());

        let mut env = 4.0f64;
        let verified = scalar_loop()
            .replay(&mut env, &recording, |e, a| *e += a)
            .expect("bit-exact replay");
        assert_eq!(verified, 25);
    }

    #[test]
    fn perturbed_environment_diverges_with_named_tick() {
        let mut looop = scalar_loop();
        let mut env = 4.0f64;
        looop.run(&mut env, 10, |e, a| *e += a);
        let recording = Recording::capture("replay-unit", 0, looop.telemetry());

        // Same loop, perturbed environment dynamics from tick 5 on: the
        // controller's decision changes, but the scalar loop charges
        // constant costs, so only a *charging* perturbation is visible.
        // Perturb the sensor cost instead, from tick 5 on.
        let mut tick = 0u64;
        let mut replayed = LoopBuilder::new("replay-unit").build(
            FnSensor::new(move |e: &f64, ctx: &mut StageContext| {
                let cost = if tick >= 5 { 2e-6 } else { 1e-6 };
                tick += 1;
                ctx.charge(cost, 1e-4);
                *e
            }),
            FnPerceptor::new(|r: &f64, _: &mut StageContext| *r),
            FnController::new(|f: &f64, _t, _: &mut StageContext| -0.5 * f),
        );
        let mut env = 4.0f64;
        let d = replayed
            .replay(&mut env, &recording, |e, a| *e += a)
            .unwrap_err();
        assert_eq!(d.tick, 5, "first divergent tick must be named: {d}");
        assert_eq!(d.field, "energy_j");
    }

    #[test]
    fn fallible_loop_replays_fault_schedule_from_seed() {
        let build = |seed: u64| {
            FallibleLoop::new(
                "faulty-replay",
                FaultInjector::new(
                    FnSensor::new(|e: &f64, ctx: &mut StageContext| {
                        ctx.charge(2e-4, 1e-3);
                        *e
                    }),
                    FaultProfile {
                        dropout: 0.2,
                        stuck: 0.05,
                        latency_spike: 0.05,
                        spike_latency_s: 0.05,
                        nan: 0.05,
                    },
                    seed,
                ),
                Reliable(FnPerceptor::new(|r: &f64, _: &mut StageContext| *r)),
                AlwaysTrust,
                WithFallback::new(
                    FnController::new(|f: &f64, _t: Trust, _: &mut StageContext| -0.4 * f),
                    0.0,
                ),
            )
            .with_recovery(RecoveryPolicy {
                max_retries: 1,
                retry_energy_j: 5e-5,
                max_hold_ticks: 2,
                staleness_decay: 0.3,
                latency_budget_s: Some(0.01),
            })
        };
        let seed = 77;
        let mut looop = build(seed);
        let mut env = 3.0f64;
        looop.run(&mut env, 200, |e, a| *e += a + 0.01);
        assert!(looop.telemetry().fault_counters().faults > 0);
        let recording = Recording::capture("faulty-replay", seed, looop.telemetry());

        // Same seed: every fault recurs, bit-exact.
        let mut env = 3.0f64;
        let verified = build(recording.meta.seed)
            .replay(&mut env, &recording, |e, a| *e += a + 0.01)
            .expect("same seed must replay bit-exactly");
        assert_eq!(verified, 200);

        // Different seed: a different fault schedule must diverge, and the
        // diagnosis names a real tick of the recording.
        let mut env = 3.0f64;
        let d = build(seed + 1)
            .replay(&mut env, &recording, |e, a| *e += a + 0.01)
            .unwrap_err();
        assert!(d.tick < 200, "{d}");
    }

    #[test]
    fn replay_verifies_beyond_ring_capacity() {
        // Recording ring smaller than the run: replay still verifies every
        // *retained* tick. Build the recording from a capacity-capped run
        // and replay a fresh full-capacity loop against it; the recorded
        // ticks start mid-run, so the fresh loop diverges on the very first
        // record (tick index mismatch) — named as such.
        let mut looop = scalar_loop();
        let mut env = 4.0f64;
        looop.run(&mut env, 10, |e, a| *e += a);
        let mut capped = Recording::capture("replay-unit", 0, looop.telemetry());
        capped.ticks.drain(..5); // simulate ring eviction of the first 5
        let mut env = 4.0f64;
        let d = scalar_loop()
            .replay(&mut env, &capped, |e, a| *e += a)
            .unwrap_err();
        assert_eq!(d.field, "tick");
        assert_eq!(d.recorded, "5");
        assert_eq!(d.replayed, "0");
    }
}
