//! Structured telemetry export: JSONL span/tick events and a human-readable
//! text report.
//!
//! The JSONL format is one flat JSON object per line, tagged by a `"type"`
//! field (`"span"` or `"tick"`). Floats are serialized with Rust's shortest
//! round-trip `Display`, so `parse(export(x)) == x` holds bit-exactly — the
//! in-repo parser (`parse_span`, `parse_tick`) needs no external JSON
//! dependency because events are flat: string values never contain commas,
//! braces or escapes.
//!
//! The text report ([`text_report`]) renders the per-stage attribution table
//! and an ASCII latency histogram for quick terminal inspection (see
//! `examples/observed_loop.rs`).

use crate::metrics::MetricsRegistry;
use crate::stage::Trust;
use crate::telemetry::{LoopTelemetry, TickRecord};
use crate::trace::{CausalSpan, Span, StageBreakdown, StageId};
use crate::Precision;
use std::fmt::Write as _;

/// Serialize one span as a single JSONL line (no trailing newline).
pub(crate) fn span_to_json(s: &Span) -> String {
    format!(
        "{{\"type\":\"span\",\"tick\":{},\"stage\":\"{}\",\"start_s\":{},\"end_s\":{},\"energy_j\":{},\"latency_s\":{},\"ok\":{}}}",
        s.tick, s.stage, s.start_s, s.end_s, s.energy_j, s.latency_s, s.ok
    )
}

/// Serialize one tick record (including its per-stage breakdown) as a single
/// JSONL line (no trailing newline).
pub(crate) fn tick_to_json(r: &TickRecord) -> String {
    let (kind, suspicion) = match r.trust {
        Trust::Trusted => ("trusted", 0.0),
        Trust::Suspect(s) => ("suspect", s),
        Trust::Untrusted => ("untrusted", 1.0),
    };
    let mut line = format!(
        "{{\"type\":\"tick\",\"tick\":{},\"energy_j\":{},\"latency_s\":{},\"trust\":\"{kind}\",\"suspicion\":{suspicion},\"precision\":\"{}\"",
        r.tick, r.energy_j, r.latency_s, r.precision.as_str()
    );
    for (stage, cost) in r.stages.iter() {
        let _ = write!(
            line,
            ",\"{n}_j\":{},\"{n}_s\":{}",
            cost.energy_j,
            cost.latency_s,
            n = stage.name()
        );
    }
    line.push('}');
    line
}

/// Append one JSONL line per item — the line loop behind every multi-event
/// export.
pub(crate) fn push_lines<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    to_json: impl Fn(T) -> String,
) {
    for item in items {
        out.push_str(&to_json(item));
        out.push('\n');
    }
}

fn lines<T>(items: impl IntoIterator<Item = T>, to_json: impl Fn(T) -> String) -> String {
    let mut out = String::new();
    push_lines(&mut out, items, to_json);
    out
}

/// Export every retained tick record of a telemetry as JSONL (one event per
/// line, oldest first).
pub fn ticks_to_jsonl(telemetry: &LoopTelemetry) -> String {
    lines(telemetry.records(), |r| tick_to_json(&r))
}

/// Export a slice of spans as JSONL (one event per line).
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    lines(spans, span_to_json)
}

/// Serialize one causal span as a single JSONL line (no trailing newline).
///
/// Ids are serialized as decimal `u64` — the in-repo parser reads them back
/// bit-exactly (tools that funnel JSON numbers through `f64` would truncate
/// above 2^53; use the in-repo parser for id-faithful reconstruction).
pub(crate) fn causal_span_to_json(s: &CausalSpan) -> String {
    format!(
        "{{\"type\":\"causal\",\"trace\":{},\"span\":{},\"parent\":{},\"kind\":\"{}\",\"node\":{},\"detail\":{},\"start_s\":{},\"end_s\":{},\"ok\":{}}}",
        s.trace_id, s.span_id, s.parent_id, s.kind, s.node, s.detail, s.start_s, s.end_s, s.ok
    )
}

/// Export a slice of causal spans as JSONL (one event per line).
pub fn causal_spans_to_jsonl(spans: &[CausalSpan]) -> String {
    lines(spans, causal_span_to_json)
}

/// The FNV-1a offset basis: the hash of an empty stream.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[inline]
fn fnv1a_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Order-sensitive FNV-1a hash of a byte stream.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_bytes(FNV_OFFSET, bytes)
}

/// Continue the FNV-1a `hash` over each word's little-endian bytes — the one
/// fold behind the scheduler's, the network's and the federated runner's
/// trace hashes. `fnv1a_words(FNV_OFFSET, &[w])` is `fnv1a(&w.to_le_bytes())`.
#[inline]
pub fn fnv1a_words(hash: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(hash, |h, w| fnv1a_bytes(h, &w.to_le_bytes()))
}

/// FNV-1a hash over the exported JSONL of a causal-span stream — the
/// acceptance fingerprint for bit-for-bit trace reproducibility: two runs
/// from the same seeds must produce identical hashes.
pub fn trace_stream_hash(spans: &[CausalSpan]) -> u64 {
    fnv1a(causal_spans_to_jsonl(spans).as_bytes())
}

/// Split a flat JSON object line into `(key, raw_value)` pairs. Returns
/// `None` on anything that is not a one-level `{"k":v,...}` object.
pub(crate) fn parse_flat(line: &str) -> Option<Vec<(&str, &str)>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    for part in body.split(',') {
        let (k, v) = part.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        fields.push((k, v.trim()));
    }
    Some(fields)
}

pub(crate) fn field<'a>(fields: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

pub(crate) fn f64_field(fields: &[(&str, &str)], key: &str) -> Option<f64> {
    field(fields, key)?.parse().ok()
}

pub(crate) fn str_field<'a>(fields: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    field(fields, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// Parse one JSONL line produced by [`span_to_json`].
pub(crate) fn parse_span(line: &str) -> Option<Span> {
    let fields = parse_flat(line)?;
    if str_field(&fields, "type")? != "span" {
        return None;
    }
    Some(Span {
        tick: field(&fields, "tick")?.parse().ok()?,
        stage: StageId::from_name(str_field(&fields, "stage")?)?,
        start_s: f64_field(&fields, "start_s")?,
        end_s: f64_field(&fields, "end_s")?,
        energy_j: f64_field(&fields, "energy_j")?,
        latency_s: f64_field(&fields, "latency_s")?,
        ok: field(&fields, "ok")?.parse().ok()?,
    })
}

/// Parse one JSONL line produced by [`tick_to_json`].
pub(crate) fn parse_tick(line: &str) -> Option<TickRecord> {
    let fields = parse_flat(line)?;
    if str_field(&fields, "type")? != "tick" {
        return None;
    }
    let trust = match str_field(&fields, "trust")? {
        "trusted" => Trust::Trusted,
        "untrusted" => Trust::Untrusted,
        "suspect" => Trust::Suspect(f64_field(&fields, "suspicion")?),
        _ => return None,
    };
    let mut stages = StageBreakdown::new();
    for stage in StageId::ALL {
        let e = f64_field(&fields, &format!("{}_j", stage.name()))?;
        let l = f64_field(&fields, &format!("{}_s", stage.name()))?;
        stages.add(stage, e, l);
    }
    // Ticks recorded before the field existed ran at f64; a field that is
    // present must name a mode, like `trust`.
    let precision = match field(&fields, "precision") {
        None => Precision::F64,
        Some(raw) => Precision::parse(raw.strip_prefix('"')?.strip_suffix('"')?)?,
    };
    Some(TickRecord {
        tick: field(&fields, "tick")?.parse().ok()?,
        energy_j: f64_field(&fields, "energy_j")?,
        latency_s: f64_field(&fields, "latency_s")?,
        trust,
        precision,
        stages,
    })
}

/// Parse a JSONL document, returning every tick event (other event types
/// and malformed lines are skipped).
pub fn parse_ticks(jsonl: &str) -> Vec<TickRecord> {
    jsonl.lines().filter_map(parse_tick).collect()
}

/// Parse a JSONL document, returning every span event.
pub fn parse_spans(jsonl: &str) -> Vec<Span> {
    jsonl.lines().filter_map(parse_span).collect()
}

/// Render an ASCII histogram of the non-empty buckets, coalesced into at
/// most `max_rows` rows, bars scaled to `bar_width` characters.
pub fn ascii_histogram(
    hist: &crate::metrics::Histogram,
    max_rows: usize,
    bar_width: usize,
) -> String {
    let buckets = hist.nonzero_buckets();
    if buckets.is_empty() {
        return "  (no samples)\n".to_string();
    }
    let max_rows = max_rows.max(1);
    // Coalesce adjacent buckets so at most max_rows rows render.
    let chunk = buckets.len().div_ceil(max_rows);
    let rows: Vec<(f64, f64, u64)> = buckets
        .chunks(chunk)
        .map(|c| {
            let lo = c.first().unwrap().0;
            let hi = c.last().unwrap().1;
            let n = c.iter().map(|(_, _, n)| n).sum();
            (lo, hi, n)
        })
        .collect();
    let peak = rows.iter().map(|(_, _, n)| *n).max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (lo, hi, n) in rows {
        let bar = (n as usize * bar_width).div_ceil(peak as usize);
        let hi_str = if hi.is_infinite() {
            "+inf".to_string()
        } else {
            format!("{hi:9.3e}")
        };
        let _ = writeln!(
            out,
            "  [{lo:9.3e}, {hi_str:>9})  {:<bar_width$}  {n}",
            "#".repeat(bar)
        );
    }
    out
}

/// Sanitize a metric name for Prometheus: dots (and any other
/// non-alphanumeric byte) become underscores.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Render a registry in the Prometheus text exposition format (version
/// 0.0.4): `# TYPE` comments plus `name{labels} value` sample lines.
///
/// Counters and gauges render as single samples; histograms render as
/// cumulative `_bucket{le="…"}` series (upper bucket edges, shortest
/// round-trip float form) plus `_sum` and `_count`. This is the scrape
/// payload ROADMAP item 3's serving front-end will mount at `/metrics`.
pub fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, v) in registry.counters() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in registry.gauges() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in registry.histograms() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (_, upper, count) in h.nonzero_buckets() {
            cumulative += count;
            if upper.is_finite() {
                let _ = writeln!(out, "{n}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

/// Render a human-readable observability report: header aggregates, the
/// per-stage attribution table (energy share, latency quantiles), fault
/// counters, and an ASCII histogram of whole-tick latency.
pub fn text_report(name: &str, telemetry: &LoopTelemetry) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== loop '{name}' — {} ticks, {:.3e} J, mean tick latency {:.3e} s ==",
        telemetry.ticks(),
        telemetry.total_energy_j(),
        telemetry.mean_latency_s(),
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>7} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "stage", "energy_j", "share", "ticks", "lat_mean_s", "lat_p50_s", "lat_p99_s", "lat_max_s"
    );
    let totals = telemetry.stage_totals();
    let total_e = totals.total_energy_j();
    for stage in StageId::ALL {
        let cost = totals.get(stage);
        let share = if total_e > 0.0 {
            100.0 * cost.energy_j / total_e
        } else {
            0.0
        };
        let h = telemetry.stage_latency(stage);
        let _ = writeln!(
            out,
            "{:<10} {:>12.3e} {:>6.1}% {:>8} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            stage.name(),
            cost.energy_j,
            share,
            h.count(),
            h.mean(),
            h.p50(),
            h.p99(),
            h.max()
        );
    }
    let counters = telemetry.fault_counters();
    if counters != Default::default() {
        let _ = writeln!(out, "faults: {counters}");
    }
    let _ = writeln!(
        out,
        "suspect: {:.1}% of ticks, max streak {}",
        telemetry.suspect_fraction() * 100.0,
        telemetry.max_suspect_streak()
    );
    let _ = writeln!(out, "tick latency histogram:");
    out.push_str(&ascii_histogram(telemetry.latency_histogram(), 12, 40));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
    use crate::trace::SpanKind;

    fn sample_span() -> Span {
        Span {
            tick: 42,
            stage: StageId::Perceive,
            start_s: 0.125,
            end_s: 0.25,
            energy_j: 1.5e-3,
            latency_s: 2.5e-4,
            ok: false,
        }
    }

    /// Floats a shortest-round-trip printer can get wrong: signed zero, the
    /// smallest normal and subnormal, both ends of the range, a value below
    /// the unit roundoff. `==` cannot tell `-0.0` from `0.0`, so the hostile
    /// cases also compare bits.
    const HOSTILE_FLOATS: [f64; 6] = [-0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, -1.7e308, 1e-17];

    #[test]
    fn span_round_trips() {
        let s = sample_span();
        let line = span_to_json(&s);
        assert_eq!(parse_span(&line), Some(s));
        // And through the multi-line path.
        let doc = spans_to_jsonl(&[s, s]);
        assert_eq!(parse_spans(&doc), vec![s, s]);
        for v in HOSTILE_FLOATS {
            let s = Span {
                start_s: v,
                end_s: v * 2.0, // overflows to ±inf at the extremes
                energy_j: v,
                latency_s: v.abs(),
                ..sample_span()
            };
            let line = span_to_json(&s);
            let parsed = parse_span(&line).expect("hostile span parses");
            assert_eq!(parsed, s, "line: {line}");
            let bits = |s: &Span| [s.start_s, s.end_s, s.energy_j, s.latency_s].map(f64::to_bits);
            assert_eq!(bits(&parsed), bits(&s), "line: {line}");
        }
    }

    #[test]
    fn tick_round_trips_all_trust_kinds() {
        for trust in [
            Trust::Trusted,
            Trust::Suspect(0.123456789),
            Trust::Suspect(1.0 / 3.0), // not exactly representable in decimal
            Trust::Suspect(5e-324),    // smallest subnormal
            Trust::Untrusted,
        ] {
            for precision in Precision::ALL {
                // 0.1 + 0.2 is 0.30000000000000004
                for v in [0.1 + 0.2].into_iter().chain(HOSTILE_FLOATS) {
                    let mut stages = StageBreakdown::new();
                    stages.add(StageId::Sense, 1e-3, v);
                    stages.add(StageId::Act, 7.25e-9, 0.0);
                    let rec = TickRecord {
                        tick: 999,
                        energy_j: v,
                        latency_s: 1e-4,
                        trust,
                        precision,
                        stages,
                    };
                    let line = tick_to_json(&rec);
                    let parsed = parse_tick(&line).expect("tick parses");
                    assert_eq!(parsed, rec, "line: {line}");
                    assert_eq!(parsed.energy_j.to_bits(), v.to_bits(), "line: {line}");
                }
            }
        }
    }

    #[test]
    fn tick_without_precision_field_parses_as_f64() {
        // A JSONL line written before the field existed still parses.
        let mut stages = StageBreakdown::new();
        stages.add(StageId::Sense, 1e-3, 2e-4);
        let rec = TickRecord {
            tick: 3,
            energy_j: 1e-3,
            latency_s: 2e-4,
            trust: Trust::Trusted,
            precision: Precision::F32,
            stages,
        };
        let line = tick_to_json(&rec).replace(",\"precision\":\"f32\"", "");
        let parsed = parse_tick(&line).expect("legacy line parses");
        assert_eq!(parsed.precision, Precision::F64);
        assert_eq!(parsed.tick, 3);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert_eq!(parse_span("not json"), None);
        assert_eq!(parse_span("{}"), None);
        assert_eq!(parse_span("{\"type\":\"tick\"}"), None);
        assert_eq!(parse_tick("{\"type\":\"span\"}"), None);
        assert_eq!(parse_tick(""), None);
        // Mixed documents: parse_ticks skips span lines and garbage.
        let doc = format!("{}\ngarbage\n", span_to_json(&sample_span()));
        assert!(parse_ticks(&doc).is_empty());
        assert_eq!(parse_spans(&doc).len(), 1);
    }

    #[test]
    fn parser_survives_truncated_lines() {
        // Truncation at *every* byte boundary — a torn write or a killed
        // process must yield `None`, never a panic or a half-parsed event.
        let span_line = span_to_json(&sample_span());
        let mut stages = StageBreakdown::new();
        stages.add(StageId::Sense, 1e-3, 2e-4);
        let tick_line = tick_to_json(&TickRecord {
            tick: 7,
            energy_j: 1e-3,
            latency_s: 2e-4,
            trust: Trust::Suspect(0.5),
            precision: Precision::Int8,
            stages,
        });
        for line in [span_line.as_str(), tick_line.as_str()] {
            for cut in 0..line.len() {
                let truncated = &line[..cut];
                assert_eq!(parse_span(truncated), None, "cut at {cut}: {truncated}");
                assert_eq!(parse_tick(truncated), None, "cut at {cut}: {truncated}");
            }
        }
    }

    #[test]
    fn parser_survives_corrupted_values() {
        // Field-level corruption: wrong types, missing fields, garbage
        // numbers — all must be rejected, not panic.
        for line in [
            "{\"type\":\"span\",\"tick\":abc,\"stage\":\"sense\"}",
            "{\"type\":\"span\",\"tick\":1,\"stage\":\"warp\",\"start_s\":0,\"end_s\":0,\"energy_j\":0,\"latency_s\":0,\"ok\":true}",
            "{\"type\":\"tick\",\"tick\":1,\"energy_j\":1e999x,\"latency_s\":0}",
            "{\"type\":\"tick\",\"tick\":1,\"energy_j\":0,\"latency_s\":0,\"trust\":\"odd\",\"suspicion\":0}",
            "{\"type\":\"tick\"",
            "{:}",
            "{\"\":}",
            "null",
            "[1,2,3]",
        ] {
            assert_eq!(parse_span(line), None, "span accepted: {line}");
            assert_eq!(parse_tick(line), None, "tick accepted: {line}");
        }
        // A present but unparseable precision is hostile input, not f64.
        let good = tick_to_json(&TickRecord {
            tick: 7,
            energy_j: 1e-3,
            latency_s: 2e-4,
            trust: Trust::Trusted,
            precision: Precision::F32,
            stages: StageBreakdown::new(),
        });
        assert_eq!(parse_tick(&good).map(|r| r.precision), Some(Precision::F32));
        for bad in ["\"int9\"", "7"] {
            let line = good.replace("\"f32\"", bad);
            assert_eq!(parse_tick(&line), None, "tick accepted: {line}");
        }
        // And document-level: a stream of junk parses to zero events.
        let doc = "{\"type\":\"tick\"\n\n}{\n";
        assert!(parse_ticks(doc).is_empty());
        assert!(parse_spans(doc).is_empty());
    }

    fn sample_causal(kind: SpanKind) -> CausalSpan {
        CausalSpan {
            trace_id: u64::MAX - 3, // above 2^53: must survive bit-exactly
            span_id: 0x1234_5678_9ABC_DEF0,
            parent_id: 7,
            kind,
            node: 1001,
            detail: 3,
            start_s: 0.1 + 0.2, // 0.30000000000000004
            end_s: 1.0 / 3.0,
            ok: false,
        }
    }

    /// The causal line format, byte for byte: ids in decimal (above 2^53
    /// too), floats in shortest round-trip form, one line per span.
    #[test]
    fn causal_lines_keep_their_bytes() {
        assert_eq!(
            causal_span_to_json(&sample_causal(SpanKind::ServerAggregate)),
            "{\"type\":\"causal\",\"trace\":18446744073709551612,\"span\":1311768467463790320,\
             \"parent\":7,\"kind\":\"server_aggregate\",\"node\":1001,\"detail\":3,\
             \"start_s\":0.30000000000000004,\"end_s\":0.3333333333333333,\"ok\":false}"
        );
        let spans = SpanKind::ALL.map(sample_causal);
        let doc = causal_spans_to_jsonl(&spans);
        let expected: Vec<String> = spans.iter().map(causal_span_to_json).collect();
        assert_eq!(doc, expected.join("\n") + "\n");
        // Causal lines are invisible to the stage-span parser.
        assert!(parse_spans(&doc).is_empty());
    }

    #[test]
    fn word_fold_is_fnv1a_over_little_endian_bytes() {
        let words = [0, 1, u64::MAX, 0x0123_4567_89AB_CDEF];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a_words(FNV_OFFSET, &words), fnv1a(&bytes));
        // Folding in two steps is folding once.
        let half = fnv1a_words(FNV_OFFSET, &words[..2]);
        assert_eq!(fnv1a_words(half, &words[2..]), fnv1a(&bytes));
        assert_eq!(fnv1a_words(FNV_OFFSET, &[]), fnv1a(&[]));
        // Known answers: the FNV-1a 64 test vectors for "" and "a".
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn trace_stream_hash_is_order_sensitive_and_deterministic() {
        let a = sample_causal(SpanKind::NetSend);
        let b = sample_causal(SpanKind::NetDeliver);
        assert_eq!(trace_stream_hash(&[a, b]), trace_stream_hash(&[a, b]));
        assert_ne!(trace_stream_hash(&[a, b]), trace_stream_hash(&[b, a]));
        assert_ne!(trace_stream_hash(&[a]), trace_stream_hash(&[]));
        // Known-answer for the empty stream: the FNV-1a offset basis.
        assert_eq!(trace_stream_hash(&[]), 0xCBF2_9CE4_8422_2325);
    }

    #[test]
    fn prometheus_text_renders_all_metric_kinds() {
        let mut r = MetricsRegistry::new();
        r.add("fleet.ticks_total", 12);
        r.set("fleet.energy_j", 0.5);
        r.observe("sched.tick.latency_s", 1e-3);
        r.observe("sched.tick.latency_s", 2e-3);
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE fleet_ticks_total counter"));
        assert!(text.contains("fleet_ticks_total 12"));
        assert!(text.contains("# TYPE fleet_energy_j gauge"));
        assert!(text.contains("fleet_energy_j 0.5"));
        assert!(text.contains("# TYPE sched_tick_latency_s histogram"));
        assert!(text.contains("sched_tick_latency_s_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sched_tick_latency_s_count 2"));
        assert!(text.contains("sched_tick_latency_s_sum 0.003"));
        // No dots survive sanitization in sample names.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(!name.contains('.'), "unsanitized name: {line}");
        }
    }

    /// Every non-comment line must parse as `name{labels} value` with a
    /// valid metric name and a numeric value — the acceptance-criteria
    /// format check.
    fn assert_prometheus_wellformed(text: &str) {
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has value");
            let name = series.split('{').next().unwrap();
            assert!(!name.is_empty(), "empty name: {line}");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad name {name}: {line}"
            );
            assert!(!name.starts_with(|c: char| c.is_ascii_digit()));
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    let inner = rest
                        .strip_prefix('{')
                        .and_then(|r| r.strip_suffix('}'))
                        .unwrap_or_else(|| panic!("bad label block: {line}"));
                    for pair in inner.split(',') {
                        let (k, v) = pair.split_once('=').expect("label has =");
                        assert!(!k.is_empty());
                        assert!(v.starts_with('"') && v.ends_with('"'), "label {pair}");
                    }
                }
            }
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "bad value {value}: {line}"
            );
        }
    }

    #[test]
    fn prometheus_lines_are_wellformed() {
        let mut r = MetricsRegistry::new();
        r.add("net.msgs_sent_total", 5);
        r.set("loop.trust_drift", 0.25);
        for i in 1..=50 {
            r.observe("stage.act.latency_s", i as f64 * 1e-4);
        }
        assert_prometheus_wellformed(&prometheus_text(&r));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let mut r = MetricsRegistry::new();
        r.observe("h.latency_s", 1e-3);
        r.observe("h.latency_s", 1e-3);
        r.observe("h.latency_s", 1.0);
        let text = prometheus_text(&r);
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("h_latency_s_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        // Monotone non-decreasing, ending at the total count.
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "{cums:?}");
        assert_eq!(*cums.last().unwrap(), 3);
        assert_eq!(cums[0], 2, "first nonzero bucket holds the two 1e-3s");
    }

    #[test]
    fn ascii_histogram_renders_and_coalesces() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64 * 1e-3);
        }
        let art = ascii_histogram(&h, 8, 30);
        assert!(art.lines().count() <= 8, "{art}");
        assert!(art.contains('#'));
        // Every sample accounted for across rows.
        let total: u64 = art
            .lines()
            .filter_map(|l| {
                l.rsplit_once("  ")
                    .and_then(|(_, n)| n.trim().parse::<u64>().ok())
            })
            .sum();
        assert_eq!(total, 100);
        assert_eq!(
            ascii_histogram(&Histogram::new(), 8, 30),
            "  (no samples)\n"
        );
    }
}
