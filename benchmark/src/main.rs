//! The sensact performance benchmark (see `benchmark/README.md`).
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of stdout, one
//!   JSON object `{correct, attempted, failed, metrics}` — every end-to-end
//!   metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! * without `--workload` it runs every workload that way, one child
//!   process each (peak RSS is per workload), untraced then traced, prints
//!   the ledger, and exits non-zero when a check fails, a workload is
//!   unresolved, or (`--repeat N`) two untraced runs disagree by more than a
//!   metric's bound.

mod catalog;
mod ceilings;
mod edge;
mod fleet;
mod measure;
mod replay;
mod report;
mod rotate;
mod serve;
mod trace;
mod train;
mod workload;

use catalog::{DEFAULT_SEED, END_TO_END, PER_LAYER};
use measure::{peak_rss_mb, Exact, SegmentLog, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Check, Layers, Sizing, Workload, WorkloadDef};

/// `run_seconds` of `BENCHMARK.json`, and the default for `--seconds`.
const RUN_SECONDS: u32 = 18;
/// Set-ups a run performs; `setup_s` is the fastest. The first builds the
/// instance that is measured; the others build throwaway twins at even
/// spacing through the timed phase, so the set-ups sample the same stretch
/// of wall time the segments do instead of one instant's host speed.
const SETUPS: usize = 5;
/// Exact counters (hash, energy, refused) are read after this many
/// segments, so they do not depend on how many the time limit allowed.
const EXACT_SEGMENTS: usize = 8;
/// A timed run never has fewer segments than this.
const MIN_SEGMENTS: usize = 8;
const SMOKE_SEGMENTS: usize = 2;
/// Share of a traced run's seconds spent on traced/untraced segment pairs;
/// the replays share the rest.
const TRACED_SEGMENT_SHARE: f64 = 0.4;
/// Spans a traced run writes out (whole segments, until this many are kept).
const MAX_TRACE_SPANS: usize = 50_000;
/// Replays a workload's `layers` makes, roughly: sizes each one's budget.
const REPLAYS_PER_WORKLOAD: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        only: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--only" => a.only = Some(value("--only")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("--trace")? == "1",
            "--repeat" => {
                a.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => a.smoke = true,
            "--print-manifest" => a.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if a.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    for name in a.workload.iter().chain(&a.only) {
        if catalog::workload(name).is_none() {
            let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(a)
}

/// The benchmark's own directory (`benchmark/`), for `out/` and the goldens.
fn home() -> PathBuf {
    std::env::var_os("SENSACT_BENCH_HOME")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sensact-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", catalog::manifest(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => {
            let def = catalog::workload(name).expect("validated in parse_args");
            if args.trace {
                run_traced(def, &args)
            } else {
                run_untraced(def, &args)
            }
            ExitCode::SUCCESS
        }
        None => report::full_run(&args),
    }
}

/// Segments until `seconds` have passed (a fixed two under `--smoke`).
/// `at_exact` sees the workload once, after [`EXACT_SEGMENTS`] segments;
/// `between` runs after every segment with the share of `seconds` used.
fn timed_segments(
    w: &mut dyn Workload,
    seconds: f64,
    smoke: bool,
    mut at_exact: impl FnMut(&mut dyn Workload),
    mut between: impl FnMut(f64),
) -> SegmentLog {
    let mut log = SegmentLog::default();
    let exact_at = if smoke {
        SMOKE_SEGMENTS
    } else {
        EXACT_SEGMENTS
    };
    let start = Instant::now();
    loop {
        let n = log.segments.len();
        let enough = if smoke {
            n >= SMOKE_SEGMENTS
        } else {
            n >= MIN_SEGMENTS && start.elapsed().as_secs_f64() >= seconds
        };
        if enough {
            return log;
        }
        rotate::turn();
        let mut lat = log.buffer();
        let t = Instant::now();
        let counts = w.segment(&mut lat);
        let wall = t.elapsed().as_nanos() as u64;
        log.push(wall, counts, lat);
        if log.segments.len() == exact_at {
            at_exact(w);
        }
        between(start.elapsed().as_secs_f64() / seconds);
    }
}

fn metric_json(pairs: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &str) {
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        attempted.max(1)
    );
}

fn print_checks(checks: &[Check]) -> bool {
    let mut all = true;
    for c in checks {
        println!(
            "check {:<24} {}  {}",
            c.name,
            if c.pass { "ok  " } else { "FAIL" },
            c.detail
        );
        all &= c.pass;
    }
    all
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn run_untraced(def: &WorkloadDef, args: &Args) {
    let sizing = Sizing { smoke: args.smoke };
    let build = || {
        rotate::turn();
        let t = Instant::now();
        let w = (def.build)(args.seed, sizing);
        (w, t.elapsed().as_secs_f64())
    };
    let (mut w, first) = build();
    let mut setups = vec![first];
    let wanted = if args.smoke { 1 } else { SETUPS };

    let mut exact = Exact::default();
    let log = timed_segments(
        w.as_mut(),
        args.seconds,
        args.smoke,
        |w| exact = w.exact(),
        |used| {
            // The k-th extra set-up falls due k/SETUPS of the way through.
            if setups.len() < wanted && used * wanted as f64 >= setups.len() as f64 {
                setups.push(build().1);
            }
        },
    );
    while setups.len() < wanted {
        setups.push(build().1);
    }
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let s = log.summary();
    let mut checks = w.check();
    checks.push(report::golden_check(def.name, args, &exact));
    let rss = peak_rss_mb();

    let energy_uj = exact.energy_j * 1e6 / exact.ops.max(1) as f64;
    // (value, samples behind it), in `END_TO_END` order.
    let ops = exact.ops as usize;
    let rows = [
        (setup_s, setups.len()),
        (s.ops_per_s, s.quiet),
        (s.op_p50_us, s.pool),
        (s.op_p99_us, s.pool),
        (energy_uj, ops),
        (rss, ops),
    ];
    println!(
        "== {} (seed {}, {} segments, quiet {}, op = {}) ==",
        def.name, args.seed, s.segments, s.quiet, def.op
    );
    for (m, (v, n)) in END_TO_END.iter().zip(rows) {
        println!(
            "{:<20} {:>16.4} {:<5} n={:<9} bound {:>4.0}% {}",
            m.name,
            v,
            m.unit,
            n,
            m.bound * 100.0,
            m.better
        );
    }
    print_share_lines(&log, &exact, &s);
    let checks_ok = print_checks(&checks);
    println!(
        "status: {}",
        if s.resolved { "resolved" } else { "unresolved" }
    );
    let pairs: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(rows)
        .map(|(m, (v, _))| (m.name, v, m.unit))
        .collect();
    print_result(
        checks_ok,
        log.counts.attempted,
        log.counts.failed,
        &metric_json(&pairs),
    );
}

fn print_share_lines(log: &SegmentLog, exact: &Exact, s: &Summary) {
    // From the exact counters, so the share repeats for a seed whatever
    // number of segments the time limit allowed.
    let replies = exact.ops + exact.refused + exact.failed;
    let n = replies.max(1) as f64;
    println!(
        "{:<20} {:>16.6} ratio n={:<9} (refused by design {:.6} + failed {:.6})",
        "failed_share",
        (exact.refused + exact.failed) as f64 / n,
        replies,
        exact.refused as f64 / n,
        exact.failed as f64 / n
    );
    println!(
        "{:<20} {:>16.2} %     median segment below the quiet quartile",
        "bench.noise_pct", s.noise_pct
    );
    let thr: Vec<String> = log
        .segments
        .iter()
        .map(|(t, _)| format!("{:.0}", t / s.ops_per_s * 100.0))
        .collect();
    println!("segments, % of quiet quartile: {}", thr.join(" "));
    println!(
        "exact after the first segments: ops {} refused {} failed {} energy_j {:e} hash {:016x}",
        exact.ops, exact.refused, exact.failed, exact.energy_j, exact.hash
    );
}

/// `--trace 1`: the per-layer metrics of one workload.
fn run_traced(def: &WorkloadDef, args: &Args) {
    let sizing = Sizing { smoke: args.smoke };
    // Pin before anything is built: the system sees one CPU throughout.
    rotate::turn();
    let ceil = ceilings::get();
    let mut w = (def.build)(args.seed, sizing);

    // Alternate untraced and traced segments in the same epoch, so the
    // difference between their quiet quartiles is the tracing overhead.
    let (mut plain, mut traced) = (SegmentLog::default(), SegmentLog::default());
    let mut drains: Vec<(f64, u64, trace::Drained)> = Vec::new();
    let budget = args.seconds * TRACED_SEGMENT_SHARE;
    let start = Instant::now();
    loop {
        let pairs = traced.segments.len();
        let enough = if args.smoke {
            pairs >= 1
        } else {
            pairs >= 2 && start.elapsed().as_secs_f64() >= budget
        };
        if enough {
            break;
        }
        rotate::turn();
        for on in [false, true] {
            let log = if on { &mut traced } else { &mut plain };
            let mut lat = log.buffer();
            trace::set_enabled(on);
            let t = Instant::now();
            let counts = w.segment(&mut lat);
            let wall = t.elapsed().as_nanos() as u64;
            trace::set_enabled(false);
            log.push(wall, counts, lat);
            if on {
                let thr = traced.segments.last().expect("just pushed").0;
                drains.push((thr, counts.attempted, trace::drain()));
            }
        }
    }
    // Wrapped layer times come from the quiet quarter of the traced
    // segments, like every other timing; every segment's spans are kept.
    drains.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite throughput"));
    let quiet = drains.len().div_ceil(4);
    let (mut spans, mut all_spans) = (trace::Drained::default(), Vec::new());
    let mut traced_ops = 0;
    for (i, (_, ops, mut drained)) in drains.into_iter().enumerate() {
        if all_spans.len() < MAX_TRACE_SPANS {
            all_spans.append(&mut drained.spans);
        }
        if i < quiet {
            traced_ops += ops;
            spans.merge(drained);
        }
    }
    let mut layers = Layers::default();
    let left = (args.seconds - start.elapsed().as_secs_f64()).max(0.2 * args.seconds);
    let replay_budget = if args.smoke {
        0.01
    } else {
        left / REPLAYS_PER_WORKLOAD
    };
    w.layers(&spans, traced_ops, replay_budget, &mut layers);

    let (p, t) = (plain.summary(), traced.summary());
    layers.set("bench.noise_pct", p.noise_pct, p.segments as u64);
    layers.set(
        "bench.trace_overhead_pct",
        100.0 * (p.ops_per_s - t.ops_per_s) / p.ops_per_s,
        t.segments as u64,
    );
    layers.set("bench.fma_peak_gflops", ceil.fma_peak_gflops, 5);
    layers.set("bench.stream_gbps", ceil.stream_gbps, 5);

    let out_dir = home().join("out");
    let mut jsonl = String::new();
    trace::write_jsonl(&mut jsonl, def.name, &all_spans);
    let trace_path = out_dir.join(format!("trace-{}.jsonl", def.name));
    let written =
        std::fs::create_dir_all(&out_dir).and_then(|_| std::fs::write(&trace_path, jsonl));

    println!(
        "== {} traced (seed {}, {} ops in the quiet traced segments, {} spans kept) ==",
        def.name,
        args.seed,
        traced_ops,
        all_spans.len()
    );
    match written {
        Ok(()) => println!("spans: {}", trace_path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
    println!(
        "{:<40} {:>14} {:<8} {:>10}  {:<9} moves",
        "per-layer metric", "value", "unit", "calls", "how"
    );
    let mut pairs = Vec::new();
    for m in PER_LAYER {
        let (value, calls) = layers.get(m.name);
        if calls > 0 {
            println!(
                "{:<40} {:>14.4} {:<8} {:>10}  {:<9} {}",
                m.name, value, m.unit, calls, m.how, m.moves
            );
        }
        pairs.push((m.name, value, m.unit));
    }
    let closure = layers.get("bench.replay_closure_pct").0;
    if closure != 0.0 && !(85.0..=115.0).contains(&closure) {
        println!("note: replay closure {closure:.1} % is outside 85-115 %");
    }
    let c = traced.counts;
    print_result(
        c.failed == 0 && plain.counts.failed == 0,
        c.attempted + plain.counts.attempted,
        c.failed + plain.counts.failed,
        &metric_json(&pairs),
    );
}
