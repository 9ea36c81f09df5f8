//! CI perf-regression gate: re-measure the recorded overhead headlines with
//! the exact shared workloads ([`sensact_bench::obsbench`]) and compare them
//! against the committed baselines with a tolerance band.
//!
//! Four headline checks:
//!
//! * `BENCH_obs.json` → `realistic.disabled_overhead_pct` — the paired
//!   baseline-vs-disabled-tracer tick (the plane's always-on cost);
//! * `BENCH_sched.json` → `overhead_fleet1.overhead_pct` — the paired
//!   raw-vs-scheduled tick at fleet size 1;
//! * `BENCH_serve.json` → `gate.p99_ratio_pct` and
//!   `gate.median_cost_ratio_pct` — batched serving cost as a percentage of
//!   per-loop dispatch at fleet 64 (the cross-loop batching win; a
//!   regression means batching stopped paying for itself). The two modes
//!   are interleaved round-by-round so machine-load epochs cancel out of
//!   the paired quotients; the p99 ratio is the tail headline, the median
//!   cost ratio the tight (±1 pp) sustained-cost one;
//! * `BENCH_kernels.json` → `deconv3d_forward.cost_ratio_pct` — the R-MAE
//!   `deconv1` forward (register-tiled `gemm_transa` in cache-sized blocks
//!   plus the fold) as a percentage of the scatter-loop reference, paired in
//!   one process. Losing the tiled kernel or the hoisted bounds tests
//!   roughly doubles it.
//!
//! Overheads are percentages of a microsecond-scale tick, so the band is
//! absolute percentage points: a fresh measurement may exceed its committed
//! baseline by at most `SENSACT_GATE_TOL_PP` (default 4.0). A fresh number
//! *below* the baseline always passes — the gate catches regressions, not
//! improvements. Each headline is measured three times and the best (lowest)
//! overhead is compared: a genuine regression raises every repeat, while a
//! scheduling hiccup only pollutes one. Exits 1 on regression; the
//! `scripts/ci.sh` bench_gate step.

use sensact_bench::convbench::deconv_forward_headline;
use sensact_bench::obsbench::{paired_realistic, sched_overhead_case};
use sensact_bench::servebench::serve_gate_headline;
use sensact_core::Tracer;

/// Extract the number following `"key":` — enough JSON for our own
/// generated baseline files, no parser dependency.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Best (lowest) of three repeats of a fresh overhead measurement. One
/// repeat can land on a noisy scheduler quantum; a real regression raises
/// the floor of all three.
fn best_of_three(measure: impl Fn() -> f64) -> f64 {
    (0..3).map(|_| measure()).fold(f64::INFINITY, f64::min)
}

/// One gate line: pass unless `fresh` exceeds `committed` by > `tol_pp`.
fn check(name: &str, committed: f64, fresh: f64, tol_pp: f64, failures: &mut u32) {
    let regressed = fresh > committed + tol_pp;
    println!(
        "{:<36} committed {committed:+6.2} %  fresh {fresh:+6.2} %  band +{tol_pp:.1} pp  {}",
        name,
        if regressed { "FAIL" } else { "ok" }
    );
    if regressed {
        *failures += 1;
    }
}

fn main() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let tol_pp: f64 = std::env::var("SENSACT_GATE_TOL_PP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4.0);
    let mut failures = 0u32;

    println!("bench_gate: fresh paired headlines vs committed baselines\n");

    let obs = std::fs::read_to_string(format!("{root}/BENCH_obs.json"))
        .expect("read BENCH_obs.json at the repo root");
    let committed_obs = json_number(&obs, "disabled_overhead_pct")
        .expect("BENCH_obs.json carries realistic.disabled_overhead_pct");
    let fresh_obs = best_of_three(|| {
        let (base_ns, off_ns) = paired_realistic(120, 300, Tracer::disabled());
        (off_ns / base_ns - 1.0) * 100.0
    });
    check(
        "obs disabled-path overhead",
        committed_obs,
        fresh_obs,
        tol_pp,
        &mut failures,
    );

    let sched = std::fs::read_to_string(format!("{root}/BENCH_sched.json"))
        .expect("read BENCH_sched.json at the repo root");
    let committed_sched = json_number(&sched, "overhead_pct")
        .expect("BENCH_sched.json carries overhead_fleet1.overhead_pct");
    let fresh_sched = best_of_three(|| sched_overhead_case(512, 6).overhead_pct);
    check(
        "scheduler per-tick overhead",
        committed_sched,
        fresh_sched,
        tol_pp,
        &mut failures,
    );

    let serve = std::fs::read_to_string(format!("{root}/BENCH_serve.json"))
        .expect("read BENCH_serve.json at the repo root");
    // Scope the key lookup to the "gate" object: the per-fleet rows carry a
    // median_cost_ratio_pct of their own.
    let gate_at = serve
        .find("\"gate\"")
        .expect("BENCH_serve.json carries a gate object");
    let committed_p99 = json_number(&serve[gate_at..], "p99_ratio_pct")
        .expect("BENCH_serve.json carries gate.p99_ratio_pct");
    let committed_median = json_number(&serve[gate_at..], "median_cost_ratio_pct")
        .expect("BENCH_serve.json carries gate.median_cost_ratio_pct");
    // The ratios are ~tens of percent, so the pp band is applied to them
    // directly: batched cost creeping up relative to per-loop dispatch is
    // the regression these lines exist to catch. Three single 400-round
    // passes, best (lowest) of each ratio: a preemption burst pollutes one
    // pass, a genuine batching regression raises all three floors. The
    // committed baselines are medians over five such passes (`bench_serve`),
    // so the fresh floor sits at or below them unless batching regressed.
    let (mut fresh_p99, mut fresh_median) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (p99, median) = serve_gate_headline(64, 400, 1);
        fresh_p99 = fresh_p99.min(p99);
        fresh_median = fresh_median.min(median);
    }
    check(
        "serving batched/unbatched p99",
        committed_p99,
        fresh_p99,
        tol_pp,
        &mut failures,
    );
    check(
        "serving batched/unbatched median",
        committed_median,
        fresh_median,
        tol_pp,
        &mut failures,
    );

    let kern = std::fs::read_to_string(format!("{root}/BENCH_kernels.json"))
        .expect("read BENCH_kernels.json at the repo root");
    let deconv_at = kern
        .find("\"deconv3d_forward\"")
        .expect("BENCH_kernels.json carries a deconv3d_forward object");
    let committed_deconv = json_number(&kern[deconv_at..], "cost_ratio_pct")
        .expect("BENCH_kernels.json carries deconv3d_forward.cost_ratio_pct");
    let fresh_deconv = best_of_three(|| {
        let (reference_ns, lowered_ns) = deconv_forward_headline(8, 2);
        100.0 * lowered_ns / reference_ns
    });
    check(
        "deconv forward / scatter reference",
        committed_deconv,
        fresh_deconv,
        tol_pp,
        &mut failures,
    );

    if failures > 0 {
        eprintln!("\nbench_gate FAILED: {failures} headline(s) regressed past the band");
        std::process::exit(1);
    }
    println!("\nbench_gate passed.");
}
