//! The full run (every workload, one child process each), the golden
//! output check, and the `--repeat` agreement check.

use crate::catalog::{self, END_TO_END};
use crate::measure::Exact;
use crate::workload::Check;
use crate::{home, Args};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Compare a run's exact counters with the golden recorded for
/// `(workload, seed, isa, mode)` in `goldens.txt`. A missing key records
/// (into `out/goldens.recorded.txt`) instead of failing: the driver's seeds
/// and other ISAs have no golden yet.
pub fn golden_check(workload: &str, args: &Args, exact: &Exact) -> Check {
    let isa = sensact_math::simd::isa_name();
    let mode = if args.smoke { "smoke" } else { "full" };
    let key = format!("{workload} {} {isa} {mode}", args.seed);
    let line = format!(
        "{key} {:016x} {} {} {} {:016x}",
        exact.hash,
        exact.ops,
        exact.refused,
        exact.failed,
        exact.energy_j.to_bits()
    );
    let goldens = std::fs::read_to_string(home().join("goldens.txt")).unwrap_or_default();
    match goldens
        .lines()
        .find(|l| l.starts_with(&key) && l[key.len()..].starts_with(' '))
    {
        Some(golden) => Check::new(
            "golden",
            golden.trim() == line,
            format!("got `{line}`, golden `{}`", golden.trim()),
        ),
        None => {
            let dir = home().join("out");
            let saved = std::fs::create_dir_all(&dir)
                .and_then(|_| {
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(dir.join("goldens.recorded.txt"))
                })
                .and_then(|mut f| writeln!(f, "{line}"));
            Check::new(
                "golden",
                true,
                format!(
                    "no golden for this key; recorded `{line}`{}",
                    if saved.is_ok() { "" } else { " (not saved)" }
                ),
            )
        }
    }
}

/// What one child run printed, reduced to what the ledger needs.
struct ChildRun {
    ok: bool,
    resolved: bool,
    result: String,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        let at = self.result.find(&format!("\"{name}\":{{\"value\":"))?;
        let rest = &self.result[at + name.len() + 12..];
        let end = rest.find([',', '}'])?;
        rest[..end].parse().ok()
    }

    fn field(&self, name: &str) -> Option<&str> {
        let at = self.result.find(&format!("\"{name}\":"))?;
        let rest = &self.result[at + name.len() + 3..];
        Some(&rest[..rest.find([',', '}'])?])
    }
}

/// Run one workload in a child process (so its peak RSS is its own), echo
/// what it printed, and keep its result line.
fn child(workload: &str, a: &Args, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let failed = ChildRun {
        ok: false,
        resolved: false,
        result: String::new(),
    };
    let Ok(out) = cmd.output() else {
        println!("{workload}: could not start the child run");
        return failed;
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let Some(result) = lines.pop().filter(|l| l.starts_with('{')) else {
        print!("{text}");
        println!("{workload}: child printed no result ({})", out.status);
        return failed;
    };
    for line in &lines {
        println!("{line}");
    }
    let mut run = ChildRun {
        ok: out.status.success(),
        resolved: trace || lines.contains(&"status: resolved"),
        result: result.to_string(),
    };
    run.ok &= run.field("correct") == Some("true");
    run
}

/// Every workload untraced (`repeat` times, round-robin so a noisy epoch is
/// shared between workloads, not spent on one workload's repeats), then
/// traced; print the ledger and judge it.
pub fn full_run(a: &Args) -> ExitCode {
    let defs: Vec<_> = catalog::WORKLOADS
        .iter()
        .filter(|w| a.only.as_deref().is_none_or(|o| o == w.name))
        .collect();
    println!(
        "sensact benchmark: {} workload(s), seed {}, {} s per run, isa {}, nproc {}{}",
        defs.len(),
        a.seed,
        a.seconds,
        sensact_math::simd::isa_name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if a.smoke { ", smoke" } else { "" }
    );
    let mut good = true;
    let mut passes: Vec<Vec<ChildRun>> = Vec::new();
    for pass in 0..a.repeat {
        println!("\n---- untraced pass {} of {} ----", pass + 1, a.repeat);
        passes.push(defs.iter().map(|w| child(w.name, a, false)).collect());
    }
    println!("\n---- traced pass ----");
    let traced: Vec<ChildRun> = defs.iter().map(|w| child(w.name, a, true)).collect();

    println!("\n---- ledger (first untraced pass) ----");
    print!("{:<20}", "workload");
    for m in END_TO_END {
        print!(" {:>17}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>10} {:>9}", "failed", "status");
    let mut results = String::from("{\n");
    for (i, w) in defs.iter().enumerate() {
        let run = &passes[0][i];
        print!("{:<20}", w.name);
        for m in END_TO_END {
            match run.metric(m.name) {
                Some(v) => print!(" {v:>17.4}"),
                None => print!(" {:>17}", "-"),
            }
        }
        let status = match (run.ok, run.resolved) {
            (false, _) => "FAILED",
            (true, false) => "unresolved",
            (true, true) => "ok",
        };
        println!(
            " {:>10} {:>9}",
            format!(
                "{}/{}",
                run.field("failed").unwrap_or("?"),
                run.field("attempted").unwrap_or("?")
            ),
            status
        );
        good &= run.ok && run.resolved && traced[i].ok;
        let _ = writeln!(
            results,
            "  \"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}{}",
            w.name,
            if run.result.is_empty() {
                "null"
            } else {
                &run.result
            },
            if traced[i].result.is_empty() {
                "null"
            } else {
                &traced[i].result
            },
            if i + 1 < defs.len() { "," } else { "" }
        );
    }
    results.push_str("}\n");
    let out = home().join("out");
    let path = out.join("results.json");
    match std::fs::create_dir_all(&out).and_then(|_| std::fs::write(&path, results)) {
        Ok(()) => println!("\nresults: {}", path.display()),
        Err(e) => println!("\nresults not written: {e}"),
    }

    if a.repeat > 1 {
        println!("\n---- agreement of {} untraced passes ----", a.repeat);
        println!(
            "{:<20} {:<18} {:>12} {:>12} {:>9} {:>7}",
            "workload", "metric", "min", "max", "spread", "bound"
        );
        for (i, w) in defs.iter().enumerate() {
            for m in END_TO_END {
                let values: Vec<f64> = passes.iter().filter_map(|p| p[i].metric(m.name)).collect();
                if values.len() < a.repeat {
                    good = false;
                    continue;
                }
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(0.0, f64::max);
                let spread = if lo > 0.0 { hi / lo - 1.0 } else { 0.0 };
                let within = spread <= m.bound;
                good &= within;
                println!(
                    "{:<20} {:<18} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%{}",
                    w.name,
                    m.name,
                    lo,
                    hi,
                    spread * 100.0,
                    m.bound * 100.0,
                    if within { "" } else { "  DISAGREE" }
                );
            }
            good &= passes.iter().all(|p| p[i].ok && p[i].resolved);
        }
    }
    if good {
        println!("\nall checks passed");
        ExitCode::SUCCESS
    } else {
        println!("\nFAILED: a check failed, a workload is unresolved, or runs disagree");
        ExitCode::FAILURE
    }
}
