//! # sensact-bench
//!
//! Experiment harnesses reproducing every table and figure of the paper's
//! evaluation. One binary per artifact (see `src/bin/`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table I — AP per class × pre-training scheme × detector |
//! | `table2` | Table II — conventional vs. R-MAE energy/params/FLOPs |
//! | `fig5a` | Fig. 5a — MACs of the dynamics models |
//! | `fig5b` | Fig. 5b — reward vs. disturbance probability |
//! | `fig7` | Fig. 7 — detection accuracy under snow ± STARNet |
//! | `starnet_auc` | §V AUC table over the 7 corruption families |
//! | `fig9` | Fig. 9 — optical-flow AEE bars + size sweep |
//! | `fig8_energy` | Fig. 2/8 — clocked vs. event-driven loop energy |
//! | `fig11` | Fig. 11 — DC-NAS / HaLo-FL energy/latency/area reductions |
//! | `conclusions` | §VIII headline claims (8 % sensing, 3× fleet energy, monitor recovery) |
//!
//! Every binary prints a paper-vs-measured comparison and appends a CSV under
//! the repo root's `target/experiments/`. Set `SENSACT_QUICK=1` for reduced
//! problem sizes. Beside them: `bench_ckpt` and `bench_fed` (the two paths
//! the performance ledger in `benchmark/` does not cover). Every other
//! timing lives in `benchmark/`.

use std::io::Write;
use std::path::PathBuf;

/// Whether quick mode is requested (smaller problem sizes).
pub(crate) fn quick() -> bool {
    std::env::var("SENSACT_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}

/// Whether the reduced CI matrix is requested: `--smoke`, or quick mode.
/// Smoke runs never rewrite a committed `BENCH_*.json`.
pub fn smoke() -> bool {
    quick() || std::env::args().any(|a| a == "--smoke")
}

/// Scale a size by quick mode (quarter size, at least `min`).
pub fn scaled(full: usize, min: usize) -> usize {
    if quick() {
        (full / 4).max(min)
    } else {
        full
    }
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Print a `paper vs measured` comparison line.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("{label:<44} paper: {paper:<18} measured: {measured}");
}

/// The repo root, wherever the binary is started from: where the committed
/// `BENCH_*.json` records and `target/experiments/` live.
fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Write a committed `BENCH_*.json` record at the repo root. Callers record
/// in full mode only (see [`smoke`]), so CI runs leave the tree clean.
pub fn write_record(file: &str, json: &str) {
    std::fs::write(repo_root().join(file), json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("wrote {file}");
}

/// Write CSV rows to `target/experiments/<name>.csv` under the repo root
/// (creates the dir); errors are reported but not fatal — the printed
/// output is the artifact.
pub fn write_csv(name: &str, header_row: &str, rows: &[String]) {
    let dir = repo_root().join("target/experiments");
    let write = || -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{header_row}")?;
        for r in rows {
            writeln!(f, "{r}")?;
        }
        Ok(path)
    };
    match write() {
        Ok(path) => println!("[csv] {}", path.display()),
        Err(e) => eprintln!("[csv] write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_quick_floor() {
        // Without the env var, full size.
        if !quick() {
            assert_eq!(scaled(100, 10), 100);
        }
        // The floor always holds.
        assert!(scaled(8, 10) >= if quick() { 10 } else { 8 });
    }

    #[test]
    fn csv_writer_creates_file() {
        write_csv("unit_test", "a,b", &["1,2".to_string(), "3,4".to_string()]);
        let path = repo_root().join("target/experiments/unit_test.csv");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("3,4"));
    }
}
