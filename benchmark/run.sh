#!/usr/bin/env bash
# The sensact benchmark's one command.
#
#   benchmark/run.sh                       every workload, untraced then traced
#   benchmark/run.sh --smoke               the same in < 15 s (2 segments, reduced fleets)
#   benchmark/run.sh --only <workload>     one workload of the full run
#   benchmark/run.sh --repeat N            N untraced passes, spread against the bounds
#   benchmark/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#                                          one run; the last line of stdout is its JSON result
#   benchmark/run.sh --check               cargo fmt --check, clippy -D warnings, manifest in sync
#
# Builds offline in release from the crates next to this directory, so it
# fails (non-zero, no result) where they are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started in; pin it before anything changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export SENSACT_BENCH_HOME="$here"

if [[ "${1:-}" == "--check" ]]; then
  cargo fmt --manifest-path "$manifest" --check
  cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
  cargo run --offline --release --quiet --manifest-path "$manifest" -- --print-manifest \
    | diff - "$here/../BENCHMARK.json"
  echo "benchmark package: fmt, clippy and BENCHMARK.json in sync"
  exit 0
fi

# Build output goes to stderr: stdout carries only the benchmark's lines.
cargo build --offline --release --quiet --manifest-path "$manifest" 1>&2
exec "$target/release/sensact-benchmark" "$@"
