#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, tests.
#
# Everything runs offline (the workspace has no external dependencies);
# pass --quick to skip the release build for a fast local loop.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

if [[ "$quick" == "0" ]]; then
    echo "== cargo build --release =="
    cargo build --offline --release

    echo "== cargo build --release --examples =="
    cargo build --offline --release --examples
fi

# The root package is a workspace member, so this also runs the replay
# round-trip, checkpoint conformance and serving integration suites.
echo "== cargo test (workspace) =="
cargo test --offline --workspace -q

echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

echo "== bench_obs smoke (quick mode) =="
SENSACT_QUICK=1 cargo bench --offline -p sensact-bench --bench bench_obs

echo "== bench_gate (perf-regression gate vs committed baselines) =="
cargo run --offline --release -p sensact-bench --bin bench_gate

echo "== conformance smoke (differential kernel matrix, host ISA) =="
cargo run --offline --release -p sensact-bench --bin conformance -- --smoke

echo "== conformance smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin conformance -- --smoke

echo "== bitwise kernel + conv lowering tests (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo test --offline -q -p sensact-math -p sensact-nn --lib

echo "== kernels bench smoke (host ISA) =="
cargo run --offline --release -p sensact-bench --bin kernels -- --smoke

echo "== kernels bench smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin kernels -- --smoke

echo "== fleet scheduler smoke (throughput + overhead) =="
cargo run --offline --release -p sensact-bench --bin bench_sched -- --smoke

echo "== checkpoint bench smoke (snapshot/restore/migration, host ISA) =="
cargo run --offline --release -p sensact-bench --bin bench_ckpt -- --smoke

echo "== checkpoint bench smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin bench_ckpt -- --smoke

echo "== federated fleet smoke (network sweeps, host ISA) =="
cargo run --offline --release -p sensact-bench --bin bench_fed -- --smoke

echo "== federated fleet smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin bench_fed -- --smoke

echo "== serving bench smoke (loopback throughput, host ISA) =="
cargo run --offline --release -p sensact-bench --bin bench_serve -- --smoke

echo "== serving bench smoke (forced-scalar path) =="
SENSACT_FORCE_SCALAR=1 cargo run --offline --release -p sensact-bench --bin bench_serve -- --smoke

echo "== benchmark package (fmt, clippy, BENCHMARK.json in sync) =="
benchmark/run.sh --check

echo "== benchmark smoke (seven workloads, golden hashes + output checks) =="
benchmark/run.sh --smoke

echo "CI gate passed."
