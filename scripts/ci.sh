#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, tests.
#
# Everything runs offline (the workspace has no external dependencies);
# pass --quick to skip the release build for a fast local loop.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== threads are created by FleetScheduler::run and the TCP front-end only =="
[[ "$(git grep -lE 'thread::(scope|spawn|Builder)|available_parallelism' -- 'crates/*/src/*' | xargs)" == "crates/sensact-sched/src/sched.rs crates/sensact-serve/src/server.rs" ]]

# `[^_]` spares `record_with_precision`: the recorded column stays. An `if`,
# because `set -e` ignores the status of a `!`-negated command.
echo "== no runtime precision schedule: governor, policy and hint stay deleted =="
if git grep -nE 'PrecisionGovernor|PrecisionPolicy|precision_hint|recommended_precision|[^_]with_precision' -- crates src tests examples; then
    exit 1
fi

echo "== one way to close a loop, one library conv forward =="
if git grep -nE 'closed_checkpointable|closed_fallible_checkpointable|struct Codec|pub fn forward_reference' -- crates src tests examples; then
    exit 1
fi

# The FNV-1a prime lives only beside `export::fnv1a_words`; a causal span is
# built only by `TraceContext::span` (the two files that define and parse the
# record are exempt).
echo "== one causal-span path: one span constructor, one span ring, one network call, one FNV-1a fold =="
if git grep -niF '0100_0000_01B3' -- crates src tests examples ':!crates/sensact-core/src/export.rs' \
    || git grep -nE 'transfer_traced|VecDeque<CausalSpan>|parse_causal_span|prometheus_text_with_labels' -- crates src tests examples \
    || git grep -nF 'CausalSpan {' -- 'crates/*/src/*' ':!crates/sensact-core/src/trace.rs' ':!crates/sensact-core/src/export.rs'; then
    exit 1
fi

# One entry point per job and one SplitMix64 finalizer
# (`sensact_math::rng::splitmix64_finalize`).
echo "== no second entry points, one SplitMix64 finalizer =="
if git grep -nE 'run_federated_scheduled_traced|FlushStats|fn exposition|fn text_report\(&self\)|TemporalConfig' -- crates src tests examples \
    || git grep -nF '0x94D0_49BB_1331_11EB' -- crates src tests examples ':!crates/sensact-math/src/rng.rs'; then
    exit 1
fi

# A loop's record ring holds `DEFAULT_RECORD_CAPACITY` rows, sized by the
# longest tail an in-tree reader takes. Code under crates/*/src keeps that
# one policy; only the files defining the knob name it (integration tests
# that read a whole run set it through the loop builders).
echo "== one history policy: no record-ring capacity chosen under crates/*/src =="
if git grep -nE 'with_telemetry_capacity\(|LoopTelemetry::with_capacity\(' -- 'crates/*/src/*' \
    ':!crates/sensact-core/src/telemetry.rs' ':!crates/sensact-core/src/loop_.rs' ':!crates/sensact-core/src/fault.rs'; then
    exit 1
fi

# One conv lowering on every ISA: the panel-source GEMM always computes (the
# portable tile where no f64 vector ISA is on), so `conv.rs` keeps no
# materialised im2col arm — the dense unfold lives in the test-only
# `conv_oracle.rs` — and neither panel-source entry can decline.
echo "== one conv lowering: no unfold or column scratch in conv.rs, no declining panel-source GEMM =="
if git grep -nE 'fn unfold|^[[:space:]]*col: (Vec<|vec!)' -- crates/sensact-nn/src/conv.rs; then
    exit 1
fi
while read -r fn file; do
    sig="$(awk -v f="fn $fn[<(]" '$0 ~ f { on = 1 } on { print } on && /[{]/ { exit }' "$file")"
    if [[ -z "$sig" || "$sig" == *'-> bool'* ]]; then
        echo "$file: $fn is missing or returns bool"
        exit 1
    fi
done <<'SIGNATURES'
gemm_panel_source crates/sensact-math/src/kernels.rs
gemm_tile_f64 crates/sensact-math/src/simd.rs
SIGNATURES

# One window walker: both conv panel packers read a zero-bordered copy of
# their source grid (the halo) through its two offset tables, so no
# `PanelSource` impl in `conv.rs` walks a window's in-grid tap range or
# clamps it against the padding.
echo "== one window walker: no conv panel packer tests a tap against the grid's bounds =="
[[ "$(grep -c '^impl PanelSource for' crates/sensact-nn/src/conv.rs)" == 2 ]]
if awk '/^impl PanelSource for/ { on = 1 } on { print FILENAME ":" FNR ": " $0 } on && /^}/ { on = 0 }' \
    crates/sensact-nn/src/conv.rs | grep -E '\.taps\(|saturating_sub'; then
    exit 1
fi

# Fused multiply-add is the FMA tier's alone: only the two FMA tiles
# (`kernel_6x8_f64_fma`, `kernel_8x8_f64_zmm_fma`) may name a fused
# intrinsic or `mul_add`, so no multiply-then-add tile and no scalar loop
# can start rounding once per step (comment lines aside). A line belongs to
# the last `fn` header above it until the `}` at that header's indentation;
# anything after it (a const, a static, a macro body) belongs to no fn.
echo "== fused multiply-add only in the two FMA tiles =="
offenders="$(git ls-files -- 'crates/*/src/*.rs' 'src/*.rs' | xargs awk '
    BEGIN { hdr = "^[[:space:]]*((pub(\\([^)]*\\))?|const|async|unsafe|extern( \"[^\"]*\")?|default)[[:space:]]+)*fn[[:space:]]+" }
    FNR == 1 { f = ""; ind = "" }
    $0 ~ hdr {
        match($0, /^[[:space:]]*/); ind = substr($0, 1, RLENGTH)
        f = $0; sub(hdr, "", f); sub(/[^A-Za-z0-9_].*/, "", f)
    }
    /_mm(256|512)?_fn?m(add|sub)[a-z]*_p[ds]|\.mul_add\(/ && !/^[[:space:]]*\/\// \
        && f != "kernel_6x8_f64_fma" && f != "kernel_8x8_f64_zmm_fma" { print FILENAME ":" FNR ": " $0 }
    f != "" && index($0, ind "}") == 1 { f = "" }')"
if [[ -n "$offenders" ]]; then
    echo "$offenders"
    exit 1
fi

# Every `pub` fn / const / static under crates/*/src has a caller outside
# its own unit tests, and every `pub` field of a `pub struct` with an
# `impl Default` is set somewhere outside that impl — or either has an
# allowlisted reason (scripts/surface.py).
echo "== library surface: no pub item only its own tests call, no option nothing sets =="
python3 scripts/surface.py

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
# Test steps run under a wall-clock bound, so a deadlocked test (a scheduler
# worker spinning on a counter, say) fails the gate instead of stalling it.
echo "== cargo test (workspace) =="
timeout 30m cargo test --offline --workspace -q

echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

# The steps whose answer depends on the kernel dispatch run once per ISA: on
# the ISA the steps above ran on (the host's, or the forced-scalar fallback
# when the caller exports SENSACT_FORCE_SCALAR) and, if that was the host's,
# on the forced-scalar fallback too. The math + nn lib tests are the
# dispatch-dependent correctness step: every fast kernel and conv lowering
# against its reference, on the tier its contract names. The conv layers
# run one lowering on both legs — panels packed from the zero-bordered halo
# by one walker, the tap-major fold — and the legs differ in the tile under
# it and so in the packers' lane width: on the host leg the host's widest
# tiles with 8-wide lanes (the 512-bit multiply-then-add and FMA tiles from
# 8 rows up where AVX-512 is on, the 256-bit ones below 8 rows and on an
# AVX2-only host; FMA from 2^14), on the forced-scalar leg the portable
# plain-Rust 4x4 tile in dot and chain mode with 4-wide lanes — the leg that
# proves the portable tile and the 4-wide lanes. On an AVX-512 host the
# AVX2 tiles take only products under 8 rows, so
# `simd::every_tile_of_a_tier_gives_the_same_bits` drives them directly
# against the 512-bit and portable tiles, and
# `conv::the_layers_run_the_host_s_widest_tiles` fails if a layer ran a
# narrower tile than its leg selects.
# `prop_halo_packers_match_the_oracle_unfold` holds both packers to the
# oracle's unfold at both widths and asserts that the layers ran the leg's
# width only; `halo_state_does_not_leak_across_calls`
# replays random call sequences against fresh twins with the halo border
# checked after each call; the backward rows of
# `prop_{conv,deconv}_lowering_is_bit_identical_to_the_materialised_oracle`
# (batch 1 and 3), `the_tap_major_fold_adds_in_the_site_major_order` and
# `kernels::tests::{gathered_transb_is_bitwise_identical_to_per_item_dispatch,
# chain_panel_source_is_bitwise_identical_to_gemm}` hold each tile to the
# oracle's materialised unfold + `gemm` / row-dot. `tests/alloc_guard.rs`
# repeats with them: no column matrix in an R-MAE train step (< 3 MiB), and
# no allocation a warm conv lowering regrows, on both legs. The starnet +
# lidar lib tests ride along: the pinned score stream and the regret oracle
# go through the sign fold and the VAE's GEMMs; so do the rmae ones, whose
# site-sparse reconstruct must equal the dense conv oracle on either tier,
# and the koopman ones, whose stack-buffer encode must equal the boxed
# `Sequential` forward it replaced on either tier.
# The workspace step already ran them on the first leg's ISA, so they repeat
# only on the other.
# None of the steps gates on a timing — every timing the repo judges is a
# benchmark/ row (scripts/bench_pair.py).
case "${SENSACT_FORCE_SCALAR:-0}" in
    0) legs=(0 1) ;;
    *) legs=(1) ;;
esac
for leg in "${legs[@]}"; do
    [[ "$leg" == "0" ]] && isa="host ISA: widest tiles, 512-bit on AVX-512" \
        || isa="forced-scalar path: portable 4x4 tile"

    if [[ "$leg" != "${legs[0]}" ]]; then
        echo "== bitwise kernel, conv lowering, R-MAE, STARNet, lidar + Koopman tests, footprint guard ($isa) =="
        SENSACT_FORCE_SCALAR="$leg" timeout 30m cargo test --offline -q \
            -p sensact-math -p sensact-nn -p sensact-rmae -p sensact-starnet -p sensact-lidar \
            -p sensact-koopman --lib
        SENSACT_FORCE_SCALAR="$leg" timeout 30m cargo test --offline -q --test alloc_guard
    fi

    echo "== checkpoint bench smoke (snapshot/restore/migration, $isa) =="
    SENSACT_FORCE_SCALAR="$leg" cargo run --offline --release -p sensact-bench --bin bench_ckpt -- --smoke

    echo "== federated fleet smoke (network sweeps, $isa) =="
    SENSACT_FORCE_SCALAR="$leg" cargo run --offline --release -p sensact-bench --bin bench_fed -- --smoke

    # Each bin asserts its table's or figure's shape and exits non-zero when
    # it does not hold (EXPERIMENTS.md records the full-size runs).
    echo "== paper tables and figures, quick mode ($isa) =="
    for bin in table1 table2 fig5a fig5b fig7 starnet_auc fig9 fig8_energy fig11 conclusions; do
        SENSACT_FORCE_SCALAR="$leg" SENSACT_QUICK=1 \
            cargo run --offline --release -q -p sensact-bench --bin "$bin" >/dev/null
    done
done

echo "== benchmark package (fmt, clippy, BENCHMARK.json in sync) =="
benchmark/run.sh --check

echo "== benchmark smoke (seven workloads, golden hashes + output checks) =="
benchmark/run.sh --smoke

echo "== committed BENCH_*.json records untouched =="
git diff --exit-code -- 'BENCH_*.json'

echo "CI gate passed."
