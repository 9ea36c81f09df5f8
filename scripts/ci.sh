#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, tests.
#
# Everything runs offline (the workspace has no external dependencies);
# pass --quick to skip the release build for a fast local loop.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# The five documents every change reads stay under one cap (140 KiB):
# per-change narrative moves to docs/history/ instead of piling up here.
echo "== always-read docs: README, DESIGN, CHANGES, EXPERIMENTS and ROADMAP total <= 143360 bytes =="
docs_total=0
for doc in README.md DESIGN.md CHANGES.md EXPERIMENTS.md ROADMAP.md; do
    size="$(wc -c < "$doc")"
    echo "$doc $size"
    docs_total=$((docs_total + size))
done
echo "total $docs_total"
if (( docs_total > 143360 )); then
    echo "over the cap: move per-PR narrative to docs/history/"
    exit 1
fi

echo "== threads are created by FleetScheduler::run and the TCP front-end only =="
[[ "$(git grep -lE 'thread::(scope|spawn|Builder)|available_parallelism' -- 'crates/*/src/*' | xargs)" == "crates/sensact-sched/src/sched.rs crates/sensact-serve/src/server.rs" ]]

# Which connection gets a lease's replies is decided once, in `Loopback`;
# the TCP front-end is sockets, threads and the wall clock around it, so
# `server.rs` above its tests keeps no route, outbox or lease list.
echo "== one lease-routing table: server.rs routes no lease =="
if awk '/^mod tests/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/sensact-serve/src/server.rs \
    | grep -E 'granted|released|Outbox|BTreeMap'; then
    exit 1
fi

# A masked scan costs what it fires: the azimuth broad phase is one flat
# index (column offsets plus one id list) built per scan, so `raycast.rs`
# above its tests keeps no vector per column.
echo "== one broad phase: raycast.rs keeps no per-column vectors =="
if awk '/^mod tests/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/sensact-lidar/src/raycast.rs \
    | grep -E 'Vec<Vec<|azimuth_buckets'; then
    exit 1
fi

# A trainer hands its optimizer a parameter walk (`Optimizer::step_params`,
# a closure over its own parts), and the step zeroes each gradient it
# applies. So no `Layer` impl under crates/*/src is a stub whose `forward`
# returns its input's clone to carry parameters to `Optimizer::step`, and no
# optimizer is swapped out for an `Adam::new(0.0)` placeholder to be stepped.
echo "== one parameter walk: no pass-through Layer facade, no placeholder optimizer =="
offenders="$(git ls-files -- 'crates/*/src/*.rs' | xargs awk '
    FNR == 1 { on = 0; name = "" }
    match($0, /^[[:space:]]*impl(<[^>]*>)?[[:space:]]+Layer[[:space:]]+for[[:space:]]/) {
        on = 1; match($0, /^[[:space:]]*/); ind = substr($0, 1, RLENGTH); next
    }
    on && index($0, ind "}") == 1 { on = 0; name = ""; next }
    name != "" {
        if ($0 ~ ("^[[:space:]]*" name "\\.clone\\(\\)[[:space:]]*$")) print FILENAME ":" FNR ": " $0
        name = ""
    }
    on && match($0, /fn forward\(&mut self, [A-Za-z_][A-Za-z0-9_]*/) {
        name = substr($0, RSTART + 22, RLENGTH - 22)
        if ($0 ~ ("[{][[:space:]]*" name "\\.clone\\(\\)[[:space:]]*[}]")) { print FILENAME ":" FNR ": " $0; name = "" }
    }'
    git grep -nE 'Adam::new\(0(\.0*)?\)' -- 'crates/*/src/*' || true)"
if [[ -n "$offenders" ]]; then
    echo "$offenders"
    exit 1
fi

# A loop keeps, and its checkpoint carries, what its next tick or a reader
# uses. So `telemetry.rs` above its tests keeps no `RunningStats` shadow of
# its totals, and no writer under crates/*/src puts a retired key: the
# Welford words `energy_count` / `energy_acc` / `latency_count` /
# `latency_acc`, the injector's `injected` and profile-derived `active`, the
# drift tracker's baseline-derived `baseline_scale`, and the budget's
# uncounted `deadline_misses` (the scheduler's `sched.slot` counts its own).
# Each file up to its `mod tests` is one text, so a call split across lines
# is caught.
echo "== the wire carries what a restore reads: no shadow accumulator, no retired checkpoint key =="
offenders="$(git ls-files -- 'crates/*/src/*.rs' | xargs awk '
    function flush() {
        if (file ~ /sensact-core\/src\/telemetry\.rs$/ && text ~ /RunningStats/) print file ": names RunningStats"
        if (text ~ /put_[a-z0-9_]*\([^;"]*"(energy_count|energy_acc|latency_count|latency_acc|injected|active|baseline_scale)"/) print file ": writes a retired key"
        if (file ~ /sensact-core\/src\/budget\.rs$/ && text ~ /put_[a-z0-9_]*\([^;"]*"deadline_misses"/) print file ": writes deadline_misses"
    }
    FNR == 1 { if (file != "") flush(); file = FILENAME; text = ""; done = 0 }
    done { next }
    /^mod tests/ { done = 1; next }
    { text = text "\n" $0 }
    END { if (file != "") flush() }')"
if [[ -n "$offenders" ]]; then
    echo "$offenders"
    exit 1
fi

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

# The transposed lowerings (deconv forward, conv input gradient) fold each
# tap's dots straight into the output through `kernels::fold_dots`: conv.rs
# keeps no column block, no block-sized scratch and no tap-major fold over
# one, and calls no `gemm_transa` (which stays for `Dense` / `Matrix`).
echo "== no column block in the transposed lowerings: conv.rs folds through fold_dots =="
if git grep -nE 'FOLD_BLOCK|fn fold_taps|gemm_transa\(' -- crates/sensact-nn/src/conv.rs; then
    exit 1
fi

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

# A restore refuses a field through `Section::bad` / `Section::check`, which
# spell `BadValue("<section>.<key>")` in checkpoint.rs, so library code
# elsewhere never formats a `BadValue` itself (a file's unit tests, from its
# `#[cfg(test)] mod tests` on, may). The whole file up to there is one text,
# so a call split across lines is caught too.
echo "== one spelling of a field error: no BadValue built from format! outside checkpoint.rs =="
offenders="$(git ls-files -- 'crates/*/src/*.rs' ':!crates/sensact-core/src/checkpoint.rs' | xargs awk '
    function flush() { if (text ~ /BadValue\([ \t\n]*format!/) print file }
    FNR == 1 { if (file != "") flush(); file = FILENAME; text = ""; prev = ""; done = 0 }
    done { next }
    /^mod tests/ && prev ~ /^#\[cfg\(test\)\]/ { done = 1; next }
    { text = text "\n" $0; prev = $0 }
    END { if (file != "") flush() }')"
if [[ -n "$offenders" ]]; then
    echo "$offenders"
    exit 1
fi

# A NaN makes `partial_cmp` return `None`, so unwrapping it panics on one
# poisoned value: library code orders floats by `total_cmp`. As above, each
# file up to its `#[cfg(test)] mod tests` is one text, so a call split
# across lines is caught; `//` and `/* */` comments are dropped first.
echo "== no unwrapped partial_cmp in library code: floats order by total_cmp =="
offenders="$(git ls-files -- 'crates/*/src/*.rs' | xargs awk '
    function uncomment(t,   out, i, j) {
        out = ""
        while ((i = index(t, "/*")) > 0) {
            out = out substr(t, 1, i - 1)
            t = substr(t, i + 2)
            j = index(t, "*/")
            t = j ? substr(t, j + 2) : ""
        }
        return out t
    }
    function flush() {
        if (uncomment(text) ~ /partial_cmp\([^()]*(\([^()]*\)[^()]*)*\)[ \t\n]*\.(unwrap|expect)\(/) print file
    }
    FNR == 1 { if (file != "") flush(); file = FILENAME; text = ""; prev = ""; done = 0 }
    done { next }
    /^mod tests/ && prev ~ /^#\[cfg\(test\)\]/ { done = 1; next }
    { line = $0; sub(/\/\/.*/, "", line); text = text "\n" line; prev = $0 }
    END { if (file != "") flush() }')"
if [[ -n "$offenders" ]]; then
    echo "$offenders"
    exit 1
fi

# Inside a crate, rustc's dead-code lint is the census (clippy -D warnings
# below), so library code may not silence it: no `allow(dead_code)`,
# `allow(unused…)` or `allow(clippy::len_without_is_empty)` attribute outside
# `#[cfg(test)]` items. An attribute group (the `#[...]` lines above an item)
# that carries `cfg(test)` is exempt, and so is the body of the item it opens.
echo "== the dead-code lint stays on: no allow(dead_code / unused / len_without_is_empty) in library code =="
offenders="$(git ls-files -- 'crates/*/src/*.rs' | xargs awk '
    FNR == 1 { group = ""; test = 0; skip = 0 }
    skip { depth += gsub(/[{]/, "{") - gsub(/[}]/, "}"); if (depth <= 0) skip = 0; next }
    /^[[:space:]]*#!?\[/ {
        group = group "\n" FILENAME ":" FNR ": " $0
        if ($0 ~ /cfg\(test\)/) test = 1
        next
    }
    {
        if (!test && group ~ /allow\((dead_code|unused|clippy::len_without_is_empty)/) print group
        if (test) { depth = gsub(/[{]/, "{") - gsub(/[}]/, "}"); skip = depth > 0 }
        group = ""; test = 0
    }')"
if [[ -n "$offenders" ]]; then
    echo "$offenders"
    exit 1
fi

# Every `pub` fn / const / static under crates/*/src is named outside its
# crate (other crates, bins, tests, examples, benchmark/src, doc tests), and
# every `pub` field of a `pub struct` with an `impl Default` is set somewhere
# outside that impl — or either has an allowlisted reason (scripts/surface.py).
echo "== library surface: no pub item only its own crate uses, no option nothing sets =="
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

# The steps whose answer depends on the kernel dispatch run once per ISA:
# on the ISA the steps above ran on (the host's, or the forced-scalar
# fallback when the caller exports SENSACT_FORCE_SCALAR) and, if that was
# the host's, on the forced-scalar fallback too. Two legs, because the host
# leg runs the widest tiles and fold arms its CPU selects (512-bit on
# AVX-512) while only the forced-scalar leg runs the portable 4x4 tile, its
# 4-wide panels and the scalar folds, and every contract must hold on both.
# DESIGN.md §7 and §13 list, beside each kernel, conv lowering and model
# path, the tests that hold it to its reference. The workspace step already
# ran them on the first leg's ISA, so they repeat only on the other. None
# of the steps gates on a timing: every timing the repo judges is a
# benchmark/ row (scripts/bench_pair.py).
case "${SENSACT_FORCE_SCALAR:-0}" in
    0) legs=(0 1) ;;
    *) legs=(1) ;;
esac
for leg in "${legs[@]}"; do
    [[ "$leg" == "0" ]] && isa="host ISA: widest tiles, dot-fold and sign-fold arms, 512-bit on AVX-512" \
        || isa="forced-scalar path: portable 4x4 tile, scalar dot fold and sign fold"

    if [[ "$leg" != "${legs[0]}" ]]; then
        echo "== bitwise kernel, dot fold, sign fold, conv lowering, R-MAE, STARNet, lidar + Koopman tests, allocation + footprint guard ($isa) =="
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
