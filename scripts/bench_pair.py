#!/usr/bin/env python3
"""Parent-vs-change verdict on the performance ledger, the way a PR is judged.

    scripts/bench_pair.py <parent-rev> [--layers a,b,c] [workload ...]
    scripts/bench_pair.py <parent-rev> --bin <sensact-bench bin>

Builds both sides at one path: exports <parent-rev> into `src/` of a temp dir
(under $TMPDIR), builds its `benchmark/` there into an emptied target dir and
moves the binary aside, then does the same for the working tree, uncommitted
and untracked-but-not-ignored files included. Same source path, same target
path: the same source built in two directories links its hot kernels at
different addresses (crate hashes depend on the path), which moved workloads
by up to +-6 % with no changed line on their path (PR 19). It then runs ten
pairs per workload, each side's binary with the arguments of the public line

    benchmark/run.sh --workload <w> --seed <n> --seconds 6 --trace 0

alternating which side goes first, one fresh seed per pair. For each workload
x end-to-end metric it prints both medians, the parent's interquartile range,
the pairs the change won, and a verdict against the metric's `bound` in
BENCHMARK.json:

    gain          change wins >= 9/10 of the pairs and the medians differ by
                  more than the parent IQR
    worse         the change's median is worse than the parent's by more
                  than the bound
    unresolved    the parent IQR is wider than the bound: the runs cannot tell
    inside bound  none of the above

With `--layers`, the ten untraced pairs of a workload are followed by one
`--trace 1` run per side on the first seed, and the named per-layer rows of
BENCHMARK.json are printed parent vs change: where the saving sits. One traced
run a side is a pointer, not a verdict; the verdicts stay untraced.

With `--bin`, the ledger is replaced by one of `sensact-bench`'s bins (e.g.
`bench_ckpt`, whose numbers the ledger does not cover): each side builds that
bin at the same source path, and five alternating pairs of full-mode runs
(`--smoke` off) each read the one-row CSV the bin names on its `[csv]` line.
Every column is a cost, lower is better, and there is no bound, so the verdict
per column is `gain` or `worse` (one side wins >= 9/10 of the pairs and the
medians differ by more than the parent IQR) or `inside spread`. Each run is
made with its side's tree moved back to `src/`, where the bin was built and
where it writes its CSV and records.

Exits 1 on any `worse`, failed operation or incorrect output. Pairs, seconds
and seeds are constants so every PR's table is the same experiment.
"""
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
BIN_PAIRS = 5
SECONDS = 6
FIRST_SEED = 1601

root = pathlib.Path(__file__).resolve().parent.parent
manifest = json.loads((root / "BENCHMARK.json").read_text())
metrics = manifest["end_to_end"]
known = [w["name"] for w in manifest["workloads"]]

args = sys.argv[1:]
layers = []
if "--layers" in args:
    at = args.index("--layers")
    if at + 1 == len(args):
        sys.exit(__doc__)
    layers = args[at + 1].split(",")
    del args[at:at + 2]
bin_name = None
if "--bin" in args:
    at = args.index("--bin")
    if at + 1 == len(args):
        sys.exit(__doc__)
    bin_name = args[at + 1]
    del args[at:at + 2]
if not args or args[0].startswith("-") or (bin_name and (layers or args[1:])):
    sys.exit(__doc__)
parent_rev = args[0]
workloads = args[1:] or known
for w in workloads:
    if w not in known:
        sys.exit(f"unknown workload `{w}`; BENCHMARK.json has: {', '.join(known)}")
units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
for name in layers:
    if name not in units:
        sys.exit(f"unknown per-layer metric `{name}`; see `per_layer` in BENCHMARK.json")

tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench_pair."))
src = tmp / "src"  # where each side is built, in turn
sides = ("parent", "change")


def export_parent(dest):
    archive = subprocess.run(["git", "archive", parent_rev], cwd=root,
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def export_worktree(dest):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        if (root / name).is_file():  # a tracked file deleted in the worktree is gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def build(side, export):
    """Export `side` into `src/`, build it into an emptied `target/`, and move
    the binary and the tree (its goldens, its `out/`) aside."""
    print(f"building {side} {bin_name or 'benchmark'} at {src} ...", flush=True)
    src.mkdir()
    export(src)
    target = tmp / "target"
    shutil.rmtree(target, ignore_errors=True)
    if bin_name:
        what = ["--manifest-path", str(src / "Cargo.toml"), "-p", "sensact-bench", "--bin", bin_name]
    else:
        what = ["--manifest-path", str(src / "benchmark" / "Cargo.toml")]
    subprocess.run(["cargo", "build", "--offline", "--release", "--quiet", *what],
                   env=dict(os.environ, CARGO_TARGET_DIR=str(target)), check=True)
    shutil.move(target / "release" / (bin_name or "sensact-benchmark"), tmp / f"{side}.bin")
    src.rename(tmp / side)


def run_bin(side):
    """One full-mode run of `side`'s bin; returns its CSV row as {column: value}."""
    (tmp / side).rename(src)
    try:
        env = {k: v for k, v in os.environ.items() if k != "SENSACT_QUICK"}
        out = subprocess.run([str(tmp / f"{side}.bin")], cwd=src, env=env,
                             capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{side} {bin_name} exited {out.returncode}:\n{out.stderr}")
        paths = [line[len("[csv] "):] for line in out.stdout.splitlines()
                 if line.startswith("[csv] ")]
        if len(paths) != 1:
            sys.exit(f"{bin_name} printed {len(paths)} `[csv]` lines; --bin reads exactly one")
        header, *rows = pathlib.Path(paths[0]).read_text().splitlines()
    finally:
        src.rename(tmp / side)
    if len(rows) != 1:
        sys.exit(f"{bin_name}'s CSV has {len(rows)} rows; --bin reads exactly one")
    return dict(zip(header.split(","), map(float, rows[0].split(","))))


def compare_bin():
    """Five alternating pairs of the bin; one line per CSV column."""
    values = {side: [] for side in sides}
    for pair in range(BIN_PAIRS):
        for side in (sides if pair % 2 == 0 else sides[::-1]):
            values[side].append(run_bin(side))
    print(f"\n{bin_name}  ({BIN_PAIRS} alternating pairs, full mode; every column lower is better)")
    print(f"  {'column':<18} {'parent':>13} {'change':>13} {'delta':>9} "
          f"{'parent IQR':>10} {'won':>5}  verdict")
    worse = False
    for column in values["parent"][0]:
        parent = [row[column] for row in values["parent"]]
        change = [row[column] for row in values["change"]]
        mp, mc = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4)
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        if wins * 10 >= BIN_PAIRS * 9 and mp - mc > q3 - q1:
            word = "gain"
        elif losses * 10 >= BIN_PAIRS * 9 and mc - mp > q3 - q1:
            word = "worse"
        else:
            word = "inside spread"
        worse |= word == "worse"
        base = abs(mp) or 1.0
        print(f"  {column:<18} {mp:>13.2f} {mc:>13.2f} {(mc - mp) / base * 100:>+8.1f}% "
              f"{(q3 - q1) / base * 100:>9.1f}% {wins:>2}/{BIN_PAIRS}  {word}", flush=True)
    return worse


def run_once(side, workload, seed, trace=0):
    """One run of `side`'s benchmark; the last stdout line is its JSON result."""
    env = dict(os.environ, SENSACT_BENCH_HOME=str(tmp / side / "benchmark"))
    cmd = [
        str(tmp / f"{side}.bin"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=tmp / side, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{side} {workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def verdict(metric, parent, change):
    """(parent median, change median, worsening share, IQR share, wins, verdict)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worsening = sign * (mc - mp)
    bound = metric["bound"] * abs(mp)
    if wins * 10 >= len(parent) * 9 and -worsening > iqr:
        word = "gain"
    elif worsening > bound:
        word = "worse"
    elif iqr > bound:
        word = "unresolved"
    else:
        word = "inside bound"
    base = abs(mp) or 1.0
    return mp, mc, worsening / base, iqr / base, wins, word


bad = False
try:
    build("parent", export_parent)
    build("change", export_worktree)

    if bin_name:
        bad = compare_bin()
        workloads = []
    for workload in workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        failed = {side: [0, 0] for side in sides}
        for pair in range(PAIRS):
            order = sides if pair % 2 == 0 else sides[::-1]
            for side in order:
                result = run_once(side, workload, FIRST_SEED + pair)
                failed[side][0] += result["failed"]
                failed[side][1] += result["attempted"]
                if not result["correct"]:
                    print(f"  {side} seed {FIRST_SEED + pair}: output checks failed")
                    bad = True
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"\n{workload}  ({PAIRS} pairs x {SECONDS} s, seeds {FIRST_SEED}-"
              f"{FIRST_SEED + PAIRS - 1}; failed ops parent {failed['parent'][0]}/"
              f"{failed['parent'][1]}, change {failed['change'][0]}/{failed['change'][1]})")
        print(f"  {'metric':<18} {'parent':>13} {'change':>13} {'worse by':>9} "
              f"{'parent IQR':>10} {'bound':>6} {'won':>5}  verdict")
        bad |= failed["parent"][0] + failed["change"][0] > 0
        for m in metrics:
            mp, mc, worsening, iqr, wins, word = verdict(
                m, values["parent"][m["name"]], values["change"][m["name"]])
            bad |= word == "worse"
            print(f"  {m['name']:<18} {mp:>13.4f} {mc:>13.4f} {worsening * 100:>+8.1f}% "
                  f"{iqr * 100:>9.1f}% {m['bound'] * 100:>5.0f}% {wins:>2}/{PAIRS}  {word}",
                  flush=True)
        if layers:
            traced = {side: run_once(side, workload, FIRST_SEED, trace=1)["metrics"]
                      for side in sides}
            print(f"  per layer (one --trace 1 run a side, seed {FIRST_SEED})")
            for name in layers:
                cells = [f"{traced[side][name]['value']:>13.4f}" if name in traced[side]
                         else f"{'-':>13}" for side in sides]
                print(f"  {name:<40} {cells[0]} {cells[1]}  {units[name]}", flush=True)
finally:
    shutil.rmtree(tmp, ignore_errors=True)
sys.exit(1 if bad else 0)
