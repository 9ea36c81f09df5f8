#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver judges it.

Runs each workload `--runs` times (default 10), each with another seed, and
prints for each metric the distance between the first and third quartile of
its values (statistics.quantiles(values, n=4)) as a share of their median,
next to the metric's bound in BENCHMARK.json. A spread above a third of the
bound is marked `wide`, above the bound `OVER`.

    python3 benchmark/spread.py [--runs 10] [--seconds N] [--only workload]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
manifest = json.loads((root / "BENCHMARK.json").read_text())

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
ap.add_argument("--only")
ap.add_argument("--first-seed", type=int, default=1)
args = ap.parse_args()

bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
over = False
for w in manifest["workloads"]:
    name = w["name"]
    if args.only and args.only != name:
        continue
    values = {m: [] for m in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = manifest["command"] + [
            "--workload", name, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}")
            over = True
        for m in bounds:
            values[m].append(result["metrics"][m]["value"])
    print(f"\n{name} ({args.runs} runs, {args.seconds} s each)")
    for m, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        flag = "OVER" if spread > bounds[m] else "wide" if spread > bounds[m] / 3 else ""
        over |= spread > bounds[m] and m != "setup_s"
        print(f"  {m:<18} median {med:>14.4f}  spread {spread * 100:6.2f} %  "
              f"bound {bounds[m] * 100:4.0f} %  {flag}   "
              f"[{min(vs):.4g} .. {max(vs):.4g}]")
    sys.stdout.flush()
sys.exit(1 if over else 0)
