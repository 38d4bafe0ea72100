#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs each workload repeatedly, one seed per run, and prints for every
metric its median, quartiles and spread -- the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median -- against the metric's bound from BENCHMARK.json.
With ``--sets 2`` it repeats the whole set and also checks that the
second median is not worse than the first by more than the bound.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads flash_dynamic
    python3 perfbench/steady.py --trace              # per-layer metrics

Exits 1 when a spread exceeds its bound, a second
median drifts past its bound, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The two figures an earlier attempt at this benchmark failed on.
CALLED_OUT = {("*", "setup_s"), ("zoo_static", "devices_per_s")}


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="repeat the whole set (2 = driver check)")
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    ok = True
    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.seed0 + r
                runs.append(run_once(bench, workload, seed, args.trace))
                print(f"  {workload} set {s + 1} seed {seed} done", file=sys.stderr)
            sets.append(runs)
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s), "
              f"seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for spec in specs:
            name = spec["name"]
            bound = spec.get("bound")
            for s, runs in enumerate(sets):
                values = [r[name] for r in runs]
                q1, med, q3, spread = summarize(values)
                verdict = ""
                if bound is not None:
                    if spread > bound:
                        verdict, ok = "FAIL spread > bound", False
                    elif spread > bound / 3:
                        verdict = "noisy (> bound/3)"
                    else:
                        verdict = "steady"
                    if s > 0:
                        first = statistics.median([r[name] for r in sets[0]])
                        worse = (med - first) / first if spec["better"] == "lower" else (first - med) / first
                        if worse > bound:
                            verdict, ok = f"FAIL median drift {worse:+.3f}", False
                if ("*", name) in CALLED_OUT or (workload, name) in CALLED_OUT:
                    verdict += "  <- watched"
                label = name if args.sets == 1 else f"{name} [set {s + 1}]"
                print(f"{label:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                      f"{bound if bound is not None else '-':>6}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
