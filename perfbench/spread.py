#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads backlog,lossy --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--json OUT]

Run from the repository root. For every workload and end-to-end metric it
prints the median over seeds and the spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. Per-run results are
kept in OUT when --json is given.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["log"] = [line for line in lines[:-1]
                     if line.startswith(("digest ", "passes ", "host speed ", "calibration "))]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="backlog,population,lossy")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--json")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    key = "end_to_end" if args.trace == 0 else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    runs = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, seconds, args.trace) for s in seed_list(args.seeds)]
        runs[workload] = results
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(results)} runs, {len(bad)} incorrect")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            bound = bounds[name]
            flag = "" if bound is None or rel <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:44s} median {med:<14.6g} spread {rel:7.2%}"
                  f"  bound {bound}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
