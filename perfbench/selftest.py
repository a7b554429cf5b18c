#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

Run from the repository root. For every workload, with tracing off and on,
it checks that the run passes its correctness checks and prints exactly the
metrics BENCHMARK.json names, each with its unit. It then checks that a
forged short-delivery result trips the correctness check (non-zero exit,
"correct": false), and that a checkout holding only BENCHMARK.json and the
benchmark's own files makes the benchmark fail without printing a result.
Exits non-zero on the first failed check.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--seed", "7"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(ok, what):
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", workload, "--trace", str(trace), "--tiny"])
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
            check(proc.returncode == 0, f"{tag} exits 0")
            result = last_json(proc)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag} prints the four result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag} passes its correctness checks")
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == wanted, f"{tag} prints every {key} metric with its unit")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()), f"{tag} values are numbers")
            human = proc.stdout
            check(all(f" {u}" in human for u in wanted.values()),
                  f"{tag} human-readable lines carry the units")

        forged = run(["--workload", workload, "--trace", "0", "--tiny",
                      "--forge-short-delivery"])
        result = last_json(forged)
        check(forged.returncode != 0 and result is not None and result["correct"] is False,
              f"{workload}: a forged short delivery trips the correctness check")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", SPEC["workloads"][0]["name"], "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources the benchmark fails and prints no result")
    shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
