#!/usr/bin/env python3
"""Builds (Release) and runs the repository benchmark.

    python3 perfbench/run.py --workload backlog|population|lossy \
        --seed N --seconds S --trace 0|1

Run from the repository root. The simulator library is compiled from src/
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run builds, later runs only check the build is current. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero without a result when the sources are missing or the build
fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("backlog", "population", "lossy")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "src" / "experiment" / "campaign.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = bdir / "mpr_perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (self-test)")
    ap.add_argument("--forge-short-delivery", action="store_true",
                    help="corrupt one result; the correctness check must fail")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be within 1..600")

    bdir = build_dir()
    exe = build(bdir)
    out_dir = bdir / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    if args.forge_short_delivery:
        cmd.append("--forge-short-delivery")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
