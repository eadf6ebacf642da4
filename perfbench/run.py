#!/usr/bin/env python3
"""Build the kronlab pipeline benchmark from source and run one workload.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
configures and compiles the library and the benchmark, later runs only
re-check it.  Every other argument (--tiny, --inject-fault, --store-dir) is
passed to the benchmark binary unchanged.  A traced run (--trace 1) writes
its spans to <build>/traces/<workload>.json.

The last line of stdout is the result object; on any build or run failure
the script exits non-zero without printing one.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return Path(base).resolve() / "perfbench"


def build(bdir: Path) -> Path:
    """Configure (once) and build; build chatter goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return bdir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = ap.parse_known_args()

    bdir = build_dir()
    binary = build(bdir)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, *extra]
    if args.trace == "1":
        (bdir / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(bdir / "traces" / f"{args.workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark did not finish within 170 s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"run.py: benchmark exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: benchmark printed no result object")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
