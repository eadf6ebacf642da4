#!/usr/bin/env python3
"""Self-test of the pipeline benchmark, at tiny instance sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds through run.py).  For every
workload it checks that

  * a timed run (--trace 0) ends in the result object, with every
    end_to_end metric of BENCHMARK.json, in its unit, non-zero, and every
    op correct;
  * a traced run (--trace 1) prints every per_layer metric in its unit;
  * a run with --inject-fault, which corrupts what each op checks, reports
    every op as failed and the run as incorrect.

It also runs generate with its store on the real filesystem (--store-dir,
under the build directory) and checks that the durable layer's exact
counts match those over the in-memory store.  Exits non-zero on the first
failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as runner  # noqa: E402  (build directory, shared with run.py)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT_IO = ["io.syncs", "io.publishes", "io.bytes_per_edge"]


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
           "--tiny", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{' '.join(cmd[1:])} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_metrics(result, specs, what, nonzero):
    got = result["metrics"]
    if set(got) != {m["name"] for m in specs}:
        fail(f"{what}: metrics {sorted(got)} != BENCHMARK.json's")
    for m in specs:
        value = got[m["name"]]
        if value["unit"] != m["unit"]:
            fail(f"{what}: {m['name']} in {value['unit']}, not {m['unit']}")
        if not isinstance(value["value"], (int, float)) or \
                not math.isfinite(value["value"]):
            fail(f"{what}: {m['name']} = {value['value']!r}")
        if nonzero and value["value"] == 0:
            fail(f"{what}: {m['name']} is 0")


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        timed = bench(w, 0)
        if not (timed["correct"] and timed["failed"] == 0 and
                timed["attempted"] >= 1):
            fail(f"{w}: timed run not correct: {timed}")
        check_metrics(timed, SPEC["end_to_end"], f"{w} --trace 0", True)

        traced = bench(w, 1)
        if not traced["correct"]:
            fail(f"{w}: traced run not correct")
        check_metrics(traced, SPEC["per_layer"], f"{w} --trace 1", False)

        faulty = bench(w, 0, "--inject-fault")
        if faulty["correct"] or faulty["failed"] != faulty["attempted"]:
            fail(f"{w}: injected fault not reported: {faulty}")
        print(f"ok   {w}: {timed['attempted']} ops correct, "
              f"{faulty['failed']}/{faulty['attempted']} injected faults "
              f"caught")

    store = runner.build_dir() / "selftest-store"
    shutil.rmtree(store, ignore_errors=True)
    on_disk = bench("generate", 1, "--store-dir", str(store))
    in_memory = bench("generate", 1)
    shutil.rmtree(store, ignore_errors=True)
    for name in EXACT_IO:
        disk, mem = (r["metrics"][name]["value"] for r in (on_disk, in_memory))
        if disk != mem:
            fail(f"{name}: {disk} on disk vs {mem} in memory")
    print("ok   generate: real-filesystem store counts equal the in-memory "
          "store's (" + ", ".join(EXACT_IO) + ")")
    print("selftest passed")


if __name__ == "__main__":
    main()
