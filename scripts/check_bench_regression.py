#!/usr/bin/env python3
"""Compare kronlab bench JSON dumps against committed baselines.

Usage: check_bench_regression.py --baselines DIR CURRENT.json [...]

Each CURRENT.json is a kronlab-bench-v1 dump (see bench/harness); it is
matched to DIR/BENCH_<name>.json by its embedded bench name.  For every
metric named in the per-bench spec below the current value must stay
inside the baseline's tolerance band, else the script prints the
violation and exits 1 (CI's bench-regression job then uploads the
offending JSON as an artifact).

What is compared — and why these metrics and not wall times:

  * Within-run ratios (speedups, overhead multipliers) divide two timings
    taken in the same process on the same machine, so they transfer
    between the committing machine and any CI runner.  These carry the
    tight 15% band by default: a >15% drop in, say, a wedge-engine
    speedup means that kernel itself regressed.
  * Correctness booleans (counts exact, stores bit-identical) must never
    change at all.
  * Absolute throughput (edges/s) does depend on the host, so it gets a
    wide 50% band — it only catches order-of-magnitude collapses, e.g. a
    quick-mode instance silently growing or a kernel falling off a cliff.
  * Instance-size counters are pinned exactly: if the quick-mode workload
    changes, every other number is incomparable and the baseline must be
    regenerated in the same commit.

Regenerating baselines (after an intentional perf or workload change):

    bench_<name> --quick --json bench/baselines/BENCH_<name>.json

and commit the result alongside the change that moved the numbers.

Exit status: 0 in-band, 1 regression or malformed input, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Metric:
    name: str
    # "higher": regression when current < baseline * (1 - rel_tol)
    # "lower":  regression when current > baseline * (1 + rel_tol)
    #           (or baseline + abs_slack when abs_slack is set — used for
    #           metrics that legitimately sit near or below zero, where a
    #           relative band is meaningless)
    # "bool":   regression when current != baseline (compared as truthiness)
    # "exact":  regression when current != baseline (numeric identity)
    kind: str
    rel_tol: float = 0.15
    abs_slack: float | None = None


# Metrics per bench name (the "name" key inside the JSON, not the file
# name).  Only benches listed here are regression-gated; validating the
# schema itself is check_bench_json.py's job.
SPECS: dict[str, list[Metric]] = {
    "distributed": [
        # Supervised-recovery cost relative to the clean supervised run.
        # Recovery replays generation blocks, so this is timing-noisy:
        # wide band, still catches a recovery path that stops converging.
        Metric("recovery_overhead_x", "lower", rel_tol=0.50),
        Metric("agg_edges_per_sec_clean", "higher", rel_tol=0.50),
        Metric("agg_edges_per_sec_faulted", "higher", rel_tol=0.50),
        Metric("agg_exchange_exact", "bool"),
        Metric("faulted_run_verified", "bool"),
        Metric("rank_sweeps_exact", "bool"),
        # Folded obs/stats latency histogram for the ghost-row exchange
        # (milliseconds, bucket-midpoint quantiles).  Short epochs make
        # these noisy, so the bands are wide; they still catch an
        # exchange that suddenly stalls or serializes.
        Metric("dist/exchange_epoch.p50_ms", "lower", rel_tol=2.0),
        Metric("dist/exchange_epoch.p99_ms", "lower", rel_tol=4.0),
    ],
    "fig3_squares": [
        Metric("vertex_speedup_largest", "higher"),
        Metric("edge_speedup_largest", "higher"),
        Metric("speedup_largest", "higher"),
        Metric("kernels_agree", "bool"),
        Metric("largest_vertices", "exact"),
        Metric("largest_edges", "exact"),
    ],
    "streaming": [
        Metric("edges_per_sec", "higher", rel_tol=0.50),
        # Percent overhead of interrupt+resume vs a paired cold run; can
        # legitimately be negative (resume skips generation), so band it
        # by absolute percentage points, not a ratio.
        Metric("resume_overhead_pct", "lower", abs_slack=15.0),
        Metric("resume_bit_identical", "bool"),
        # Folded obs/stats latency histogram for durable segment commits
        # (milliseconds).  Individual commits are microseconds-scale, so
        # the relative bands are generous.
        Metric("io/segment_commit.p50_ms", "lower", rel_tol=2.0),
        Metric("io/segment_commit.p99_ms", "lower", rel_tol=4.0),
    ],
}


class Regression(Exception):
    pass


def load(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise Regression(f"{path}: unreadable: {e}")
    if doc.get("schema") != "kronlab-bench-v1":
        raise Regression(f"{path}: not a kronlab-bench-v1 dump")
    return doc


def metric_value(doc: dict, path: Path, name: str) -> float:
    val = doc.get("counters", {}).get(name)
    if val is None:
        raise Regression(f"{path}: counter '{name}' missing")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise Regression(f"{path}: counter '{name}' is not a number")
    if not math.isfinite(float(val)):
        raise Regression(f"{path}: counter '{name}' is not finite")
    return float(val)


def check_metric(m: Metric, base: float, cur: float) -> tuple[bool, str]:
    """Returns (ok, human-readable band description)."""
    if m.kind == "bool":
        return (bool(cur) == bool(base),
                f"must stay {'true' if base else 'false'}")
    if m.kind == "exact":
        return cur == base, f"must equal {base:g}"
    if m.kind == "higher":
        limit = base * (1.0 - m.rel_tol)
        return cur >= limit, f"must stay >= {limit:g} ({m.rel_tol:.0%} band)"
    if m.kind == "lower":
        if m.abs_slack is not None:
            limit = base + m.abs_slack
            return cur <= limit, f"must stay <= {limit:g} (+{m.abs_slack:g})"
        limit = base * (1.0 + m.rel_tol)
        return cur <= limit, f"must stay <= {limit:g} ({m.rel_tol:.0%} band)"
    raise Regression(f"bad metric kind '{m.kind}' for {m.name}")


def check_file(current_path: Path, baseline_dir: Path) -> int:
    cur_doc = load(current_path)
    name = cur_doc.get("name", "")
    spec = SPECS.get(name)
    if spec is None:
        print(f"skip {current_path} (bench '{name}' not regression-gated)")
        return 0
    base_path = baseline_dir / f"BENCH_{name}.json"
    if not base_path.exists():
        raise Regression(
            f"{current_path}: no baseline {base_path} — run the bench with "
            f"--quick --json {base_path} and commit it")
    base_doc = load(base_path)
    if base_doc.get("name") != name:
        raise Regression(f"{base_path}: baseline is for bench "
                         f"'{base_doc.get('name')}', expected '{name}'")
    if bool(cur_doc.get("quick")) != bool(base_doc.get("quick")):
        raise Regression(
            f"{current_path}: quick={cur_doc.get('quick')} vs baseline "
            f"quick={base_doc.get('quick')} — sizes are incomparable")

    failures = 0
    for m in spec:
        base = metric_value(base_doc, base_path, m.name)
        cur = metric_value(cur_doc, current_path, m.name)
        ok, band = check_metric(m, base, cur)
        status = "ok  " if ok else "FAIL"
        print(f"{status} {name}.{m.name}: baseline={base:g} "
              f"current={cur:g} ({band})")
        failures += 0 if ok else 1
    if failures:
        print(f"FAIL {current_path}: {failures} metric(s) out of band "
              f"vs {base_path}", file=sys.stderr)
    return failures


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baselines", type=Path, required=True,
                    help="directory of committed BENCH_<name>.json baselines")
    ap.add_argument("current", nargs="+", type=Path,
                    help="freshly produced bench JSON files to check")
    args = ap.parse_args(argv)
    if not args.baselines.is_dir():
        print(f"check_bench_regression: {args.baselines} is not a directory",
              file=sys.stderr)
        return 2

    failures = 0
    gated = 0
    for path in args.current:
        try:
            n = check_file(path, args.baselines)
        except Regression as e:
            print(f"FAIL {e}", file=sys.stderr)
            failures += 1
        else:
            failures += n
            gated += 1 if load(path).get("name") in SPECS else 0
    if gated == 0:
        # Nothing compared at all — a glob that matched no gated bench
        # must not masquerade as a green regression gate.
        print("check_bench_regression: no regression-gated bench JSON among "
              "inputs", file=sys.stderr)
        return 1
    if failures:
        print(f"check_bench_regression: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print(f"check_bench_regression: all in band ({gated} bench(es))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
