#!/usr/bin/env python3
"""Validate a kronlab-stats-v1 snapshot (the JSON `kronlab_query --stats`
prints, produced by Server::stats_text).

Checks, in order:

  1. Parses as JSON with schema == "kronlab-stats-v1".
  2. Required top-level keys, each of the right shape: stats_enabled
     (bool), uptime_seconds (non-negative number), server (object),
     probes_by_op / counters / gauges / histograms (objects).
  3. The server section carries every serve counter as a non-negative
     integer.
  4. Every histogram entry has count/mean_us/p50_us/p90_us/p99_us/max_us,
     all non-negative, with monotone quantiles p50 <= p90 <= p99 <= max
     whenever the histogram is non-empty.
  5. Each --require-hist NAME exists and has count >= 1 — the CI smoke
     uses this to prove the daemon actually recorded latency for the
     probes the smoke sent (a silently disabled registry fails here).

Exit status: 0 valid, 1 validation failure, 2 usage/io error.
"""

from __future__ import annotations

import argparse
import json
import sys

SERVER_COUNTERS = (
    "connections_accepted",
    "connections_rejected",
    "frames",
    "responses",
    "probes",
    "overloaded",
    "malformed",
    "shed_shutdown",
    "in_flight",
    "queue_depth",
)

HIST_FIELDS = ("count", "mean_us", "p50_us", "p90_us", "p99_us", "max_us")


def fail(msg: str) -> None:
    print(f"check_stats_json: FAIL: {msg}")
    sys.exit(1)


def is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check(doc, require_hist: list[str]) -> None:
    if not isinstance(doc, dict):
        fail("top level is not an object")
    if doc.get("schema") != "kronlab-stats-v1":
        fail(f"schema is {doc.get('schema')!r}, expected 'kronlab-stats-v1'")
    if not isinstance(doc.get("stats_enabled"), bool):
        fail("stats_enabled missing or not a bool")
    up = doc.get("uptime_seconds")
    if not is_num(up) or up < 0:
        fail("uptime_seconds missing or negative")
    for key in ("server", "probes_by_op", "counters", "gauges", "histograms"):
        if not isinstance(doc.get(key), dict):
            fail(f"{key} missing or not an object")

    server = doc["server"]
    for name in SERVER_COUNTERS:
        v = server.get(name)
        if not is_num(v) or v < 0 or v != int(v):
            fail(f"server.{name} missing or not a non-negative integer")

    for op, v in doc["probes_by_op"].items():
        if not is_num(v) or v < 0 or v != int(v):
            fail(f"probes_by_op.{op} is not a non-negative integer")

    for name, hist in doc["histograms"].items():
        if not isinstance(hist, dict):
            fail(f"histograms[{name!r}] is not an object")
        for field in HIST_FIELDS:
            v = hist.get(field)
            if not is_num(v) or v < 0:
                fail(f"histograms[{name!r}].{field} missing or negative")
        if hist["count"] > 0:
            p50, p90, p99, mx = (
                hist["p50_us"],
                hist["p90_us"],
                hist["p99_us"],
                hist["max_us"],
            )
            if not p50 <= p90 <= p99 <= mx:
                fail(
                    f"histograms[{name!r}] quantiles not monotone: "
                    f"p50={p50} p90={p90} p99={p99} max={mx}"
                )

    for name in require_hist:
        hist = doc["histograms"].get(name)
        if hist is None:
            fail(f"required histogram {name!r} absent")
        if hist["count"] < 1:
            fail(f"required histogram {name!r} recorded no samples")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path", help="stats JSON file, or - for stdin")
    ap.add_argument(
        "--require-hist",
        action="append",
        default=[],
        metavar="NAME",
        help="require this histogram to exist with count >= 1 (repeatable)",
    )
    args = ap.parse_args(argv)

    try:
        text = (
            sys.stdin.read()
            if args.path == "-"
            else open(args.path, encoding="utf-8").read()
        )
    except OSError as e:
        print(f"check_stats_json: cannot read {args.path}: {e}")
        return 2
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"not valid JSON: {e}")

    check(doc, args.require_hist)
    nhist = sum(1 for h in doc["histograms"].values() if h["count"] > 0)
    print(
        f"check_stats_json: OK ({args.path}: "
        f"{len(doc['histograms'])} histograms, {nhist} non-empty)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
