#!/usr/bin/env python3
"""Validate kronlab bench-harness JSON files (schema kronlab-bench-v1).

Usage: check_bench_json.py BENCH_foo.json [BENCH_bar.json ...]

Every bench target emits one JSON file through bench/harness; CI's
bench-smoke job runs this over all of them so a bench that silently stops
reporting (wrong key, NaN, truncated file) fails the build instead of
producing an unusable artifact.  Exits nonzero on the first malformed file.
"""

import json
import math
import sys

SCHEMA = "kronlab-bench-v1"

TOP_LEVEL = {
    "schema": str,
    "name": str,
    "quick": bool,
    "wall_seconds": (int, float),
    "peak_rss_bytes": int,
    "timings": list,
    "counters": dict,
    "labels": dict,
}

TIMING = {
    "section": str,
    "reps": int,
    "mean_seconds": (int, float),
    "min_seconds": (int, float),
    "max_seconds": (int, float),
    "stddev_seconds": (int, float),
}

class Malformed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Malformed(msg)


def check_fields(obj, spec, where):
    require(isinstance(obj, dict), f"{where}: expected object")
    for key, typ in spec.items():
        require(key in obj, f"{where}: missing key '{key}'")
        val = obj[key]
        # bool is an int subclass in Python; don't let true/false satisfy
        # a numeric field.
        require(
            isinstance(val, typ) and not (typ is not bool and isinstance(val, bool)),
            f"{where}: key '{key}' has type {type(val).__name__}",
        )
        if isinstance(val, float):
            require(math.isfinite(val), f"{where}: key '{key}' is not finite")


def check_file(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)

    check_fields(doc, TOP_LEVEL, path)
    require(doc["schema"] == SCHEMA,
            f"{path}: schema '{doc['schema']}' != '{SCHEMA}'")
    require(doc["name"], f"{path}: empty bench name")
    require(doc["wall_seconds"] >= 0, f"{path}: negative wall_seconds")
    require(doc["peak_rss_bytes"] >= 0, f"{path}: negative peak_rss_bytes")

    sections = set()
    for i, t in enumerate(doc["timings"]):
        where = f"{path}: timings[{i}]"
        check_fields(t, TIMING, where)
        require(t["section"] not in sections,
                f"{where}: duplicate section '{t['section']}'")
        sections.add(t["section"])
        require(t["reps"] >= 1, f"{where}: reps < 1")
        require(
            0 <= t["min_seconds"] <= t["mean_seconds"] <= t["max_seconds"],
            f"{where}: min/mean/max out of order",
        )
        require(t["stddev_seconds"] >= 0, f"{where}: negative stddev")

    for key, val in doc["counters"].items():
        where = f"{path}: counters['{key}']"
        require(isinstance(val, (int, float)) and not isinstance(val, bool),
                f"{where}: not a number")
        require(math.isfinite(float(val)), f"{where}: not finite")

    for key, val in doc["labels"].items():
        require(isinstance(val, str), f"{path}: labels['{key}']: not a string")

    return doc["name"], len(doc["timings"]), len(doc["counters"])


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        try:
            name, n_timings, n_counters = check_file(path)
        except (OSError, json.JSONDecodeError, Malformed) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {path} (name={name}, {n_timings} timings, "
                  f"{n_counters} counters)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
