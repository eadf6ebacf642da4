#!/usr/bin/env python3
"""kronlab_analyze — the static-analysis gate for the kronlab tree.

Fifteen project-specific rules (see `--list-rules`): five semantic rules
over a token/scope IR and ten line rules over a comment- and
string-blanked view.  Standard-library Python only.

Usage:
  kronlab_analyze.py --compdb build/compile_commands.json   # whole tree
  kronlab_analyze.py                                        # same files,
                                                            # no build dir
  kronlab_analyze.py --rules lock-order,registry            # subset
  kronlab_analyze.py --self-test                            # fixtures
  kronlab_analyze.py --emit-audit > scripts/analyze/memory_order.audit

A tree scan covers every C++ file under src/, bench/, tests/, tools/ and
examples/ (with --compdb: the database's translation units plus every
header there); each rule narrows that set by path.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.

Suppression: `// kronlab-analyze: allow(<rule>) <justification>` on the
finding's line or in the comment block directly above it.  The
justification is mandatory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from analyzer import RULES, __version__  # noqa: E402
from analyzer import internal_frontend  # noqa: E402
from analyzer import rules as rules_mod  # noqa: E402
from analyzer.ir import Finding  # noqa: E402
from analyzer.project import (AllowIndex, files_from_compdb,  # noqa: E402
                              files_from_tree, headers_for, repo_root,
                              validate_rules)

RULE_HELP = {
    "lock-order":
        "Builds the cross-TU lock acquisition graph over annotated "
        "common/sync.hpp mutexes (RAII guards, manual lock/unlock, and "
        "one call level) and fails on cycles — the deadlock precondition.",
    "blocking-under-lock":
        "Flags send/recv/poll/fsync/fdatasync/sleep_for/connect/"
        "write_frame and friends reachable while a MutexLock is live. "
        "CondVar::wait is exempt (it releases the mutex).",
    "memory-order":
        "Every atomic operation in src/ must have a justified entry in "
        "scripts/analyze/memory_order.audit keyed by (file, var, op, "
        "order) with a site count; flags unaudited sites, stale entries, "
        "and count drift.  --emit-audit writes a skeleton.",
    "unchecked-read":
        "Checksum/parse/verify results ([[nodiscard]] APIs in io/, grb/, "
        "common/checksum, serve/protocol, dist/comm) must be consumed: "
        "flags plain discards and (void)-cast discards in src/, tools/, "
        "bench/. Tree runs also flag API-list entries declared nowhere "
        "in src/.",
    "registry":
        "KRONLAB_* env-var literals and KRNL* wire magics are defined "
        "exactly once, in common/registry.hpp, and documented in "
        "README.md/DESIGN.md; flags stray literals and undocumented "
        "names.",
    "naked-new":
        "No naked new/delete anywhere: ownership lives in containers "
        "and smart pointers.",
    "random-source":
        "No rand(), srand() or std::random_device outside "
        "src/kronlab/common/random: every draw is seeded through "
        "common/random so runs stay reproducible.",
    "trace-span-scope":
        "KRONLAB_TRACE_SPAN as the sole unbraced statement of an "
        "if/for/while/else dies at the semicolon and times nothing.",
    "no-endl":
        "No std::endl in src/ or bench/: it flushes per line in timed "
        "code; use '\\n'.",
    "header-guard":
        "Every header uses #pragma once, and no #ifndef include guard.",
    "no-assert":
        "No C assert() in src/: use KRONLAB_REQUIRE or KRONLAB_DBG_ASSERT "
        "so release builds keep typed contracts.",
    "durable-io":
        "No naked rename()/remove()/write-mode fopen() in src/, bench/ "
        "or tools/ outside src/kronlab/io/: file mutation routes through "
        "io::FileOps so commits stay atomic and fault-injectable. Tests "
        "and examples are exempt.",
    "dist-send":
        "No direct Comm::send in src/kronlab/dist/sharded.cpp: "
        "application frames go through dist::Aggregator.",
    "obs-log":
        "No printf-family diagnostics in src/ (emit obs::log events) "
        "and no fprintf(stderr) in tools/; src/kronlab/obs/log.cpp, the "
        "sink, is exempt.",
    "tmp-path":
        "No literal \"/tmp path in a string in tests/: parallel and "
        "repeated runs collide on it; take a TempDir.",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kronlab_analyze.py",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--compdb", help="compile_commands.json to take the "
                                     "translation units from")
    ap.add_argument("--root", help="repository root (default: auto)")
    ap.add_argument("--rules", help="comma-separated subset of rules")
    ap.add_argument("--audit",
                    help="memory-order audit file (default: "
                         "scripts/analyze/memory_order.audit)")
    ap.add_argument("--report", help="write a JSON report here")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture battery")
    ap.add_argument("--emit-audit", action="store_true",
                    help="print a memory-order audit skeleton for the "
                         "current tree and exit")
    ap.add_argument("--max-findings", type=int, default=200)
    return ap


def list_rules() -> None:
    print(f"kronlab_analyze {__version__} — {len(RULES)} rules:")
    for r in RULES:
        print(f"\n  {r}")
        for line in RULE_HELP[r].split(". "):
            line = line.strip()
            if line:
                print(f"      {line.rstrip('.')}.")


def analyze_tree(args) -> int:
    root = os.path.abspath(args.root or repo_root())
    if args.compdb:
        files = headers_for(files_from_compdb(args.compdb, root), root)
    else:
        files = files_from_tree(root)
    files = [f for f in files if os.path.exists(f)]
    audit = args.audit or os.path.join(root, "scripts", "analyze",
                                       "memory_order.audit")
    # The IR rules analyze src/ only, so only src/ is lowered.
    functions, _mutexes = internal_frontend.lower_files(
        [f for f in files
         if rules_mod._in_dir(rules_mod._rel(f, root), ("src",))])
    if args.emit_audit:
        sys.stdout.write(rules_mod.emit_audit_skeleton(functions, root))
        return 0
    selected = validate_rules(args.rules.split(",")) if args.rules \
        else list(RULES)
    allow = AllowIndex()
    findings = rules_mod.run_rules(selected, functions, files, root,
                                   allow, audit)
    report = {
        "version": __version__,
        "rules": selected,
        "files": len(files),
        "functions": len(functions),
        "findings": [{"rule": f.rule, "file": rules_mod._rel(f.file, root),
                      "line": f.line, "message": f.message}
                     for f in findings],
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    for f in findings[:args.max_findings]:
        print(Finding(f.rule, rules_mod._rel(f.file, root), f.line,
                      f.message).render())
    if len(findings) > args.max_findings:
        print(f"... and {len(findings) - args.max_findings} more")
    print(f"kronlab_analyze: {len(files)} files, {len(functions)} "
          f"functions, {len(findings)} finding(s)")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# self-test
#
# fixtures/<rule>/ holds units for one rule: a single .cpp/.hpp file
# (audit: the same stem with .audit), or a directory that mirrors the
# repo tree for path-scoped rules.  A unit in any other fixtures/
# directory runs all ten line rules, so it can pin rule interactions.
# Each unit states its exact finding counts as
# `ANALYZE-EXPECT: <rule> <count>` lines; unlisted rules must stay quiet.

EXPECT_RE = re.compile(r"ANALYZE-EXPECT:\s*([a-z-]+)\s+(\d+)")
UNIT_SUFFIXES = (".cpp", ".hpp", ".h")


def _unit_expectations(paths) -> dict:
    want: dict = {}
    for p in paths:
        with open(p, "r", encoding="utf-8", errors="replace") as f:
            for m in EXPECT_RE.finditer(f.read()):
                want[m.group(1)] = want.get(m.group(1), 0) + \
                    int(m.group(2))
    return {r: n for r, n in want.items() if n > 0}


def _units(fixtures: str):
    """(name, files, unit root, audit path, rules) for every unit."""
    for group in sorted(os.listdir(fixtures)):
        group_dir = os.path.join(fixtures, group)
        if not os.path.isdir(group_dir):
            continue
        rules = [group] if group in RULES else list(rules_mod.LINE_RULES)
        for entry in sorted(os.listdir(group_dir)):
            path = os.path.join(group_dir, entry)
            if os.path.isdir(path):
                files = sorted(
                    os.path.join(base, n)
                    for base, _dirs, names in os.walk(path)
                    for n in names if n.endswith(UNIT_SUFFIXES))
                yield (f"{group}/{entry}", files, path,
                       os.path.join(path, "memory_order.audit"), rules)
            elif entry.endswith(UNIT_SUFFIXES):
                yield (f"{group}/{entry}", [path], group_dir,
                       os.path.splitext(path)[0] + ".audit", rules)


def run_self_test() -> int:
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")
    failures = 0
    units = 0
    for name, files, unit_root, audit, rules in _units(fixtures):
        units += 1
        want = _unit_expectations(files)
        functions, _m = internal_frontend.lower_files(files)
        got_list = rules_mod.run_rules(rules, functions, files, unit_root,
                                       AllowIndex(), audit, scope_all=True)
        got: dict = {}
        for f in got_list:
            got[f.rule] = got.get(f.rule, 0) + 1
        if got != want:
            failures += 1
            print(f"FAIL {name}: expected {want or '{}'}, "
                  f"got {got or '{}'}")
            for f in got_list:
                print("    " + Finding(
                    f.rule, rules_mod._rel(f.file, unit_root), f.line,
                    f.message).render())
        else:
            print(f"ok   {name}")
    print(f"self-test: {units} fixture unit(s), {failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        list_rules()
        return 0
    if args.self_test:
        return run_self_test()
    try:
        return analyze_tree(args)
    except ValueError as e:
        print(f"kronlab_analyze: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
