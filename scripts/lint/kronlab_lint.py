#!/usr/bin/env python3
"""kronlab_lint — project-invariant lint for the kronlab C++ tree.

Rules (regex/AST-lite over comment- and string-stripped source):

  naked-new          No naked `new` / `delete` outside common/ RAII wrappers:
                     ownership lives in containers and smart pointers.
  random-source      No `rand()`, `srand()`, or `std::random_device` outside
                     src/kronlab/common/random.* — every random draw must be
                     seeded through common/random so runs stay reproducible.
  trace-span-scope   `KRONLAB_TRACE_SPAN` is an RAII declaration; as the sole
                     unbraced statement of an `if`/`for`/`while`/`else` the
                     span dies immediately and times nothing.
  no-endl            No `std::endl` in library or bench code (kernels flush
                     per line otherwise — use '\\n').
  header-guard       Every header uses `#pragma once` (no #ifndef guards —
                     one convention, checked, not discussed).
  no-assert          No C `assert()` in library code: use KRONLAB_REQUIRE /
                     KRONLAB_DBG_ASSERT so release builds keep API contracts
                     and error messages stay typed.
  durable-io         No naked `rename()` / `remove()` / write-mode `fopen()`
                     in src/, bench/, or tools/ outside the durable-io layer
                     (src/kronlab/io/): file mutation must route through
                     io::FileOps / io::publish_file / io::remove_file so the
                     commit protocol stays atomic and fault-injectable.
                     Tests and examples are exempt — they simulate corruption
                     on purpose.
  dist-send          No direct `Comm::send` calls from the sharded exchange
                     (src/kronlab/dist/sharded.cpp): application frames must
                     route through dist::Aggregator so batching and
                     flush-reason accounting stay on the single send path.
                     Control-channel sends that genuinely
                     bypass aggregation carry an explicit
                     `kronlab-lint: allow(dist-send)` with a why.
  obs-log            No ad-hoc printf-family diagnostics: in src/ any
                     `printf`/`fprintf`/`fputs`-to-stderr is flagged (library
                     code emits structured obs::log events); in tools/ only
                     `fprintf(stderr, ...)` is flagged (stdout is the tool's
                     answer, stderr is operational and belongs to the
                     logger).  Deliberate CLI output (usage text, die()
                     funnels, checker findings) carries
                     `kronlab-lint: allow(obs-log)` with a why.
                     src/kronlab/obs/log.cpp (the sink itself) is exempt.
  tmp-path           No literal `"/tmp` path in tests/: a fixed path under
                     /tmp is shared by every test process, so cases collide
                     under `ctest -j` and across repeats.  Take a private
                     directory from tests/support/temp_dir.hpp (TempDir).

Escape hatch: a finding whose line (or the line above it) contains
`kronlab-lint: allow(<rule-id>)` is suppressed; the comment should say why.

File discovery: pass paths explicitly, or --compdb <compile_commands.json>
to lint every translation unit in the compile database plus all headers
under the repo's source roots.  With neither, the repo tree (src, bench,
tests, tools, examples) is scanned.

`--self-test` runs the rules against scripts/lint/fixtures/: every fixture
declares the rule it must trip (`// LINT-EXPECT: <rule-id>`) and the
virtual repo path it pretends to live at (`// LINT-AS: <path>`); the lint
exits non-zero if any fixture fails to trip exactly its expected rules.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}
HEADER_SUFFIXES = {".hpp", ".h", ".hh"}
SOURCE_ROOTS = ("src", "bench", "tests", "tools", "examples")

ALLOW_RE = re.compile(r"kronlab-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving line
    structure (newlines survive) so reported line numbers stay true."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"':
            # Raw strings: R"delim( ... )delim"
            if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                m = re.match(r'"([^ ()\\\t\n]*)\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i)
                    j = n if j == -1 else j + len(close)
                    out.append(
                        "".join(ch if ch == "\n" else " " for ch in text[i:j])
                    )
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append('""' + " " * max(0, j - i - 2))
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append("''" + " " * max(0, j - i - 2))
            i = j
        else:
            out.append(c)
            i = 1 + i
    return "".join(out)


def allowed_rules(raw_lines: list[str], lineno: int) -> set[str]:
    """Rules suppressed at 1-based `lineno` (marker on the line or above)."""
    rules: set[str] = set()
    for ln in (lineno - 1, lineno - 2):
        if 0 <= ln < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[ln])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


# --- rules -----------------------------------------------------------------

NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")  # `new T`, not `Type::new_()`
PLACEMENT_NEW_RE = re.compile(r"(?<![\w.])new\s*\(")
DELETE_RE = re.compile(r"(?<![\w.:])delete(\s*\[\s*\])?\s+[\w(:*]")
DELETED_FN_RE = re.compile(r"=\s*delete\s*[;,)]")


def rule_naked_new(rel: str, stripped: list[str]):
    for idx, line in enumerate(stripped, 1):
        if DELETED_FN_RE.search(line):
            continue
        if NEW_RE.search(line) or PLACEMENT_NEW_RE.search(line):
            yield idx, "naked-new", "naked `new` — own memory via containers/smart pointers"
        elif DELETE_RE.search(line):
            yield idx, "naked-new", "naked `delete` — pair allocation with RAII instead"


RANDOM_RE = re.compile(r"(?<![\w:])s?rand\s*\(|std::random_device|(?<!\w)random_device\s+\w")


def rule_random_source(rel: str, stripped: list[str]):
    if rel.replace("\\", "/").startswith("src/kronlab/common/random"):
        return
    for idx, line in enumerate(stripped, 1):
        if RANDOM_RE.search(line):
            yield idx, "random-source", (
                "raw random source — draw through common/random so runs are "
                "seed-reproducible"
            )


UNBRACED_CTRL_RE = re.compile(r"(?:^|[;{}]|\belse\b)\s*(?:if|for|while)\s*\(")


def _is_unbraced_control_tail(prefix: str) -> bool:
    """True when `prefix` (code on/before the macro) ends an if/for/while
    header without an opening brace, i.e. the macro is its sole statement."""
    prefix = prefix.rstrip()
    if prefix.endswith("else"):
        return True
    if not prefix.endswith(")"):
        return False
    # Walk back over the balanced parenthesis group.
    depth = 0
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] == ")":
            depth += 1
        elif prefix[i] == "(":
            depth -= 1
            if depth == 0:
                head = prefix[:i]
                return bool(re.search(r"(?:^|[;{}\s])(if|for|while)\s*$", head))
    return False


def rule_trace_span_scope(rel: str, stripped: list[str]):
    for idx, line in enumerate(stripped, 1):
        for m in re.finditer(r"KRONLAB_TRACE_SPAN(?:_D)?\s*\(", line):
            before = line[: m.start()]
            if _is_unbraced_control_tail(before):
                yield idx, "trace-span-scope", (
                    "KRONLAB_TRACE_SPAN as an unbraced control-flow body — "
                    "the span is destroyed immediately; brace the block"
                )
            elif before.strip() == "" and idx >= 2 and _is_unbraced_control_tail(
                stripped[idx - 2]
            ):
                yield idx, "trace-span-scope", (
                    "KRONLAB_TRACE_SPAN as an unbraced control-flow body — "
                    "the span is destroyed immediately; brace the block"
                )


def rule_no_endl(rel: str, stripped: list[str]):
    top = rel.replace("\\", "/").split("/", 1)[0]
    if top not in ("src", "bench"):
        return
    for idx, line in enumerate(stripped, 1):
        if "std::endl" in line:
            yield idx, "no-endl", "std::endl flushes per line — use '\\n'"


def rule_header_guard(rel: str, raw: str, stripped: list[str]):
    if Path(rel).suffix not in HEADER_SUFFIXES:
        return
    if "#pragma once" not in raw:
        yield 1, "header-guard", "header missing `#pragma once`"
        return
    for idx, line in enumerate(stripped, 1):
        if re.match(r"\s*#\s*ifndef\s+\w*_(H|HPP|H_|HPP_)\b", line):
            yield idx, "header-guard", (
                "#ifndef include guard — kronlab headers use `#pragma once` "
                "only"
            )
            return


ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")


def rule_no_assert(rel: str, stripped: list[str]):
    if not rel.replace("\\", "/").startswith("src/"):
        return
    for idx, line in enumerate(stripped, 1):
        if "static_assert" in line:
            line = line.replace("static_assert", "")
        if ASSERT_RE.search(line):
            yield idx, "no-assert", (
                "C assert() in library code — use KRONLAB_REQUIRE or "
                "KRONLAB_DBG_ASSERT (typed errors, release-mode contracts)"
            )


DURABLE_CALL_RE = re.compile(
    r"(?<![\w.:>])(?:std\s*::\s*)?(rename|remove|fopen)\s*\("
)
FOPEN_MODE_RE = re.compile(r'fopen\s*\([^;]*?,\s*"([^"]*)"')


def rule_durable_io(rel: str, raw_lines: list[str], stripped: list[str]):
    rel = rel.replace("\\", "/")
    top = rel.split("/", 1)[0]
    if top not in ("src", "bench", "tools"):
        return  # tests/examples simulate corruption directly — exempt
    if rel.startswith("src/kronlab/io/"):
        return  # the durable-io helper layer itself
    for idx, line in enumerate(stripped, 1):
        for m in DURABLE_CALL_RE.finditer(line):
            fn = m.group(1)
            if fn == "fopen":
                # Mode strings are blanked in the stripped view — inspect
                # the raw line.  Unparseable modes flag conservatively.
                raw = raw_lines[idx - 1] if idx - 1 < len(raw_lines) else ""
                mode = FOPEN_MODE_RE.search(raw)
                if mode and not set(mode.group(1)) & set("wa+"):
                    continue  # read-only open
                yield idx, "durable-io", (
                    "write-mode fopen outside src/kronlab/io/ — open through "
                    "io::FileOps so writes stay crash-safe and "
                    "fault-injectable"
                )
            else:
                yield idx, "durable-io", (
                    f"naked {fn}() outside src/kronlab/io/ — use "
                    "io::publish_file / io::remove_file (atomic, "
                    "fault-injectable) instead"
                )


DIST_SEND_RE = re.compile(r"(?<![\w:])(\w+)\s*(?:\.|->)\s*send\s*\(")


def rule_dist_send(rel: str, stripped: list[str]):
    if rel.replace("\\", "/") != "src/kronlab/dist/sharded.cpp":
        return
    for idx, line in enumerate(stripped, 1):
        for m in DIST_SEND_RE.finditer(line):
            # Sends through the aggregator object are the sanctioned path.
            if m.group(1) in ("agg", "agg_", "aggregator", "aggregator_"):
                continue
            yield idx, "dist-send", (
                "direct Comm::send from the sharded exchange — enqueue "
                "through dist::Aggregator (or annotate a control-channel "
                "send with kronlab-lint: allow(dist-send))"
            )


OBS_LOG_SRC_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:printf|fprintf|fputs|fputc|puts)\s*\("
)
OBS_LOG_STDERR_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:fprintf|fputs|fputc|fwrite)\s*\(\s*stderr"
)


def rule_obs_log(rel: str, stripped: list[str]):
    rel = rel.replace("\\", "/")
    top = rel.split("/", 1)[0]
    if rel == "src/kronlab/obs/log.cpp":
        return  # the logger's own default sink
    if top == "src":
        pattern = OBS_LOG_SRC_RE
        message = (
            "printf-family diagnostic in library code — emit a structured "
            "obs::log event instead"
        )
    elif top == "tools":
        pattern = OBS_LOG_STDERR_RE
        message = (
            "ad-hoc fprintf(stderr) in a tool — operational messages go "
            "through obs::log; deliberate CLI output needs "
            "kronlab-lint: allow(obs-log)"
        )
    else:
        return  # bench/tests/examples print freely
    for idx, line in enumerate(stripped, 1):
        if pattern.search(line):
            yield idx, "obs-log", message


TMP_LITERAL_RE = re.compile(r'"/tmp')


def rule_tmp_path(rel: str, raw_lines: list[str], stripped: list[str]):
    if not rel.replace("\\", "/").startswith("tests/"):
        return
    for idx, raw in enumerate(raw_lines, 1):
        code = stripped[idx - 1]
        for m in TMP_LITERAL_RE.finditer(raw):
            # Stripping keeps a literal's opening quote in place and blanks
            # comments, so a quote surviving at this column opens a string.
            if m.start() < len(code) and code[m.start()] == '"':
                yield idx, "tmp-path", (
                    'literal "/tmp path in a test — parallel and repeated '
                    "runs collide on it; use a TempDir "
                    "(tests/support/temp_dir.hpp)"
                )


def lint_file(path: Path, rel: str) -> list[Finding]:
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Finding(rel, 0, "io", f"cannot read: {e}")]
    raw_lines = raw.splitlines()
    stripped = strip_comments_and_strings(raw).splitlines()
    # Keep both views line-aligned even for files with odd trailing state.
    while len(stripped) < len(raw_lines):
        stripped.append("")

    findings: list[Finding] = []

    def collect(hits):
        for lineno, rule, message in hits:
            if rule not in allowed_rules(raw_lines, lineno):
                findings.append(Finding(rel, lineno, rule, message))

    collect(rule_naked_new(rel, stripped))
    collect(rule_random_source(rel, stripped))
    collect(rule_trace_span_scope(rel, stripped))
    collect(rule_no_endl(rel, stripped))
    collect(rule_header_guard(rel, raw, stripped))
    collect(rule_no_assert(rel, stripped))
    collect(rule_durable_io(rel, raw_lines, stripped))
    collect(rule_dist_send(rel, stripped))
    collect(rule_obs_log(rel, stripped))
    collect(rule_tmp_path(rel, raw_lines, stripped))
    return findings


# --- file discovery --------------------------------------------------------


def files_from_compdb(compdb: Path, root: Path) -> set[Path]:
    try:
        entries = json.loads(compdb.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"kronlab_lint: cannot read compile database: {e}")
    files: set[Path] = set()
    for entry in entries:
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry.get("directory", ".")) / f
        f = f.resolve()
        try:
            f.relative_to(root)
        except ValueError:
            continue  # system / generated sources
        if f.suffix in CXX_SUFFIXES and f.exists():
            files.add(f)
    return files


def files_from_tree(root: Path) -> set[Path]:
    files: set[Path] = set()
    for top in SOURCE_ROOTS:
        base = root / top
        if not base.is_dir():
            continue
        for f in base.rglob("*"):
            if f.suffix in CXX_SUFFIXES and f.is_file():
                files.add(f.resolve())
    return files


def repo_root(start: Path) -> Path:
    for cand in (start, *start.parents):
        if (cand / "CMakeLists.txt").exists() and (cand / "src").is_dir():
            return cand
    return start


# --- self-test over fixtures -----------------------------------------------


def run_self_test(fixtures_dir: Path) -> int:
    fixtures = sorted(
        f for f in fixtures_dir.iterdir() if f.suffix in CXX_SUFFIXES
    )
    if not fixtures:
        print(f"kronlab_lint: no fixtures under {fixtures_dir}", file=sys.stderr)
        return 2
    failures = 0
    for fixture in fixtures:
        text = fixture.read_text()
        expected = set(re.findall(r"LINT-EXPECT:\s*([a-z-]+)", text))
        as_m = re.search(r"LINT-AS:\s*(\S+)", text)
        if not expected or not as_m:
            print(f"{fixture}: fixture needs LINT-EXPECT and LINT-AS headers")
            failures += 1
            continue
        got = {f.rule for f in lint_file(fixture, as_m.group(1))}
        if got != expected:
            print(
                f"{fixture.name}: expected rules {sorted(expected)}, "
                f"got {sorted(got) or '(clean)'}"
            )
            failures += 1
        else:
            print(f"{fixture.name}: OK ({', '.join(sorted(expected))})")
    if failures:
        print(f"kronlab_lint --self-test: {failures} fixture(s) FAILED")
        return 1
    print(f"kronlab_lint --self-test: {len(fixtures)} fixtures OK")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, help="files or dirs to lint")
    ap.add_argument("--compdb", type=Path, help="compile_commands.json to lint")
    ap.add_argument("--root", type=Path, help="repo root (default: inferred)")
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the rules against scripts/lint/fixtures/",
    )
    args = ap.parse_args(argv)

    script_dir = Path(__file__).resolve().parent
    root = (args.root or repo_root(script_dir.parent.parent)).resolve()

    if args.self_test:
        return run_self_test(script_dir / "fixtures")

    files: set[Path] = set()
    if args.compdb:
        files |= files_from_compdb(args.compdb.resolve(), root)
        # The compile database only lists translation units; headers carry
        # invariants too.
        files |= {f for f in files_from_tree(root) if f.suffix in HEADER_SUFFIXES}
    explicit: set[Path] = set()
    for p in args.paths:
        p = p.resolve()
        if p.is_dir():
            explicit |= {
                f.resolve()
                for f in p.rglob("*")
                if f.suffix in CXX_SUFFIXES and f.is_file()
            }
        else:
            explicit.add(p)
    if not args.compdb and not args.paths:
        files = files_from_tree(root)

    # Fixtures are *supposed* to be dirty: exclude them from discovered
    # scans, but honor paths the caller named explicitly.
    fixtures_dir = (script_dir / "fixtures").resolve()
    files = {f for f in files if fixtures_dir not in f.parents} | explicit

    findings: list[Finding] = []
    for f in sorted(files):
        try:
            rel = str(f.relative_to(root))
        except ValueError:
            rel = str(f)
        findings.extend(lint_file(f, rel))

    for finding in findings:
        print(finding)
    if findings:
        print(f"kronlab_lint: {len(findings)} finding(s) in {len(files)} files")
        return 1
    print(f"kronlab_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
