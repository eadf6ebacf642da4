"""The project's fifteen rules.

Five semantic rules run over the IR (`lock-order`,
`blocking-under-lock`, `memory-order`) or the token stream
(`unchecked-read`, `registry`).  Ten line rules match regexes against
the lexer's comment- and string-blanked view of each file.

Scope policy (documented in DESIGN.md §15):

* ``lock-order``, ``blocking-under-lock``, ``memory-order`` analyze
  ``src/`` — the library the invariants protect.  Tests and benches
  drive the library from outside the locks.
* ``unchecked-read`` analyzes ``src/``, ``tools/``, ``bench/``; tests
  are exempt (negative-path tests intentionally discard a result while
  expecting a throw).
* ``registry`` analyzes ``src/``, ``tools/``, ``bench/``; tests are
  exempt (golden-byte tests intentionally write raw magic bytes).
* Each line rule scopes itself by the file's repo-relative path (see
  ``LINE_RULES``); the path-independent ones cover every scanned file.
"""

from __future__ import annotations

import os
import re
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import ir
from .lexer import CHAR, IDENT, STRING, Source, load
from .project import HEADER_SUFFIXES, AllowIndex, parse_audit

# ---------------------------------------------------------------------------
# shared helpers


def _rel(path: str, root: str) -> str:
    try:
        return os.path.relpath(path, root)
    except ValueError:
        return path


def _in_dir(rel: str, dirs: Sequence[str]) -> bool:
    return any(rel == d or rel.startswith(d + os.sep) for d in dirs)


def _tokens(path: str):
    try:
        return load(path).tokens
    except OSError:
        return None


def _held_at(fn: ir.Function, upto: int) -> List[Tuple[str, int]]:
    """Locks live just before event index `upto`: (mutex, acquire line)."""
    held: List[Tuple[str, int, Optional[int]]] = []
    for ev in fn.events[:upto]:
        if isinstance(ev, ir.Acquire):
            held.append((ev.mutex, ev.line, ev.scope_end_line))
        elif isinstance(ev, ir.Release):
            for k in range(len(held) - 1, -1, -1):
                if held[k][0] == ev.mutex:
                    held.pop(k)
                    break
    at = fn.events[upto].line if upto < len(fn.events) else None
    out = []
    for mutex, line, scope_end in held:
        if at is not None and scope_end is not None and at > scope_end:
            continue  # RAII guard's block already closed
        out.append((mutex, line))
    return out


# ---------------------------------------------------------------------------
# rule: lock-order


def rule_lock_order(functions: List[ir.Function], root: str,
                    allow: AllowIndex) -> List[ir.Finding]:
    # edges[(a, b)] = list of (file, line, fn-name, how)
    edges: Dict[Tuple[str, str], List[Tuple[str, int, str, str]]] = \
        defaultdict(list)
    by_name: Dict[str, List[ir.Function]] = defaultdict(list)
    direct: Dict[int, Set[str]] = {}
    for fn in functions:
        by_name[fn.name.split("::")[-1]].append(fn)
        direct[id(fn)] = {ev.mutex for ev in fn.events
                          if isinstance(ev, ir.Acquire)}
    for fn in functions:
        for i, ev in enumerate(fn.events):
            if isinstance(ev, ir.Acquire):
                for held, _hline in _held_at(fn, i):
                    if held != ev.mutex:
                        edges[(held, ev.mutex)].append(
                            (fn.file, ev.line, fn.name, "acquires"))
            elif isinstance(ev, ir.Call):
                held_now = _held_at(fn, i)
                if not held_now:
                    continue
                for callee in by_name.get(ev.callee, ()):
                    if "<lambda" in callee.name:
                        continue
                    for m in direct[id(callee)]:
                        for held, _hline in held_now:
                            if held != m:
                                edges[(held, m)].append(
                                    (fn.file, ev.line, fn.name,
                                     f"calls {callee.name} which locks"))
    # cycle detection over the acquisition graph
    graph: Dict[str, Set[str]] = defaultdict(set)
    for (a, b) in edges:
        graph[a].add(b)
    findings: List[ir.Finding] = []
    seen_cycles: Set[Tuple[str, ...]] = set()

    def dfs(node: str, stack: List[str], on_stack: Set[str],
            visited: Set[str]) -> None:
        visited.add(node)
        on_stack.add(node)
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_stack:
                cyc = stack[stack.index(nxt):] + [nxt]
                key = tuple(sorted(set(cyc)))
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    _report_cycle(cyc, edges, allow, findings)
            elif nxt not in visited:
                dfs(nxt, stack, on_stack, visited)
        stack.pop()
        on_stack.discard(node)

    visited: Set[str] = set()
    for node in sorted(graph):
        if node not in visited:
            dfs(node, [], set(), visited)
    return findings


def _report_cycle(cyc: List[str],
                  edges: Dict[Tuple[str, str],
                              List[Tuple[str, int, str, str]]],
                  allow: AllowIndex, findings: List[ir.Finding]) -> None:
    sites = []
    for a, b in zip(cyc, cyc[1:]):
        site = sorted(edges[(a, b)])[0]
        sites.append((a, b) + site)
    # An allow marker on any edge of the cycle declares the ordering
    # intentional (e.g. a leaf mutex never waited on).
    for _a, _b, f, line, _fn, _how in sites:
        if allow.allows(f, line, "lock-order"):
            return
    order = " -> ".join(cyc)
    detail = "; ".join(f"{a}->{b} at {os.path.basename(f)}:{ln} in {fnn}"
                       for a, b, f, ln, fnn, _how in sites)
    f0, l0 = sites[0][2], sites[0][3]
    findings.append(ir.Finding(
        rule="lock-order", file=f0, line=l0,
        message=f"lock acquisition cycle {order} ({detail}) — two threads "
                "taking these locks in opposite orders can deadlock"))


# ---------------------------------------------------------------------------
# rule: blocking-under-lock

BLOCKING_CALLS = {
    "send", "recv", "recv_any", "recv_deadline", "poll", "fsync",
    "fdatasync", "sleep_for", "connect", "accept", "write_frame",
    "read_frame", "join", "allreduce_sum", "allgather", "alltoall",
}


def rule_blocking_under_lock(functions: List[ir.Function], root: str,
                             allow: AllowIndex) -> List[ir.Finding]:
    findings: List[ir.Finding] = []
    by_name: Dict[str, List[ir.Function]] = defaultdict(list)
    for fn in functions:
        by_name[fn.name.split("::")[-1]].append(fn)

    def direct_blocking(fn: ir.Function) -> List[ir.Call]:
        return [ev for ev in fn.events
                if isinstance(ev, ir.Call) and ev.callee in BLOCKING_CALLS]

    for fn in functions:
        for i, ev in enumerate(fn.events):
            if not isinstance(ev, ir.Call):
                continue
            held = _held_at(fn, i)
            if not held:
                continue
            locks = ", ".join(sorted({m for m, _l in held}))
            if ev.callee in BLOCKING_CALLS:
                if allow.allows(fn.file, ev.line, "blocking-under-lock"):
                    continue
                findings.append(ir.Finding(
                    rule="blocking-under-lock", file=fn.file, line=ev.line,
                    message=f"{fn.name} calls blocking "
                            f"{ev.callee}() while holding {locks}"))
                continue
            # one level into project callees (lambdas excluded: they run
            # on other threads)
            for callee in by_name.get(ev.callee, ()):
                if "<lambda" in callee.name or callee.name == fn.name:
                    continue
                for bc in direct_blocking(callee):
                    if allow.allows(fn.file, ev.line,
                                    "blocking-under-lock"):
                        break
                    findings.append(ir.Finding(
                        rule="blocking-under-lock", file=fn.file,
                        line=ev.line,
                        message=f"{fn.name} holds {locks} across call to "
                                f"{callee.name}, which calls blocking "
                                f"{bc.callee}() "
                                f"({os.path.basename(callee.file)}:"
                                f"{bc.line})"))
                    break  # one finding per call site per callee
    return findings


# ---------------------------------------------------------------------------
# rule: memory-order

HOT_DIRS = ("src/kronlab/parallel", "src/kronlab/obs", "src/kronlab/grb",
            "src/kronlab/graph", "src/kronlab/dist")


def rule_memory_order(functions: List[ir.Function], root: str,
                      allow: AllowIndex,
                      audit_path: str) -> List[ir.Finding]:
    entries, findings = parse_audit(audit_path)
    # group sites by (relfile, var, op, order)
    sites: Dict[Tuple[str, str, str, str], List[Tuple[str, int]]] = \
        defaultdict(list)
    for fn in functions:
        rel = _rel(fn.file, root)
        for ev in fn.events:
            if isinstance(ev, ir.AtomicOp):
                sites[(rel, ev.var, ev.op, ev.order)].append(
                    (fn.file, ev.line))
    matched: Set[Tuple[str, str, str, str]] = set()
    for key, locs in sorted(sites.items()):
        rel, var, op, order = key
        entry = entries.get(key)
        if entry is not None:
            matched.add(key)
            if entry.count != len(locs):
                findings.append(ir.Finding(
                    rule="memory-order", file=locs[0][0], line=locs[0][1],
                    message=f"audit entry for {var}.{op}({order}) in {rel} "
                            f"expects {entry.count} site(s) but the tree "
                            f"has {len(locs)} — re-audit "
                            f"(audit line {entry.line})"))
            continue
        unallowed = [(f, ln) for f, ln in locs
                     if not allow.allows(f, ln, "memory-order")]
        if not unallowed:
            continue
        f0, l0 = unallowed[0]
        what = (f"defaulted seq_cst {op}" if order == "seq_cst(default)"
                else f"{op} with memory_order_{order}")
        hot = " on a hot path" if _in_dir(rel, HOT_DIRS) else ""
        findings.append(ir.Finding(
            rule="memory-order", file=f0, line=l0,
            message=f"unaudited atomic: {var}.{what}{hot} "
                    f"({len(unallowed)} site(s) in {rel}) — add a justified "
                    f"entry to {os.path.basename(audit_path)}"))
    for key, entry in sorted(entries.items()):
        if key not in matched:
            findings.append(ir.Finding(
                rule="memory-order", file=audit_path, line=entry.line,
                message=f"stale audit entry: no {entry.var}.{entry.op}"
                        f"({entry.order}) sites remain in {entry.file}"))
    return findings


def emit_audit_skeleton(functions: List[ir.Function], root: str) -> str:
    sites: Dict[Tuple[str, str, str, str], int] = defaultdict(int)
    for fn in functions:
        rel = _rel(fn.file, root)
        for ev in fn.events:
            if isinstance(ev, ir.AtomicOp):
                sites[(rel, ev.var, ev.op, ev.order)] += 1
    lines = ["# memory_order.audit — one line per (file, var, op, order):",
             "#   file | var | op | order | count | justification",
             "# Every atomic site in src/ must be covered and justified;",
             "# kronlab_analyze --rules memory-order enforces both ways.",
             ""]
    for (rel, var, op, order), n in sorted(sites.items()):
        lines.append(f"{rel} | {var} | {op} | {order} | {n} | ")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rule: unchecked-read

NODISCARD_APIS = {
    "fnv1a64_words", "frame_checksum", "read_segment", "read_manifest",
    "scan_store", "recv", "recv_deadline", "recv_any",
    "allreduce_sum", "allgather", "alltoall", "decode_request",
    "decode_response", "peek_request_id", "has_edge",
}

_STMT_START = {";", "{", "}"}
# Punctuators that can end a return type: `Csr<T> f(`, `T* f(`.
_TYPE_TAIL = {">", ">>", "*", "&", "&&"}
# Identifiers that can precede a call without declaring it.
_NOT_A_TYPE = {"return", "co_return", "co_yield", "co_await", "throw",
               "case", "else", "do", "new", "delete", "sizeof"}


def rule_unchecked_read(files: List[str], root: str,
                        allow: AllowIndex,
                        scope_all: bool = False) -> List[ir.Finding]:
    findings: List[ir.Finding] = []
    declared: Set[str] = set()
    for path in files:
        rel = _rel(path, root)
        if not scope_all and not _in_dir(rel, ("src", "tools", "bench")):
            continue
        toks = _tokens(path)
        if toks is None:
            continue
        in_src = _in_dir(rel, ("src",))
        for i, t in enumerate(toks):
            if t.kind != IDENT or t.spelling not in NODISCARD_APIS:
                continue
            if i + 1 >= len(toks) or toks[i + 1].spelling != "(":
                continue
            # walk back over a receiver chain (`obj.` / `ns::`); two
            # adjacent identifiers mean a declaration, not a call
            j = i - 1
            while j >= 1 and toks[j].spelling in (".", "->", "::") \
                    and toks[j - 1].kind == IDENT:
                j -= 2
            if j < 0:
                continue
            prev = toks[j]
            if prev.kind == IDENT or prev.spelling in _TYPE_TAIL:
                # a return type before the name: a declaration (or
                # `return f(...)`, whose value is consumed)
                if in_src and prev.spelling not in _NOT_A_TYPE:
                    declared.add(t.spelling)
                continue
            if prev.spelling == "{" and j >= 1 and (
                    (toks[j - 1].kind == IDENT
                     and toks[j - 1].spelling not in ("else", "do", "try"))
                    or toks[j - 1].spelling in (">", "=", ",", "(", "{")):
                continue  # braced initializer, not a block: value consumed
            discard_cast = (
                prev.spelling == ")" and j >= 2
                and toks[j - 1].spelling == "void"
                and toks[j - 2].spelling == "(")
            plain_discard = prev.spelling in _STMT_START
            if discard_cast and j >= 3:
                plain_prev = toks[j - 3]
                if plain_prev.spelling not in _STMT_START:
                    discard_cast = False  # (void) mid-expression: not ours
            if not (discard_cast or plain_discard):
                continue
            if allow.allows(path, t.line, "unchecked-read"):
                continue
            how = ("discards the result via (void) cast" if discard_cast
                   else "ignores the result")
            findings.append(ir.Finding(
                rule="unchecked-read", file=path, line=t.line,
                message=f"call to {t.spelling}() {how}; the return value "
                        "is a checksum/parse/verify result and must be "
                        "consumed"))
    if not scope_all:
        findings.extend(_stale_apis(NODISCARD_APIS - declared))
    return findings


def _stale_apis(names: Set[str]) -> List[ir.Finding]:
    """A NODISCARD_APIS entry declared nowhere under src/ guards nothing;
    report it at its line in this file."""
    with open(__file__, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    out = []
    for name in sorted(names):
        line = next((n for n, text in enumerate(lines, 1)
                     if f'"{name}"' in text), 1)
        out.append(ir.Finding(
            rule="unchecked-read", file=__file__, line=line,
            message=f"stale NODISCARD_APIS entry: {name}() is declared "
                    "nowhere under src/ — drop it"))
    return out


# ---------------------------------------------------------------------------
# rule: registry

_ENV_RE = re.compile(r'^"(KRONLAB_[A-Z0-9_]*)"$')
_MAGIC_RE = re.compile(r'^"(KRNL[A-Z0-9]{4})"$')
_BATCH_HEX = "0x42415443"


def _registry_names(registry_path: str) -> Tuple[Set[str], Set[str]]:
    """(env names, magic names) declared in registry.hpp."""
    env_names: Set[str] = set()
    magic_names: Set[str] = set()
    toks = _tokens(registry_path)
    if toks is None:
        return env_names, magic_names
    run: List[str] = []
    for t in toks:
        if t.kind == STRING:
            m = _ENV_RE.match(t.spelling)
            if m:
                env_names.add(m.group(1))
        if t.kind == CHAR and len(t.spelling) == 3:
            run.append(t.spelling[1])
            if len(run) == 8:
                word = "".join(run)
                if word.startswith("KRNL"):
                    magic_names.add(word)
                run = []
        elif t.kind != CHAR and t.spelling != ",":
            run = []
    return env_names, magic_names


def rule_registry(files: List[str], root: str,
                  allow: AllowIndex,
                  scope_all: bool = False) -> List[ir.Finding]:
    findings: List[ir.Finding] = []
    registry = os.path.join(root, "src", "kronlab", "common",
                            "registry.hpp")
    if not os.path.exists(registry):
        # fixture trees keep their registry at the tree root
        registry = os.path.join(root, "registry.hpp")
    env_names, magic_names = _registry_names(registry)
    if not env_names or not magic_names:
        findings.append(ir.Finding(
            rule="registry", file=registry, line=1,
            message="registry.hpp missing or defines no KRONLAB_*/KRNL* "
                    "names — the one-definition registry is the rule's "
                    "anchor"))
        return findings
    # 1. stray definitions / literals outside the registry
    for path in files:
        rel = _rel(path, root)
        if not scope_all and not _in_dir(rel, ("src", "tools", "bench")):
            continue
        if os.path.abspath(path) == os.path.abspath(registry):
            continue
        toks = _tokens(path)
        if toks is None:
            continue
        run_start = None
        run: List[str] = []
        for i, t in enumerate(toks):
            if t.kind == STRING:
                m = _ENV_RE.match(t.spelling)
                if m and not allow.allows(path, t.line, "registry"):
                    findings.append(ir.Finding(
                        rule="registry", file=path, line=t.line,
                        message=f'env var literal "{m.group(1)}" outside '
                                "common/registry.hpp — use kronlab::env::"))
                m = _MAGIC_RE.match(t.spelling)
                if m and not allow.allows(path, t.line, "registry"):
                    findings.append(ir.Finding(
                        rule="registry", file=path, line=t.line,
                        message=f'wire magic literal "{m.group(1)}" '
                                "outside common/registry.hpp — use "
                                "kronlab::magic::"))
            if t.kind == CHAR and len(t.spelling) == 3:
                if not run:
                    run_start = t.line
                run.append(t.spelling[1])
                if len(run) >= 4 and "".join(run[:4]) == "KRNL":
                    if not allow.allows(path, run_start or t.line,
                                        "registry"):
                        findings.append(ir.Finding(
                            rule="registry", file=path,
                            line=run_start or t.line,
                            message="char-array wire magic spelled outside "
                                    "common/registry.hpp — alias "
                                    "kronlab::magic:: instead"))
                    run = []
            elif t.kind != CHAR and t.spelling != ",":
                run = []
            if t.spelling.lower().startswith(_BATCH_HEX) \
                    and not allow.allows(path, t.line, "registry"):
                findings.append(ir.Finding(
                    rule="registry", file=path, line=t.line,
                    message="BATC batch-magic hex constant outside "
                            "common/registry.hpp — use "
                            "kronlab::magic::kBatchWord"))
    # 2. every registered name documented in README.md / DESIGN.md
    docs = ""
    for doc in ("README.md", "DESIGN.md"):
        try:
            with open(os.path.join(root, doc), "r",
                      encoding="utf-8") as f:
                docs += f.read()
        except OSError:
            pass
    for name in sorted(env_names | magic_names | {"BATC"}):
        if name not in docs:
            findings.append(ir.Finding(
                rule="registry", file=registry, line=1,
                message=f"{name} is registered but documented in neither "
                        "README.md nor DESIGN.md"))
    return findings


# ---------------------------------------------------------------------------
# line rules: regexes over the blanked view, each scoped by the file's
# repo-relative path.  A check yields (line, message).

# `new T`, not `Type::new_()`
_NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")
_PLACEMENT_NEW_RE = re.compile(r"(?<![\w.])new\s*\(")
_DELETE_RE = re.compile(r"(?<![\w.:])delete(\s*\[\s*\])?\s+[\w(:*]")
_DELETED_FN_RE = re.compile(r"=\s*delete\s*[;,)]")


def _naked_new(rel: str, src: Source):
    for idx, line in enumerate(src.blanked, 1):
        if _DELETED_FN_RE.search(line):
            continue
        if _NEW_RE.search(line) or _PLACEMENT_NEW_RE.search(line):
            yield idx, ("naked `new` — own memory via containers/smart "
                        "pointers")
        elif _DELETE_RE.search(line):
            yield idx, "naked `delete` — pair allocation with RAII instead"


_RANDOM_RE = re.compile(
    r"(?<![\w:])s?rand\s*\(|std::random_device|(?<!\w)random_device\s+\w")


def _random_source(rel: str, src: Source):
    if rel.startswith("src/kronlab/common/random"):
        return
    for idx, line in enumerate(src.blanked, 1):
        if _RANDOM_RE.search(line):
            yield idx, ("raw random source — draw through common/random "
                        "so runs are seed-reproducible")


_CONTROL_HEAD_RE = re.compile(r"(?:^|[;{}\s])(if|for|while)\s*$")
_SPAN_RE = re.compile(r"KRONLAB_TRACE_SPAN(?:_D)?\s*\(")


def _unbraced_control_tail(prefix: str) -> bool:
    """True when `prefix` (code on/before the macro) ends an if/for/while
    header without an opening brace, i.e. the macro is its sole statement."""
    prefix = prefix.rstrip()
    if prefix.endswith("else"):
        return True
    if not prefix.endswith(")"):
        return False
    depth = 0  # walk back over the balanced parenthesis group
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] == ")":
            depth += 1
        elif prefix[i] == "(":
            depth -= 1
            if depth == 0:
                return bool(_CONTROL_HEAD_RE.search(prefix[:i]))
    return False


def _trace_span_scope(rel: str, src: Source):
    lines = src.blanked
    for idx, line in enumerate(lines, 1):
        for m in _SPAN_RE.finditer(line):
            before = line[:m.start()]
            if _unbraced_control_tail(before) or (
                    before.strip() == "" and idx >= 2
                    and _unbraced_control_tail(lines[idx - 2])):
                yield idx, ("KRONLAB_TRACE_SPAN as an unbraced control-flow "
                            "body — the span is destroyed immediately; "
                            "brace the block")


def _no_endl(rel: str, src: Source):
    if not rel.startswith(("src/", "bench/")):
        return
    for idx, line in enumerate(src.blanked, 1):
        if "std::endl" in line:
            yield idx, "std::endl flushes per line — use '\\n'"


_IFNDEF_GUARD_RE = re.compile(r"\s*#\s*ifndef\s+\w*_(H|HPP|H_|HPP_)\b")


def _header_guard(rel: str, src: Source):
    if not rel.endswith(HEADER_SUFFIXES):
        return
    if "#pragma once" not in src.text:
        yield 1, "header missing `#pragma once`"
        return
    for idx, line in enumerate(src.blanked, 1):
        if _IFNDEF_GUARD_RE.match(line):
            yield idx, ("#ifndef include guard — kronlab headers use "
                        "`#pragma once` only")
            return


_ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")


def _no_assert(rel: str, src: Source):
    if not rel.startswith("src/"):
        return
    for idx, line in enumerate(src.blanked, 1):
        if _ASSERT_RE.search(line.replace("static_assert", "")):
            yield idx, ("C assert() in library code — use KRONLAB_REQUIRE "
                        "or KRONLAB_DBG_ASSERT (typed errors, release-mode "
                        "contracts)")


_DURABLE_CALL_RE = re.compile(
    r"(?<![\w.:>])(?:std\s*::\s*)?(rename|remove|fopen)\s*\(")
_FOPEN_MODE_RE = re.compile(r'fopen\s*\([^;]*?,\s*"([^"]*)"')


def _durable_io(rel: str, src: Source):
    # tests/ and examples/ simulate corruption directly; src/kronlab/io/
    # is the durable-io helper layer itself
    if not rel.startswith(("src/", "bench/", "tools/")) \
            or rel.startswith("src/kronlab/io/"):
        return
    for idx, line in enumerate(src.blanked, 1):
        for m in _DURABLE_CALL_RE.finditer(line):
            fn = m.group(1)
            if fn != "fopen":
                yield idx, (f"naked {fn}() outside src/kronlab/io/ — go "
                            "through io::FileOps (real_file_ops(): atomic, "
                            "fault-injectable) instead")
                continue
            # The mode string is blanked: read it from the source line.
            # An unparseable mode flags conservatively.
            mode = _FOPEN_MODE_RE.search(src.lines[idx - 1])
            if mode and not set(mode.group(1)) & set("wa+"):
                continue  # read-only open
            yield idx, ("write-mode fopen outside src/kronlab/io/ — open "
                        "through io::FileOps so writes stay crash-safe and "
                        "fault-injectable")


_DIST_SEND_RE = re.compile(r"(?<![\w:])(\w+)\s*(?:\.|->)\s*send\s*\(")
_AGGREGATORS = {"agg", "agg_", "aggregator", "aggregator_"}


def _dist_send(rel: str, src: Source):
    if rel != "src/kronlab/dist/sharded.cpp":
        return
    for idx, line in enumerate(src.blanked, 1):
        for m in _DIST_SEND_RE.finditer(line):
            if m.group(1) in _AGGREGATORS:
                continue  # the sanctioned path
            yield idx, ("direct Comm::send from the sharded exchange — "
                        "enqueue through dist::Aggregator (or annotate a "
                        "control-channel send with kronlab-analyze: "
                        "allow(dist-send) <why>)")


_OBS_LOG_SRC_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:printf|fprintf|fputs|fputc|puts)\s*\(")
_OBS_LOG_STDERR_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:fprintf|fputs|fputc|fwrite)\s*\(\s*stderr")


def _obs_log(rel: str, src: Source):
    if rel == "src/kronlab/obs/log.cpp":
        return  # the logger's own default sink
    if rel.startswith("src/"):
        pattern = _OBS_LOG_SRC_RE
        message = ("printf-family diagnostic in library code — emit a "
                   "structured obs::log event instead")
    elif rel.startswith("tools/"):
        pattern = _OBS_LOG_STDERR_RE
        message = ("ad-hoc fprintf(stderr) in a tool — operational "
                   "messages go through obs::log; deliberate CLI output "
                   "needs kronlab-analyze: allow(obs-log) <why>")
    else:
        return  # bench/tests/examples print freely
    for idx, line in enumerate(src.blanked, 1):
        if pattern.search(line):
            yield idx, message


_TMP_LITERAL_RE = re.compile(r'"/tmp')


def _tmp_path(rel: str, src: Source):
    if not rel.startswith("tests/"):
        return
    for idx, (raw, code) in enumerate(zip(src.lines, src.blanked), 1):
        for m in _TMP_LITERAL_RE.finditer(raw):
            # Blanking keeps a literal's opening quote in place and blanks
            # comments, so a quote surviving at this column opens a string.
            if code[m.start():m.start() + 1] == '"':
                yield idx, ('literal "/tmp path in a test — parallel and '
                            "repeated runs collide on it; use a TempDir "
                            "(tests/support/temp_dir.hpp)")


LINE_RULES = {
    "naked-new": _naked_new,
    "random-source": _random_source,
    "trace-span-scope": _trace_span_scope,
    "no-endl": _no_endl,
    "header-guard": _header_guard,
    "no-assert": _no_assert,
    "durable-io": _durable_io,
    "dist-send": _dist_send,
    "obs-log": _obs_log,
    "tmp-path": _tmp_path,
}


def rule_lines(rule: str, files: List[str], root: str,
               allow: AllowIndex) -> List[ir.Finding]:
    check = LINE_RULES[rule]
    findings: List[ir.Finding] = []
    for path in files:
        try:
            src = load(path)
        except OSError:
            continue
        rel = _rel(path, root).replace(os.sep, "/")
        for line, message in check(rel, src):
            if not allow.allows(path, line, rule):
                findings.append(ir.Finding(rule=rule, file=path, line=line,
                                           message=message))
    return findings


# ---------------------------------------------------------------------------
# driver


def run_rules(rules: Iterable[str], functions: List[ir.Function],
              files: List[str], root: str, allow: AllowIndex,
              audit_path: str,
              scope_all: bool = False) -> List[ir.Finding]:
    """`scope_all` lifts the semantic rules' directory scoping — used
    when analyzing a fixture unit whose files live at its root.  Line
    rules always scope by the path relative to `root`."""
    src_functions = [fn for fn in functions
                     if scope_all or _in_dir(_rel(fn.file, root), ("src",))]
    findings: List[ir.Finding] = []
    for rule in rules:
        if rule == "lock-order":
            findings.extend(rule_lock_order(src_functions, root, allow))
        elif rule == "blocking-under-lock":
            findings.extend(
                rule_blocking_under_lock(src_functions, root, allow))
        elif rule == "memory-order":
            findings.extend(
                rule_memory_order(src_functions, root, allow, audit_path))
        elif rule == "unchecked-read":
            findings.extend(
                rule_unchecked_read(files, root, allow, scope_all))
        elif rule == "registry":
            findings.extend(rule_registry(files, root, allow, scope_all))
        else:
            findings.extend(rule_lines(rule, files, root, allow))
    findings.extend(allow.bare_findings(files))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
