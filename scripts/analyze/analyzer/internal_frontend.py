"""Token/scope frontend: lowers one C++ file to the analyzer IR.

No preprocessor, no template instantiation — a structural scan that
understands exactly the idioms this codebase uses:

* function definitions at namespace/class scope (``name(...) ... {``),
* ``MutexLock lock(mu);`` RAII guards (scope-bounded),
* explicit ``mu.lock()`` / ``mu.unlock()`` / ``cv.wait(mu)``,
* calls ``f(...)``, ``obj.f(...)``, ``Class::f(...)``,
* atomic operations ``x.load(...)``, ``x.store(...)``, ``fetch_*`` and
  friends, with or without an explicit ``std::memory_order``.

Mutex identity: an unqualified member (``mu_``) acquired inside class
``C`` canonicalises to ``C::mu_``; ``obj.member`` canonicalises to the
receiver's *declared class* when a local declaration of ``obj`` (or a
member/param of a known class) is in view, else ``<obj>.member``.
Lambdas are lowered as separate anonymous functions: the enclosing
function's held locks are suspended inside a lambda body, because the
body typically runs on another thread.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import ir
from .lexer import CHAR, IDENT, NUMBER, PUNCT, STRING, Token, load

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "alignof", "decltype", "noexcept", "case", "default",
    "do", "else", "goto", "try", "using", "typedef", "template",
    "typename", "operator", "co_await", "co_return", "co_yield",
}

_GUARD_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock"}
_ATOMIC_OPS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong",
}
_ORDERS = {
    "memory_order_relaxed": "relaxed",
    "memory_order_acquire": "acquire",
    "memory_order_release": "release",
    "memory_order_acq_rel": "acq_rel",
    "memory_order_seq_cst": "seq_cst",
    "memory_order_consume": "consume",
}


def _match_paren(toks: List[Token], i: int) -> int:
    """`toks[i]` is '('; return index just past the matching ')'."""
    depth = 0
    while i < len(toks):
        s = toks[i].spelling
        if toks[i].kind == PUNCT:
            if s == "(":
                depth += 1
            elif s == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return len(toks)


def _match_brace(toks: List[Token], i: int) -> int:
    """`toks[i]` is '{'; return index just past the matching '}'."""
    depth = 0
    while i < len(toks):
        s = toks[i].spelling
        if toks[i].kind == PUNCT:
            if s == "{":
                depth += 1
            elif s == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return len(toks)


class _TU:
    """One file's lowering pass."""

    def __init__(self, path: str, toks: List[Token],
                 mutex_classes: Dict[str, Dict[str, str]]):
        self.path = path
        self.toks = toks
        self.functions: List[ir.Function] = []
        # class name -> {member mutex name -> canonical id}
        self.mutex_classes = mutex_classes
        self._lambda_seq = 0

    # -- declaration scan ---------------------------------------------------

    def scan_mutex_members(self) -> None:
        """First pass: record `Mutex name;` members per enclosing class
        so receivers can be canonicalised in the lowering pass."""
        toks = self.toks
        stack: List[Tuple[str, int]] = []  # (class-or-"" , brace-depth-at-open)
        depth = 0
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == PUNCT and t.spelling == "{":
                depth += 1
                i += 1
                continue
            if t.kind == PUNCT and t.spelling == "}":
                depth -= 1
                while stack and stack[-1][1] > depth:
                    stack.pop()
                i += 1
                continue
            if (t.kind == IDENT and t.spelling in ("class", "struct")
                    and i + 1 < len(toks) and toks[i + 1].kind == IDENT):
                # find the '{' of the class body (skip bases), bail at ';'
                j = i + 2
                while j < len(toks) and toks[j].spelling not in ("{", ";"):
                    j += 1
                if j < len(toks) and toks[j].spelling == "{":
                    stack.append((toks[i + 1].spelling, depth + 1))
            if (t.kind == IDENT and t.spelling in ("Mutex", "mutex")
                    and i + 1 < len(toks) and toks[i + 1].kind == IDENT
                    and i + 2 < len(toks)
                    and toks[i + 2].spelling in (";", "GUARDED_BY", "{", "=")):
                cls = stack[-1][0] if stack else ""
                if cls:
                    name = toks[i + 1].spelling
                    self.mutex_classes.setdefault(cls, {})[name] = (
                        f"{cls}::{name}")
            i += 1

    # -- function discovery -------------------------------------------------

    def lower(self) -> List[ir.Function]:
        toks = self.toks
        i = 0
        class_stack: List[Tuple[str, int]] = []
        depth = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == PUNCT and t.spelling == "{":
                depth += 1
                i += 1
                continue
            if t.kind == PUNCT and t.spelling == "}":
                depth -= 1
                while class_stack and class_stack[-1][1] > depth:
                    class_stack.pop()
                i += 1
                continue
            if (t.kind == IDENT and t.spelling in ("class", "struct")
                    and i + 1 < len(toks) and toks[i + 1].kind == IDENT):
                j = i + 2
                while j < len(toks) and toks[j].spelling not in ("{", ";"):
                    j += 1
                if j < len(toks) and toks[j].spelling == "{":
                    class_stack.append((toks[i + 1].spelling, depth + 1))
                    i = j  # continue into the class body
                    continue
            # Candidate function definition: IDENT '(' ... ')' [stuff] '{'
            if t.kind == IDENT and t.spelling not in _KEYWORDS \
                    and i + 1 < len(toks) and toks[i + 1].spelling == "(":
                close = _match_paren(toks, i + 1)
                j = close
                # skip const/noexcept/override/trailing-return/init-lists
                # up to '{' or ';' or something that rules it out
                body = -1
                while j < len(toks):
                    s = toks[j].spelling
                    if s == "{":
                        body = j
                        break
                    if s in (";", ")", "]", ","):
                        break
                    if s == "=" and j + 1 < len(toks) \
                            and toks[j + 1].spelling in ("default", "delete"):
                        break
                    if s == ":":  # ctor init list: skip to its '{'
                        k = j + 1
                        pd = 0
                        while k < len(toks):
                            sk = toks[k].spelling
                            if sk in ("(", "{") and pd >= 0:
                                if sk == "{" and pd == 0:
                                    break
                                pd += 1
                            elif sk in (")", "}"):
                                pd -= 1
                            elif sk == ";" and pd == 0:
                                break
                            k += 1
                        j = k
                        continue
                    j += 1
                if body >= 0 and self._looks_like_function(i):
                    qual = self._qualifier_of(i, class_stack)
                    name = (f"{qual}::{t.spelling}" if qual else t.spelling)
                    end = _match_brace(toks, body)
                    fn = ir.Function(name=name, file=self.path, line=t.line)
                    self._lower_body(fn, body, end, qual)
                    self.functions.append(fn)
                    i = end
                    continue
            i += 1
        return self.functions

    def _looks_like_function(self, i: int) -> bool:
        """Reject obvious non-definitions: `x = name(...) {` never occurs,
        but `if (...) {`-style keywords and initialising declarations like
        `Foo f(arg); { ... }` are handled by the caller's '{' search
        stopping at ';'.  What remains to reject is a call inside an
        expression: look back one token."""
        toks = self.toks
        j = i - 1
        if j < 0:
            return True
        prev = toks[j]
        if prev.kind == PUNCT and prev.spelling in (
                "=", "(", ",", "return", "+", "-", "*", "/", "!", "&&",
                "||", "<", ">", "?"):
            return False
        if prev.kind == IDENT and prev.spelling in ("return", "co_return"):
            return False
        return True

    def _qualifier_of(self, i: int,
                      class_stack: List[Tuple[str, int]]) -> str:
        toks = self.toks
        if i >= 2 and toks[i - 1].spelling == "::" \
                and toks[i - 2].kind == IDENT:
            return toks[i - 2].spelling
        if class_stack:
            return class_stack[-1][0]
        return ""

    # -- body lowering ------------------------------------------------------

    def _lower_body(self, fn: ir.Function, body: int, end: int,
                    enclosing_class: str) -> None:
        toks = self.toks
        # local declarations: var name -> class name (best effort)
        locals_: Dict[str, str] = {}
        known_classes = set(self.mutex_classes)
        i = body + 1
        while i < end - 1:
            t = toks[i]
            s = t.spelling
            # Lambda body: lower as a separate anonymous function.
            if t.kind == PUNCT and s == "[":
                lam = self._maybe_lambda(i, end)
                if lam is not None:
                    lam_body, lam_end = lam
                    self._lambda_seq += 1
                    sub = ir.Function(
                        name=f"{fn.name}::<lambda#{self._lambda_seq}>",
                        file=self.path, line=toks[i].line)
                    self._lower_body(sub, lam_body, lam_end, enclosing_class)
                    self.functions.append(sub)
                    i = lam_end
                    continue
                i += 1
                continue
            if t.kind != IDENT:
                i += 1
                continue
            # Local declaration of a known class: `Foo x...` / `Foo& x...`
            if s in known_classes and i + 1 < end:
                j = i + 1
                while j < end and toks[j].spelling in ("&", "*", "const"):
                    j += 1
                if j < end and toks[j].kind == IDENT \
                        and toks[j].spelling not in _KEYWORDS:
                    locals_[toks[j].spelling] = s
            # RAII guard: `MutexLock name(expr);`
            if s in _GUARD_TYPES:
                g = self._lower_guard(fn, i, end, enclosing_class, locals_)
                if g is not None:
                    i = g
                    continue
            # cv.wait(mu) — mutex released during the wait
            if s == "wait" and i + 1 < end \
                    and toks[i + 1].spelling == "(" \
                    and i >= 2 and toks[i - 1].spelling == "." :
                chain = self._first_arg_chain(i + 1, end)
                if chain:
                    fn.events.append(ir.CondWait(
                        mutex=self._canon_mutex(chain, enclosing_class,
                                                locals_),
                        line=t.line))
                i = _match_paren(toks, i + 1)
                continue
            # Explicit mu.lock()/unlock()
            if s in ("lock", "unlock", "try_lock") and i + 1 < end \
                    and toks[i + 1].spelling == "(" \
                    and i >= 2 and toks[i - 1].spelling in (".", "->") \
                    and toks[i - 2].kind == IDENT:
                recv = toks[i - 2].spelling
                mutex = self._canon_mutex([recv], enclosing_class, locals_)
                if s == "lock":
                    fn.events.append(ir.Acquire(mutex=mutex, line=t.line,
                                                kind="manual"))
                elif s == "unlock":
                    fn.events.append(ir.Release(mutex=mutex, line=t.line))
                i = _match_paren(toks, i + 1)
                continue
            # Atomic op: x.load(...), x.fetch_add(...), ...
            if s in _ATOMIC_OPS and i + 1 < end \
                    and toks[i + 1].spelling == "(" \
                    and i >= 2 and toks[i - 1].spelling in (".", "->") \
                    and toks[i - 2].kind == IDENT:
                close = _match_paren(toks, i + 1)
                order = "seq_cst(default)"
                for k in range(i + 2, close):
                    o = _ORDERS.get(toks[k].spelling)
                    if o:
                        order = o
                        break
                fn.events.append(ir.AtomicOp(
                    var=toks[i - 2].spelling, op=s, order=order,
                    line=t.line))
                i = close
                continue
            # Generic call: [qual :: | recv .] name '('
            if s not in _KEYWORDS and i + 1 < end \
                    and toks[i + 1].spelling == "(":
                qual = ""
                if i >= 2 and toks[i - 1].spelling in (".", "->") \
                        and toks[i - 2].kind == IDENT:
                    recv = toks[i - 2].spelling
                    qual = locals_.get(recv, recv)
                elif i >= 2 and toks[i - 1].spelling == "::" \
                        and toks[i - 2].kind == IDENT:
                    qual = toks[i - 2].spelling
                fn.events.append(ir.Call(callee=s, qualifier=qual,
                                         line=t.line))
                i += 2  # descend into the argument list (nested calls)
                continue
            i += 1

    def _maybe_lambda(self, i: int, end: int) -> Optional[Tuple[int, int]]:
        """toks[i] is '['.  If this introduces a lambda, return
        (body_open_index, body_end_index)."""
        toks = self.toks
        # close the capture list
        depth = 0
        j = i
        while j < end:
            s = toks[j].spelling
            if s == "[":
                depth += 1
            elif s == "]":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= end:
            return None
        j += 1
        if j < end and toks[j].spelling == "(":
            j = _match_paren(toks, j)
        # skip mutable/noexcept/-> type
        while j < end and toks[j].spelling not in ("{", ";", ")", ","):
            j += 1
        if j < end and toks[j].spelling == "{":
            return j, _match_brace(toks, j)
        return None

    def _lower_guard(self, fn: ir.Function, i: int, end: int,
                     enclosing_class: str,
                     locals_: Dict[str, str]) -> Optional[int]:
        """`toks[i]` is a guard type name.  Returns resume index."""
        toks = self.toks
        j = i + 1
        if j < end and toks[j].spelling == "<":  # lock_guard<Mutex>
            while j < end and toks[j].spelling != ">":
                j += 1
            j += 1
        if j >= end or toks[j].kind != IDENT:
            return None
        j += 1  # guard variable name
        if j >= end or toks[j].spelling not in ("(", "{"):
            return None
        open_p = toks[j].spelling
        close = (_match_paren(toks, j) if open_p == "("
                 else _match_brace(toks, j))
        chain = self._first_arg_chain(j, end)
        if not chain:
            return close
        # The guard lives to the end of the enclosing block.
        scope_end = self._enclosing_block_end(i, end)
        fn.events.append(ir.Acquire(
            mutex=self._canon_mutex(chain, enclosing_class, locals_),
            line=toks[i].line, kind="raii",
            scope_end_line=toks[min(scope_end, len(toks) - 1)].line))
        return close

    def _enclosing_block_end(self, i: int, end: int) -> int:
        """Index of the '}' closing the innermost block containing i."""
        toks = self.toks
        depth = 0
        j = i
        while j < end:
            s = toks[j].spelling
            if toks[j].kind == PUNCT:
                if s == "{":
                    depth += 1
                elif s == "}":
                    if depth == 0:
                        return j
                    depth -= 1
            j += 1
        return end - 1

    def _first_arg_chain(self, open_paren: int, end: int) -> List[str]:
        """Identifier chain of the first argument expression: `(mu_)` ->
        ["mu_"], `(r.mu)` -> ["r", "mu"], `(conn->write_mu)` ->
        ["conn", "write_mu"]."""
        toks = self.toks
        close = _match_paren(toks, open_paren)
        chain: List[str] = []
        for k in range(open_paren + 1, close - 1):
            t = toks[k]
            if t.kind == IDENT:
                chain.append(t.spelling)
            elif t.spelling in (".", "->", "::"):
                continue
            elif t.spelling == ",":
                break
            else:
                chain = []  # complex expression: keep only the tail
        return chain

    def _canon_mutex(self, chain: List[str], enclosing_class: str,
                     locals_: Dict[str, str]) -> str:
        name = chain[-1]
        # `recv.member` with a declared receiver class wins.
        if len(chain) >= 2:
            recv_cls = locals_.get(chain[-2])
            if recv_cls and name in self.mutex_classes.get(recv_cls, {}):
                return f"{recv_cls}::{name}"
        # unqualified member of the enclosing class
        members = self.mutex_classes.get(enclosing_class, {})
        if len(chain) == 1 and name in members:
            return members[name]
        # a member of exactly one known class anywhere in the project
        owners = sorted(c for c, ms in self.mutex_classes.items()
                        if name in ms)
        if len(owners) == 1:
            return f"{owners[0]}::{name}"
        if len(chain) >= 2:
            return f"<{chain[-2]}>::{name}"
        if enclosing_class:
            return f"{enclosing_class}::{name}"
        return name


def lower_files(paths: List[str]) -> Tuple[List[ir.Function], Dict[str, Dict[str, str]]]:
    """Lower `paths` (absolute or repo-relative) into IR functions.
    Two passes so mutex members declared in headers canonicalise uses in
    .cpp files regardless of order."""
    mutex_classes: Dict[str, Dict[str, str]] = {}
    tus = []
    for p in paths:
        try:
            toks = load(p).tokens
        except OSError:
            continue
        tu = _TU(p, toks, mutex_classes)
        tu.scan_mutex_members()
        tus.append(tu)
    functions: List[ir.Function] = []
    for tu in tus:
        functions.extend(tu.lower())
    return functions, mutex_classes
