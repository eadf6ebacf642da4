"""The one C++ scanner: comments/strings/chars aware, line-accurate.

This is deliberately not a preprocessor — kronlab's sources are
macro-light (the only relevant macros are the thread-safety annotation
wrappers, which the internal frontend treats as plain tokens).  One
lexeme scan (`_lex`) feeds two views of a file:

* `tokenize` — every identifier, punctuator, string literal, and char
  literal outside preprocessor directives, as a token with a 1-based
  line number; comments disappear; string/char literal *contents* are
  preserved in the token so rules like `registry` can inspect them.
* `blank` — the source text with comments blanked to spaces and string
  and char literals reduced to their quotes (raw strings blanked whole),
  newlines kept, so the line rules can match code with regexes and
  report true line and column positions.

`load` reads a file once per run and computes each view on first use.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator, List, Tuple

IDENT = "ident"
NUMBER = "number"
STRING = "string"  # spelling includes quotes
CHAR = "char"      # spelling includes quotes
PUNCT = "punct"
COMMENT = "comment"  # scan-only: never a token


@dataclass(frozen=True)
class Token:
    kind: str
    spelling: str
    line: int

    def __repr__(self) -> str:  # compact, for debugging fixtures
        return f"{self.kind}:{self.spelling}@{self.line}"


# Multi-character punctuators, longest first.
_PUNCTS = (
    "<<=", ">>=", "...", "->*",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
)

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
_DIGITS = set("0123456789")
_RAW_OPEN = re.compile(r'R"([^ ()\\\t\n]*)\(')
_NOT_NEWLINE = re.compile(r"[^\n]")


def _lex(text: str) -> Iterator[Tuple[str, int, int, int]]:
    """Yield (kind, start, end, line) for every lexeme, comments
    included; `line` is the 1-based line the lexeme starts on."""
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        start = i
        if c == "/" and i + 1 < n and text[i + 1] in "/*":
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
            else:
                j = text.find("*/", i + 2)
                i = n if j < 0 else j + 2
            kind = COMMENT
        elif c == "R" and (m := _RAW_OPEN.match(text, i)):
            close = ")" + m.group(1) + '"'
            k = text.find(close, m.end())
            i = n if k < 0 else k + len(close)
            kind = STRING
        elif c in "\"'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c or text[j] == "\n":
                    break  # closed, or unterminated: tolerate
                j += 1
            i = min(j + 1, n) if j < n and text[j] == c else min(j, n)
            kind = STRING if c == '"' else CHAR
        elif c in _ID_START:
            i += 1
            while i < n and text[i] in _ID_CONT:
                i += 1
            kind = IDENT
        elif c in _DIGITS or (c == "." and i + 1 < n
                              and text[i + 1] in _DIGITS):
            # good enough: consume a [0-9a-zA-Z_'.] run
            i += 1
            while i < n and (text[i] in _ID_CONT or text[i] in ".'"):
                i += 1
            kind = NUMBER
        else:
            for p in _PUNCTS:
                if text.startswith(p, i):
                    i += len(p)
                    break
            else:
                i += 1
            kind = PUNCT
        yield kind, start, i, line
        if kind in (COMMENT, STRING, CHAR):
            line += text.count("\n", start, i)


def _directive_end(text: str, i: int) -> int:
    """End of the preprocessor directive starting at `i`: the first
    newline not escaped by a line continuation."""
    while True:
        j = text.find("\n", i)
        if j < 0:
            return len(text)
        if text[j - 1] == "\\" or text[j - 2: j] == "\\\r":
            i = j + 1
            continue
        return j


def tokenize(text: str) -> List[Token]:
    """Tokens outside comments and preprocessor directives — rules use
    the file list, not the include graph."""
    toks: List[Token] = []
    skip_to = -1
    last_line = 0
    for kind, start, end, line in _lex(text):
        if kind == COMMENT or start < skip_to:
            continue
        if kind == PUNCT and text[start] == "#" and line != last_line:
            skip_to = _directive_end(text, start)
            continue
        toks.append(Token(kind, text[start:end], line))
        last_line = line
    return toks


def blank(text: str) -> str:
    """`text` with comments blanked and literals reduced to their quotes
    (`"..."` becomes `""` plus spaces; raw strings become spaces).  Every
    newline and column survives, so positions in the blanked view are
    positions in the source."""
    out: List[str] = []
    pos = 0
    for kind, start, end, _line in _lex(text):
        if kind not in (COMMENT, STRING, CHAR):
            continue
        out.append(text[pos:start])
        span = text[start:end]
        if kind == COMMENT or span[0] == "R":
            out.append(_NOT_NEWLINE.sub(" ", span))
        else:
            out.append((span[0] * 2)[:len(span)]
                       + _NOT_NEWLINE.sub(" ", span[2:]))
        pos = end
    out.append(text[pos:])
    return "".join(out)


class Source:
    """One file's text, read once; its views are computed on first use."""

    def __init__(self, path: str) -> None:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.text = f.read()

    @functools.cached_property
    def tokens(self) -> List[Token]:
        return tokenize(self.text)

    @functools.cached_property
    def lines(self) -> List[str]:
        return self.text.split("\n")

    @functools.cached_property
    def blanked(self) -> List[str]:
        """`blank(text)` split into lines, aligned with `lines`."""
        return blank(self.text).split("\n")


@functools.lru_cache(maxsize=None)
def load(path: str) -> Source:
    """The `Source` for `path`; raises OSError when it cannot be read."""
    return Source(path)
