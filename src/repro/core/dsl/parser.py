"""Parsing of pretty-printed combiner expressions back into ASTs.

The inverse of :meth:`Combiner.pretty`, used by the persistent
combiner store and handy in tests/REPL sessions::

    >>> parse_combiner("(stitch2 ' ' add first a b)").op
    Stitch2(delim=' ', head=Add(), tail=First())
"""

from __future__ import annotations

import re
from typing import List

from .ast import (
    Add,
    Back,
    Combiner,
    Concat,
    First,
    Front,
    Fuse,
    Merge,
    Offset,
    Op,
    Rerun,
    Second,
    Stitch,
    Stitch2,
)


class CombinerParseError(ValueError):
    """Raised when a combiner expression cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<lparen>\() | (?P<rparen>\))
  | (?P<delim>'(?:\\n|\\t|\ |,)')
  | (?P<merge>merge\('(?:[^']*)'\))
  | (?P<word>[a-z][a-z0-9]*)
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_DELIM_DECODE = {"'\\n'": "\n", "'\\t'": "\t", "' '": " ", "','": ","}


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise CombinerParseError(
                f"cannot tokenize combiner at {text[pos:pos+12]!r}")
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append(m.group())
    return tokens


class _Parser:
    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise CombinerParseError("unexpected end of combiner expression")
        self.pos += 1
        return tok

    def parse_delim(self) -> str:
        tok = self.next()
        if tok not in _DELIM_DECODE:
            raise CombinerParseError(f"expected delimiter, got {tok!r}")
        return _DELIM_DECODE[tok]

    def parse_op(self) -> Op:
        tok = self.next()
        if tok == "(":
            op = self.parse_op_body()
            if self.next() != ")":
                raise CombinerParseError("missing closing paren")
            return op
        return self.atom(tok)

    def atom(self, tok: str) -> Op:
        simple = {"add": Add(), "concat": Concat(), "first": First(),
                  "second": Second(), "rerun": Rerun(), "merge": Merge()}
        if tok in simple:
            return simple[tok]
        if tok.startswith("merge("):
            return Merge(tok[7:-2])
        raise CombinerParseError(f"unknown operator {tok!r}")

    def parse_op_body(self) -> Op:
        head = self.next()
        if head in ("front", "back", "fuse"):
            d = self.parse_delim()
            child = self.parse_op()
            cls = {"front": Front, "back": Back, "fuse": Fuse}[head]
            return cls(d, child)
        if head == "stitch":
            return Stitch(self.parse_op())
        if head == "stitch2":
            d = self.parse_delim()
            return Stitch2(d, self.parse_op(), self.parse_op())
        if head == "offset":
            return Offset(self.parse_delim(), self.parse_op())
        return self.atom(head)


def parse_combiner(text: str) -> Combiner:
    """Parse a pretty-printed combiner like ``(back '\\n' add a b)``."""
    text = text.strip()
    swapped = False
    # strip the argument suffix "a b" / "b a" if present
    m = re.search(r"\s+(a b|b a)\)$", text)
    if m:
        swapped = m.group(1) == "b a"
        text = text[: m.start()] + ")"
    elif text.endswith(" a b") or text.endswith(" b a"):
        swapped = text.endswith(" b a")
        text = text[:-4]
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    if parser.peek() == "(":
        parser.next()
        op = parser.parse_op_body()
        if parser.next() != ")":
            raise CombinerParseError("missing closing paren")
    else:
        op = parser.atom(parser.next())
    if parser.peek() is not None:
        raise CombinerParseError(
            f"trailing tokens: {parser.tokens[parser.pos:]}")
    return Combiner(op, swapped=swapped)
