"""Example-string generation for BRE patterns (preprocessing step).

``grep 'light.light'`` only produces output when the input contains a
matching line, so KumQuat extracts the pattern and builds a dictionary
of matching strings (paper section 3.2, *Preprocessing*).  This module
walks a POSIX BRE and emits random matching strings, covering the
pattern population of the benchmarks: literals, ``.``, ``*``, bracket
expressions (including negation and classes), anchors, groups, and
back-references.
"""

from __future__ import annotations

import random
import string
from typing import List, Optional

_LETTERS = string.ascii_lowercase
#: sample pool for '.' and negated classes; includes delimiter
#: characters on purpose — matched examples flowing through a command
#: reveal which delimiters its outputs can contain.
_ANY_POOL = string.ascii_letters + string.digits + " ,\t._-"


class _Gen:
    def __init__(self, pattern: str, rng: random.Random) -> None:
        self.pat = pattern
        self.rng = rng
        self.pos = 0
        self.groups: List[str] = []

    def generate(self) -> str:
        out: List[str] = []
        while self.pos < len(self.pat):
            piece = self._piece(out)
            if piece is not None:
                out.append(piece)
        return "".join(out)

    # ------------------------------------------------------------------

    def _piece(self, out: List[str]) -> Optional[str]:
        c = self.pat[self.pos]
        if c == "^" and self.pos == 0:
            self.pos += 1
            return None
        if c == "$" and self.pos == len(self.pat) - 1:
            self.pos += 1
            return None
        atom = self._atom()
        if self.pos < len(self.pat) and self.pat[self.pos] == "*":
            self.pos += 1
            return atom * self.rng.randint(0, 3)
        return atom

    def _atom(self) -> str:
        c = self.pat[self.pos]
        if c == "\\":
            self.pos += 1
            nxt = self.pat[self.pos]
            self.pos += 1
            if nxt == "(":
                return self._group()
            if nxt == ")":
                return ""
            if nxt.isdigit():
                idx = int(nxt) - 1
                return self.groups[idx] if idx < len(self.groups) else ""
            if nxt == "n":
                return "n"  # a literal newline would break line structure
            return nxt
        if c == "[":
            return self._bracket()
        if c == ".":
            self.pos += 1
            return self.rng.choice(_ANY_POOL.replace("\t", "").replace(",", "")
                                   if self.rng.random() < 0.7 else _ANY_POOL)
        self.pos += 1
        return c

    def _group(self) -> str:
        out: List[str] = []
        while self.pos < len(self.pat):
            if self.pat.startswith("\\)", self.pos):
                self.pos += 2
                break
            piece = self._piece(out)
            if piece is not None:
                out.append(piece)
        value = "".join(out)
        self.groups.append(value)
        return value

    def _bracket(self) -> str:
        end = self.pos + 1
        negate = False
        if end < len(self.pat) and self.pat[end] == "^":
            negate = True
            end += 1
        if end < len(self.pat) and self.pat[end] == "]":
            end += 1
        while end < len(self.pat) and self.pat[end] != "]":
            if self.pat.startswith("[:", end):
                close = self.pat.find(":]", end)
                end = close + 2 if close != -1 else end + 1
            else:
                end += 1
        body = self.pat[self.pos + 1 + (1 if negate else 0): end]
        self.pos = end + 1
        members = _expand_bracket(body)
        if negate:
            pool = [c for c in _ANY_POOL if c not in members] or ["z"]
            return self.rng.choice(pool)
        return self.rng.choice(members) if members else "a"


def _expand_bracket(body: str) -> List[str]:
    classes = {
        "[:alpha:]": string.ascii_letters, "[:digit:]": string.digits,
        "[:lower:]": string.ascii_lowercase, "[:upper:]": string.ascii_uppercase,
        "[:alnum:]": string.ascii_letters + string.digits,
        "[:punct:]": string.punctuation, "[:space:]": " \t",
    }
    for name, chars in classes.items():
        body = body.replace(name, chars)
    out: List[str] = []
    i = 0
    while i < len(body):
        if i + 2 < len(body) and body[i + 1] == "-":
            lo, hi = body[i], body[i + 2]
            if ord(lo) <= ord(hi):
                out.extend(chr(k) for k in range(ord(lo), ord(hi) + 1))
                i += 3
                continue
        out.append(body[i])
        i += 1
    return out


def examples_for_pattern(pattern: str, rng: random.Random,
                         count: int = 8) -> List[str]:
    """Generate up to ``count`` distinct example strings matching ``pattern``."""
    seen = set()
    out: List[str] = []
    for _ in range(count * 4):
        try:
            s = _Gen(pattern, rng).generate()
        except (IndexError, ValueError):
            break
        s = s.replace("\n", "")
        if s and s not in seen:
            seen.add(s)
            out.append(s)
        if len(out) >= count:
            break
    return out


def literal_tokens(pattern: str) -> List[str]:
    """Plain literal runs inside a pattern (fallback dictionary words)."""
    out: List[str] = []
    cur: List[str] = []
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c.isalnum():
            cur.append(c)
            i += 1
            continue
        if cur:
            out.append("".join(cur))
            cur = []
        i += 2 if c == "\\" else 1
    if cur:
        out.append("".join(cur))
    return [t for t in out if len(t) >= 2]
