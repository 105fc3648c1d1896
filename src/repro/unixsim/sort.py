"""Simulated GNU ``sort`` including ``-m`` merge used by combiners.

Supports the flag population of the benchmark suites: plain sort,
``-n``, ``-r``, ``-f``, ``-u``, ``-k1n``-style single-key specs,
combinations (``-rn``, ``-nr``, ``-k1n``), and ``-m`` for merging
pre-sorted streams (the ``merge <flags>`` combiner is implemented as
``sort -m <flags>``, paper section 3.5).  Comparison follows the C
locale (bytewise), matching the paper's ``LC_COLLATE=C`` setup.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .base import ExecContext, SimCommand, UsageError, lines_of, unlines

_NUM_RE = re.compile(r"^[ \t]*(-?[0-9]*\.?[0-9]+)")


def _numeric_value(s: str) -> float:
    m = _NUM_RE.match(s)
    return float(m.group(1)) if m else 0.0


@dataclass(frozen=True)
class SortSpec:
    """Parsed sort options; shared by ``sort`` and the merge combiner."""

    numeric: bool = False
    reverse: bool = False
    fold: bool = False
    unique: bool = False
    #: 1-based field index for a ``-kN`` key, or ``None`` for whole line.
    key_field: Optional[int] = None
    merge: bool = False
    #: ``-t`` field separator; ``None`` means whitespace runs.
    separator: Optional[str] = None

    def key_text(self, line: str) -> str:
        if self.key_field is None:
            return line
        fields = line.split(self.separator) if self.separator \
            else line.split()
        idx = self.key_field - 1
        # GNU keys run "from field N to end of line" when no end field is
        # given (-kN == -kN, not -kN,N); the benchmarks only use -k1n where
        # the distinction is invisible for numeric comparison.
        return " ".join(fields[idx:]) if idx < len(fields) else ""

    def key(self, line: str):
        text = self.key_text(line)
        if self.numeric:
            return _numeric_value(text)
        if self.fold:
            return text.upper()
        return text

    def sort_key(self, line: str) -> Tuple:
        """Primary key plus GNU's whole-line last-resort comparison."""
        return (self.key(line), line)

    @property
    def _plain(self) -> bool:
        """Whole-line bytewise comparison — no key function needed."""
        return not (self.numeric or self.fold or self.key_field is not None)

    def sort_lines(self, lines: List[str]) -> List[str]:
        if self._plain:
            out = sorted(lines, reverse=self.reverse)
        else:
            out = sorted(lines, key=self.sort_key, reverse=self.reverse)
        if self.unique:
            out = self._dedupe(out)
        return out

    def merge_lines(self, streams: List[List[str]]) -> List[str]:
        # Timsort detects the pre-sorted runs, so sorting the
        # concatenation is a near-linear C-speed merge; stability keeps
        # equal lines in stream order, matching heapq.merge semantics.
        combined: List[str] = []
        for s in streams:
            combined.extend(s)
        return self.sort_lines(combined)

    def _dedupe(self, ordered: List[str]) -> List[str]:
        out: List[str] = []
        last_key = object()
        for line in ordered:
            k = self.key(line)
            if k != last_key:
                out.append(line)
                last_key = k
        return out

    def flags_string(self) -> str:
        """Render back to a flags string (used in combiner pretty-printing)."""
        s = ""
        if self.key_field is not None:
            s += f"k{self.key_field}"
            if self.numeric:
                s += "n"
        elif self.numeric:
            s += "n"
        if self.reverse:
            s += "r"
        if self.fold:
            s += "f"
        if self.unique:
            s += "u"
        return f"-{s}" if s else ""


class Sort(SimCommand):
    def __init__(self, spec: SortSpec, inputs: List[str] = ()) -> None:
        super().__init__()
        self.spec = spec
        self.inputs = list(inputs)

    def run(self, data: str, ctx: ExecContext = None) -> str:  # noqa: D102
        if self.spec.merge:
            streams = [lines_of(data)] if data or not self.inputs else []
            if self.inputs and ctx is not None:
                streams.extend(lines_of(ctx.read_file(f)) for f in self.inputs)
            return unlines(self.spec.merge_lines(streams))
        return unlines(self.spec.sort_lines(lines_of(data)))


_KEY_RE = re.compile(r"^(\d+)(?:,(\d+))?([bdfginrM]*)$")


def split_sort_args(args: List[str]) -> Tuple[List[str], List[str]]:
    """Split sort-style arguments into ``(flags, positional)``.

    Keeps the arguments of ``-t SEP`` / ``-k SPEC`` attached to their
    flags — shared by ``sort``/``topk`` parsing and the synthesis
    preprocessor's merge-flag extraction, so all three agree on which
    tokens belong to an option.
    """
    flags: List[str] = []
    positional: List[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("-t", "-k") and i + 1 < len(args):
            flags.extend(args[i : i + 2])
            i += 2
            continue
        if arg.startswith("-") and arg != "-":
            flags.append(arg)
        else:
            positional.append(arg)
        i += 1
    return flags, positional


def parse_sort_flags(argv_flags: List[str]) -> SortSpec:
    """Parse sort option strings (without the leading command name)."""
    numeric = reverse = fold = unique = merge = False
    key_field: Optional[int] = None
    separator: Optional[str] = None
    i = 0
    while i < len(argv_flags):
        arg = argv_flags[i]
        if arg.startswith("--parallel"):
            i += 1
            continue
        if arg in ("-m", "--merge"):
            merge = True
            i += 1
            continue
        if arg == "-t":
            i += 1
            separator = argv_flags[i]
            i += 1
            continue
        if arg.startswith("-t") and len(arg) == 3:
            separator = arg[2:]
            i += 1
            continue
        if arg.startswith("-k"):
            keyspec = arg[2:]
            if not keyspec:
                i += 1
                keyspec = argv_flags[i]
            m = _KEY_RE.match(keyspec)
            if not m:
                raise UsageError(f"sort: invalid key spec {keyspec!r}")
            key_field = int(m.group(1))
            mods = m.group(3) or ""
            numeric = numeric or "n" in mods
            reverse = reverse or "r" in mods
            fold = fold or "f" in mods
            i += 1
            continue
        if arg.startswith("-") and arg != "-":
            for f in arg[1:]:
                if f == "n":
                    numeric = True
                elif f == "r":
                    reverse = True
                elif f == "f":
                    fold = True
                elif f == "u":
                    unique = True
                elif f == "m":
                    merge = True
                elif f in ("b", "s", "d", "g"):
                    pass  # cosmetic for our key model
                else:
                    raise UsageError(f"sort: unsupported flag -{f}")
            i += 1
            continue
        # positional: an input file (only meaningful with -m)
        break
    return SortSpec(numeric=numeric, reverse=reverse, fold=fold,
                    unique=unique, key_field=key_field, merge=merge,
                    separator=separator)


def parse_sort(argv: List[str]) -> Sort:
    flags, positional = split_sort_args(argv[1:])
    spec = parse_sort_flags(flags)
    inputs = [p for p in positional if p != "-"]
    cmd = Sort(spec, inputs=inputs)
    cmd.argv = list(argv)
    return cmd


def merge_streams(flags: str, streams: List[str]) -> str:
    """k-way merge of pre-sorted streams — the ``merge <flags>`` combiner."""
    spec = parse_sort_flags(flags.split()) if flags else SortSpec()
    line_lists = [lines_of(s) for s in streams]
    return unlines(spec.merge_lines(line_lists))
