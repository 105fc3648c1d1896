"""The rewrite-rule catalog: semantics-justified pipeline rewrites.

Every rule pairs a *pattern* over canonicalized stage argvs with a
**legality predicate** derived from the simulated commands' semantics
(:mod:`repro.unixsim`) — a rule may only fire when the rewritten
pipeline is provably byte-identical to the original on every input.
The differential harness (``tests/optimizer/test_equivalence.py``)
re-checks this over the whole workloads corpus.

Catalog (legality notes inline):

``drop-cat``
    A mid-pipeline ``cat`` with no file arguments passes stdin through
    unchanged — drop it.
``drop-noop-sort``
    ``sort X | C`` → ``C`` when ``sort X`` is a pure permutation (no
    ``-u``, no ``-m``, no file inputs) and ``C``'s output depends only
    on the *multiset* of its input lines (``sort``, ``topk``, ``wc``,
    counting ``grep -c``).
``sort-uniq-fuse``
    ``sort X | uniq`` → ``sort Xu`` when the sort key is the whole
    line (no ``-n``/``-f``/``-k``): then ``-u`` dedups exactly the
    adjacent-equal lines ``uniq`` would remove.
``drop-dup-uniq``
    ``uniq [-c] | uniq`` → ``uniq [-c]``: adjacent output lines of
    ``uniq`` are never equal (consecutive groups differ in their line
    text), so a second plain ``uniq`` is the identity.
``grep-pushdown``
    ``sort X | grep P`` → ``grep P | sort X`` for selecting ``grep``
    (no ``-c``): filtering commutes with reordering — sorting then
    selecting leaves the selected lines in sorted order, which equals
    sorting the selected lines.  With ``sort -u`` this additionally
    needs the whole-line key (dedup of *identical* lines commutes with
    a per-line filter; dedup by a coarser key does not).
``topk``
    ``sort X | head -n N`` (or ``sed Nq``) → ``topk N X``: one stage
    with an exact ``rerun`` combiner (every global top-``N`` line is in
    its chunk's top ``N``), which the planner parallelizes — k-way
    top-k instead of a full sort followed by a sequential head.
``fuse-per-line``
    Two adjacent *line-local* stages → one ``fused`` stage.  A stage
    is line-local when each output line depends on exactly one input
    line (selecting ``grep``, ``sed s///``, ``cut``, ``rev``, and
    ``tr`` whose sets neither translate/delete/squeeze across line
    boundaries); the composition then still has the ``concat``
    combiner, and one pass replaces two split/queue boundaries.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..unixsim import build
from ..unixsim.cut import CutChars, CutFields
from ..unixsim.fused import Fused, fuse_argvs
from ..unixsim.grep_cmd import Grep
from ..unixsim.misc import Cat, Rev
from ..unixsim.sed_cmd import SedSubstitute
from ..unixsim.sort import Sort
from ..unixsim.topk import TopK
from ..unixsim.tr import Tr
from ..unixsim.wc import Wc

Argv = List[str]
#: (index, stages consumed, replacement argvs)
Match = Tuple[int, int, List[Argv]]


def _build(argv: Argv):
    try:
        return build(list(argv))
    except Exception:  # unparsable stage: the rule simply does not match
        return None


def _plain_sort(argv: Argv) -> Optional[Sort]:
    """The stage as a rewritable ``sort``: no merge, no file inputs."""
    if not argv or argv[0] != "sort":
        return None
    cmd = _build(argv)
    if isinstance(cmd, Sort) and not cmd.spec.merge and not cmd.inputs:
        return cmd
    return None


def _prefix_n(argv: Argv) -> Optional[int]:
    """Lines kept by a prefix-limiting stage (``head -n N``, ``sed Nq``).

    Delegates to the streaming engine's :func:`prefix_limit` so the
    ``topk`` rule and early-exit agree on what "prefix-limited" means.
    """
    from ..parallel.streaming import prefix_limit

    cmd = _build(argv)
    return prefix_limit(cmd) if cmd is not None else None


def _order_insensitive(argv: Argv) -> bool:
    """Output depends only on the multiset of input lines."""
    cmd = _build(argv)
    if isinstance(cmd, (Sort, TopK, Wc)):
        return True
    if isinstance(cmd, Grep) and cmd.count:
        return True
    return False


def _line_local(argv: Argv) -> bool:
    """Each output line is a function of exactly one input line.

    Such stages compose into a single pass whose combiner is still
    ``concat`` over line-aligned chunks.
    """
    cmd = _build(argv)
    if isinstance(cmd, Grep):
        return not cmd.count
    if isinstance(cmd, (SedSubstitute, CutChars, CutFields, Rev)):
        return True
    if isinstance(cmd, Tr):
        # legal iff no set crosses line boundaries: translating '\n'
        # away would merge lines across a chunk edge, and squeezing a
        # set containing '\n' would collapse runs spanning chunks
        if cmd.squeeze_set is not None and "\n" in cmd.squeeze_set:
            return False
        if cmd.delete:
            return "\n" not in cmd.set1_members
        if cmd.translate_map is not None:
            return "\n" not in cmd.translate_map
        return True  # pure squeeze with '\n' excluded above
    if isinstance(cmd, Fused):
        return True  # only ever built from line-local members
    return False


class Rule:
    """One rewrite rule: a scanner yielding legal match sites."""

    name: str = ""
    description: str = ""

    def scan(self, argvs: List[Argv]) -> Iterator[Match]:
        raise NotImplementedError


class DropCat(Rule):
    name = "drop-cat"
    description = "remove a pass-through `cat` stage"

    def scan(self, argvs: List[Argv]) -> Iterator[Match]:
        for i, argv in enumerate(argvs):
            if argv and argv[0] == "cat":
                cmd = _build(argv)
                # `cat` / `cat -` pass stdin through; `cat - -` would
                # duplicate it and `cat FILE` reads the filesystem
                if isinstance(cmd, Cat) and cmd.files in ([], ["-"]):
                    yield (i, 1, [])


class DropNoopSort(Rule):
    name = "drop-noop-sort"
    description = "remove a reordering sort feeding an order-insensitive stage"

    def scan(self, argvs: List[Argv]) -> Iterator[Match]:
        for i in range(len(argvs) - 1):
            cmd = _plain_sort(argvs[i])
            if cmd is not None and not cmd.spec.unique \
                    and _order_insensitive(argvs[i + 1]):
                yield (i, 1, [])


class SortUniqFuse(Rule):
    name = "sort-uniq-fuse"
    description = "fold a following plain `uniq` into `sort -u`"

    def scan(self, argvs: List[Argv]) -> Iterator[Match]:
        from .canonical import sort_spec_argv

        for i in range(len(argvs) - 1):
            if argvs[i + 1] != ["uniq"]:
                continue
            cmd = _plain_sort(argvs[i])
            # whole-line comparison only: with -n/-f/-k the -u dedup key
            # is coarser than uniq's whole-line equality
            if cmd is not None and cmd.spec._plain:
                spec = cmd.spec
                if not spec.unique:
                    import dataclasses

                    spec = dataclasses.replace(spec, unique=True)
                yield (i, 2, [["sort"] + sort_spec_argv(spec)])


class DropDupUniq(Rule):
    name = "drop-dup-uniq"
    description = "remove a plain `uniq` directly after another `uniq`"

    def scan(self, argvs: List[Argv]) -> Iterator[Match]:
        for i in range(len(argvs) - 1):
            if argvs[i] and argvs[i][0] == "uniq" \
                    and argvs[i + 1] == ["uniq"]:
                yield (i + 1, 1, [])


class GrepPushdown(Rule):
    name = "grep-pushdown"
    description = "filter before sorting instead of after"

    def scan(self, argvs: List[Argv]) -> Iterator[Match]:
        for i in range(len(argvs) - 1):
            sort_cmd = _plain_sort(argvs[i])
            if sort_cmd is None:
                continue
            if sort_cmd.spec.unique and not sort_cmd.spec._plain:
                continue
            grep_cmd = _build(argvs[i + 1])
            if isinstance(grep_cmd, Grep) and not grep_cmd.count:
                yield (i, 2, [list(argvs[i + 1]), list(argvs[i])])


class TopKRule(Rule):
    name = "topk"
    description = "turn `sort | head -n N` into a parallelizable k-way top-k"

    def scan(self, argvs: List[Argv]) -> Iterator[Match]:
        from .canonical import sort_spec_argv

        for i in range(len(argvs) - 1):
            cmd = _plain_sort(argvs[i])
            if cmd is None:
                continue
            n = _prefix_n(argvs[i + 1])
            if n is not None:
                yield (i, 2, [["topk", str(n)] + sort_spec_argv(cmd.spec)])


class FusePerLine(Rule):
    name = "fuse-per-line"
    description = "fuse adjacent line-local stages into one pass"

    def scan(self, argvs: List[Argv]) -> Iterator[Match]:
        for i in range(len(argvs) - 1):
            a, b = argvs[i], argvs[i + 1]
            if _line_local(a) and _line_local(b):
                yield (i, 2, [fuse_argvs([a, b])])


#: catalog order is also the engine's tie-break preference
RULES: Tuple[Rule, ...] = (
    DropCat(),
    DropNoopSort(),
    SortUniqFuse(),
    DropDupUniq(),
    GrepPushdown(),
    TopKRule(),
    FusePerLine(),
)
