"""The representative combiner sets ``G_rec`` and ``G_struct``
(paper Definition B.11) plus their per-combiner sufficiency predicates
``E(g, Y)`` (Table 2, implemented for the members used by the tests).
"""

from __future__ import annotations

from typing import Iterable, List

from ..dsl.ast import (
    Add,
    Back,
    Combiner,
    Concat,
    First,
    Front,
    Fuse,
    Offset,
    Op,
    Second,
    Stitch,
    Stitch2,
)
from ..dsl.semantics import del_pad, split_first, split_first_line, split_last_line
from .predicates import _EXCLUDED, Observation


def g_rec(d: str = "\n", d2: str = " ") -> List[Op]:
    """``G_rec`` with concrete delimiters (defaults: line/space)."""
    return [
        Add(),
        Concat(),
        First(),
        Second(),
        Back(d, Add()),
        Fuse(d2, Add()),
        Back(d, Fuse(d2, Add())),
        Front(d, Back(d, Fuse(d2, Add()))),
        Front(d, Concat()),
    ]


def g_struct(d: str = " ") -> List[Op]:
    """``G_struct`` with a concrete table delimiter."""
    return [
        Stitch(First()),
        Stitch2(d, Add(), First()),
        Offset(d, Add()),
    ]


def representative_combiners() -> List[Combiner]:
    return [Combiner(op) for op in g_rec() + g_struct()]


# ---------------------------------------------------------------------------
# E(g, Y) per Table 2 (the members exercised by the theorem tests)


def e_add(obs: Iterable[Observation]) -> bool:
    obs = list(obs)
    return (any(set(y1) - {"0"} for y1, _, _ in obs if y1)
            and any(set(y2) - {"0"} for _, y2, _ in obs if y2))


def e_concat(obs: Iterable[Observation]) -> bool:
    obs = list(obs)
    return any(y1 != "" for y1, _, _ in obs) and any(y2 != "" for _, y2, _ in obs)


def e_first(obs: Iterable[Observation]) -> bool:
    obs = list(obs)
    return (any(y1 != y2 for y1, y2, _ in obs)
            and any(any(c not in _EXCLUDED for c in y2) for _, y2, _ in obs))


def e_second(obs: Iterable[Observation]) -> bool:
    obs = list(obs)
    return (any(y1 != y2 for y1, y2, _ in obs)
            and any(any(c not in _EXCLUDED for c in y1) for y1, _, _ in obs))


def e_back_add(d: str, obs: Iterable[Observation]) -> bool:
    stripped: List[Observation] = []
    for y1, y2, y12 in obs:
        if y1.endswith(d) and y2.endswith(d) and y12.endswith(d):
            stripped.append((y1[:-len(d)], y2[:-len(d)], y12[:-len(d)]))
    return e_add(stripped)


def e_stitch_first(obs: Iterable[Observation]) -> bool:
    for y1, y2, _ in obs:
        if not (y1.endswith("\n") and y2.endswith("\n")):
            continue
        _, l1 = split_last_line(y1)
        l2, _ = split_first_line(y2)
        if l1 != l2 or not l1:
            continue
        _, deformatted = del_pad(l1)
        if deformatted and deformatted[0] not in _EXCLUDED \
                and l1[-1] not in _EXCLUDED:
            return True
    return False


def e_stitch2_add_first(d: str, obs: Iterable[Observation]) -> bool:
    return e_stitch_first(obs)


def e_offset_add(d: str, obs: Iterable[Observation]) -> bool:
    cond1 = False
    derived: List[Observation] = []
    for y1, y2, y12 in obs:
        if not (y1.endswith("\n") and y2.endswith("\n")):
            continue
        _, l1 = split_last_line(y1)
        l2, rest2 = split_first_line(y2)
        _, body1 = del_pad(l1)
        if body1 and body1[0] not in _EXCLUDED and l2 != "" and rest2 != "":
            l2p, _ = split_first_line(rest2)
            if l2p != "":
                cond1 = True
        h1, t1 = split_first(d, body1)
        h2, t2 = split_first(d, del_pad(l2)[1])
        if t1 is not None and t2 is not None:
            derived.append((h1, h2, y12))
    return cond1 and e_add(derived)
