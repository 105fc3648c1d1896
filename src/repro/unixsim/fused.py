"""Simulated ``fused``: one stage applying several per-line stages in turn.

``fused 'grep x' 'cut -c 1-2'`` behaves exactly like the pipeline
``grep x | cut -c 1-2`` but as a single black-box stage — each argv
element after the command name is one sub-stage, tokenized with
:func:`shlex.split` and built through the normal registry.

Two producers.  The optimizer's stage-fusion rule only fuses
*line-local* stages (each output line depends on exactly one input
line), so the composition keeps the ``concat`` combiner and is
synthesized like any other command.  The planner composes an
eliminated-combiner chain with the stage that consumes its
decomposition (any commands; the consumer's combiner applies), so a
chunk is one task per chain instead of one per stage — that ``fused``
is never synthesized.
"""

from __future__ import annotations

import shlex
from typing import List

from .base import ExecContext, SimCommand, UsageError


class Fused(SimCommand):
    def __init__(self, stages: List[SimCommand]) -> None:
        super().__init__()
        if len(stages) < 2:
            raise UsageError("fused: need at least two sub-stages")
        self.stages = stages

    def run(self, data: str, ctx: ExecContext = None) -> str:  # noqa: D102
        for stage in self.stages:
            data = stage.run(data, ctx)
        return data


def fuse_argvs(argvs: List[List[str]]) -> List[str]:
    """The ``fused`` command line running ``argvs`` in turn.

    A member that is itself ``fused`` contributes its sub-stages, so the
    result is always flat.  Inverse of :func:`fused_sub_argvs`.
    """
    subs: List[str] = []
    for argv in argvs:
        if argv[0] == "fused":
            subs.extend(argv[1:])
        else:
            subs.append(" ".join(shlex.quote(t) for t in argv))
    return ["fused"] + subs


def fused_sub_argvs(argv: List[str]) -> List[List[str]]:
    """The sub-stage argvs encoded in a ``fused`` command line."""
    subs: List[List[str]] = []
    for text in argv[1:]:
        try:
            tokens = shlex.split(text, posix=True)
        except ValueError as exc:
            raise UsageError(f"fused: cannot tokenize {text!r}: {exc}") from exc
        if not tokens:
            raise UsageError("fused: empty sub-stage")
        subs.append(tokens)
    return subs


def parse_fused(argv: List[str]) -> Fused:
    from .registry import build

    cmd = Fused([build(sub) for sub in fused_sub_argvs(argv)])
    cmd.argv = list(argv)
    return cmd
