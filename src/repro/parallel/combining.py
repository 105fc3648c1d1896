"""k-way application of synthesized combiners (paper section 3.5,
*Combining Multiple Substreams*).

Synthesis produces binary combiners; parallel execution produces ``k``
output substreams.  Three combiners get k-way fast paths exactly as the
paper describes — ``concat`` is ``cat $*``, ``merge <flags>`` is
``sort -m <flags> $*``, and ``rerun`` concatenates all substreams and
reruns the command once.  Every other combiner is applied pairwise
left-to-right until one substream remains.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

from ..core.dsl.ast import Combiner, Concat, Merge, Rerun
from ..core.dsl.semantics import EvalEnv
from ..core.synthesis.composite import CompositeCombiner
from ..unixsim.sort import merge_streams


class KWayCombiner:
    """Applies a synthesized (possibly composite) combiner to k substreams."""

    def __init__(self, combiner: CompositeCombiner,
                 run_command: Optional[Callable[[str], str]] = None) -> None:
        self.combiner = combiner
        #: the command ``rerun`` re-runs.  The planner binds it: a chain
        #: stage's combiner is its *consumer's*, so the ``env`` a caller
        #: builds from the executed stage's command would re-run the
        #: whole chain
        self.run_command = run_command

    # -- classification ------------------------------------------------------

    @property
    def primary(self) -> Combiner:
        return self.combiner.primary

    def is_concat(self) -> bool:
        """Plain order-preserving concatenation (the Theorem 5 shape).

        Deliberately *false* for the swapped form ``(concat b a)``
        (synthesized for ``tac``): eliminating such a combiner would
        feed substreams downstream in the wrong order, and the
        oversplit fast paths assume chunk order survives combining.
        """
        c = self.primary
        return isinstance(c.op, Concat) and not c.swapped

    def is_merge(self) -> bool:
        return isinstance(self.primary.op, Merge)

    def is_rerun(self) -> bool:
        return isinstance(self.primary.op, Rerun)

    # -- application ---------------------------------------------------------

    def combine(self, substreams: Sequence[str], env: EvalEnv) -> str:
        streams: List[str] = list(substreams)
        if self.run_command is not None:
            env = dataclasses.replace(env, run_command=self.run_command)
        if not streams:
            return ""
        if len(streams) == 1:
            return streams[0]
        c = self.primary
        if isinstance(c.op, Concat):
            # the swapped form joins right-to-left: with contiguous
            # input chunks x1..xk, tac-like commands satisfy
            # f(x1 + x2) = f(x2) + f(x1)
            return "".join(streams[::-1] if c.swapped else streams)
        if isinstance(c.op, Merge):
            return merge_streams(c.op.flags, streams)
        if isinstance(c.op, Rerun):
            if env.run_command is None:
                raise ValueError("rerun combiner needs a bound command")
            if c.swapped:
                streams = streams[::-1]
            return env.run_command("".join(streams))
        # an empty substream is the identity of every stream combiner:
        # the commands that reach the pairwise fold (uniq-style stitch
        # and fold combiners) produce "" only for "" input, so the
        # combined result is the other operand unchanged.  Stitch
        # members are *inapplicable* to empty operands (no boundary
        # line to merge), so without this the fold would crash on any
        # chunk whose upstream output was empty — e.g. a grep that
        # matched nothing in one chunk (fuzz-surfaced).
        acc = streams[0]
        for nxt in streams[1:]:
            if not nxt:
                continue
            if not acc:
                acc = nxt
                continue
            acc = self.combiner.apply(acc, nxt, env)
        return acc
