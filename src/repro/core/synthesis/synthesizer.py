"""The combiner synthesizer — paper Algorithm 1 plus the acceptance gate.

``synthesize(command)`` performs rounds of candidate filtering over
observations produced by the shape-gradient input generator, stopping
when either no candidates remain (*no combiner exists in the DSL*) or
several rounds make no progress.  Surviving candidates are accepted
only when the collected observations satisfy the sufficiency
predicates (``E_rec`` / ``E_struct``), reproducing the paper's failure
modes in Table 9.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...shell.command import Command
from ..dsl.ast import Combiner, is_recop, is_runop, is_structop
from ..dsl.enumeration import (
    DEFAULT_MAX_SIZE,
    all_candidates,
    search_space_counts,
)
from ..dsl.semantics import EvalEnv
from ..inputgen.gradient import get_effective_inputs
from ..inputgen.preprocess import CommandProfile, build_profile
from ..inputgen.shapes import random_shape
from ..theory.predicates import (
    Observation,
    e_rec,
    e_struct,
    nonempty_outputs_observed,
)
from .candidates import filter_candidates
from .composite import CompositeCombiner, select_priority_class

#: terminal statuses of a synthesis run
OK = "ok"
NO_COMBINER = "no-combiner"            # C_r became empty (Table 9 rows 2-8)
INSUFFICIENT_INPUTS = "insufficient-inputs"  # gate failed (Table 9 row 1)
COMMAND_BROKEN = "command-broken"      # all probe inputs failed


@dataclass
class SynthesisConfig:
    """Tunable knobs of Algorithm 1 / Algorithm 2."""

    max_size: int = DEFAULT_MAX_SIZE
    max_rounds: int = 12
    patience: int = 3          # no-progress rounds before stopping
    gradient_steps: int = 2    # M in Algorithm 2
    pairs_per_shape: int = 2
    seed: int = 0


@dataclass
class SynthesisResult:
    """Outcome of synthesizing a combiner for one command."""

    command_display: str
    status: str
    survivors: List[Combiner] = field(default_factory=list)
    combiner: Optional[CompositeCombiner] = None
    reason: str = ""
    search_space: Tuple[int, int, int] = (0, 0, 0)
    delims: Tuple[str, ...] = ("\n",)
    rounds: int = 0
    executions: int = 0
    observation_count: int = 0
    elapsed: float = 0.0
    reduction_ratio: float = 1.0
    input_mode: str = "plain"
    #: every observed output ended with a newline — the Theorem 5
    #: precondition for intermediate combiner elimination
    outputs_are_streams: bool = True

    @property
    def ok(self) -> bool:
        return self.status == OK

    def survivor_class(self) -> str:
        if any(is_recop(c) for c in self.survivors):
            return "RecOp"
        if any(is_structop(c) for c in self.survivors):
            return "StructOp"
        if any(is_runop(c) for c in self.survivors):
            return "RunOp"
        return "none"

    def pretty_survivors(self) -> List[str]:
        chosen = select_priority_class(self.survivors)
        return [c.pretty() for c in sorted(chosen, key=lambda c: c.size())]


def synthesize(command: Command,
               config: Optional[SynthesisConfig] = None,
               profile: Optional[CommandProfile] = None) -> SynthesisResult:
    """Synthesize a combiner for ``command`` (Algorithm 1)."""
    config = config or SynthesisConfig()
    # seed 0 means "per command", from a digest that is the same in
    # every process (``hash`` of a str is randomized per interpreter)
    rng = random.Random(config.seed
                        or zlib.crc32(command.display().encode("utf-8")))
    start = time.perf_counter()
    exec_base = command.executions

    if profile is None:
        profile = build_profile(command, rng)
    result = SynthesisResult(command_display=command.display(), status=OK,
                             input_mode=profile.input_mode)
    if profile.broken:
        result.status = COMMAND_BROKEN
        result.reason = profile.broken_reason
        result.elapsed = time.perf_counter() - start
        return result

    candidates = all_candidates(profile.delims, profile.merge_flags,
                                config.max_size)
    result.search_space = search_space_counts(profile.delims, config.max_size)
    result.delims = profile.delims
    env = EvalEnv(run_command=profile.run)

    all_observations: List[Observation] = []
    stale_rounds = 0
    for round_idx in range(1, config.max_rounds + 1):
        result.rounds = round_idx
        shape = random_shape(rng, line_hint=profile.line_hint)
        observations = get_effective_inputs(
            profile, candidates, shape, rng, env,
            steps=config.gradient_steps,
            pairs_per_shape=config.pairs_per_shape)
        all_observations.extend(observations)
        before = len(candidates)
        candidates = filter_candidates(candidates, observations, env)
        if not candidates:
            result.status = NO_COMBINER
            result.reason = ("no combiner in the DSL satisfies "
                             "f(x1 ++ x2) = g(f(x1), f(x2)) "
                             "on the generated inputs")
            break
        stale_rounds = stale_rounds + 1 if len(candidates) == before else 0
        if stale_rounds >= config.patience:
            break

    result.observation_count = len(all_observations)
    result.executions = command.executions - exec_base
    result.reduction_ratio = profile.reduction_ratio()
    result.outputs_are_streams = all(
        y == "" or y.endswith("\n")
        for y1, y2, y12 in all_observations for y in (y1, y2, y12))

    if result.status == OK:
        _accept(result, candidates, all_observations)
    result.elapsed = time.perf_counter() - start
    return result


def _accept(result: SynthesisResult, survivors: List[Combiner],
            observations: List[Observation]) -> None:
    """Apply the sufficiency gate and build the composite combiner."""
    result.survivors = survivors
    has_rec = any(is_recop(c) for c in survivors)
    has_struct = any(is_structop(c) for c in survivors)
    if has_rec:
        sufficient = e_rec(observations)
    elif has_struct:
        sufficient = e_struct(observations)
    else:
        sufficient = nonempty_outputs_observed(observations)
    if not sufficient:
        result.status = INSUFFICIENT_INPUTS
        result.reason = ("input generation did not produce observations "
                         "sufficient to pin down a combiner "
                         "(outputs too uniform or empty)")
        result.combiner = None
        return
    result.combiner = CompositeCombiner(select_priority_class(survivors))
