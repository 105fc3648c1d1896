"""Pipeline compilation: stage modes and combiner elimination.

Turns a serial :class:`~repro.shell.pipeline.Pipeline` plus per-command
synthesis results into an execution plan:

* stages without a synthesized combiner run **sequentially**;
* stages whose only combiner is ``rerun`` and whose output is not much
  smaller than their input also run sequentially — parallelizing them
  would redo all the work in the combiner (the paper's
  ``tr -cs A-Za-z '\\n'`` case, section 2);
* the **intermediate combiner elimination** optimization (Theorem 5)
  removes the combiner of any parallel stage whose combiner is
  ``concat`` and whose successor is also parallel, letting output
  substreams feed the next stage directly — provided the stage's
  outputs are newline-terminated streams (the Theorem 5 precondition
  that ``tr -d '\\n'`` violates);
* an eliminated combiner means the substream never has to leave the
  worker that produced it, so every maximal run of eliminated stages
  *plus the stage that consumes their decomposition* is lowered to
  **one executed stage** (``_lower_chains``): one task per chunk
  runs the whole chain, and only the consumer's combiner ever sees
  the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.inputgen.preprocess import seed_synthetic_files
from ..core.synthesis.store import (
    CombinerStore,
    context_fingerprint,
    memoized_synthesize,
    synthesis_memo_key,
)
from ..core.synthesis.synthesizer import SynthesisConfig, SynthesisResult, synthesize
from ..shell.command import Command
from ..shell.pipeline import Pipeline
from ..unixsim.fused import fuse_argvs
from ..unixsim.head_tail import Head
from ..unixsim.sed_cmd import SedQuit
from .combining import KWayCombiner
from .scheduler import STATIC

PARALLEL = "parallel"
SEQUENTIAL = "sequential"

#: parallelize a rerun-only stage only when it shrinks data at least this much
RERUN_REDUCTION_THRESHOLD = 0.5


@dataclass
class StagePlan:
    """Execution decision for one executed stage.

    Usually that is one pipeline command.  A *chain* stage (see
    ``_lower_chains``) runs several: ``command`` is their
    composition, ``members`` their per-command plans in pipeline order,
    and mode / combiner / ``eliminated`` / ``synthesis`` are the last
    member's — the stage that consumes the chain's decomposition.
    """

    command: Command
    mode: str
    combiner: Optional[KWayCombiner] = None
    eliminated: bool = False
    synthesis: Optional[SynthesisResult] = None
    members: Tuple["StagePlan", ...] = ()

    @property
    def parallel(self) -> bool:
        return self.mode == PARALLEL

    def display(self) -> str:
        """The pipeline text this stage executes."""
        return " | ".join(m.command.display()
                          for m in self.members or (self,))


@dataclass
class PipelinePlan:
    """A compiled data-parallel pipeline."""

    pipeline: Pipeline
    #: the *executed* stages, in order (a chain is one entry)
    stages: List[StagePlan]
    optimized: bool
    #: chunk scheduler the plan was compiled for (``static`` or
    #: ``stealing``; the selector resolves ``auto`` via the cost model)
    scheduler: str = STATIC
    #: rewrite-engine provenance (set by the optimizer's selector when
    #: the plan came out of :func:`repro.optimizer.select_plan`)
    rewrites: int = 0
    rewrite_trace: List[str] = field(default_factory=list)

    @property
    def commands(self) -> List[StagePlan]:
        """One plan per pipeline command (chains unfolded): what the
        paper's per-stage accounting (Table 3) counts."""
        return [m for s in self.stages for m in s.members or (s,)]

    @property
    def parallelized(self) -> int:
        return sum(1 for s in self.commands if s.parallel)

    @property
    def eliminated(self) -> int:
        return sum(1 for s in self.commands if s.eliminated)

    @property
    def num_stages(self) -> int:
        return len(self.commands)

    def describe(self) -> List[str]:
        """One row per pipeline command; the rows of a chain — which
        execute as one task per chunk — are bracketed in the margin."""
        out = []
        for stage in self.stages:
            rows = stage.members or (stage,)
            margin = " " if len(rows) == 1 \
                else "┌" + "│" * (len(rows) - 2) + "└"
            for mark, s in zip(margin, rows):
                mode = s.mode
                if s.eliminated:
                    mode += " (combiner eliminated)"
                comb = s.combiner.combiner.primary.pretty() \
                    if s.combiner else "-"
                out.append(f"{mark} {s.command.display():40s} "
                           f"{mode:28s} {comb}")
        return out


def plan_stage(command: Command, result: Optional[SynthesisResult],
               rerun_threshold: float = RERUN_REDUCTION_THRESHOLD,
               reduction_ratio: Optional[float] = None) -> StagePlan:
    """Decide the execution mode of one stage.

    ``reduction_ratio`` (output/input size) preferably comes from
    profiling the real workload; the ratio observed on synthesis inputs
    is the fallback.
    """
    if result is None or not result.ok or result.combiner is None:
        return StagePlan(command, SEQUENTIAL, synthesis=result)
    kway = KWayCombiner(result.combiner, command.run)
    ratio = reduction_ratio if reduction_ratio is not None \
        else result.reduction_ratio
    if kway.is_rerun() and ratio > rerun_threshold:
        # a rerun combiner re-processes the whole stream: only worth it
        # when the command shrinks its data substantially
        return StagePlan(command, SEQUENTIAL, synthesis=result)
    return StagePlan(command, PARALLEL, combiner=kway, synthesis=result)


def prefix_limit(command) -> Optional[int]:
    """Lines after which a stage's output is fixed, or ``None``.

    ``head -n N`` and ``sed Nq`` depend only on the first ``N`` input
    lines; once a streaming run has gathered that many, upstream chunk
    production is cancelled instead of draining the whole input — which
    is why a chain never swallows such a consumer.  The optimizer's
    ``topk`` rule shares this definition of "prefix-limited", so the
    features never disagree on which stages qualify.  Accepts a
    :class:`~repro.shell.command.Command` or a bare simulated command.
    """
    sim = getattr(command, "_sim", command)
    if isinstance(sim, Head):
        return max(sim.n, 0)
    if isinstance(sim, SedQuit):
        return sim.n
    return None


def _lower_chains(stages: List[StagePlan]) -> List[StagePlan]:
    """Collapse each eliminated chain and its consumer into one stage.

    Figure 5c made physical: between ``stages[i]`` and the stage that
    consumes its decomposition no combiner runs, so nothing but the
    chunk's own data flows from one command to the next — the commands
    compose (the ``fused`` argv convention; workers and executors
    rebuild the chain from it) and each chunk is cut once, runs the
    whole chain as one task and comes back once.  The chain stage
    combines, and is or is not itself eliminated, exactly as its
    consumer was; the consumer's combiner stays bound to the consumer's
    own command, so a ``rerun`` re-runs the consumer alone.

    A prefix-limited consumer stays outside the chain: it needs the
    chunks one at a time to stop pulling early.  Subprocess-backed
    commands have no composed form and are left as they are.
    """
    out: List[StagePlan] = []
    i = 0
    while i < len(stages):
        j = i
        while j < len(stages) - 1 and stages[j].parallel \
                and stages[j].eliminated:
            j += 1
        if j > i and prefix_limit(stages[j].command) is None:
            j += 1              # stages[j] consumes the decomposition
        members = stages[i:j]
        if len(members) < 2 \
                or any(m.command.backend != "sim" for m in members):
            out.append(stages[i])
            i += 1
            continue
        last = members[-1]
        command = Command(fuse_argvs([m.command.argv for m in members]),
                          context=last.command.context)
        out.append(StagePlan(command, last.mode, last.combiner,
                             last.eliminated, last.synthesis,
                             tuple(members)))
        i = j
    return out


def trim_stream(stream: str, max_bytes: int) -> str:
    """A line-aligned prefix of ``stream`` of at most ``max_bytes``.

    The one sampling policy shared by reduction-ratio profiling and the
    optimizer's cost-model selection.
    """
    if len(stream) <= max_bytes:
        return stream
    cut = stream.rfind("\n", 0, max_bytes)
    return stream[: cut + 1] if cut != -1 else stream[:max_bytes]


def profile_stage_reductions(pipeline: Pipeline, sample_input: str,
                             max_bytes: int = 200_000) -> List[Optional[float]]:
    """Per-stage output/input size ratios on (a prefix of) real data."""
    sample_input = trim_stream(sample_input, max_bytes)
    ratios: List[Optional[float]] = []
    stream = sample_input
    for cmd in pipeline.commands:
        try:
            out = cmd.run(stream)
        except Exception:
            ratios.append(None)
            continue
        ratios.append(len(out) / len(stream) if stream else None)
        stream = out
    return ratios


def compile_pipeline(
    pipeline: Pipeline,
    results: Dict[Tuple[str, ...], SynthesisResult],
    optimize: bool = True,
    rerun_threshold: float = RERUN_REDUCTION_THRESHOLD,
    sample_input: Optional[str] = None,
    scheduler: str = STATIC,
) -> PipelinePlan:
    """Compile a serial pipeline into a parallel execution plan.

    ``results`` maps :meth:`Command.key` to synthesis outcomes —
    synthesis runs once per unique command/flag combination and is
    shared across scripts, as in the paper's evaluation.  When
    ``sample_input`` is given, per-stage data-reduction ratios for the
    rerun-profitability decision are measured on it (the paper profiles
    the real workload when deciding to keep ``tr -cs ...`` sequential).
    ``scheduler`` is stored on the plan (``auto`` is recorded as-is for
    the selector to resolve; the executor treats it as ``static``).
    """
    ratios: List[Optional[float]]
    if sample_input is not None:
        ratios = profile_stage_reductions(pipeline, sample_input)
    elif pipeline.input_file is not None \
            and pipeline.input_file in pipeline.context.fs:
        ratios = profile_stage_reductions(
            pipeline, pipeline.context.read_file(pipeline.input_file))
    else:
        ratios = [None] * len(pipeline.commands)
    stages = [plan_stage(cmd, results.get(cmd.key()), rerun_threshold,
                         reduction_ratio=ratio)
              for cmd, ratio in zip(pipeline.commands, ratios)]
    # one decision per command text: a plan is replicated as
    # {argv: result} (distrib/plans.py), so two occurrences of a command
    # cannot differ.  Where a rerun pays for one of them it runs in
    # parallel for all — the occurrence it does not pay for is the one
    # whose input an earlier stage already shrank
    parallel_keys = {s.command.key() for s in stages if s.parallel}
    stages = [s if s.parallel or s.command.key() not in parallel_keys
              else plan_stage(s.command, s.synthesis, float("inf"))
              for s in stages]
    if optimize:
        for i in range(len(stages) - 1):
            cur, nxt = stages[i], stages[i + 1]
            if (cur.parallel and cur.combiner is not None
                    and cur.combiner.is_concat()
                    and nxt.parallel
                    and cur.synthesis is not None
                    and cur.synthesis.outputs_are_streams):
                cur.eliminated = True
        stages = _lower_chains(stages)
    return PipelinePlan(pipeline=pipeline, stages=stages, optimized=optimize,
                        scheduler=scheduler)


def synthesize_pipeline(
    pipeline: Pipeline,
    config: Optional[SynthesisConfig] = None,
    cache: Optional[Dict[Tuple[str, ...], SynthesisResult]] = None,
    store: Optional["CombinerStore"] = None,
    memoize: bool = True,
) -> Dict[Tuple[str, ...], SynthesisResult]:
    """Synthesize combiners for every unique command in a pipeline.

    Three reuse layers, innermost first: the per-call ``cache`` dict
    (shared across scripts, as in the paper's evaluation), the
    process-wide memo (``memoize=True``; keyed by argv + backend +
    config + context so hits are exact), and an optional persistent
    ``store`` (consulted on memo misses and updated + saved with fresh
    results).  ``memoize=False`` bypasses the in-memory memo but still
    honors and fills a given ``store``.
    """
    results: Dict[Tuple[str, ...], SynthesisResult] = cache if cache is not None else {}
    pending = [cmd for cmd in pipeline.commands
               if cmd.key() not in results]
    memo_keys: Dict[Tuple[str, ...], tuple] = {}
    if memoize and pending:
        # fingerprint each to-be-synthesized stage against the pristine
        # context before any synthesis runs: probing leaves artifacts in
        # the shared virtual fs, and a stage's memo identity must not
        # depend on earlier hits/misses; all stages share one context,
        # so hash it once
        context_fp = context_fingerprint(pending[0])
        memo_keys = {cmd.key(): synthesis_memo_key(cmd, config,
                                                   context_fp=context_fp)
                     for cmd in pending}
    store_dirty = False
    for cmd in pipeline.commands:
        key = cmd.key()
        if key in results:
            continue
        if memoize:
            missing_from_store = store is not None and key not in store
            results[key] = memoized_synthesize(cmd, config, store=store,
                                               key=memo_keys[key])
            # memoized_synthesize fills the store on misses and
            # backfills it on memo hits, so this is exactly "did the
            # store gain an entry"
            store_dirty = store_dirty or missing_from_store
        elif store is not None:
            prior = store.get(key)
            if prior is None:
                prior = synthesize(cmd, config)
                store.put(key, prior)
                store_dirty = True
            else:
                # a store hit skips synthesis; replicate its one context
                # side effect so warm and cold compiles run identically
                seed_synthetic_files(cmd.context)
            results[key] = prior
        else:
            results[key] = synthesize(cmd, config)
    if store is not None and store_dirty:
        store.save()
    return results
