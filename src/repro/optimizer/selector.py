"""Cost-based plan selection over the rewrite candidates.

Every candidate is synthesized (through the shared cache/memo/store —
commands common to several candidates are synthesized once), compiled,
and priced with the measured cost model
(:func:`repro.evaluation.costmodel.simulate_plan`) on a bounded,
line-aligned sample of the pipeline's real input.  The plan the model
predicts fastest wins; ties go to the earliest candidate, i.e. the
unrewritten original.

Without input data the model has nothing to measure, so a structural
proxy is used instead: sequential stages cost a full unit, parallel
stages ``1/k``, and every stage adds a small constant (favoring fused
plans) — the same preference order the measured model produces on
uniform data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.synthesis.store import CombinerStore
from ..core.synthesis.synthesizer import SynthesisConfig, SynthesisResult
from ..parallel.planner import (
    PipelinePlan,
    compile_pipeline,
    synthesize_pipeline,
    trim_stream,
)
from ..parallel.scheduler import AUTO, STATIC, STEALING
from ..shell.pipeline import Pipeline
from .engine import (
    Candidate,
    MAX_CANDIDATES,
    MAX_DEPTH,
    enumerate_candidates,
)

#: cap on the sample the cost model measures candidates against
SAMPLE_BYTES = 128 * 1024

#: parallelism degree plans are priced at (a *selection* constant, not
#: a runtime knob: the chosen plan still runs at whatever ``k`` the
#: caller passes to :class:`ParallelPipeline`)
REFERENCE_K = 4

CostFn = Callable[[PipelinePlan, Candidate], float]


@dataclass
class PipelineOptimization:
    """What the optimizer did to one pipeline (the rewrite trace)."""

    original: str
    chosen: str
    steps: List[str] = field(default_factory=list)
    candidates: int = 1
    #: chunk scheduler the winning plan was priced with
    scheduler: str = STATIC
    #: (canonical render, modeled seconds) per costed candidate; under
    #: ``auto`` scheduling each candidate appears once per scheduler,
    #: the stealing row suffixed ``" [stealing]"``
    costs: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def rewrites(self) -> int:
        return len(self.steps)

    def trace_lines(self) -> List[str]:
        if not self.steps:
            return [f"no profitable rewrite ({self.candidates} candidate"
                    f"{'s' if self.candidates != 1 else ''} considered)"]
        return self.steps + [f"chosen: {self.chosen}"]


def trim_sample(stream: str, max_bytes: int = SAMPLE_BYTES) -> str:
    """A line-aligned prefix of ``stream`` of at most ``max_bytes``."""
    return trim_stream(stream, max_bytes)


def stratified_sample(stream: str, max_bytes: int = SAMPLE_BYTES) -> str:
    """Line-aligned slices from the start, middle, and end of ``stream``.

    A prefix sample systematically misses cost-per-byte skew that lives
    later in the stream — exactly what the static-vs-stealing scheduler
    decision needs to see — so auto-derived selection samples three
    evenly spaced regions instead of the head.
    """
    if len(stream) <= max_bytes:
        return stream
    per = max(1, max_bytes // 3)
    n = len(stream)
    parts = []
    for i in range(3):
        start = (n - per) * i // 2
        if start > 0:
            nl = stream.find("\n", start)
            if nl == -1 or nl + 1 >= n:
                continue
            start = nl + 1
        parts.append(trim_stream(stream[start:], per))
    return "".join(parts) if parts else trim_stream(stream, max_bytes)


def _structural_cost(plan: PipelinePlan, k: int) -> float:
    cost = 0.05 * plan.num_stages
    for stage in plan.stages:
        cost += (1.0 / max(k, 1)) if stage.parallel else 1.0
    return cost


def select_plan(
    pipeline: Pipeline,
    k: int = REFERENCE_K,
    config: Optional[SynthesisConfig] = None,
    cache: Optional[Dict[Tuple[str, ...], SynthesisResult]] = None,
    store: Optional[CombinerStore] = None,
    optimize: bool = True,
    sample: Optional[str] = None,
    max_depth: int = MAX_DEPTH,
    max_candidates: int = MAX_CANDIDATES,
    cost_fn: Optional[CostFn] = None,
    cost_repeats: int = 1,
    scheduler: str = AUTO,
) -> Tuple[PipelinePlan, PipelineOptimization]:
    """Rewrite, synthesize, compile, and pick the cheapest plan.

    ``optimize`` here is the *plan-level* flag (combiner elimination),
    passed through to :func:`compile_pipeline`.  ``cost_fn`` overrides
    the pricing (tests inject deterministic costs); ``cost_repeats``
    prices each candidate best-of-``n`` (measurement harnesses pass
    more than 1 to suppress timing noise).  The chunk ``scheduler`` is
    a plan attribute: ``auto`` (default) prices every candidate under
    both ``static`` and ``stealing`` placement and the winner is
    stamped on the chosen plan — static wins on uniform or tiny
    samples (no per-task overhead), stealing on skewed ones (greedy
    placement of the finer decomposition beats one-chunk-per-worker).
    The chosen :class:`PipelinePlan` carries the applied rewrite count
    and trace in ``plan.rewrites`` / ``plan.rewrite_trace``.
    """
    cache = cache if cache is not None else {}
    candidates = enumerate_candidates(pipeline, max_depth=max_depth,
                                      max_candidates=max_candidates)
    pinned = STATIC if scheduler == AUTO else scheduler
    optimization = PipelineOptimization(
        original=candidates[0].render, chosen=candidates[0].render,
        candidates=len(candidates), scheduler=pinned)

    if sample is None:
        try:
            sample = stratified_sample(pipeline._initial_stream(None))
        except Exception:
            # input data not available at compile time (e.g. `explain`
            # on a pipeline whose file arrives at run()); fall back to
            # the structural cost instead of failing compilation
            sample = ""
    use_model = bool(sample) and cost_fn is None
    schedulers: Tuple[str, ...] = (pinned,)
    if scheduler == AUTO and use_model:
        # listed static-first so exact ties keep the cheaper machinery
        schedulers = (STATIC, STEALING)

    if len(candidates) == 1 and len(schedulers) == 1:
        # nothing to choose between: skip the cost model entirely
        root = candidates[0].pipeline
        synthesize_pipeline(root, config=config, cache=cache, store=store)
        plan = compile_pipeline(root, cache, optimize=optimize,
                                sample_input=sample if sample else None,
                                scheduler=pinned)
        return plan, optimization

    best_plan: Optional[PipelinePlan] = None
    best_cost = float("inf")
    best: Optional[Candidate] = None
    for candidate in candidates:
        synthesize_pipeline(candidate.pipeline, config=config, cache=cache,
                            store=store)
        plan = compile_pipeline(candidate.pipeline, cache, optimize=optimize,
                                sample_input=sample if sample else None,
                                scheduler=pinned)
        if cost_fn is not None:
            cost = cost_fn(plan, candidate)
            optimization.costs.append((candidate.render, cost))
            if cost < best_cost:
                best_plan, best_cost, best = plan, cost, candidate
            continue
        for sched in schedulers:
            if use_model:
                from ..evaluation.costmodel import simulate_plan

                cost = min(simulate_plan(plan, k, data=sample,
                                         scheduler=sched).modeled_seconds
                           for _ in range(max(1, cost_repeats)))
            else:
                cost = _structural_cost(plan, k)
            label = candidate.render if sched == STATIC \
                else f"{candidate.render} [stealing]"
            optimization.costs.append((label, cost))
            if cost < best_cost:
                best_plan, best_cost, best = plan, cost, candidate
                best_plan.scheduler = sched

    assert best_plan is not None and best is not None
    optimization.chosen = best.render
    optimization.scheduler = best_plan.scheduler
    optimization.steps = [step.describe() for step in best.steps]
    best_plan.rewrites = best.rewrites
    best_plan.rewrite_trace = list(optimization.steps)
    return best_plan, optimization
