"""Measured cost model for parallel execution on few-core hosts.

The paper measured wall clock on an 80-core Xeon.  On a small
container, genuine k-way speedup is physically unavailable, so the
performance tables use a *measured simulation*: every chunk of every
stage is executed (so outputs — and correctness — are real), each
chunk is timed individually, and the modeled parallel time charges

* a parallel stage:    ``max(chunk seconds) + combine seconds``,
* a sequential stage:  its full serial seconds,
* an eliminated-combiner boundary: no combine charge (Figure 5c).

This preserves exactly the effects the paper's speedup shape depends
on — split balance, combiner cost (merge vs pairwise stitch folds vs a
full rerun), sequentialized stages, and intermediate-combiner
elimination — while remaining measurable on one core.  Real
process-pool execution remains available via the ``processes`` engine
for multi-core hosts.

The model is scheduler-aware: a parallel stage's charge is the
**makespan** of placing its measured chunk costs on ``k`` workers
under the plan's chunk scheduler — one chunk per worker under
``static``, online greedy placement of the finer ``stealing`` split
(plus a per-task dispatch overhead) — which is what submitting that
split to a ``k``-worker pool's shared queue does.
The optimizer's selector prices both placements to decide
``PipelinePlan.scheduler``.

It is also **cluster-aware**: :func:`modeled_distrib_makespan` prices
the same measured chunk costs on ``nodes × slots_per_node`` executor
slots, charging each task a network-transfer term (per-dispatch RTT
plus chunk-in/output-out bytes over a modeled link) — the term that
makes shipping a tiny chunk to a remote node *lose* to running it
locally, and lets the 2-node-beats-1-node gate run on a single-core
container.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..parallel.planner import PipelinePlan, StagePlan
from ..parallel.scheduler import (
    AUTO,
    DEFAULT_TASK_OVERHEAD,
    STATIC,
    STEALING,
)
from ..parallel.streaming import stealing_split_count
from ..parallel.walker import StageRun, run_materialized

#: modeled network link between controller and executors: loopback-ish
#: defaults a LAN deployment would roughly match
DEFAULT_NET_BANDWIDTH = 200e6    # bytes/second
DEFAULT_NET_RTT = 1e-3           # seconds per task dispatch+result


def modeled_makespan(chunk_seconds: Sequence[float], workers: int,
                     scheduler: str = STATIC,
                     task_overhead: float = 0.0) -> float:
    """Wall-clock of placing measured chunk costs on ``workers``.

    ``static`` mirrors the fixed round-robin assignment (with the
    canonical one-chunk-per-worker split this is simply the longest
    chunk); ``stealing`` is the worker pool's shared queue as online
    greedy list scheduling — each task, in stream order, lands on the
    worker that frees up first — and charges ``task_overhead`` per task
    for the dispatch hand-off, which is what makes a fine
    decomposition of a tiny input *lose* to static.
    """
    workers = max(1, workers)
    if not chunk_seconds:
        return 0.0
    if scheduler == STEALING:
        loads = [0.0] * workers
        heapq.heapify(loads)
        for cost in chunk_seconds:
            heapq.heappush(loads, heapq.heappop(loads)
                           + cost + task_overhead)
        return max(loads)
    loads = [0.0] * workers
    for i, cost in enumerate(chunk_seconds):
        loads[i % workers] += cost
    return max(loads)


def modeled_distrib_makespan(chunk_seconds: Sequence[float],
                             chunk_bytes: Sequence[Tuple[int, int]],
                             nodes: int, slots_per_node: int,
                             bandwidth: float = DEFAULT_NET_BANDWIDTH,
                             rtt: float = DEFAULT_NET_RTT) -> float:
    """Wall-clock of one parallel stage on a modeled cluster.

    Each chunk task charges its measured compute seconds plus the
    network term — one dispatch/result round trip and its chunk-in +
    output-out bytes over the link — and lands, online greedy, on the
    executor slot that frees up first (the task board's pull protocol
    is exactly this greedy placement: idle slots pull next).  With
    ``nodes=1`` this prices a single-node deployment of the same
    decomposition, which is what the scaling gate compares against.
    """
    slots = max(1, nodes) * max(1, slots_per_node)
    loads = [0.0] * slots
    heapq.heapify(loads)
    for cost, (nbytes_in, nbytes_out) in zip(chunk_seconds, chunk_bytes):
        transfer = rtt + (nbytes_in + nbytes_out) / bandwidth
        heapq.heappush(loads, heapq.heappop(loads) + cost + transfer)
    return max(loads)


@dataclass
class SimulatedStage:
    display: str
    mode: str
    eliminated: bool
    chunk_seconds: List[float] = field(default_factory=list)
    #: per-chunk ``(bytes_in, bytes_out)`` — the distributed model's
    #: network-transfer inputs
    chunk_bytes: List[Tuple[int, int]] = field(default_factory=list)
    combine_seconds: float = 0.0
    #: cost of splitting the input stream at stage entry; zero when the
    #: previous stage's combiner was eliminated and chunks flowed through
    split_seconds: float = 0.0
    #: placement policy priced by :attr:`modeled_seconds`; 0 workers
    #: means one per chunk (the canonical static split)
    workers: int = 0
    scheduler: str = STATIC
    task_overhead: float = 0.0

    @property
    def modeled_seconds(self) -> float:
        if self.mode == "sequential":
            return sum(self.chunk_seconds)
        makespan = modeled_makespan(self.chunk_seconds,
                                    self.workers or len(self.chunk_seconds),
                                    self.scheduler, self.task_overhead)
        return self.split_seconds + makespan + \
            (0.0 if self.eliminated else self.combine_seconds)

    def modeled_distrib_seconds(self, nodes: int, slots_per_node: int,
                                bandwidth: float = DEFAULT_NET_BANDWIDTH,
                                rtt: float = DEFAULT_NET_RTT) -> float:
        """This stage's charge on a modeled ``nodes``-executor cluster.

        Sequential stages run on the controller (no network term);
        parallel stages pay per-task transfer and spread over the
        cluster's slots.
        """
        if self.mode == "sequential":
            return sum(self.chunk_seconds)
        makespan = modeled_distrib_makespan(
            self.chunk_seconds, self.chunk_bytes, nodes, slots_per_node,
            bandwidth=bandwidth, rtt=rtt)
        return self.split_seconds + makespan + \
            (0.0 if self.eliminated else self.combine_seconds)


@dataclass
class SimulatedRun:
    k: int
    output: str
    stages: List[SimulatedStage] = field(default_factory=list)

    @property
    def modeled_seconds(self) -> float:
        return sum(s.modeled_seconds for s in self.stages)

    def modeled_distrib_seconds(self, nodes: int, slots_per_node: int = 2,
                                bandwidth: float = DEFAULT_NET_BANDWIDTH,
                                rtt: float = DEFAULT_NET_RTT) -> float:
        """Modeled wall-clock of this run on a ``nodes``-executor
        cluster (same measured chunk costs, cluster placement + network
        transfer) — the quantity the distrib scaling gate compares
        across node counts."""
        return sum(s.modeled_distrib_seconds(nodes, slots_per_node,
                                             bandwidth=bandwidth, rtt=rtt)
                   for s in self.stages)


def simulate_plan(plan: PipelinePlan, k: int,
                  data: Optional[str] = None,
                  scheduler: Optional[str] = None,
                  task_overhead: float = DEFAULT_TASK_OVERHEAD,
                  n_chunks: Optional[int] = None) -> SimulatedRun:
    """Execute a compiled plan chunk-by-chunk with per-chunk timing.

    ``scheduler`` defaults to the plan's own; under ``stealing`` each
    new decomposition is split into the finer chunk count the runtime
    uses (:func:`~repro.parallel.streaming.stealing_split_count`) and
    parallel stages are priced by greedy placement plus per-task
    overhead — see :func:`modeled_makespan`.  ``n_chunks`` pins the
    decomposition of every fresh split (the distrib scaling gate uses
    one decomposition across node counts so only placement differs).
    """
    if scheduler is None:
        scheduler = getattr(plan, "scheduler", STATIC)
    if scheduler == AUTO:
        scheduler = STATIC
    run = SimulatedRun(k=k, output="")
    chunk_seconds: List[float] = []
    chunk_bytes: List[Tuple[int, int]] = []

    def chunk_count(index: int, nbytes: int) -> int:
        if n_chunks is not None:
            return n_chunks
        return stealing_split_count(plan.stages, index, k, nbytes,
                                    scheduler) or k

    def map_chunks(stage: StagePlan, _index: int,
                   chunks: List[str]) -> List[str]:
        outputs: List[str] = []
        for chunk in chunks:
            t0 = time.perf_counter()
            outputs.append(stage.command.run(chunk))
            chunk_seconds.append(time.perf_counter() - t0)
            chunk_bytes.append((len(chunk), len(outputs[-1])))
        return outputs

    def observe(_index: int, stage: StagePlan, seen: StageRun) -> None:
        run.stages.append(SimulatedStage(
            display=stage.display(), mode=stage.mode,
            eliminated=stage.eliminated,
            chunk_seconds=chunk_seconds[:] if stage.parallel
            else [seen.map_seconds],
            chunk_bytes=chunk_bytes[:],
            combine_seconds=seen.combine_seconds,
            split_seconds=seen.split_seconds, workers=k,
            scheduler=scheduler,
            task_overhead=task_overhead if scheduler == STEALING else 0.0))
        chunk_seconds.clear()
        chunk_bytes.clear()

    run.output = run_materialized(
        plan, plan.pipeline._initial_stream(data), chunk_count, map_chunks,
        observe)
    return run


def simulate_script(script, scale: int, k: int, seed: int = 3,
                    optimize: bool = True, cache=None, config=None
                    ) -> Tuple[str, float]:
    """Cost-model execution of a whole benchmark script.

    Returns ``(output, modeled_seconds)``; synthesis time excluded, as
    in the paper's reporting.
    """
    from ..parallel.planner import compile_pipeline, synthesize_pipeline
    from ..shell.pipeline import Pipeline
    from ..workloads.runner import build_context

    context = build_context(script, scale, seed)
    cache = cache if cache is not None else {}
    total = 0.0
    outputs: List[str] = []
    for sp in script.pipelines:
        pipeline = Pipeline.from_string(sp.text, env=script.env,
                                        context=context)
        synthesize_pipeline(pipeline, config=config, cache=cache)
        plan = compile_pipeline(pipeline, cache, optimize=optimize)
        run = simulate_plan(plan, k)
        total += run.modeled_seconds
        if sp.output_file is not None:
            context.fs[sp.output_file] = run.output
        else:
            outputs.append(run.output)
    return "".join(outputs), total
