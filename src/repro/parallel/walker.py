"""The split -> map -> combine contract, written once.

Every execution of a compiled plan that materializes whole streams
between stages — the barrier data plane, the distributed runner and the
cost model's measured simulation — is :func:`run_materialized` with a
different *mapper*:

* a ``sequential`` stage joins whatever reaches it and runs once;
* a ``parallel`` stage splits its input unless the upstream combiner
  was eliminated (Theorem 5 / Figure 5c: the upstream chunk
  decomposition flows straight in), maps the stage command over the
  chunks, and either hands the output chunks on (its own combiner was
  eliminated) or combines them.

``map_chunks(stage, index, chunks) -> outputs`` is the seam a new chunk
backend plugs into: it decides where and how the stage command runs
over the chunks (worker pool, executor nodes, timed inline loop) and
must return one output per chunk, in chunk order.  The
streaming plane's per-stage generator
(:func:`repro.parallel.streaming.stage_outputs`) makes the same
decisions over chunk iterators instead of lists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.dsl.semantics import EvalEnv
from .planner import PipelinePlan, StagePlan
from .splitter import split_stream


@dataclass
class StageRun:
    """What the materializing walker measured about one stage."""

    chunks: int             # input chunks the stage command ran over
    bytes_in: int
    bytes_out: int
    seconds: float          # whole stage, wall clock
    map_seconds: float      # the command runs alone (all chunks)
    split_seconds: float = 0.0
    combine_seconds: float = 0.0


def input_is_chunked(stages: Sequence[StagePlan], index: int) -> bool:
    """True iff stage ``index`` receives the upstream chunk decomposition:
    chunks survive a stage boundary only when the upstream parallel
    stage's combiner was eliminated."""
    if index == 0:
        return False
    prev = stages[index - 1]
    return prev.parallel and prev.eliminated


def combine_outputs(stage: StagePlan, outputs: List[str]) -> str:
    """Reassemble a parallel stage's per-chunk outputs, in chunk order."""
    if stage.combiner is None:
        return "".join(outputs)
    env = EvalEnv(run_command=stage.command.run)
    return stage.combiner.combine(outputs, env)


def run_materialized(
    plan: PipelinePlan,
    initial: str,
    chunk_count: Callable[[int, int], int],
    map_chunks: Callable[[StagePlan, int, List[str]], List[str]],
    observe: Callable[[int, StagePlan, StageRun], None],
) -> str:
    """Run ``plan`` stage by stage over ``initial``; returns the output.

    ``chunk_count(index, nbytes)`` sizes the decomposition a parallel
    stage starts when its input arrives unsplit; ``map_chunks`` returns
    one output per chunk.  ``observe`` is called once per stage, in
    order, after the stage finished.
    """
    stream: str = initial
    chunks: Optional[List[str]] = None   # set while a decomposition flows
    for index, stage in enumerate(plan.stages):
        start = time.perf_counter()
        bytes_in = len(stream) if chunks is None \
            else sum(len(c) for c in chunks)
        split_seconds = combine_seconds = 0.0
        if stage.mode == "sequential":
            if chunks is not None:
                stream = "".join(chunks)  # upstream combiner was concat
            t0 = time.perf_counter()
            stream, chunks, n_chunks = stage.command.run(stream), None, 1
            map_seconds = time.perf_counter() - t0
        else:
            if chunks is None:
                t0 = time.perf_counter()
                chunks = split_stream(stream,
                                      chunk_count(index, len(stream)))
                split_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            outputs = map_chunks(stage, index, chunks)
            map_seconds = time.perf_counter() - t0
            n_chunks = len(chunks)
            if stage.eliminated:
                chunks = outputs
            else:
                t0 = time.perf_counter()
                stream, chunks = combine_outputs(stage, outputs), None
                combine_seconds = time.perf_counter() - t0
        bytes_out = len(stream) if chunks is None \
            else sum(len(c) for c in chunks)
        observe(index, stage, StageRun(
            chunks=n_chunks, bytes_in=bytes_in, bytes_out=bytes_out,
            seconds=time.perf_counter() - start, map_seconds=map_seconds,
            split_seconds=split_seconds, combine_seconds=combine_seconds))
    # a trailing decomposition is only reachable when the final stage's
    # combiner was eliminated, which the planner never does; guard anyway
    return stream if chunks is None else "".join(chunks)
