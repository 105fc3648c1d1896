"""Streaming chunk-pipelined execution: the default data plane.

The barrier executor (:meth:`ParallelPipeline.run_barrier`) runs every
stage to completion, materializing the whole intermediate stream as one
Python string, before the next stage starts — faithful to the paper's
measurement setup.  Here stages exchange **line-aligned chunks one at a
time** through chained generators, so a stage that needs no more input
stops its whole upstream.

**A chunk is cut once and stays in its worker until a combiner needs
it.**  The planner lowers every eliminated-combiner chain, together
with the stage that consumes its decomposition, to one executed stage
(Figure 5c made physical), so a decomposition crosses a stage boundary
in exactly one case: into a *prefix-limited* consumer (``head -n N``,
``sed Nq``), which the chain deliberately stops short of.

The structural semantics are exactly the barrier engine's, decided
statically from the compiled plan:

* ``sequential`` stage — gather every incoming chunk, run the command
  once on the joined stream, emit a single chunk;
* prefix-limited stage — gather chunks only until they hold the lines
  the output depends on, close the upstream (cancelling its queued
  chunk tasks), run once;
* ``parallel`` stage — if the input is not already chunked, gather and
  :func:`split_stream` it; apply the stage command to each chunk
  (dispatched through the shared :class:`StageRunner`, up to ``k`` in
  flight); then either emit output chunks as they complete (combiner
  eliminated) or gather them all, combine, and emit one chunk.

A fresh decomposition is ``k`` chunks — one per worker, nothing to
pipeline into, the narrowest combine — except ahead of a prefix-limited
consumer, where large streams are *oversplit* into up to
``OVERSPLIT * k`` chunks so early exit has later chunks to cancel
(:func:`split_count`); the ``stealing`` schedule's finer split is
separate (:func:`stealing_split_count`).  Output is byte-identical
whatever the count: synthesized combiners are insensitive to
line-aligned chunk boundaries — the same property the barrier engine
relies on when ``k`` varies.

One driver for every engine: each stage is the generator
:func:`stage_outputs`, and :func:`run_chunk_pipelined` chains them on
the caller's thread — a pull model with no control threads and no
queues.  Engines differ only in the runner the mapper dispatches to:
``serial`` hands back completed futures; ``threads`` / ``processes``
hand back *pending* ones, so up to ``k`` of a stage's chunks are
computing in the shared worker pool while it pulls its next input —
that window is the back-pressure (at most ``k`` undelivered chunks per
stage; only the stage that starts a ``stealing`` decomposition submits
all of it — its input is materialized anyway), and the pool keeps
total compute concurrency bounded by ``k`` across the whole pipeline.
A stage error is an ordinary exception propagating up the chain.

Accounting: every command invocation and combine application is
recorded as a busy interval; :attr:`StageStats.overlap_seconds` is the
wall-clock intersection of a stage's busy intervals with its
predecessor's.  Inside a chain there is no predecessor to overlap with
(the members run back to back in one task), so it is nonzero only
where a decomposition still crosses a boundary or a combiner runs
while the next stage's first chunks already compute.
"""

from __future__ import annotations

import time
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .planner import PipelinePlan, StagePlan, prefix_limit
from .runner import SERIAL, StageRunner
from .scheduler import (
    FaultPolicy,
    STATIC,
    STEALING,
    SchedulerConfig,
    SchedulerStats,
    TaskSet,
    stealing_chunk_count,
)
from .splitter import split_stream
from .walker import combine_outputs, input_is_chunked

#: ahead of a prefix-limited consumer, streaming splits into up to
#: ``OVERSPLIT * k`` chunks: the consumer stops pulling once it has its
#: lines, and only chunks not yet started can be cancelled
OVERSPLIT = 4

#: never oversplit below this chunk size; tiny inputs keep the k-way
#: decomposition
MIN_CHUNK_BYTES = 64 * 1024


def stream_chunk_count(nbytes: int, k: int) -> int:
    """Chunks in an oversplit decomposition of ``nbytes`` (see
    :func:`split_count` for when one is used).

    ``k == 1`` means the user asked for no parallelism: mirror
    :func:`split_stream`'s single-chunk fast path.
    """
    if k == 1:
        return 1
    return max(k, min(k * OVERSPLIT, nbytes // MIN_CHUNK_BYTES))


def _consumer(stages: Sequence["StagePlan"], index: int
              ) -> Optional["StagePlan"]:
    """The stage that consumes the decomposition started at ``index``.

    A decomposition persists through stages whose combiner was
    eliminated; the first stage that keeps its combiner (or runs
    sequentially, joining the chunks) consumes it.  ``None`` when the
    pipeline ends first.
    """
    j = index
    while j < len(stages) and stages[j].parallel and stages[j].eliminated:
        j += 1
    return stages[j] if j < len(stages) else None


def combine_is_cheap(stages: Sequence["StagePlan"], index: int) -> bool:
    """May the decomposition started at stage ``index`` be split finer
    than ``k``?

    Only when its consumer combines cheaply (concat, merge, and rerun
    have k-way fast paths; a sequential join is a plain concat): the
    generic pairwise fold re-reads the accumulated stream once per
    chunk, so handing it more chunks than workers trades
    O(chunks * bytes) combine work for no extra parallelism.
    """
    consumer = _consumer(stages, index)
    if consumer is not None and consumer.parallel:
        combiner = consumer.combiner
        if combiner is not None and not (combiner.is_concat()
                                         or combiner.is_merge()
                                         or combiner.is_rerun()):
            return False
    return True


def split_count(stages: Sequence["StagePlan"], index: int, k: int,
                nbytes: int) -> int:
    """Chunk count for the decomposition started at stage ``index``.

    ``k``: the planner lowers an eliminated chain and its consumer to
    one stage, so a decomposition has no next stage to pipeline into
    and more chunks than workers only widen the combine.  The exception
    is the one decomposition that still crosses a stage boundary on
    purpose — into a prefix-limited consumer, which stops pulling once
    it has its lines: the finer the split, the more of the upstream
    work that early exit cancels.
    """
    if stages[index].eliminated:
        consumer = _consumer(stages, index)
        if consumer is not None \
                and prefix_limit(consumer.command) is not None:
            return stream_chunk_count(nbytes, k)
    return k


def stealing_split_count(stages: Sequence["StagePlan"], index: int, k: int,
                         nbytes: int, scheduler: str) -> Optional[int]:
    """Chunk count of the finer split a ``stealing`` schedule starts at
    stage ``index``, or ``None`` where the caller's static count applies.

    The one place the schedule turns into a decomposition: both data
    planes run it and the cost model prices it.  A consumer that
    combines expensively keeps the static count under either schedule
    (see :func:`combine_is_cheap`).
    """
    if scheduler == STEALING and combine_is_cheap(stages, index):
        return stealing_chunk_count(nbytes, k)
    return None


def _gather_prefix(chunks: Iterator[str], limit: int,
                   trace: StageTrace) -> str:
    """Accumulate incoming chunks until they hold ``limit`` lines.

    The single definition of the early-exit prefix: chunks are
    line-aligned, so once the accumulated newline count reaches
    ``limit`` the prefix contains every line the stage's output
    depends on.
    """
    if limit <= 0:
        return ""  # output is fixed before reading anything
    parts: List[str] = []
    newlines = 0
    for chunk in chunks:
        trace.bytes_in += len(chunk)
        trace.chunks += 1
        parts.append(chunk)
        newlines += chunk.count("\n")
        if newlines >= limit:
            break
    return "".join(parts)


class StageTrace:
    """Raw per-stage accounting collected during one streaming run."""

    __slots__ = ("intervals", "bytes_in", "bytes_out", "chunks")

    def __init__(self) -> None:
        self.intervals: List[Tuple[float, float]] = []
        self.bytes_in = 0
        self.bytes_out = 0
        self.chunks = 0

    def record(self, t0: float, t1: float) -> None:
        self.intervals.append((t0, t1))

    @property
    def busy_seconds(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.intervals)


# ---------------------------------------------------------------------------
# interval arithmetic (for overlap accounting)


def merge_intervals(
        intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of busy intervals as a sorted, disjoint list."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def overlap_seconds(a: Sequence[Tuple[float, float]],
                    b: Sequence[Tuple[float, float]]) -> float:
    """Total wall-clock time covered by both interval unions."""
    a, b = merge_intervals(a), merge_intervals(b)
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


# ---------------------------------------------------------------------------
# the chunk-pipelined stage definition (shared by every engine)

ChunkCount = Callable[[int, int], int]
ChunkMapper = Callable[[StagePlan, int, Iterator[str]], Iterator[str]]


def stage_outputs(stages: Sequence[StagePlan], index: int,
                  trace: StageTrace, upstream: Iterator[str],
                  chunk_count: ChunkCount,
                  map_chunks: ChunkMapper) -> Iterator[str]:
    """One stage as a generator from its input chunks to its output chunks.

    The streaming counterpart of :func:`repro.parallel.walker.
    run_materialized`'s loop body, with the same decisions at the same
    stage boundaries.  ``map_chunks(stage, index, chunks)`` lazily maps
    the stage command over an iterator of chunks, yielding outputs in
    chunk order.  Closing a stage is the one stop signal: however this
    generator ends (exhausted, closed by an early-exiting consumer, or
    unwound by an error) it closes ``upstream``, so the whole chain
    behind it stops producing and its mappers cancel queued work.
    """
    stage = stages[index]
    try:
        limit = None if stage.eliminated else prefix_limit(stage.command)
        if limit is not None or stage.mode == "sequential":
            if limit is not None:
                # early exit: pull chunks only until the prefix the
                # command depends on is complete, then cancel upstream
                # production before running the command (a no-op when
                # the stream already ended naturally)
                data = _gather_prefix(upstream, limit, trace)
                upstream.close()
            else:
                data = "".join(upstream)
                trace.bytes_in += len(data)
                trace.chunks += 1
            t0 = time.perf_counter()
            out = stage.command.run(data)
            trace.record(t0, time.perf_counter())
            trace.bytes_out += len(out)
            yield out
            return

        def incoming() -> Iterator[str]:
            if input_is_chunked(stages, index):
                chunks: Iterable[str] = upstream
            else:
                data = "".join(upstream)
                chunks = split_stream(data, chunk_count(index, len(data)))
            for chunk in chunks:
                trace.bytes_in += len(chunk)
                yield chunk

        outputs = map_chunks(stage, index, incoming())
        if stage.eliminated:
            for out in outputs:
                trace.chunks += 1
                trace.bytes_out += len(out)
                yield out
            return
        gathered = list(outputs)
        trace.chunks += len(gathered)
        t0 = time.perf_counter()
        combined = combine_outputs(stage, gathered)
        trace.record(t0, time.perf_counter())
        trace.bytes_out += len(combined)
        yield combined
    finally:
        upstream.close()


def stage_tasks(runner: StageRunner, stage: StagePlan, index: int,
                config: SchedulerConfig,
                fault_policy: Optional[FaultPolicy],
                stats: SchedulerStats) -> TaskSet:
    """The dispatcher of stage ``index``'s chunk tasks onto ``runner``."""
    return TaskSet(
        lambda chunk, delay: runner.submit_timed(stage.command, chunk, delay),
        stage_index=index, config=config, fault_policy=fault_policy,
        stats=stats)


# ---------------------------------------------------------------------------
# entry point


def run_chunk_pipelined(
    plan: PipelinePlan,
    k: int,
    runner: StageRunner,
    initial: str,
    scheduler: str = STATIC,
    scheduler_config: Optional[SchedulerConfig] = None,
    fault_policy: Optional[FaultPolicy] = None,
    scheduler_stats: Optional[SchedulerStats] = None,
) -> Tuple[str, List[StageTrace]]:
    """Execute ``plan`` with the streaming data plane.

    Returns the final output stream and one :class:`StageTrace` per
    stage (busy intervals, bytes in/out, chunk counts) for the
    executor to fold into :class:`RunStats`.  ``scheduler`` selects how
    finely a decomposition-starting parallel stage splits its input
    (static vs the finer ``stealing`` split); the fault-tolerance layer
    (``fault_policy`` injection, bounded retry, speculation per
    ``scheduler_config``) applies to every parallel chunk task under
    both schedules, and its counters land in ``scheduler_stats``.

    Every engine chains the same :func:`stage_outputs` generators on
    the calling thread (a pull model — a stage that stops pulling *is*
    the cancellation, upstream never computes the rest); engines differ
    only in whether ``runner`` hands the mapper completed or pending
    futures.
    """
    config = scheduler_config or SchedulerConfig()
    stats = scheduler_stats if scheduler_stats is not None \
        else SchedulerStats()
    stages = plan.stages
    traces = [StageTrace() for _ in stages]
    if runner.engine == SERIAL:
        scheduler = STATIC   # one thread of control has nothing to balance

    def chunk_count(index: int, nbytes: int) -> int:
        return (stealing_split_count(stages, index, k, nbytes, scheduler)
                or split_count(stages, index, k, nbytes))

    def map_chunks(stage: StagePlan, index: int,
                   chunks: Iterator[str]) -> Iterator[str]:
        """In-order dispatch with up to ``k`` chunks in flight; the
        stage that starts a ``stealing`` decomposition submits all of
        it, so the pool's queue — not the window — decides which worker
        takes the next chunk.  Under ``serial`` every future arrives
        completed, so this is the inline loop with bounded retry."""
        tasks = stage_tasks(runner, stage, index, config, fault_policy,
                            stats)
        whole = scheduler == STEALING and not input_is_chunked(stages, index)
        return tasks.in_order(chunks, None if whole else max(1, k),
                              traces[index].record)

    # a generator, not iter(): stage 0 closes its upstream like any other
    current: Iterator[str] = (chunk for chunk in (initial,))
    for index in range(len(stages)):
        current = stage_outputs(stages, index, traces[index], current,
                                chunk_count, map_chunks)
    return "".join(current), traces
