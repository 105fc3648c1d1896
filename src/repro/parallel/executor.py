"""Execution of compiled parallel pipelines.

Two data planes share one compiled plan:

* **streaming** (default) — stages are chained generators exchanging
  line-aligned chunks, each keeping up to ``k`` chunk futures in flight
  on the shared runner; a stage that needs no more input (``head``)
  stops its whole upstream (:mod:`repro.parallel.streaming`).
* **barrier** — the paper's measurement setup (section 4,
  *Experimental Setup*): every stage runs to completion before the
  next starts, the input stream is split into ``k`` line-aligned
  substreams for parallel stages, and combiners merge the parallel
  output substreams — except where the optimizer eliminated them, in
  which case substreams flow straight into the next parallel stage.

Both planes compute byte-identical output: the streaming engine makes
the same splitting/combining decisions at the same stage boundaries.
A stage is an *executed* stage of the plan — the planner has already
lowered each eliminated chain and its consumer to one, so a chunk is
one task per chain, not per command.  Both dispatch every parallel
stage's chunks through the same :class:`~repro.parallel.scheduler.
TaskSet` onto the runner's worker pool; the ``stealing`` schedule only
changes how finely a stage's input is split
(:func:`~repro.parallel.streaming.stealing_split_count`).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .planner import PipelinePlan, StagePlan
from .runner import SERIAL, StageRunner
from .scheduler import (
    AUTO,
    FaultPolicy,
    STATIC,
    STEALING,
    SchedulerConfig,
    SchedulerStats,
    scheduler_stats_from_dict,
)
from .streaming import (
    StageTrace,
    overlap_seconds,
    run_chunk_pipelined,
    stage_tasks,
    stealing_split_count,
)
from .walker import StageRun, run_materialized

#: data planes
STREAMING = "streaming"
BARRIER = "barrier"


@dataclass
class StageStats:
    display: str
    mode: str
    eliminated: bool
    chunks: int            # input chunks the stage command ran over
    seconds: float         # barrier: stage wall time; streaming: busy time
    bytes_in: int = 0
    bytes_out: int = 0
    #: wall-clock time this stage computed concurrently with its
    #: predecessor (always 0.0 in the barrier plane and for stage 0)
    overlap_seconds: float = 0.0

    @property
    def throughput_mbs(self) -> float:
        """Output megabytes per busy second (0.0 when unmeasurable)."""
        if self.seconds <= 0:
            return 0.0
        return self.bytes_out / self.seconds / 1e6

    def to_dict(self) -> dict:
        return {
            "display": self.display, "mode": self.mode,
            "eliminated": self.eliminated, "chunks": self.chunks,
            "seconds": self.seconds, "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "overlap_seconds": self.overlap_seconds,
        }


@dataclass
class DistribStats:
    """Observable behavior of one distributed (multi-node) run.

    Filled by the distrib runner when chunk tasks were dispatched to
    executor nodes instead of local workers; the service aggregates
    these per job into its ``/v1/status`` distrib counters.  Mirrors
    :class:`SchedulerStats` semantics where the names overlap: a
    *retry* re-enqueues a task whose attempt returned an error, a
    *reassignment* requeues a task leased to a node that stopped
    heartbeating, and speculation duplicates an overdue lease on
    another node (first result wins).
    """

    #: live executor nodes when the run started
    nodes: int = 0
    #: chunk-task dispatches (leases) handed to nodes
    tasks: int = 0
    #: chunk bytes shipped to executors
    bytes_shipped: int = 0
    #: per-chunk output bytes returned by executors
    bytes_returned: int = 0
    #: plan-entry fetches this run's digest triggered (0 once replicas
    #: are warm: executors cache plans by content digest)
    plan_replications: int = 0
    retries: int = 0
    failures: int = 0
    #: tasks requeued because their node was evicted mid-lease
    reassignments: int = 0
    #: nodes evicted by heartbeat timeout during the run
    evictions: int = 0
    speculations: int = 0
    speculation_wins: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bump(self, counter: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes, "tasks": self.tasks,
            "bytes_shipped": self.bytes_shipped,
            "bytes_returned": self.bytes_returned,
            "plan_replications": self.plan_replications,
            "retries": self.retries, "failures": self.failures,
            "reassignments": self.reassignments,
            "evictions": self.evictions,
            "speculations": self.speculations,
            "speculation_wins": self.speculation_wins,
        }


def distrib_stats_from_dict(data: dict) -> DistribStats:
    return DistribStats(
        nodes=data.get("nodes", 0), tasks=data.get("tasks", 0),
        bytes_shipped=data.get("bytes_shipped", 0),
        bytes_returned=data.get("bytes_returned", 0),
        plan_replications=data.get("plan_replications", 0),
        retries=data.get("retries", 0), failures=data.get("failures", 0),
        reassignments=data.get("reassignments", 0),
        evictions=data.get("evictions", 0),
        speculations=data.get("speculations", 0),
        speculation_wins=data.get("speculation_wins", 0))


@dataclass
class RunStats:
    k: int
    engine: str
    data_plane: str = BARRIER
    seconds: float = 0.0
    #: the rewrite engine changed the executed pipeline (rewrites > 0);
    #: matches the service's ``jobs_optimized`` counter and loadgen's
    #: per-job ``optimized`` flag
    optimized: bool = False
    #: rewrite-engine rules applied to the executed pipeline
    rewrites: int = 0
    #: chunk-scheduler behavior (task/retry/speculation counters)
    scheduler: Optional[SchedulerStats] = None
    #: multi-node dispatch behavior (None for single-process runs)
    distrib: Optional[DistribStats] = None
    stages: List[StageStats] = field(default_factory=list)

    def record_stage(self, _index: int, stage: StagePlan,
                     seen: StageRun) -> None:
        """Materializing-walker observer: append one stage's stats."""
        self.stages.append(StageStats(
            display=stage.display(), mode=stage.mode,
            eliminated=stage.eliminated, chunks=seen.chunks,
            seconds=seen.seconds, bytes_in=seen.bytes_in,
            bytes_out=seen.bytes_out))

    @property
    def total_overlap(self) -> float:
        return sum(s.overlap_seconds for s in self.stages)

    @property
    def bytes_in(self) -> int:
        return self.stages[0].bytes_in if self.stages else 0

    @property
    def bytes_out(self) -> int:
        return self.stages[-1].bytes_out if self.stages else 0

    def to_dict(self) -> dict:
        """JSON-serializable form (``--stats-json``, service job results)."""
        return {
            "k": self.k, "engine": self.engine,
            "data_plane": self.data_plane, "seconds": self.seconds,
            "optimized": self.optimized, "rewrites": self.rewrites,
            "scheduler": self.scheduler.to_dict() if self.scheduler else None,
            "distrib": self.distrib.to_dict() if self.distrib else None,
            "total_overlap": self.total_overlap,
            "bytes_in": self.bytes_in, "bytes_out": self.bytes_out,
            "stages": [s.to_dict() for s in self.stages],
        }


def run_stats_from_dict(data: dict) -> RunStats:
    """Rebuild :class:`RunStats` from :meth:`RunStats.to_dict` output."""
    scheduler = data.get("scheduler")
    distrib = data.get("distrib")
    return RunStats(
        k=data["k"], engine=data["engine"],
        data_plane=data.get("data_plane", BARRIER),
        seconds=data.get("seconds", 0.0),
        optimized=data.get("optimized", False),
        rewrites=data.get("rewrites", 0),
        scheduler=scheduler_stats_from_dict(scheduler) if scheduler else None,
        distrib=distrib_stats_from_dict(distrib) if distrib else None,
        stages=[StageStats(
            display=s["display"], mode=s["mode"],
            eliminated=s.get("eliminated", False),
            chunks=s.get("chunks", 0), seconds=s.get("seconds", 0.0),
            bytes_in=s.get("bytes_in", 0), bytes_out=s.get("bytes_out", 0),
            overlap_seconds=s.get("overlap_seconds", 0.0),
        ) for s in data.get("stages", [])])


class ParallelPipeline:
    """A runnable data-parallel pipeline (compiled plan + runtime knobs)."""

    def __init__(self, plan: PipelinePlan, k: int = 4,
                 engine: str = SERIAL,
                 runner: Optional[StageRunner] = None,
                 streaming: bool = True,
                 scheduler: Optional[str] = None,
                 speculate: bool = False,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 fault_policy: Optional[FaultPolicy] = None) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if scheduler not in (None, STATIC, STEALING, AUTO):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.plan = plan
        self.k = k
        self.engine = engine
        self.streaming = streaming
        # runtime override beats the plan attribute; AUTO (an unresolved
        # plan that never went through the selector) degrades to static
        chosen = scheduler if scheduler is not None \
            else getattr(plan, "scheduler", STATIC)
        self.scheduler = STATIC if chosen == AUTO else chosen
        config = scheduler_config or SchedulerConfig()
        if speculate and not config.speculate:
            # copy: the caller's config object may be shared across
            # pipelines and must not inherit this run's speculation
            config = dataclasses.replace(config, speculate=True)
        self.scheduler_config = config
        self.fault_policy = fault_policy
        self._runner = runner
        self.last_stats: Optional[RunStats] = None

    def _new_stats(self, data_plane: str) -> RunStats:
        return RunStats(
            k=self.k, engine=self.engine, data_plane=data_plane,
            optimized=self.plan.rewrites > 0, rewrites=self.plan.rewrites,
            scheduler=SchedulerStats(
                name=self.scheduler,
                speculate=self.scheduler_config.speculate))

    def run(self, data: Optional[str] = None) -> str:
        """Execute the plan; returns the final output stream."""
        if self.streaming:
            return self.run_streaming(data)
        return self.run_barrier(data)

    # -- streaming data plane ------------------------------------------------

    def run_streaming(self, data: Optional[str] = None) -> str:
        """Execute with chunk-pipelined stages (generator-chain data plane)."""
        initial = self.plan.pipeline._initial_stream(data)
        stats = self._new_stats(STREAMING)
        start = time.perf_counter()
        output, traces = self._with_runner(
            lambda runner: run_chunk_pipelined(
                self.plan, self.k, runner, initial,
                scheduler=self.scheduler,
                scheduler_config=self.scheduler_config,
                fault_policy=self.fault_policy,
                scheduler_stats=stats.scheduler))
        stats.stages = self._fold_traces(traces)
        stats.seconds = time.perf_counter() - start
        self.last_stats = stats
        return output

    def _fold_traces(self, traces: List[StageTrace]) -> List[StageStats]:
        stages = []
        for i, (stage, trace) in enumerate(zip(self.plan.stages, traces)):
            overlap = 0.0
            if i > 0:
                overlap = overlap_seconds(traces[i - 1].intervals,
                                          trace.intervals)
            stages.append(StageStats(
                display=stage.display(), mode=stage.mode,
                eliminated=stage.eliminated, chunks=trace.chunks,
                seconds=trace.busy_seconds, bytes_in=trace.bytes_in,
                bytes_out=trace.bytes_out, overlap_seconds=overlap))
        return stages

    # -- barrier data plane --------------------------------------------------

    def run_barrier(self, data: Optional[str] = None) -> str:
        """Execute stage-by-stage with full materialization between stages."""
        stages = self.plan.stages
        stats = self._new_stats(BARRIER)

        def run_all(runner: StageRunner) -> str:
            # one thread of control has nothing to balance
            scheduler = STATIC if runner.engine == SERIAL else self.scheduler

            def chunk_count(index: int, nbytes: int) -> int:
                return stealing_split_count(stages, index, self.k, nbytes,
                                            scheduler) or self.k

            def map_chunks(stage: StagePlan, index: int,
                           chunks: List[str]) -> List[str]:
                # the whole chunk list goes to the pool at once; drained
                # in chunk order
                return list(stage_tasks(
                    runner, stage, index, self.scheduler_config,
                    self.fault_policy, stats.scheduler).in_order(chunks))

            return run_materialized(
                self.plan, self.plan.pipeline._initial_stream(data),
                chunk_count, map_chunks, stats.record_stage)

        start = time.perf_counter()
        output = self._with_runner(run_all)
        stats.seconds = time.perf_counter() - start
        self.last_stats = stats
        return output

    def _with_runner(self, fn):
        owned = self._runner is None
        runner = self._runner or StageRunner(
            engine=self.engine, max_workers=self.k,
            context=self.plan.pipeline.context)
        try:
            return fn(runner)
        finally:
            if owned:
                runner.close()
