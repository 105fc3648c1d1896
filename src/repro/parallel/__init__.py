"""Parallel runtime: splitting, k-way combining, planning, execution.

Execution offers two data planes — the chunk-pipelined **streaming**
plane (default; chained stage generators overlap through each stage's
window of in-flight chunk futures) and the paper-faithful **barrier**
plane (full materialization between stages) — over three backends
(``serial`` / ``threads`` / ``processes``) that differ only in the
runner chunk work is dispatched to.  The split -> map -> combine
contract is written once per plane:
:func:`repro.parallel.walker.run_materialized` (barrier, distributed,
cost model) and :func:`repro.parallel.streaming.stage_outputs` (every
streaming engine).
"""

from .combining import KWayCombiner
from .executor import (
    BARRIER,
    DistribStats,
    ParallelPipeline,
    RunStats,
    STREAMING,
    StageStats,
    distrib_stats_from_dict,
    run_stats_from_dict,
)
from .planner import (
    PARALLEL,
    PipelinePlan,
    RERUN_REDUCTION_THRESHOLD,
    SEQUENTIAL,
    StagePlan,
    compile_pipeline,
    plan_stage,
    synthesize_pipeline,
)
from .runner import PROCESSES, RunnerPool, SERIAL, StageRunner, THREADS
from .scheduler import (
    AUTO,
    FaultPolicy,
    InjectedFault,
    NodeKilled,
    SCHEDULERS,
    STATIC,
    STEALING,
    SchedulerConfig,
    SchedulerStats,
    scheduler_stats_from_dict,
    stealing_chunk_count,
)
from .splitter import split_stream
from .streaming import (
    StageTrace,
    combine_is_cheap,
    merge_intervals,
    overlap_seconds,
    prefix_limit,
    run_chunk_pipelined,
)

__all__ = [
    "AUTO", "BARRIER", "DistribStats", "FaultPolicy", "InjectedFault",
    "KWayCombiner", "NodeKilled",
    "PARALLEL", "PROCESSES", "ParallelPipeline", "PipelinePlan",
    "RERUN_REDUCTION_THRESHOLD", "RunStats", "RunnerPool", "SCHEDULERS",
    "SEQUENTIAL", "SERIAL", "STATIC", "STEALING", "STREAMING",
    "SchedulerConfig", "SchedulerStats", "StagePlan", "StageRunner",
    "StageStats", "StageTrace", "THREADS", "combine_is_cheap",
    "compile_pipeline", "distrib_stats_from_dict",
    "merge_intervals", "overlap_seconds", "plan_stage",
    "prefix_limit", "run_chunk_pipelined", "run_stats_from_dict",
    "scheduler_stats_from_dict", "split_stream", "stealing_chunk_count",
    "synthesize_pipeline",
]
