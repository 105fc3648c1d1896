"""Distributed execution of a compiled plan across executor nodes.

:class:`DistributedRunner` calls the materializing walker
(:func:`repro.parallel.walker.run_materialized`) with the chunk map
step moved off-box: sequential stages run inline on the controller
(they see the whole stream by definition), while each parallel stage's
input is split by the :class:`~repro.distrib.nodepool.ShardPlanner`,
dispatched through the :class:`~repro.distrib.board.TaskBoard` to
whatever executor nodes are live, and reassembled **by chunk index**
with the stage's synthesized combiner — the very loop ``run_barrier``
runs locally, which is why the output is byte-identical to the serial
run regardless of node count, placement, retries, reassignment after
node death, or cross-node speculation.

The plan itself never travels with the tasks: it is registered once in
the :class:`~repro.distrib.plans.PlanRegistry` under its content
digest, and tasks carry only the digest (executors fetch-and-cache the
entry on first sight).
"""

from __future__ import annotations

import time
import uuid
from typing import List, Optional

from ..parallel.executor import BARRIER, DistribStats, RunStats
from ..parallel.planner import PipelinePlan, StagePlan
from ..parallel.scheduler import FaultPolicy
from ..parallel.walker import run_materialized
from .board import TaskBoard
from .nodepool import NodePool, ShardPlanner
from .plans import PlanRegistry

#: engine name reported in RunStats for distributed runs
DISTRIBUTED = "distributed"

#: seconds a stage may wait for its remote chunks before failing
DEFAULT_STAGE_TIMEOUT = 300.0


class DistributedRunner:
    """Run one compiled plan across the cluster behind a task board."""

    def __init__(self, plan: PipelinePlan, board: TaskBoard,
                 pool: NodePool, registry: PlanRegistry,
                 k: int = 2, job_id: Optional[str] = None,
                 min_chunk_bytes: Optional[int] = None,
                 stage_timeout: float = DEFAULT_STAGE_TIMEOUT,
                 fault_policy: Optional[FaultPolicy] = None) -> None:
        self.plan = plan
        self.board = board
        self.pool = pool
        self.registry = registry
        self.k = max(1, k)
        self.job_id = job_id or uuid.uuid4().hex[:12]
        self.min_chunk_bytes = min_chunk_bytes
        self.stage_timeout = stage_timeout
        self.fault_policy = fault_policy
        context = plan.pipeline.context
        self.digest = registry.register(plan, context.fs, context.env)
        self.last_stats: Optional[RunStats] = None

    def run(self, data: Optional[str] = None) -> str:
        live = self.pool.live()
        dstats = DistribStats(nodes=len(live))
        fetches_before = self.registry.fetches(self.digest)
        planner_kwargs = {}
        if self.min_chunk_bytes is not None:
            planner_kwargs["min_chunk_bytes"] = self.min_chunk_bytes
        planner = ShardPlanner(slots_per_node=self.k,
                               nodes=max(1, len(live)), **planner_kwargs)
        node_ids = [n.node_id for n in live]
        stats = RunStats(k=self.k, engine=DISTRIBUTED, data_plane=BARRIER,
                         optimized=self.plan.rewrites > 0,
                         rewrites=self.plan.rewrites, distrib=dstats)

        def map_chunks(_stage: StagePlan, index: int,
                       chunks: List[str]) -> List[str]:
            preferred = None
            if node_ids:
                preferred = [
                    node_ids[planner.preferred_ordinal(i) % len(node_ids)]
                    for i in range(len(chunks))]
            handle = self.board.submit_stage(
                self.job_id, self.digest, index, chunks, dstats,
                preferred=preferred, fault_policy=self.fault_policy)
            return handle.wait(self.stage_timeout)

        start = time.perf_counter()
        output = run_materialized(
            self.plan, self.plan.pipeline._initial_stream(data),
            lambda _index, nbytes: planner.chunk_count(nbytes),
            map_chunks, stats.record_stage)
        dstats.bump("plan_replications",
                    self.registry.fetches(self.digest) - fetches_before)
        stats.seconds = time.perf_counter() - start
        self.last_stats = stats
        return output
