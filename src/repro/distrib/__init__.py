"""Distributed runtime: a control plane dispatching chunk tasks to
executor nodes.

The paper's decomposition — split input into line-aligned chunks, run
each through the stage command, reassemble with a synthesized combiner
— is placement-free: chunk evaluation is deterministic and reassembly
is by chunk index, so the *where* of each chunk is invisible in the
output bytes.  This package exploits that to promote the service
daemon into a controller: executor nodes join a :class:`NodePool`,
pull chunk tasks from a :class:`TaskBoard` (leases with retry,
dead-node reassignment, and cross-node speculation), replicate
compiled plans by content digest through a :class:`PlanRegistry`, and
a :class:`DistributedRunner` reassembles per-chunk outputs into the
exact serial bytes.

Layers:

* :mod:`.nodepool` — membership: registration, heartbeats, eviction,
  and the :class:`ShardPlanner` deciding chunk counts and placement
  hints per cluster size;
* :mod:`.plans` — content-digest plan replication (the plan-cache
  snapshot-entry format, reused);
* :mod:`.board` — the lease table: pull/complete, retries,
  reassignment after eviction, cross-node speculation;
* :mod:`.executor` — the worker agent plus its two transports
  (in-process calls, or the service's ``/v1/nodes/*`` HTTP routes);
* :mod:`.runner` — the barrier data plane with the chunk map step
  dispatched to the cluster;
* :mod:`.local` — controller + N executor threads in one process.
"""

from .board import (
    DEFAULT_NO_NODES_GRACE,
    DistribError,
    NoLiveNodes,
    RemoteTask,
    StageHandle,
    TaskBoard,
    UnknownNode,
)
from .executor import (
    DEFAULT_POLL_WAIT,
    ExecutorAgent,
    HttpTransport,
    LocalTransport,
    REREGISTER,
    TransportError,
)
from .local import LocalCluster
from .nodepool import (
    DEFAULT_CAPACITY,
    DEFAULT_HEARTBEAT_TIMEOUT,
    NODE_DEAD,
    NODE_LIVE,
    NodeInfo,
    NodePool,
    ShardPlanner,
)
from .plans import PlanRegistry, entry_digest, entry_to_plan, plan_to_entry
from .runner import DEFAULT_STAGE_TIMEOUT, DISTRIBUTED, DistributedRunner

__all__ = [
    "DEFAULT_CAPACITY", "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_NO_NODES_GRACE", "DEFAULT_POLL_WAIT",
    "DEFAULT_STAGE_TIMEOUT", "DISTRIBUTED", "DistribError",
    "DistributedRunner", "ExecutorAgent", "HttpTransport", "LocalCluster",
    "LocalTransport", "NODE_DEAD", "NODE_LIVE", "NoLiveNodes", "NodeInfo",
    "NodePool", "PlanRegistry", "REREGISTER", "RemoteTask", "ShardPlanner",
    "StageHandle", "TaskBoard", "TransportError", "UnknownNode",
    "entry_digest", "entry_to_plan", "plan_to_entry",
]
