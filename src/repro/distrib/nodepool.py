"""Executor-node membership: registration, heartbeats, eviction.

The control plane tracks every executor that ever joined in a
:class:`NodePool`.  A node is *live* while it keeps calling in — task
pulls double as heartbeats, and an idle executor heartbeats explicitly
— and is **evicted** (marked dead) once it goes silent for longer than
the heartbeat timeout.  Eviction is how every node-failure mode is
detected: a crashed process, a partitioned host, and an injected
:class:`~repro.parallel.scheduler.NodeKilled` all look identical from
the controller — silence — so one recovery path (lease reassignment by
the task board) covers them all.

:class:`ShardPlanner` is the placement side: it decides how many chunks
a parallel stage's input splits into for a given cluster size, and
which node each chunk index *prefers* (round-robin by chunk index).
Preference is a locality hint, not an assignment — any live node may
take any pending task, which is what lets the cluster absorb skew and
node loss without a rebalancing step.  Output bytes never depend on
placement: reassembly is by chunk index.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..parallel.scheduler import MIN_ADAPTIVE_CHUNK_BYTES, STEAL_OVERSPLIT

#: node lifecycle states
NODE_LIVE = "live"
NODE_DEAD = "dead"

#: the one node role this PR defines (the field exists so later
#: heterogeneous clusters can route by capability)
EXECUTOR_ROLE = "executor"

#: concurrent chunk tasks an executor pulls per round by default
DEFAULT_CAPACITY = 2

#: a node silent for this long is evicted and its leases reassigned
DEFAULT_HEARTBEAT_TIMEOUT = 5.0


def new_node_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclass
class NodeInfo:
    """One executor's membership record."""

    node_id: str
    ordinal: int                 # registration order, 0-based
    role: str = EXECUTOR_ROLE
    capacity: int = DEFAULT_CAPACITY
    state: str = NODE_LIVE
    #: ``time.monotonic()`` readings: only ever subtracted, so a
    #: wall-clock step (NTP) can neither evict nor immortalize a node
    registered_at: float = 0.0
    last_seen: float = 0.0
    #: chunk-task results this node returned (successes)
    tasks_done: int = 0
    #: chunk-task attempts this node returned as errors
    tasks_failed: int = 0
    #: pull calls served (each is also a heartbeat)
    pulls: int = 0

    @property
    def live(self) -> bool:
        return self.state == NODE_LIVE

    def to_dict(self, now: Optional[float] = None) -> dict:
        now = now if now is not None else time.monotonic()
        return {
            "node_id": self.node_id, "ordinal": self.ordinal,
            "role": self.role, "capacity": self.capacity,
            "state": self.state,
            "tasks_done": self.tasks_done,
            "tasks_failed": self.tasks_failed,
            "pulls": self.pulls,
            "last_seen_seconds_ago": max(0.0, now - self.last_seen),
        }


class NodePool:
    """Thread-safe membership table of executor nodes."""

    def __init__(self,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT
                 ) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}")
        self.heartbeat_timeout = heartbeat_timeout
        self._nodes: Dict[str, NodeInfo] = {}
        self._lock = threading.Lock()
        self.registered = 0
        self.evicted = 0

    def register(self, node_id: Optional[str] = None,
                 role: str = EXECUTOR_ROLE,
                 capacity: int = DEFAULT_CAPACITY) -> NodeInfo:
        """Admit an executor (or revive one re-registering after a
        network blip under its old id)."""
        now = time.monotonic()
        with self._lock:
            node = self._nodes.get(node_id) if node_id else None
            if node is not None:
                node.state = NODE_LIVE
                node.last_seen = now
                node.role = role
                node.capacity = max(1, capacity)
                return node
            node = NodeInfo(node_id=node_id or new_node_id(),
                            ordinal=self.registered, role=role,
                            capacity=max(1, capacity),
                            registered_at=now, last_seen=now)
            self._nodes[node.node_id] = node
            self.registered += 1
            return node

    def get(self, node_id: str) -> Optional[NodeInfo]:
        with self._lock:
            return self._nodes.get(node_id)

    def touch(self, node_id: str) -> bool:
        """Record a heartbeat; False when the node is unknown or was
        already evicted (the executor should re-register)."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or not node.live:
                return False
            node.last_seen = time.monotonic()
            return True

    def mark_dead(self, node_id: str) -> bool:
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or not node.live:
                return False
            node.state = NODE_DEAD
            self.evicted += 1
            return True

    def evict_stale(self, now: Optional[float] = None) -> List[NodeInfo]:
        """Mark every heartbeat-expired node dead; returns them."""
        now = now if now is not None else time.monotonic()
        dead = []
        with self._lock:
            for node in self._nodes.values():
                if node.live and now - node.last_seen \
                        > self.heartbeat_timeout:
                    node.state = NODE_DEAD
                    self.evicted += 1
                    dead.append(node)
        return dead

    def live(self) -> List[NodeInfo]:
        with self._lock:
            return [n for n in self._nodes.values() if n.live]

    def live_count(self) -> int:
        with self._lock:
            return sum(1 for n in self._nodes.values() if n.live)

    def nodes(self) -> List[dict]:
        """Every node's record, registration order (``/v1/nodes``)."""
        now = time.monotonic()
        with self._lock:
            ordered = sorted(self._nodes.values(), key=lambda n: n.ordinal)
            return [n.to_dict(now) for n in ordered]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            live = sum(1 for n in self._nodes.values() if n.live)
        return {"registered": self.registered, "live": live,
                "evicted": self.evicted}


@dataclass
class ShardPlanner:
    """Chunk decomposition + preferred placement for one cluster size.

    The chunk count scales with the cluster — ``slots_per_node`` chunks
    per live node, bounded exactly like the ``stealing`` decomposition
    (at most ``oversplit`` per slot, never below the minimum chunk
    size) — so adding nodes adds parallelism instead of slicing the
    same ``k`` chunks thinner.  Synthesized combiners are insensitive
    to line-aligned chunk boundaries, so any decomposition yields the
    serial bytes.
    """

    slots_per_node: int = DEFAULT_CAPACITY
    nodes: int = 1
    min_chunk_bytes: int = MIN_ADAPTIVE_CHUNK_BYTES
    oversplit: int = STEAL_OVERSPLIT
    _slots: int = field(init=False)

    def __post_init__(self) -> None:
        self.nodes = max(1, self.nodes)
        self._slots = max(1, self.slots_per_node) * self.nodes

    def chunk_count(self, nbytes: int) -> int:
        """Chunks to split an ``nbytes`` parallel-stage input into:
        one per executor slot, fewer only when the input is too small
        to yield minimum-size chunks for every slot."""
        if nbytes <= 0:
            return 1
        by_size = max(1, nbytes // self.min_chunk_bytes)
        return max(1, min(self._slots, by_size))

    def preferred_ordinal(self, chunk_index: int) -> int:
        """The node ordinal (mod live nodes) chunk ``index`` prefers."""
        return chunk_index % self.nodes
