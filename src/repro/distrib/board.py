"""The control plane's task board: chunk-task leases across nodes.

One board serves every job the controller runs.  A distributed stage
submits its chunk tasks here; executor nodes *pull* tasks (leasing
them) and *complete* them with per-chunk output or an error.  The
board routes the single-process scheduler's fault-tolerance policies
through the node pool:

* **retry** — an attempt completed with an error is re-enqueued, up to
  ``max_attempts`` dispatches per task (the same bound the chunk
  scheduler enforces locally);
* **reassignment** — when a node misses heartbeats past the pool's
  timeout it is evicted and every task it still holds a lease on goes
  back to the front of the queue (a node death is not the task's
  fault, so the attempt its lost lease took is given back);
* **cross-node speculation** — when the queue is empty, an idle node
  pulling for work may receive a duplicate of the most overdue lease
  held *elsewhere*, gated by the p50-based ETA the chunk scheduler
  uses; the first result wins and late duplicates are discarded.

All of this is legal for the same reason it is legal locally: chunk
evaluation is deterministic, so re-running a chunk — concurrently, on
another node, or after a failure — reproduces byte-identical output,
and reassembly is by chunk index, never by completion order or node.

Eviction runs inside the waiters' poll loop (:meth:`StageHandle.wait`
ticks the board), so no background reaper thread is needed; a
controller with no waiting stages has no leases to recover.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

from ..parallel.executor import DistribStats
from ..parallel.scheduler import (
    FaultPolicy,
    SchedulerConfig,
    open_attempt,
    retry_allowed,
    speculation_eta,
)
from .nodepool import NodeInfo, NodePool

#: grace period a board with queued tasks waits for a node to (re)join
#: before failing the stage instead of hanging forever
DEFAULT_NO_NODES_GRACE = 10.0

#: completed-task duration samples kept for the speculation ETA
_MAX_DURATION_SAMPLES = 512


class DistribError(RuntimeError):
    """A distributed stage could not be completed."""


class NoLiveNodes(DistribError):
    """Every executor node is gone and the join grace period expired."""


class UnknownNode(DistribError):
    """A pull/complete from a node the pool evicted (or never admitted);
    the executor should re-register."""


def new_task_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class RemoteTask:
    """One chunk dispatch unit as shipped to an executor."""

    task_id: str
    job_id: str
    digest: str              # plan content digest (replication key)
    stage_index: int
    chunk_index: int
    chunk: str
    preferred: Optional[str] = None   # node_id locality hint

    def to_wire(self, attempt: int, delay: float = 0.0) -> dict:
        return {"task_id": self.task_id, "job_id": self.job_id,
                "digest": self.digest, "stage": self.stage_index,
                "chunk_index": self.chunk_index, "chunk": self.chunk,
                "attempt": attempt, "delay": delay}


@dataclass
class _Lease:
    node_id: str
    since: float
    speculative: bool = False


class _TaskState:
    __slots__ = ("task", "handle", "attempts", "leases", "speculated",
                 "done")

    def __init__(self, task: RemoteTask, handle: "StageHandle") -> None:
        self.task = task
        self.handle = handle
        self.attempts = 0
        self.leases: List[_Lease] = []
        self.speculated = False
        self.done = False


class StageHandle:
    """Controller-side view of one parallel stage's distributed tasks.

    :meth:`wait` blocks until every chunk's output arrived, returning
    them **in chunk-index order** — the deterministic reassembly that
    keeps distributed output byte-identical to the serial run no matter
    which nodes computed which chunks in which order.
    """

    def __init__(self, board: "TaskBoard", job_id: str, n: int,
                 stats: DistribStats,
                 fault_policy: Optional[FaultPolicy] = None) -> None:
        self.board = board
        self.job_id = job_id
        self.n = n
        self.stats = stats
        self.fault_policy = fault_policy
        self.results: Dict[int, str] = {}
        self.error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self.error is not None or len(self.results) >= self.n

    def wait(self, timeout: Optional[float] = None) -> List[str]:
        """Outputs in chunk order; raises :class:`DistribError` on a
        task that exhausted its attempts, node loss past the grace
        period, or timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.board._cond:
            while True:
                if self.error is not None:
                    self.board._forget(self)
                    if isinstance(self.error, DistribError):
                        raise self.error
                    raise DistribError(
                        f"distributed stage failed: {self.error}"
                    ) from self.error
                if len(self.results) >= self.n:
                    self.board._forget(self)
                    return [self.results[i] for i in range(self.n)]
                self.board._tick_locked()
                if deadline is not None and time.monotonic() > deadline:
                    self.board._forget(self)
                    raise DistribError(
                        f"distributed stage timed out with "
                        f"{len(self.results)}/{self.n} chunks")
                self.board._cond.wait(timeout=0.05)


class TaskBoard:
    """Thread-safe pending-queue + lease table shared by all jobs."""

    def __init__(self, pool: NodePool,
                 config: Optional[SchedulerConfig] = None,
                 no_nodes_grace: float = DEFAULT_NO_NODES_GRACE) -> None:
        self.pool = pool
        self.config = config or SchedulerConfig()
        self.no_nodes_grace = no_nodes_grace
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: deque = deque()          # RemoteTask, FIFO
        self._tasks: Dict[str, _TaskState] = {}
        self._handles: set = set()
        self._durations: List[float] = []
        self._no_nodes_since: Optional[float] = None
        self._closed = False
        self.counters = {"dispatched": 0, "completed": 0, "retries": 0,
                         "failures": 0, "reassignments": 0, "evictions": 0,
                         "speculations": 0, "speculation_wins": 0}

    # -- submission ----------------------------------------------------------

    def submit_stage(self, job_id: str, digest: str, stage_index: int,
                     chunks: List[str], stats: DistribStats,
                     preferred: Optional[List[Optional[str]]] = None,
                     fault_policy: Optional[FaultPolicy] = None
                     ) -> StageHandle:
        """Enqueue one parallel stage's chunk tasks; returns its handle."""
        with self._cond:
            if self._closed:
                raise DistribError("task board is closed")
            handle = StageHandle(self, job_id, len(chunks), stats,
                                 fault_policy=fault_policy)
            self._handles.add(handle)
            for index, chunk in enumerate(chunks):
                hint = preferred[index] if preferred else None
                task = RemoteTask(task_id=new_task_id(), job_id=job_id,
                                  digest=digest, stage_index=stage_index,
                                  chunk_index=index, chunk=chunk,
                                  preferred=hint)
                self._tasks[task.task_id] = _TaskState(task, handle)
                self._pending.append(task)
            self._cond.notify_all()
        return handle

    # -- node-facing API -----------------------------------------------------

    def pull(self, node_id: str, max_tasks: Optional[int] = None,
             wait: float = 0.0) -> Optional[List[dict]]:
        """Lease up to ``max_tasks`` tasks to ``node_id`` (blocking up
        to ``wait`` seconds for work).  A pull is also a heartbeat.

        Returns ``None`` when the board is closed (the executor should
        drain and exit) and raises :class:`UnknownNode` for an evicted
        node (the executor should re-register).
        """
        deadline = time.monotonic() + max(0.0, wait)
        with self._cond:
            node = self._touch_locked(node_id)
            node.pulls += 1
            while True:
                if self._closed:
                    return None
                batch = self._lease_batch_locked(node, max_tasks)
                if batch:
                    return batch
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._tick_locked()
                self._cond.wait(timeout=min(0.05, remaining))
                node = self._touch_locked(node_id)

    def complete(self, node_id: str, task_id: str,
                 output: Optional[str] = None,
                 error: Optional[str] = None,
                 seconds: float = 0.0) -> bool:
        """Accept one attempt's result; False when it lost the race
        (late duplicate, superseded retry, or board already closed)."""
        with self._cond:
            if self._closed:
                return False
            node = self.pool.get(node_id)
            if node is not None and node.live:
                self.pool.touch(node_id)
            state = self._tasks.get(task_id)
            if state is None:
                return False
            lease = self._drop_lease_locked(state, node_id)
            if state.done:
                self._gc_locked(state)
                self._cond.notify_all()
                return False
            handle, task = state.handle, state.task
            if error is not None:
                if node is not None:
                    node.tasks_failed += 1
                if retry_allowed(state.attempts, self.config,
                                 partial(self._bump, handle)):
                    self._pending.appendleft(task)
                elif not state.leases:
                    # no attempt left that could still resolve the task
                    handle.error = handle.error or DistribError(
                        f"task for chunk {task.chunk_index} of stage "
                        f"{task.stage_index} exhausted "
                        f"{self.config.max_attempts} attempts: {error}")
                self._cond.notify_all()
                return True
            if node is not None:
                node.tasks_done += 1
            state.done = True
            self.counters["completed"] += 1
            self._durations.append(seconds)
            if len(self._durations) > _MAX_DURATION_SAMPLES:
                del self._durations[: len(self._durations) // 2]
            if lease is not None and lease.speculative:
                self._bump(handle, "speculation_wins")
            handle.stats.bump("bytes_returned", len(output or ""))
            handle.results[task.chunk_index] = output or ""
            self._gc_locked(state)
            self._cond.notify_all()
            return True

    def close(self) -> None:
        """Stop serving pulls; executors drain and exit."""
        with self._cond:
            self._closed = True
            for handle in list(self._handles):
                if not handle.done:
                    handle.error = handle.error or DistribError(
                        "task board closed mid-stage")
            self._cond.notify_all()

    def tick(self) -> None:
        """Evict silent nodes and requeue their leases (also runs
        inside every :meth:`StageHandle.wait` poll)."""
        with self._cond:
            self._tick_locked()

    def stats(self) -> Dict[str, int]:
        with self._cond:
            out = dict(self.counters)
            out["pending"] = len(self._pending)
            out["leased"] = sum(len(s.leases) for s in self._tasks.values())
        return out

    # -- internals (lock held) -----------------------------------------------

    def _touch_locked(self, node_id: str) -> NodeInfo:
        node = self.pool.get(node_id)
        if node is None or not node.live:
            raise UnknownNode(f"node {node_id!r} is not a live member "
                              f"(re-register to rejoin)")
        self.pool.touch(node_id)
        return node

    def _bump(self, handle: StageHandle, counter: str) -> None:
        """Count one event board-wide and in the stage's run stats."""
        self.counters[counter] += 1
        handle.stats.bump(counter)

    def _forget(self, handle: StageHandle) -> None:
        self._handles.discard(handle)
        # drop any of the handle's tasks still queued or leased (a
        # failed/timed-out stage must not leave orphans behind)
        if any(s.handle is handle for s in self._tasks.values()):
            self._pending = deque(t for t in self._pending
                                  if self._tasks[t.task_id].handle
                                  is not handle)
            for task_id in [tid for tid, s in self._tasks.items()
                            if s.handle is handle]:
                state = self._tasks[task_id]
                if not state.leases:
                    del self._tasks[task_id]
                else:
                    state.done = True   # swallow late completions

    def _gc_locked(self, state: _TaskState) -> None:
        if state.done and not state.leases:
            self._tasks.pop(state.task.task_id, None)

    def _drop_lease_locked(self, state: _TaskState,
                           node_id: str) -> Optional[_Lease]:
        for i, lease in enumerate(state.leases):
            if lease.node_id == node_id:
                return state.leases.pop(i)
        return None

    def _lease_batch_locked(self, node: NodeInfo,
                            max_tasks: Optional[int]) -> List[dict]:
        limit = max_tasks if max_tasks is not None else node.capacity
        batch: List[dict] = []
        while len(batch) < limit:
            task = self._pick_pending_locked(node)
            if task is None:
                break
            wire = self._lease_locked(task, node)
            if wire is not None:
                batch.append(wire)
        if not batch and limit > 0:
            spec = self._pick_straggler_locked(node)
            if spec is not None:
                batch.append(spec)
        return batch

    def _pick_pending_locked(self, node: NodeInfo) -> Optional[RemoteTask]:
        if not self._pending:
            return None
        for i, task in enumerate(self._pending):
            if task.preferred == node.node_id:
                del self._pending[i]
                return task
        return self._pending.popleft()

    def _lease_locked(self, task: RemoteTask,
                      node: NodeInfo) -> Optional[dict]:
        """One dispatch: gate the fault policy, record the lease."""
        state = self._tasks.get(task.task_id)
        if state is None or state.done:
            return None   # stale queue entry: a duplicate already won
        handle = state.handle
        delay, state.attempts, error = open_attempt(
            handle.fault_policy, task.stage_index, task.chunk_index,
            state.attempts, self.config, partial(self._bump, handle))
        if error is not None:   # injected dispatch-time kills spent the budget
            if not state.leases:
                handle.error = handle.error or error
                self._cond.notify_all()
            return None
        return self._grant_locked(state, node, delay)

    def _grant_locked(self, state: _TaskState, node: NodeInfo,
                      delay: float = 0.0, speculative: bool = False) -> dict:
        """Spend one attempt of ``state`` on a lease to ``node``."""
        attempt = state.attempts
        state.attempts += 1
        state.leases.append(_Lease(node.node_id, time.monotonic(),
                                   speculative))
        self.counters["dispatched"] += 1
        state.handle.stats.bump("tasks")
        state.handle.stats.bump("bytes_shipped", len(state.task.chunk))
        return state.task.to_wire(attempt, delay)

    def _pick_straggler_locked(self, node: NodeInfo) -> Optional[dict]:
        """A speculative duplicate of the most overdue lease held on
        *another* node, for an otherwise idle puller."""
        if not self.config.speculate:
            return None
        eta = speculation_eta(self._durations, self.config)
        if eta is None:
            return None
        now = time.monotonic()
        overdue = []
        for state in self._tasks.values():
            if state.done or state.speculated or not state.leases:
                continue
            if state.attempts >= self.config.max_attempts:
                continue
            if any(lease.node_id == node.node_id
                   for lease in state.leases):
                continue
            oldest = min(lease.since for lease in state.leases)
            if now - oldest > eta:
                overdue.append((now - oldest, state))
        if not overdue:
            return None
        _, state = max(overdue, key=lambda pair: pair[0])
        state.speculated = True
        self._bump(state.handle, "speculations")
        return self._grant_locked(state, node, speculative=True)

    def _tick_locked(self) -> None:
        dead = self.pool.evict_stale()
        if dead:
            dead_ids = {n.node_id for n in dead}
            hit_handles = set()
            for state in list(self._tasks.values()):
                lost = [l for l in state.leases
                        if l.node_id in dead_ids]
                if not lost:
                    continue
                state.leases = [l for l in state.leases
                                if l.node_id not in dead_ids]
                # a node death is not the task's fault: the attempts
                # its lost leases took go back into the retry budget
                state.attempts -= len(lost)
                hit_handles.add(state.handle)
                if state.done:
                    self._gc_locked(state)
                elif not state.leases:
                    # nobody else is working on it: requeue at the front
                    self._bump(state.handle, "reassignments")
                    self._pending.appendleft(state.task)
            for node in dead:
                self.counters["evictions"] += 1
                for handle in hit_handles:
                    handle.stats.bump("evictions")
            self._cond.notify_all()
        # no-live-nodes watchdog: with work queued and nobody to run
        # it, wait out the grace period then fail instead of hanging
        active = [h for h in self._handles if not h.done]
        if active and self.pool.live_count() == 0:
            now = time.monotonic()
            if self._no_nodes_since is None:
                self._no_nodes_since = now
            elif now - self._no_nodes_since > self.no_nodes_grace:
                err = NoLiveNodes(
                    "no live executor nodes and none joined within "
                    f"{self.no_nodes_grace:.1f}s")
                for handle in active:
                    handle.error = handle.error or err
                self._no_nodes_since = None
                self._cond.notify_all()
        else:
            self._no_nodes_since = None
