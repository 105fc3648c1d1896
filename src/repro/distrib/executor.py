"""Executor agents: the worker side of the distributed runtime.

An :class:`ExecutorAgent` joins a controller, then loops: pull chunk
tasks, run each chunk through the plan stage's command, return the
output (or error) with timing.  Plans travel by **content digest** —
the first task naming an unseen digest makes the agent fetch the plan
entry (the plan-cache persistence format) and rehydrate it locally, so
a plan synthesized once on the controller is replicated to each node
at most once, however many chunks it executes.

The agent talks through a :class:`Transport`, which has two wire-
compatible implementations: :class:`LocalTransport` calls the
controller's pool/board/registry objects directly (in-process worker
threads — ``repro serve --nodes N``, tests, the fuzz harness) and
:class:`HttpTransport` speaks the ``/v1/nodes/*`` HTTP protocol via
:class:`~repro.service.client.ServiceClient` (``repro executor --join``).
The task board cannot tell them apart.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Optional

from ..parallel.planner import PipelinePlan
from ..parallel.scheduler import FaultPolicy, NodeKilled
from .board import TaskBoard, UnknownNode
from .nodepool import DEFAULT_CAPACITY, EXECUTOR_ROLE, NodePool
from .plans import MAX_RETAINED_PLANS, PlanRegistry, entry_to_plan

#: transport sentinel: the controller no longer knows this node — it
#: was evicted after missed heartbeats — and it must re-register
#: before pulling again
REREGISTER = "reregister"

#: seconds a pull blocks controller-side waiting for work
DEFAULT_POLL_WAIT = 0.2

#: consecutive transport failures before the agent gives up
DEFAULT_MAX_FAILURES = 5


class TransportError(RuntimeError):
    """The controller could not be reached (retryable)."""


def _backoff(failures: int) -> float:
    """Seconds to sleep after the ``failures``-th consecutive
    transport failure."""
    return min(1.0, 0.05 * (2 ** failures))


class LocalTransport:
    """Direct calls into an in-process controller's control plane."""

    def __init__(self, pool: NodePool, board: TaskBoard,
                 registry: PlanRegistry) -> None:
        self.pool = pool
        self.board = board
        self.registry = registry

    def register(self, node_id: Optional[str], role: str,
                 capacity: int) -> dict:
        node = self.pool.register(node_id=node_id, role=role,
                                  capacity=capacity)
        return {"node_id": node.node_id, "ordinal": node.ordinal,
                "heartbeat_timeout": self.pool.heartbeat_timeout}

    def heartbeat(self, node_id: str) -> bool:
        return self.pool.touch(node_id)

    def pull(self, node_id: str, max_tasks: int, wait: float):
        try:
            return self.board.pull(node_id, max_tasks=max_tasks, wait=wait)
        except UnknownNode:
            return REREGISTER

    def complete(self, node_id: str, task_id: str,
                 output: Optional[str] = None,
                 error: Optional[str] = None,
                 seconds: float = 0.0) -> bool:
        return self.board.complete(node_id, task_id, output=output,
                                   error=error, seconds=seconds)

    def plan_entry(self, digest: str) -> dict:
        entry = self.registry.entry(digest)
        if entry is None:
            raise TransportError(f"unknown plan digest {digest!r}")
        return entry


class HttpTransport:
    """The same protocol over the service's ``/v1/nodes/*`` routes.

    Connection failures surface as :class:`TransportError`, so the
    agent's bounded retry/backoff treats a restarting controller and a
    dropped socket the same way.
    """

    def __init__(self, client) -> None:
        self.client = client   # ServiceClient

    def _call(self, fn, *args, **kwargs):
        from ..service.client import ServiceUnavailable

        try:
            return fn(*args, **kwargs)
        except ServiceUnavailable as exc:
            raise TransportError(str(exc)) from exc

    def register(self, node_id: Optional[str], role: str,
                 capacity: int) -> dict:
        return self._call(self.client.register_node, node_id=node_id,
                          role=role, capacity=capacity)

    def heartbeat(self, node_id: str) -> bool:
        return self._call(self.client.node_heartbeat, node_id)

    def pull(self, node_id: str, max_tasks: int, wait: float):
        reply = self._call(self.client.node_pull, node_id,
                           max_tasks=max_tasks, wait=wait)
        if reply.get("draining"):
            return None
        if reply.get("reregister"):
            return REREGISTER
        return reply.get("tasks", [])

    def complete(self, node_id: str, task_id: str,
                 output: Optional[str] = None,
                 error: Optional[str] = None,
                 seconds: float = 0.0) -> bool:
        return self._call(self.client.node_complete, node_id, task_id,
                          output=output, error=error, seconds=seconds)

    def plan_entry(self, digest: str) -> dict:
        return self._call(self.client.plan_entry, digest)


class ExecutorAgent:
    """One executor node: join, pull, execute, report, repeat.

    ``fault_policy`` carries the node-level injection hook: before each
    pulled task runs, :meth:`FaultPolicy.begin_node_task` is gated on
    this agent's registration ordinal — when the policy says this node
    dies, the agent stops dead *without completing the task*, exactly
    like a crashed process, and recovery is the controller's problem
    (heartbeat-timeout eviction, then lease reassignment).
    """

    def __init__(self, transport, capacity: int = DEFAULT_CAPACITY,
                 role: str = EXECUTOR_ROLE,
                 node_id: Optional[str] = None,
                 fault_policy: Optional[FaultPolicy] = None,
                 poll_wait: float = DEFAULT_POLL_WAIT,
                 max_failures: int = DEFAULT_MAX_FAILURES) -> None:
        self.transport = transport
        self.capacity = max(1, capacity)
        self.role = role
        self.node_id = node_id
        self.ordinal: Optional[int] = None
        self.fault_policy = fault_policy
        self.poll_wait = poll_wait
        self.max_failures = max_failures
        self.tasks_run = 0
        self.tasks_errored = 0
        self.plans_fetched = 0
        self._plans: "OrderedDict[str, PipelinePlan]" = OrderedDict()

    def register(self) -> None:
        reply = self.transport.register(self.node_id, self.role,
                                        self.capacity)
        self.node_id = reply["node_id"]
        self.ordinal = reply["ordinal"]

    def run(self, stop: Optional[threading.Event] = None) -> None:
        """Work until the controller drains (pull returns ``None``),
        ``stop`` is set, or the node is killed by injection."""
        if self.node_id is None or self.ordinal is None:
            self.register()
        failures = 0
        while stop is None or not stop.is_set():
            try:
                batch = self.transport.pull(self.node_id, self.capacity,
                                            self.poll_wait)
            except TransportError:
                failures += 1
                if failures >= self.max_failures:
                    return
                time.sleep(_backoff(failures))
                continue
            failures = 0
            if batch is None:
                return              # controller draining
            if batch == REREGISTER:
                self.register()     # evicted during a stall; rejoin
                continue
            for task in batch:
                if stop is not None and stop.is_set():
                    return
                if self.fault_policy is not None:
                    try:
                        self.fault_policy.begin_node_task(self.ordinal)
                    except NodeKilled:
                        # die like a crashed process: no completion, no
                        # goodbye — the lease outlives us until the
                        # controller evicts this node and reassigns it
                        return
                self._run_task(task)

    def _run_task(self, task: dict) -> None:
        start = time.perf_counter()
        try:
            plan = self._plan(task["digest"])
            if task.get("delay"):
                time.sleep(task["delay"])
            stage = plan.stages[task["stage"]]
            output = stage.command.run(task["chunk"])
        except Exception as exc:
            self.tasks_errored += 1
            self._complete(task, error=f"{type(exc).__name__}: {exc}",
                           seconds=time.perf_counter() - start)
            return
        self.tasks_run += 1
        self._complete(task, output=output,
                       seconds=time.perf_counter() - start)

    def _plan(self, digest: str) -> PipelinePlan:
        plan = self._plans.get(digest)
        if plan is None:
            entry = self.transport.plan_entry(digest)
            plan = entry_to_plan(entry)
            self._plans[digest] = plan
            self.plans_fetched += 1
            if len(self._plans) > MAX_RETAINED_PLANS:
                # LRU: a later task naming the evicted digest refetches
                # it exactly as first sight does
                self._plans.popitem(last=False)
        else:
            self._plans.move_to_end(digest)
        return plan

    def _complete(self, task: dict, output: Optional[str] = None,
                  error: Optional[str] = None,
                  seconds: float = 0.0) -> None:
        # a lost result must not strand the lease: this node keeps
        # pulling (every pull is a heartbeat), so the controller would
        # never reassign the task.  Completion is keyed by task id and a
        # duplicate is answered ``accepted: False``, so re-sending is safe.
        for failures in range(1, self.max_failures + 1):
            try:
                self.transport.complete(self.node_id, task["task_id"],
                                        output=output, error=error,
                                        seconds=seconds)
                return
            except TransportError:
                if failures < self.max_failures:
                    time.sleep(_backoff(failures))
        self.tasks_errored += 1
