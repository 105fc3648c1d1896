"""Chunk schedules and the fault-tolerance policy for parallel stages.

The planner decides *what* runs in parallel; a chunk *schedule* is only
a choice of how finely a parallel stage's input is split before the
chunks are submitted, in stream order, to the engine's ``k``-worker
pool — the pool's shared FIFO queue does the placing:

* **static** — the input is split into ``k`` byte-balanced chunks, one
  per worker.  Cheap and optimal on uniform data, but one expensive
  chunk (skewed cost per byte) serializes the whole stage.
* **stealing** — the input is split into
  :func:`stealing_chunk_count` chunks (up to ``STEAL_OVERSPLIT`` per
  worker), so a worker that finishes early takes the next chunk off
  the queue instead of idling behind a heavy one.  This is exactly
  what the cost model prices (greedy placement in stream order plus
  :data:`DEFAULT_TASK_OVERHEAD` per task) when the selector chooses a
  schedule.

:class:`TaskSet` is the one local dispatcher, under both schedules and
in both data planes, and applies the fault-tolerance policy (the
cluster's ``TaskBoard`` applies the same three rules across nodes):

* **retry** — a failed chunk attempt is dispatched again, up to
  ``max_attempts`` dispatches per chunk;
* **speculation** — once the consumer has been blocked on a chunk for
  longer than an ETA derived from the p50 of completed task durations,
  one duplicate is launched; the first result wins.

Both are *legal* because chunk evaluation is deterministic: simulated
commands are pure functions of ``(chunk, virtual fs)``, so re-running
a chunk — concurrently or after a failure — can only reproduce the
byte-identical output the first attempt would have produced.
Reassembly is by chunk index, never completion order, so retries and
speculation are invisible in the output stream.

Chunk-count independence: synthesized combiners are insensitive to
line-aligned chunk boundaries (the same property the streaming plane's
oversplitting relies on), so either split yields the same combined
result.

:class:`FaultPolicy` is the deterministic fault-injection hook used by
the fault-tolerance test suite and the evaluation harness: it kills or
delays specific ``(stage, chunk, attempt)`` dispatches, so tests can
assert that the retry/speculation counters in :class:`SchedulerStats`
match exactly the faults injected.
"""

from __future__ import annotations

import concurrent.futures as cf
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

#: chunk schedulers
STATIC = "static"
STEALING = "stealing"
#: sentinel: let the optimizer's cost model pick the scheduler
AUTO = "auto"

SCHEDULERS = (STATIC, STEALING)

#: a stealing decomposition never exceeds this many chunks per worker
STEAL_OVERSPLIT = 8

#: a stealing (or cluster shard) decomposition never cuts chunks
#: smaller than this
MIN_ADAPTIVE_CHUNK_BYTES = 8 * 1024

#: modeled per-task dispatch overhead charged to the stealing schedule
#: by the cost model (submit + result hand-off per chunk task)
DEFAULT_TASK_OVERHEAD = 5e-5


def stealing_chunk_count(nbytes: int, k: int) -> int:
    """Number of chunks a stealing decomposition splits ``nbytes`` into.

    The runtime and the cost model share it, so the selector prices the
    decomposition that runs: at least ``k`` chunks, at most
    ``STEAL_OVERSPLIT`` per worker, and never smaller than
    :data:`MIN_ADAPTIVE_CHUNK_BYTES` each.
    """
    if k <= 1:
        return 1
    return max(k, min(k * STEAL_OVERSPLIT,
                      nbytes // MIN_ADAPTIVE_CHUNK_BYTES))


class InjectedFault(RuntimeError):
    """A chunk-task failure injected by a :class:`FaultPolicy`."""


class NodeKilled(RuntimeError):
    """An injected whole-node failure: the executor process vanishes.

    Unlike :class:`InjectedFault` — which fails one chunk attempt and is
    observed by the scheduler as an error — a killed node simply stops
    pulling, heartbeating, and completing, leaving its leased tasks to
    be recovered by heartbeat-timeout eviction and reassignment.
    """


class FaultPolicy:
    """Deterministic per-attempt fault injection.

    ``kill`` maps ``(stage_index, chunk_index)`` to the number of
    leading attempts that fail with :class:`InjectedFault`; ``delay``
    maps ``(stage_index, chunk_index)`` to seconds of added latency on
    the *first* attempt only — a straggler models a slow worker, not
    slow data, so a retry or speculative duplicate placed elsewhere
    runs at full speed.  ``kill_first`` kills
    the first ``n`` attempt-dispatches observed anywhere in the run —
    the "a worker died mid-job" simulation used by the all-scripts
    fault sweep.  ``node_kill`` maps an executor-node *ordinal* (its
    registration order in the cluster) to the number of chunk tasks it
    completes before dying with :class:`NodeKilled` — the distributed
    analogue of ``kill_first``, exercised by the node-failure sweep.
    Counters record what was actually injected so tests can equate them
    with :class:`SchedulerStats` (and ``DistribStats``).
    """

    def __init__(self,
                 kill: Optional[Dict[Tuple[int, int], int]] = None,
                 delay: Optional[Dict[Tuple[int, int], float]] = None,
                 kill_first: int = 0,
                 node_kill: Optional[Dict[int, int]] = None) -> None:
        self.kill = dict(kill or {})
        self.delay = dict(delay or {})
        self.kill_first = kill_first
        self.node_kill = dict(node_kill or {})
        self.injected_kills = 0
        self.injected_delays = 0
        self.injected_node_kills = 0
        self._seen_attempts = 0
        self._node_tasks: Dict[int, int] = {}
        self._nodes_killed: set = set()
        self._lock = threading.Lock()

    def begin_attempt(self, stage_index: int, chunk_index: int,
                      attempt: int) -> float:
        """Gate one dispatch: returns added delay seconds or raises.

        Called exactly once per attempt, in the dispatching thread, so
        injection is deterministic in ``(stage, chunk, attempt)`` (and
        in global dispatch order for ``kill_first``).
        """
        with self._lock:
            self._seen_attempts += 1
            if self._seen_attempts <= self.kill_first:
                self.injected_kills += 1
                raise InjectedFault(
                    f"injected worker failure (dispatch "
                    f"#{self._seen_attempts} of run)")
            if attempt < self.kill.get((stage_index, chunk_index), 0):
                self.injected_kills += 1
                raise InjectedFault(
                    f"injected failure: stage {stage_index} "
                    f"chunk {chunk_index} attempt {attempt}")
            if attempt > 0:
                return 0.0
            seconds = self.delay.get((stage_index, chunk_index), 0.0)
            if seconds > 0.0:
                self.injected_delays += 1
            return seconds

    def begin_node_task(self, node_ordinal: int) -> None:
        """Gate one executor-node task dispatch; raises when the node's
        task budget is exhausted.

        Called by the executor agent before running each pulled task.
        A node with ``node_kill[ordinal] == n`` completes ``n`` tasks,
        then dies on the next dispatch — without completing it and
        without deregistering, exactly like a crashed process.
        """
        if node_ordinal not in self.node_kill:
            return
        with self._lock:
            seen = self._node_tasks.get(node_ordinal, 0)
            if seen >= self.node_kill[node_ordinal]:
                if node_ordinal not in self._nodes_killed:
                    self._nodes_killed.add(node_ordinal)
                    self.injected_node_kills += 1
                raise NodeKilled(
                    f"injected node failure: executor ordinal "
                    f"{node_ordinal} after {seen} tasks")
            self._node_tasks[node_ordinal] = seen + 1


@dataclass
class SchedulerConfig:
    """Runtime knobs of the chunk scheduler (CLI/service map onto these)."""

    #: dispatches allowed per chunk before the stage fails
    max_attempts: int = 3
    #: launch straggler duplicates (needs a concurrent engine)
    speculate: bool = False
    #: speculate when a task's elapsed time exceeds this multiple of
    #: the p50 of completed task durations
    speculation_factor: float = 2.0
    #: completed tasks required before the p50 ETA is trusted
    speculation_min_samples: int = 3
    #: never speculate before a task has run at least this long
    speculation_min_seconds: float = 0.05


@dataclass
class SchedulerStats:
    """Observable behavior of one run's chunk scheduling.

    One instance is shared by every stage of a pipeline execution and
    lands in :attr:`RunStats.scheduler`; the service aggregates these
    per job into its ``/v1/status`` runtime counters.
    """

    name: str = STATIC
    speculate: bool = False
    #: distinct chunk tasks scheduled across all parallel stages
    tasks: int = 0
    #: always 0: the pool's shared queue balances, so there is no
    #: steal to count; kept because result documents carry the field
    steals: int = 0
    #: re-enqueued dispatches after a failed attempt
    retries: int = 0
    #: attempts that raised (injected or genuine), retried or not
    failures: int = 0
    #: straggler duplicates launched
    speculations: int = 0
    #: duplicates that beat the original attempt
    speculation_wins: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bump(self, counter: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "speculate": self.speculate,
            "tasks": self.tasks, "steals": self.steals,
            "retries": self.retries, "failures": self.failures,
            "speculations": self.speculations,
            "speculation_wins": self.speculation_wins,
        }


def scheduler_stats_from_dict(data: dict) -> SchedulerStats:
    return SchedulerStats(
        name=data.get("name", STATIC),
        speculate=data.get("speculate", False),
        tasks=data.get("tasks", 0), steals=data.get("steals", 0),
        retries=data.get("retries", 0), failures=data.get("failures", 0),
        speculations=data.get("speculations", 0),
        speculation_wins=data.get("speculation_wins", 0))


def speculation_eta(durations: Sequence[float],
                    config: SchedulerConfig) -> Optional[float]:
    """Elapsed seconds past which a running chunk task is a straggler.

    The one speculation rule, local and cross-node: a multiple of the
    p50 of completed task durations, or ``None`` while too few tasks
    have completed for the p50 to be trusted.
    """
    if len(durations) < config.speculation_min_samples:
        return None
    return max(config.speculation_factor * statistics.median(durations),
               config.speculation_min_seconds)


def retry_allowed(attempts: int, config: SchedulerConfig,
                  bump: Callable[[str], None]) -> bool:
    """Account one failed attempt of a chunk that has begun ``attempts``
    dispatches; True when the retry budget covers another dispatch."""
    bump("failures")
    if attempts >= config.max_attempts:
        return False
    bump("retries")
    return True


def open_attempt(fault_policy: Optional[FaultPolicy], stage_index: int,
                 chunk_index: int, attempts: int, config: SchedulerConfig,
                 bump: Callable[[str], None],
                 ) -> Tuple[float, int, Optional[BaseException]]:
    """Gate a chunk's next dispatch through fault injection.

    Dispatch-time kills are retried on the spot, each one spending an
    attempt.  Returns ``(delay, attempts, error)``: the injected
    straggler delay for the dispatch that got through and the attempts
    spent before it, or the fault that exhausted the budget.
    """
    while fault_policy is not None:
        try:
            return (fault_policy.begin_attempt(stage_index, chunk_index,
                                               attempts), attempts, None)
        except InjectedFault as exc:
            attempts += 1
            if not retry_allowed(attempts, config, bump):
                return 0.0, attempts, exc
    return 0.0, attempts, None


class TaskSet:
    """Fault-tolerant in-order dispatch of one stage's chunk tasks.

    The one local dispatcher: ``submit(chunk, delay)`` hands a chunk to
    the engine's worker pool (whose shared queue places it on the next
    free worker) and returns a future.  Every dispatch is wrapped here:
    kill-faults are retried at submit time, failures surfacing at drain
    time are re-dispatched (bounded by ``max_attempts``), and a chunk
    the consumer has been blocked on for longer than the p50-based ETA
    gets one speculative duplicate — first result wins.  While
    speculation is on, task durations are learned as futures
    *complete*, not as they are drained, so the siblings of a
    straggling head-of-line chunk supply the ETA that convicts it.
    """

    def __init__(self, submit: Callable[[str, float], "cf.Future"],
                 *, stage_index: int = 0,
                 config: Optional[SchedulerConfig] = None,
                 fault_policy: Optional[FaultPolicy] = None,
                 stats: Optional[SchedulerStats] = None) -> None:
        self._submit = submit
        self.stage_index = stage_index
        self.config = config or SchedulerConfig()
        self.fault_policy = fault_policy
        self.stats = stats if stats is not None else SchedulerStats()
        self._durations: List[float] = []

    def in_order(self, chunks: Iterable[str], window: Optional[int] = None,
                 record: Optional[Callable[[float, float], None]] = None,
                 ) -> Iterator[str]:
        """Map the stage command over ``chunks``; outputs in chunk order.

        At most ``window`` chunks are undelivered at any time (``None``:
        the whole decomposition is submitted up front, so no worker
        idles behind a heavy head chunk).  The window is a pipelined
        stage's overlap — its futures compute in the pool while the
        consumer works on the outputs already yielded — and its
        back-pressure: no chunk is pulled from ``chunks`` while
        ``window`` are in flight.  ``record(start, end)`` receives each
        delivered chunk's busy interval.  Closing the generator cancels
        the chunks no worker has started.
        """
        pending: deque = deque()
        try:
            for index, chunk in enumerate(chunks):
                pending.append(self.submit(index, chunk))
                # drain in submission order: eagerly when the head is
                # already done, forcibly to stay inside the window
                while pending and (pending[0][3].done()
                                   or len(pending) == window):
                    yield self._deliver(pending.popleft(), record)
            while pending:
                yield self._deliver(pending.popleft(), record)
        finally:
            # closed early or unwound by an error: nobody will read the
            # queued chunks, so keep them off the shared pool
            for entry in pending:
                entry[3].cancel()

    def _deliver(self, entry, record) -> str:
        out, t0, t1 = self.result(entry)
        if record is not None:
            record(t0, t1)
        return out

    def submit(self, index: int, chunk: str):
        """Dispatch one chunk; returns an opaque entry for :meth:`result`."""
        self.stats.bump("tasks")
        future, attempt = self._dispatch(index, chunk, 0)
        return (index, chunk, attempt, future)

    def _dispatch(self, index: int, chunk: str, attempt: int):
        """One attempt, retrying kill-faults raised before dispatch."""
        delay, attempt, error = open_attempt(
            self.fault_policy, self.stage_index, index, attempt,
            self.config, self.stats.bump)
        if error is not None:
            raise error
        future = self._submit(chunk, delay)
        if self.config.speculate:   # the only reader of the durations
            future.add_done_callback(self._learn)
        return future, attempt + 1

    def _learn(self, future: "cf.Future") -> None:
        """Done-callback: fold a completed attempt's busy time into the
        sample the speculation ETA is drawn from."""
        if not future.cancelled() and future.exception() is None:
            _, t0, t1 = future.result()
            self._durations.append(t1 - t0)

    def result(self, entry) -> Tuple[str, float, float]:
        """Block for one entry's output, retrying and speculating.

        The straggler clock starts here, when the consumer begins to
        wait — not at submission, which for a chunk deep in the pool's
        queue was long before a worker picked it up.  Entries are
        waited on in chunk order, so by now every chunk ahead of this
        one is done and a worker is free for it.
        """
        index, chunk, attempts, future = entry
        spec = None   # the one speculative duplicate, once launched
        blocked_since = time.perf_counter()
        while True:
            waiting = {f for f in (future, spec) if f is not None}
            timeout = eta = None
            if (self.config.speculate and spec is None
                    and attempts < self.config.max_attempts):
                eta = speculation_eta(self._durations, self.config)
                # too few samples yet: look again once siblings landed
                timeout = self.config.speculation_min_seconds \
                    if eta is None else max(
                        0.0, eta - (time.perf_counter() - blocked_since))
            done, _ = cf.wait(waiting, timeout=timeout,
                              return_when=cf.FIRST_COMPLETED)
            if not done:
                if eta is not None:
                    # straggler: launch the one duplicate
                    self.stats.bump("speculations")
                    spec, attempts = self._dispatch(index, chunk, attempts)
                continue
            winner = done.pop()
            try:
                out, t0, t1 = winner.result()
            except Exception:
                if spec is not None:
                    # the other attempt may still succeed
                    self.stats.bump("failures")
                    if winner is future:
                        future = spec
                    spec = None
                    continue
                if not retry_allowed(attempts, self.config,
                                     self.stats.bump):
                    raise
                future, attempts = self._dispatch(index, chunk, attempts)
                # the retry gets a full ETA of its own — judging it by
                # the failed attempt's wait would trigger an instant
                # (wasted) duplicate
                blocked_since = time.perf_counter()
                continue
            if spec is not None:
                if winner is spec:
                    self.stats.bump("speculation_wins")
                # a loser still queued never needs to run
                (future if winner is spec else spec).cancel()
            return out, t0, t1
