"""Adaptive, fault-tolerant chunk scheduling for parallel stages.

The planner decides *what* runs in parallel; this module decides *how*
the chunk tasks of one parallel stage are placed on workers and what
happens when a task fails or straggles:

* **static** — the original assignment: the stage's input is split
  into exactly ``k`` byte-balanced chunks and each worker owns one.
  Cheap and optimal on uniform data, but one expensive chunk (skewed
  cost per byte) or one slow worker serializes the whole stage.
* **stealing** — chunk tasks live in per-worker deques seeded round-
  robin; a worker that drains its own deque steals from the busiest
  peer's tail.  The stage input is carved *adaptively*: chunks start
  small and grow toward a per-task target latency measured online
  (:class:`AdaptiveSplitter`), so the task pool is fine-grained enough
  to balance skew without paying per-task overhead on uniform data.

The fault-tolerance layer applies under both schedulers:

* **retry** — a failed chunk attempt is re-enqueued, up to
  ``max_attempts`` dispatches per chunk;
* **speculation** — when every queue is empty but results are still
  outstanding, a duplicate of the longest-running task is launched
  once its elapsed time exceeds an ETA derived from the p50 of
  completed task durations; the first result wins.

Both are *legal* because chunk evaluation is deterministic: simulated
commands are pure functions of ``(chunk, virtual fs)``, so re-running
a chunk — concurrently or after a failure — can only reproduce the
byte-identical output the first attempt would have produced.
Reassembly is by chunk index, never completion order, so retries,
steals, and speculation are invisible in the output stream.

Chunk-count independence: synthesized combiners are insensitive to
line-aligned chunk boundaries (the same property the streaming plane's
oversplitting relies on), so the adaptive splitter may choose any
decomposition without affecting the combined result.

:class:`FaultPolicy` is the deterministic fault-injection hook used by
the fault-tolerance test suite and the evaluation harness: it kills or
delays specific ``(stage, chunk, attempt)`` dispatches, so tests can
assert that the retry/speculation counters in :class:`SchedulerStats`
match exactly the faults injected.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

#: chunk schedulers
STATIC = "static"
STEALING = "stealing"
#: sentinel: let the optimizer's cost model pick the scheduler
AUTO = "auto"

SCHEDULERS = (STATIC, STEALING)

#: a stealing decomposition never exceeds this many chunks per worker
STEAL_OVERSPLIT = 8

#: adaptive chunks start at this size (and never shrink below it)
MIN_ADAPTIVE_CHUNK_BYTES = 8 * 1024

#: modeled per-task dispatch overhead charged to the stealing scheduler
#: by the cost model (deque + steal bookkeeping per chunk task)
DEFAULT_TASK_OVERHEAD = 5e-5


def stealing_chunk_count(nbytes: int, k: int) -> int:
    """Number of chunks a stealing decomposition targets for ``nbytes``.

    Mirrors :class:`AdaptiveSplitter`'s bounds so the cost model prices
    the decomposition the runtime would actually use: at least ``k``
    chunks, at most ``STEAL_OVERSPLIT`` per worker, and never smaller
    than :data:`MIN_ADAPTIVE_CHUNK_BYTES` each.
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
    #: adaptive sizing aims each chunk at this many seconds of work
    target_chunk_seconds: float = 0.05
    #: adaptive chunks start at (and never shrink below) this size
    min_chunk_bytes: int = MIN_ADAPTIVE_CHUNK_BYTES
    #: chunk tasks per worker the adaptive splitter will not exceed
    oversplit: int = STEAL_OVERSPLIT


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
    #: tasks a worker took from another worker's deque
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


class AdaptiveSplitter:
    """Carves line-aligned chunks off a stream, sized from live feedback.

    The first chunks are small (``min_chunk_bytes``) so per-chunk cost
    is measured early; :meth:`observe` folds completed-task timings
    into a bytes-per-second estimate, and subsequent chunks grow toward
    ``target_chunk_seconds`` of estimated work.  Bounds keep the total
    decomposition between ``k`` and ``oversplit * k`` chunks, and every
    chunk is a valid stream piece: pieces are contiguous, non-empty,
    newline-terminated (except possibly the final piece of a
    newline-free tail), and concatenate back to the input.
    """

    def __init__(self, data: str, k: int,
                 config: Optional[SchedulerConfig] = None) -> None:
        self.data = data
        self.k = max(1, k)
        self.config = config or SchedulerConfig()
        self._pos = 0
        self._rate: Optional[float] = None  # observed bytes per second
        # never shrink chunks below the size that would overshoot the
        # task-count budget
        budget = self.config.oversplit * self.k
        self._floor = max(self.config.min_chunk_bytes,
                          -(-len(data) // budget) if data else 1)
        self._ceiling = max(self._floor, len(data) // self.k or len(data))

    def observe(self, nbytes: int, seconds: float) -> None:
        """Fold one completed chunk's measured throughput into sizing."""
        if nbytes <= 0 or seconds <= 0.0:
            return
        rate = nbytes / seconds
        self._rate = rate if self._rate is None \
            else 0.5 * self._rate + 0.5 * rate

    def _next_size(self) -> int:
        if self._rate is None:
            return self._floor
        want = int(self._rate * self.config.target_chunk_seconds)
        return max(self._floor, min(want, self._ceiling))

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self.data)

    def next_chunk(self) -> Optional[str]:
        """The next line-aligned chunk, or ``None`` at end of stream."""
        if self.exhausted:
            return None
        start = self._pos
        cut = start + self._next_size()
        if cut >= len(self.data):
            self._pos = len(self.data)
            return self.data[start:]
        nl = self.data.find("\n", cut)
        if nl == -1:  # newline-free tail: emit it whole
            self._pos = len(self.data)
            return self.data[start:]
        self._pos = nl + 1
        return self.data[start : nl + 1]


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


class ChunkScheduler:
    """Work-stealing execution of one parallel stage's chunk tasks.

    ``workers`` coordinator threads share a set of per-worker deques;
    chunk compute is dispatched synchronously through
    ``run_chunk(chunk, delay)`` (the executor binds this to the shared
    :class:`~repro.parallel.runner.StageRunner`, so the engine's worker
    pool still bounds total compute concurrency).  Results are keyed by
    chunk index; :meth:`run_chunks`/:meth:`run_stream` return them in
    input order regardless of completion order, and :meth:`iter_stream`
    yields them in that order as the completed prefix grows.
    """

    def __init__(self, run_chunk: Callable[[str, float],
                                           Tuple[str, float, float]],
                 *, stage_index: int = 0, workers: int = 1,
                 config: Optional[SchedulerConfig] = None,
                 fault_policy: Optional[FaultPolicy] = None,
                 stats: Optional[SchedulerStats] = None) -> None:
        self.run_chunk = run_chunk
        self.stage_index = stage_index
        self.workers = max(1, workers)
        self.config = config or SchedulerConfig()
        self.fault_policy = fault_policy
        self.stats = stats if stats is not None else SchedulerStats()
        self.intervals: List[Tuple[float, float]] = []
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._deques: List[deque] = [deque() for _ in range(self.workers)]
        self._results: Dict[int, str] = {}
        self._durations: List[float] = []
        self._attempts: Dict[int, int] = {}     # dispatches begun per chunk
        self._inflight: Dict[int, int] = {}     # attempts running per chunk
        self._running_since: Dict[int, float] = {}
        self._speculated: set = set()
        self._splitter: Optional[AdaptiveSplitter] = None
        self._chunks_by_index: Dict[int, str] = {}
        self._produced = 0
        self._emitted = 0
        self._error: Optional[BaseException] = None
        self._closed = False

    # -- public entry points -------------------------------------------------

    def run_chunks(self, chunks: List[str]) -> List[str]:
        """Schedule a fixed, pre-split chunk list."""
        for i, chunk in enumerate(chunks):
            self._deques[i % self.workers].append(self._task(i, chunk))
        self._produced = len(chunks)
        self._splitter = None
        return list(self._run())

    def run_stream(self, data: str, k: int) -> List[str]:
        """:meth:`iter_stream`, materialized."""
        return list(self.iter_stream(data, k))

    def iter_stream(self, data: str, k: int) -> Iterator[str]:
        """Adaptively carve ``data`` into tasks while scheduling them.

        Yields the per-chunk outputs in stream order; the chosen
        decomposition concatenates back to ``data``, so any combiner
        legal for the static split is legal here too.
        """
        self._splitter = AdaptiveSplitter(data, k, self.config)
        if self._splitter.exhausted:
            # an empty stream still runs the command once: commands map
            # empty input to a fixed output (e.g. ``wc -l`` -> "0"),
            # matching the serial run and the static [""] split
            self._deques[0].append(self._task(0, ""))
            self._produced = 1
            self._splitter = None
        else:
            self._carve_batch()
        return self._run()

    # -- task plumbing -------------------------------------------------------

    def _task(self, index: int, chunk: str, speculative: bool = False):
        return (index, chunk, speculative)

    def _carve_batch(self) -> bool:
        """Carve up to one new task per worker; True if any were carved."""
        assert self._splitter is not None
        carved = False
        for w in range(self.workers):
            chunk = self._splitter.next_chunk()
            if chunk is None:
                break
            self._deques[w].append(self._task(self._produced, chunk))
            self._produced += 1
            carved = True
        return carved

    @property
    def _done(self) -> bool:
        produced_all = self._splitter is None or self._splitter.exhausted
        return produced_all and len(self._results) >= self._produced

    def _next_task(self, w: int):
        """Block until a task is available for worker ``w`` (or all done)."""
        with self._cond:
            while True:
                if self._error is not None or self._done or self._closed:
                    self._cond.notify_all()
                    return None
                own = self._deques[w]
                if own:
                    return own.popleft()
                victim = max((d for d in self._deques if d),
                             key=len, default=None)
                if victim is not None:
                    self.stats.bump("steals")
                    return victim.pop()
                if self._splitter is not None \
                        and not self._splitter.exhausted:
                    if self._carve_batch() and self._deques[w]:
                        return self._deques[w].popleft()
                    continue
                task = self._pick_straggler()
                if task is not None:
                    return task
                self._cond.wait(timeout=0.02)

    def _pick_straggler(self):
        """A speculative duplicate of the most overdue running task."""
        if not self.config.speculate or self.workers < 2:
            return None
        eta = speculation_eta(self._durations, self.config)
        if eta is None:
            return None
        now = time.perf_counter()
        overdue = [(now - since, idx)
                   for idx, since in self._running_since.items()
                   if idx not in self._speculated
                   and idx not in self._results
                   and self._attempts.get(idx, 0) < self.config.max_attempts
                   and now - since > eta]
        if not overdue:
            return None
        _, idx = max(overdue)
        self._speculated.add(idx)
        self.stats.bump("speculations")
        return self._task(idx, self._chunks_by_index[idx], speculative=True)

    def _execute(self, task, w: int) -> None:
        idx, chunk, speculative = task
        with self._cond:
            if idx in self._results:
                return  # the other attempt already won
            attempt = self._attempts.get(idx, 0)
            self._attempts[idx] = attempt + 1
            self._inflight[idx] = self._inflight.get(idx, 0) + 1
            self._running_since.setdefault(idx, time.perf_counter())
            self._chunks_by_index[idx] = chunk
        started = time.perf_counter()
        try:
            delay = 0.0
            if self.fault_policy is not None:
                delay = self.fault_policy.begin_attempt(
                    self.stage_index, idx, attempt)
            out, t0, t1 = self.run_chunk(chunk, delay)
        except Exception as exc:
            with self._cond:
                self._inflight[idx] -= 1
                if idx in self._results:
                    self.stats.bump("failures")
                    self._cond.notify_all()
                    return  # a concurrent attempt won; failure is moot
                if retry_allowed(self._attempts[idx], self.config,
                                 self.stats.bump):
                    self._deques[w].append(self._task(idx, chunk))
                elif self._inflight[idx] <= 0:
                    # no attempt left that could still resolve the chunk
                    self._error = self._error or exc
                self._cond.notify_all()
            return
        elapsed = time.perf_counter() - started
        if self._splitter is not None:
            self._splitter.observe(len(chunk), elapsed)
        with self._cond:
            self._inflight[idx] -= 1
            if idx not in self._results:
                # only the winning attempt contributes accounting: a
                # losing duplicate may land after run() has returned,
                # when the caller already owns the interval list
                self._durations.append(elapsed)
                self.intervals.append((t0, t1))
                self._results[idx] = out
                self._running_since.pop(idx, None)
                if speculative:
                    self.stats.bump("speculation_wins")
            self._cond.notify_all()

    def _worker(self, w: int) -> None:
        try:
            while True:
                task = self._next_task(w)
                if task is None:
                    return
                self._execute(task, w)
        except BaseException as exc:  # noqa: BLE001 - ferried to caller
            with self._cond:
                self._error = self._error or exc
                self._cond.notify_all()

    def _pending_emits(self) -> List[str]:
        """Pop the newly completed prefix (caller must hold the lock)."""
        out: List[str] = []
        while self._emitted in self._results:
            out.append(self._results[self._emitted])
            self._emitted += 1
        return out

    def _run(self) -> Iterator[str]:
        """Drive the workers; yield outputs in index order as they land."""
        if self.workers == 1:
            self._worker(0)
        else:
            for w in range(self.workers):
                threading.Thread(target=self._worker, args=(w,),
                                 name=f"repro-steal-{w}",
                                 daemon=True).start()
        # wait for *results*, not workers: when a speculative duplicate
        # wins, the superseded original may still be executing — its
        # result is discarded on arrival and its worker exits on the
        # next task poll, so joining it would forfeit exactly the
        # latency speculation recovered.  Emission happens HERE, in the
        # single consuming thread: workers emitting directly could
        # interleave out of order, and a consumer that is slow to pull
        # must not stall a compute worker.
        try:
            while True:
                with self._cond:
                    emits = self._pending_emits()
                    if not emits:
                        if self._done or self._error is not None:
                            break
                        self._cond.wait(timeout=0.05)
                        continue
                yield from emits
        finally:
            # nobody consumes further results — also when the consumer
            # stopped early (downstream early exit, an error elsewhere):
            # idle the workers
            with self._cond:
                self._closed = True
                self._cond.notify_all()
        self.stats.bump("tasks", self._produced)
        if self._error is not None:
            raise self._error


class TaskSet:
    """Fault-tolerant in-order dispatch for the streaming data plane.

    The streaming plane keeps chunks flowing downstream in submission
    order, so it cannot hand a whole task pool to the deque scheduler;
    instead every chunk dispatch is wrapped here: kill-faults are
    retried at submit time, failures surfacing at drain time are
    re-dispatched (bounded by ``max_attempts``), and a head-of-line
    chunk that exceeds the p50-based ETA gets one speculative duplicate
    — first result wins, exactly the deque scheduler's policy.
    """

    def __init__(self, submit: Callable[[str, float], "object"],
                 *, stage_index: int = 0,
                 config: Optional[SchedulerConfig] = None,
                 fault_policy: Optional[FaultPolicy] = None,
                 stats: Optional[SchedulerStats] = None) -> None:
        self._submit = submit            # (chunk, delay) -> Future
        self.stage_index = stage_index
        self.config = config or SchedulerConfig()
        self.fault_policy = fault_policy
        self.stats = stats if stats is not None else SchedulerStats()
        self._durations: List[float] = []

    def submit(self, index: int, chunk: str):
        """Dispatch one chunk; returns an opaque entry for :meth:`result`."""
        self.stats.bump("tasks")
        future, attempt = self._dispatch(index, chunk, 0)
        return (index, chunk, attempt, future, time.perf_counter())

    def _dispatch(self, index: int, chunk: str, attempt: int):
        """One attempt, retrying kill-faults raised before dispatch."""
        delay, attempt, error = open_attempt(
            self.fault_policy, self.stage_index, index, attempt,
            self.config, self.stats.bump)
        if error is not None:
            raise error
        return self._submit(chunk, delay), attempt + 1

    def result(self, entry) -> Tuple[str, float, float]:
        """Block for one entry's output, retrying and speculating."""
        import concurrent.futures as cf

        index, chunk, attempts, future, submitted = entry
        spec = None   # the one speculative duplicate, once launched
        while True:
            waiting = {f for f in (future, spec) if f is not None}
            eta = speculation_eta(self._durations, self.config) \
                if (self.config.speculate and spec is None
                    and attempts < self.config.max_attempts) else None
            timeout = None
            if eta is not None:
                timeout = max(0.0, eta - (time.perf_counter() - submitted))
            done, _ = cf.wait(waiting, timeout=timeout,
                              return_when=cf.FIRST_COMPLETED)
            if not done:
                # head-of-line straggler: launch the one duplicate
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
                # the retry's speculation clock starts now — judging it
                # against the failed attempt's submit time would trigger
                # an instant (wasted) duplicate
                submitted = time.perf_counter()
                continue
            self._durations.append(t1 - t0)
            if spec is not None and winner is spec:
                self.stats.bump("speculation_wins")
            return out, t0, t1
