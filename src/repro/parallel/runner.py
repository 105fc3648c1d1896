"""Stage execution engines: serial, thread pool, and process pool.

Simulated commands are CPU-bound pure Python, so true parallel speedup
requires processes; subprocess-backed commands block on I/O and run
fine under threads.  Workers rebuild commands from argv (cheap and
always picklable) and share the virtual filesystem via a pool
initializer so it is shipped once, not per task.
"""

from __future__ import annotations

import concurrent.futures as cf
import hashlib
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..shell.command import Command
from ..unixsim import ExecContext, build

#: execution engines
SERIAL = "serial"
THREADS = "threads"
PROCESSES = "processes"

_WORKER_CONTEXT: Optional[ExecContext] = None


def fs_digest(fs: Mapping[str, str],
              env: Optional[Mapping[str, str]] = None) -> str:
    """Collision-resistant fingerprint of a virtual filesystem (+env).

    Used wherever byte-identical contents must imply a shared resource
    (plan-cache identity, process-pool reuse) — a practical ``hash()``
    collision here would hand one job another job's data.
    """
    digest = hashlib.sha256()
    for mapping in (fs, env or {}):
        for name in sorted(mapping):
            digest.update(name.encode("utf-8", "surrogatepass"))
            digest.update(b"\x00")
            digest.update(mapping[name].encode("utf-8", "surrogatepass"))
            digest.update(b"\x00")
        digest.update(b"\x01")
    return digest.hexdigest()


def _init_worker(fs: Dict[str, str], env: Dict[str, str]) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ExecContext(fs=fs, env=env)


def _run_chunk(argv: List[str], chunk: str) -> str:
    ctx = _WORKER_CONTEXT if _WORKER_CONTEXT is not None else ExecContext()
    return build(argv).run(chunk, ctx)


def _timed_call(fn: Callable[[str], str], chunk: str,
                delay: float = 0.0) -> Tuple[str, float, float]:
    t0 = time.perf_counter()
    if delay > 0.0:
        # injected straggler latency counts as busy time: the worker
        # slot is occupied, which is exactly what speculation reacts to
        time.sleep(delay)
    out = fn(chunk)
    return out, t0, time.perf_counter()


def _run_chunk_timed(argv: List[str], chunk: str,
                     delay: float = 0.0) -> Tuple[str, float, float]:
    t0 = time.perf_counter()
    if delay > 0.0:
        time.sleep(delay)
    out = _run_chunk(argv, chunk)
    return out, t0, time.perf_counter()


class StageRunner:
    """Runs one command over many chunks, possibly in parallel.

    A single runner (and its worker pool) is shared across all stages
    of a pipeline execution, so pool startup cost is paid once.  The
    pool's shared FIFO queue is the chunk balancer: whichever worker
    frees up first takes the next submitted chunk.
    """

    def __init__(self, engine: str = SERIAL, max_workers: int = 1,
                 context: Optional[ExecContext] = None) -> None:
        if engine not in (SERIAL, THREADS, PROCESSES):
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        self.max_workers = max(1, max_workers)
        self.context = context if context is not None else ExecContext()
        self._pool: Optional[cf.Executor] = None

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "StageRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> cf.Executor:
        if self._pool is None:
            if self.engine == PROCESSES:
                self._pool = cf.ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_init_worker,
                    initargs=(self.context.fs, self.context.env))
            else:
                self._pool = cf.ThreadPoolExecutor(
                    max_workers=self.max_workers)
        return self._pool

    # -- execution -----------------------------------------------------------

    def submit_timed(self, command: Command, chunk: str, delay: float = 0.0
                     ) -> "cf.Future[Tuple[str, float, float]]":
        """Dispatch one chunk, resolving to ``(output, start, end)``.

        The busy interval is measured where the chunk actually runs (in
        the worker thread or process); ``time.perf_counter`` is
        system-wide on Linux, so intervals from process workers are
        comparable with the parent's.  The streaming data plane uses
        this to account per-stage overlap.  ``delay`` is injected
        straggler latency (fault testing) applied in the worker.  Under
        ``serial`` the chunk runs inline (no pool is ever created) and
        the future comes back completed.
        """
        if self.engine == SERIAL:
            future: cf.Future = cf.Future()
            try:
                future.set_result(_timed_call(command.run, chunk, delay))
            except BaseException as exc:  # noqa: BLE001 - mirror pool behavior
                future.set_exception(exc)
            return future
        pool = self._ensure_pool()
        if self.engine == PROCESSES and command.backend == "sim":
            return pool.submit(_run_chunk_timed, command.argv, chunk, delay)
        return pool.submit(_timed_call, command.run, chunk, delay)


class RunnerPool:
    """Long-lived :class:`StageRunner` pool for multi-job processes.

    A one-shot run spins a worker pool up and tears it down; a resident
    service executing many jobs must not pay that per job.  ``acquire``
    hands out an idle runner (or creates one) and ``release`` returns
    it, keeping its underlying thread/process pool warm for the next
    job.

    Thread runners are context-free — chunk work is submitted as bound
    ``command.run`` closures that carry their own :class:`ExecContext`
    — so any thread runner of sufficient width is reusable by any job.
    Process runners snapshot the virtual filesystem into workers at
    pool startup, so they are keyed by a fingerprint of the context and
    only reused by jobs with an identical one.  The service's plans
    hold side files only, so that is one key per distinct set of side
    files, not per dataset — still unbounded, so ``max_idle`` bounds
    the idle runners in *total*: on overflow the least recently
    released one is closed.
    """

    def __init__(self, max_idle: int = 2) -> None:
        self.max_idle = max_idle
        self._idle: List[StageRunner] = []   # least recently released first
        self._lock = threading.Lock()
        self._closed = False
        self.reused = 0
        self.created = 0

    @staticmethod
    def _key(engine: str, max_workers: int,
             context: Optional[ExecContext]) -> tuple:
        if engine == PROCESSES:
            ctx = context if context is not None else ExecContext()
            return (engine, max_workers, fs_digest(ctx.fs, ctx.env))
        return (engine, max_workers)

    def acquire(self, engine: str = SERIAL, max_workers: int = 1,
                context: Optional[ExecContext] = None) -> StageRunner:
        key = self._key(engine, max_workers, context)
        with self._lock:
            if self._closed:
                raise RuntimeError("RunnerPool is closed")
            runner = next((r for r in reversed(self._idle)
                           if r._pool_key == key), None)
            if runner is not None:
                self._idle.remove(runner)
                self.reused += 1
            else:
                self.created += 1
        if runner is None:
            runner = StageRunner(engine=engine, max_workers=max_workers,
                                 context=context)
            runner._pool_key = key  # type: ignore[attr-defined]
        elif context is not None:
            # safe for serial/threads (see class docstring); process
            # runners only reach here with an identical-fingerprint
            # context, whose fs/env snapshot is already in the workers
            runner.context = context
        return runner

    def release(self, runner: StageRunner) -> None:
        if not hasattr(runner, "_pool_key"):  # not one of ours: just close it
            runner.close()
            return
        with self._lock:
            if not self._closed:
                self._idle.append(runner)
                if len(self._idle) <= self.max_idle:
                    return
                runner = self._idle.pop(0)
        runner.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            runners, self._idle = self._idle, []
        for runner in runners:
            runner.close()

    def __enter__(self) -> "RunnerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)
