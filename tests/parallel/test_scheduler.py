"""Unit tests for the chunk dispatcher (TaskSet) and the stealing split."""

import concurrent.futures as cf
import threading
import time

import pytest

from repro.parallel.scheduler import (
    FaultPolicy,
    InjectedFault,
    STEALING,
    SchedulerConfig,
    SchedulerStats,
    TaskSet,
    stealing_chunk_count,
)


def _timed(fn, chunk, delay=0.0):
    if delay:
        time.sleep(delay)
    t0 = time.perf_counter()
    out = fn(chunk)
    return out, t0, time.perf_counter()


@pytest.fixture
def pool():
    with cf.ThreadPoolExecutor(max_workers=4) as executor:
        yield executor


def _tasks(pool, fn, **kwargs):
    """A TaskSet dispatching ``fn`` onto ``pool``, like a StageRunner."""
    return TaskSet(lambda chunk, delay: pool.submit(_timed, fn, chunk, delay),
                   **kwargs)


def test_stealing_chunk_count_bounds():
    assert stealing_chunk_count(0, 4) == 4
    assert stealing_chunk_count(10, 1) == 1
    assert stealing_chunk_count(16 * 8 * 1024, 4) == 16
    assert stealing_chunk_count(10**9, 4) == 32  # capped at oversplit * k


# -- TaskSet.in_order over a thread pool -------------------------------------


def test_in_order_preserves_order_any_completion_order(pool):
    stats = SchedulerStats(name=STEALING)

    def work(chunk):
        # earlier chunks finish later
        time.sleep(0.002 * (23 - int(chunk.split("-")[1])))
        return chunk.upper()

    chunks = [f"chunk-{i}\n" for i in range(23)]
    tasks = _tasks(pool, work, stats=stats)
    assert list(tasks.in_order(chunks)) == [c.upper() for c in chunks]
    assert stats.tasks == 23


def test_in_order_window_bounds_undelivered_chunks(pool):
    pulled = []

    def source():
        for i in range(12):
            pulled.append(i)
            yield f"{i}\n"

    outputs = _tasks(pool, lambda c: c).in_order(source(), window=3)
    assert next(outputs) == "0\n"
    # one delivered, at most ``window`` more in flight
    assert len(pulled) <= 4
    assert list(outputs) == [f"{i}\n" for i in range(1, 12)]


def test_retry_bounded_then_raises(pool):
    stats = SchedulerStats()
    policy = FaultPolicy(kill={(0, 2): 99})  # chunk 2 always dies
    tasks = _tasks(pool, lambda c: c,
                   config=SchedulerConfig(max_attempts=3),
                   fault_policy=policy, stats=stats)
    with pytest.raises(InjectedFault):
        list(tasks.in_order(["a\n", "b\n", "c\n", "d\n"]))
    assert policy.injected_kills == 3      # three dispatches, all killed
    assert stats.retries == 2              # attempts 2 and 3 were retries
    assert stats.failures == 3


def test_retry_recovers_and_counts(pool):
    stats = SchedulerStats()
    policy = FaultPolicy(kill={(0, 1): 2})  # first two attempts fail
    tasks = _tasks(pool, lambda c: c * 2,
                   config=SchedulerConfig(max_attempts=3),
                   fault_policy=policy, stats=stats)
    out = list(tasks.in_order(["a\n", "b\n", "c\n"]))
    assert out == ["a\na\n", "b\nb\n", "c\nc\n"]
    assert stats.retries == 2 == policy.injected_kills
    assert stats.failures == 2


def test_drain_time_failure_is_retried(pool):
    """A failure raised where the chunk runs (not at dispatch) surfaces
    when the entry is drained and is re-dispatched."""
    stats = SchedulerStats()
    seen = []

    def work(chunk):
        seen.append(chunk)
        if chunk == "b\n" and seen.count(chunk) == 1:
            raise RuntimeError("worker died")
        return chunk

    tasks = _tasks(pool, work, stats=stats)
    assert list(tasks.in_order(["a\n", "b\n", "c\n"])) \
        == ["a\n", "b\n", "c\n"]
    assert stats.failures == 1 and stats.retries == 1


@pytest.mark.parametrize("straggler_at", [0, 3])
def test_speculation_duplicates_straggler_and_wins(pool, straggler_at):
    """Also with the straggler at the head of the line: its siblings'
    durations are learned as they complete, not as they are drained."""
    stats = SchedulerStats(name=STEALING, speculate=True)
    attempts = {"n": 0}
    lock = threading.Lock()

    def work(chunk):
        if chunk == "straggler":
            with lock:
                attempts["n"] += 1
                first = attempts["n"] == 1
            if first:
                time.sleep(1.0)  # the original attempt hangs
        return chunk + "!"

    cfg = SchedulerConfig(speculate=True, speculation_factor=1.5,
                          speculation_min_samples=2,
                          speculation_min_seconds=0.02)
    chunks = ["a", "b", "c", "d", "e", "f", "g"]
    chunks.insert(straggler_at, "straggler")
    t0 = time.perf_counter()
    out = list(_tasks(pool, work, config=cfg, stats=stats).in_order(chunks))
    elapsed = time.perf_counter() - t0
    assert out == [c + "!" for c in chunks]
    assert stats.speculations >= 1
    assert stats.speculation_wins >= 1
    assert elapsed < 0.9  # did not wait out the 1s original


def test_queued_chunks_are_not_mistaken_for_stragglers():
    """A deep queue on a narrow pool: every chunk waits its turn far
    longer than one chunk takes, and none of them is duplicated."""
    stats = SchedulerStats(speculate=True)
    cfg = SchedulerConfig(speculate=True, speculation_factor=5.0,
                          speculation_min_samples=2,
                          speculation_min_seconds=0.001)

    def work(chunk):
        time.sleep(0.01)
        return chunk

    chunks = [f"{i}\n" for i in range(24)]
    with cf.ThreadPoolExecutor(max_workers=2) as narrow:
        out = list(_tasks(narrow, work, config=cfg,
                          stats=stats).in_order(chunks))
    assert out == chunks
    assert stats.speculations == 0


def test_every_completion_is_learned_under_contention():
    """Durations are appended from the pool's threads while the consumer
    reads them: no completion may be lost."""
    import sys

    chunks = [f"{i}\n" for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cf.ThreadPoolExecutor(max_workers=8) as crowded:
            tasks = _tasks(crowded, lambda c: c, config=SchedulerConfig(
                speculate=True, speculation_factor=1e9))  # learn, never fire
            assert list(tasks.in_order(chunks, window=16)) == chunks
    finally:
        sys.setswitchinterval(interval)
    # the pool has shut down, so every done-callback has run
    assert len(tasks._durations) == len(chunks)


def test_closing_in_order_idles_the_workers():
    calls = []

    def work(chunk):
        calls.append(chunk)
        time.sleep(0.02)
        return chunk

    chunks = [f"{i}\n" for i in range(32)]
    with cf.ThreadPoolExecutor(max_workers=2) as narrow:
        outputs = _tasks(narrow, work).in_order(chunks)
        assert next(outputs) == "0\n"
        outputs.close()         # the consumer needs no more (early exit)
    # the pool has drained: only what a worker had already started ran
    assert len(calls) < len(chunks) // 2


# -- TaskSet (streaming dispatch wrapper) ------------------------------------


def _resolved_future(value):
    import concurrent.futures as cf

    future = cf.Future()
    future.set_result(value)
    return future


def test_taskset_retries_submit_time_kills():
    stats = SchedulerStats()
    policy = FaultPolicy(kill={(3, 0): 2})
    tasks = TaskSet(lambda chunk, delay: _resolved_future((chunk, 0.0, 0.0)),
                    stage_index=3, config=SchedulerConfig(max_attempts=3),
                    fault_policy=policy, stats=stats)
    entry = tasks.submit(0, "payload")
    out, _, _ = tasks.result(entry)
    assert out == "payload"
    assert stats.retries == 2 == policy.injected_kills


def test_taskset_exhausts_attempts():
    stats = SchedulerStats()
    policy = FaultPolicy(kill={(0, 0): 99})
    tasks = TaskSet(lambda chunk, delay: _resolved_future((chunk, 0.0, 0.0)),
                    config=SchedulerConfig(max_attempts=2),
                    fault_policy=policy, stats=stats)
    with pytest.raises(InjectedFault):
        tasks.submit(0, "x")
    assert stats.failures == 2
    assert stats.retries == 1
