"""Unit tests for the work-stealing chunk scheduler and adaptive splitter."""

import threading
import time

import pytest

from repro.parallel.scheduler import (
    AdaptiveSplitter,
    ChunkScheduler,
    FaultPolicy,
    InjectedFault,
    STEALING,
    SchedulerConfig,
    SchedulerStats,
    TaskSet,
    stealing_chunk_count,
)


def _timed(fn):
    def run(chunk, delay=0.0):
        if delay:
            time.sleep(delay)
        t0 = time.perf_counter()
        out = fn(chunk)
        return out, t0, time.perf_counter()
    return run


# -- AdaptiveSplitter --------------------------------------------------------


def test_adaptive_splitter_roundtrips():
    data = "".join(f"line number {i}\n" for i in range(5000))
    sp = AdaptiveSplitter(data, k=4)
    pieces = []
    while True:
        chunk = sp.next_chunk()
        if chunk is None:
            break
        pieces.append(chunk)
    assert "".join(pieces) == data
    assert all(p.endswith("\n") for p in pieces)
    assert all(p for p in pieces)  # never an empty chunk
    assert len(pieces) <= SchedulerConfig().oversplit * 4


def test_adaptive_splitter_grows_toward_target():
    data = ("x" * 99 + "\n") * 5000  # 500 KB
    cfg = SchedulerConfig(target_chunk_seconds=0.1)
    sp = AdaptiveSplitter(data, k=4, config=cfg)
    first = sp.next_chunk()
    # feedback: tiny chunks are fast, so sizing should scale up
    sp.observe(len(first), 0.001)
    second = sp.next_chunk()
    assert len(second) > len(first)


def test_adaptive_splitter_handles_unterminated_tail():
    data = "a\nb\nc"  # no trailing newline
    sp = AdaptiveSplitter(data, k=2)
    pieces = []
    while (c := sp.next_chunk()) is not None:
        pieces.append(c)
    assert "".join(pieces) == data


def test_adaptive_splitter_single_huge_line():
    data = "x" * 100_000  # newline-free
    sp = AdaptiveSplitter(data, k=4)
    assert sp.next_chunk() == data
    assert sp.next_chunk() is None


def test_stealing_chunk_count_bounds():
    assert stealing_chunk_count(0, 4) == 4
    assert stealing_chunk_count(10, 1) == 1
    assert stealing_chunk_count(16 * 8 * 1024, 4) == 16
    assert stealing_chunk_count(10**9, 4) == 32  # capped at oversplit * k


# -- ChunkScheduler ----------------------------------------------------------


def test_run_chunks_preserves_order_any_completion_order():
    stats = SchedulerStats(name=STEALING)
    sched = ChunkScheduler(_timed(lambda c: c.upper()), workers=4,
                           stats=stats)
    chunks = [f"chunk-{i}\n" for i in range(23)]
    assert sched.run_chunks(list(chunks)) == [c.upper() for c in chunks]
    assert stats.tasks == 23


def test_run_stream_concatenation_invariant():
    data = "".join(f"{i}\n" for i in range(20000))
    sched = ChunkScheduler(_timed(lambda c: c), workers=4)
    outputs = sched.run_stream(data, 4)
    assert "".join(outputs) == data


def test_run_stream_empty_input_runs_command_once():
    sched = ChunkScheduler(_timed(lambda c: f"<{c}>"), workers=4)
    assert sched.run_stream("", 4) == ["<>"]


def test_steals_happen_under_skewed_task_costs():
    stats = SchedulerStats(name=STEALING)

    def work(chunk):
        if chunk.startswith("slow"):
            time.sleep(0.05)
        return chunk

    sched = ChunkScheduler(_timed(work), workers=4, stats=stats)
    # all slow tasks start on worker 0 (round-robin seeding of 4 deques)
    chunks = [("slow" if i % 4 == 0 else "fast") + f"-{i}"
              for i in range(16)]
    out = sched.run_chunks(list(chunks))
    assert out == chunks
    assert stats.steals > 0


def test_retry_bounded_then_raises():
    stats = SchedulerStats()
    policy = FaultPolicy(kill={(0, 2): 99})  # chunk 2 always dies
    sched = ChunkScheduler(_timed(lambda c: c), workers=2,
                           config=SchedulerConfig(max_attempts=3),
                           fault_policy=policy, stats=stats)
    with pytest.raises(InjectedFault):
        sched.run_chunks(["a\n", "b\n", "c\n", "d\n"])
    assert policy.injected_kills == 3      # three dispatches, all killed
    assert stats.retries == 2              # attempts 2 and 3 were retries
    assert stats.failures == 3


def test_retry_recovers_and_counts():
    stats = SchedulerStats()
    policy = FaultPolicy(kill={(0, 1): 2})  # first two attempts fail
    sched = ChunkScheduler(_timed(lambda c: c * 2), workers=2,
                           config=SchedulerConfig(max_attempts=3),
                           fault_policy=policy, stats=stats)
    out = sched.run_chunks(["a\n", "b\n", "c\n"])
    assert out == ["a\na\n", "b\nb\n", "c\nc\n"]
    assert stats.retries == 2 == policy.injected_kills
    assert stats.failures == 2


def test_speculation_duplicates_straggler_and_wins():
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
    sched = ChunkScheduler(_timed(work), workers=4, config=cfg, stats=stats)
    chunks = ["a", "b", "c", "straggler", "d", "e", "f", "g"]
    t0 = time.perf_counter()
    out = sched.run_chunks(list(chunks))
    elapsed = time.perf_counter() - t0
    assert out == [c + "!" for c in chunks]
    assert stats.speculations >= 1
    assert stats.speculation_wins >= 1
    assert elapsed < 0.9  # did not wait out the 1s original


def test_iter_stream_emits_in_index_order():
    data = "".join(f"{i}\n" for i in range(40000))
    sched = ChunkScheduler(_timed(lambda c: c), workers=4)
    emitted = list(sched.iter_stream(data, 4))
    assert len(emitted) > 4
    assert "".join(emitted) == data


def test_iter_stream_complete_and_ordered_with_slow_consumer():
    """Review-pinned: a briefly-blocking consumer must not let the
    stream end with chunks unemitted or emitted out of index order
    (emission happens in the consuming thread, prefix-ordered)."""
    data = "".join(f"{i}-payload\n" for i in range(40000))

    def work(chunk):
        # skewed completion order: later chunks finish first
        time.sleep(0.02 if chunk.startswith("0-") else 0.0)
        return chunk

    sched = ChunkScheduler(_timed(work), workers=4)
    emitted = []
    for out in sched.iter_stream(data, 4):
        time.sleep(0.01)
        emitted.append(out)
    assert len(emitted) > 4
    assert "".join(emitted) == data  # every chunk, in order


def test_closing_iter_stream_idles_the_workers():
    data = "".join(f"{i}\n" for i in range(200000))   # ~32 chunk tasks
    calls = []

    def work(chunk):
        calls.append(len(chunk))
        time.sleep(0.02)
        return chunk

    sched = ChunkScheduler(_timed(work), workers=4)
    outputs = sched.iter_stream(data, 4)
    first = next(outputs)
    assert data.startswith(first)
    outputs.close()             # the consumer needs no more (early exit)
    stealers = [t for t in threading.enumerate()
                if t.name.startswith("repro-steal-")]
    for thread in stealers:
        thread.join(timeout=5.0)
    assert not any(t.is_alive() for t in stealers)
    assert sum(calls) < len(data)   # the rest of the stream never ran


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
