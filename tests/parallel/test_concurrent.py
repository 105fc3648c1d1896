"""Concurrent compilation and execution from multiple threads.

The service multiplexes jobs over shared infrastructure: the
process-wide synthesis memo, a persistent combiner store, and a
:class:`RunnerPool` of reusable stage runners.  These tests drive that
sharing from plain threads, without the daemon, to pin down the
thread-safety contract of each layer.
"""

import threading

import pytest

from repro import parallelize
from repro.core.synthesis import CombinerStore, clear_synthesis_memo
from repro.core.synthesis.store import synthesis_memo_stats
from repro.parallel import PROCESSES, RunnerPool, SERIAL, THREADS
from repro.shell import Pipeline
from repro.unixsim import ExecContext

PIPELINE = "cat $IN | sort | uniq -c"
FILES = {"input.txt": "pear\napple\npear\nfig\napple\n"}
ENV = {"IN": "input.txt"}


def _serial_reference() -> str:
    context = ExecContext(fs=dict(FILES), env=dict(ENV))
    return Pipeline.from_string(PIPELINE, env=ENV, context=context).run()


def _run_threads(n, target):
    errors = []

    def wrapped(i):
        try:
            target(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def test_concurrent_parallelize_same_pipeline(fast_config):
    """Many threads compiling + running one pipeline under memo contention."""
    clear_synthesis_memo()
    expected = _serial_reference()
    outputs = {}

    def worker(i):
        pp = parallelize(PIPELINE, k=2 + (i % 3), files=FILES, env=ENV,
                         engine=THREADS, config=fast_config)
        outputs[i] = pp.run()

    _run_threads(6, worker)
    assert all(outputs[i] == expected for i in range(6))
    stats = synthesis_memo_stats()
    # every unique command was synthesized at most once per thread, and
    # the memo served the rest; totals must balance
    assert stats["hits"] + stats["misses"] >= 2
    assert stats["misses"] <= 2 * 6


def test_concurrent_parallelize_distinct_pipelines(fast_config):
    pipelines = ["cat $IN | sort", "cat $IN | sort | uniq",
                 "cat $IN | tr a-z A-Z | sort", "cat $IN | sort | uniq -c"]
    expected = {}
    for text in pipelines:
        context = ExecContext(fs=dict(FILES), env=dict(ENV))
        expected[text] = Pipeline.from_string(text, env=ENV,
                                              context=context).run()
    outputs = {}

    def worker(i):
        text = pipelines[i % len(pipelines)]
        pp = parallelize(text, k=3, files=FILES, env=ENV,
                         config=fast_config)
        outputs[i] = (text, pp.run())

    _run_threads(8, worker)
    for _i, (text, out) in outputs.items():
        assert out == expected[text], text


def test_concurrent_store_access(tmp_path, fast_config):
    """One CombinerStore object shared by racing compilations."""
    store = CombinerStore(tmp_path / "combiners.json")
    clear_synthesis_memo()

    def worker(i):
        pp = parallelize(PIPELINE, k=2, files=FILES, env=ENV,
                         config=fast_config, store=store)
        assert pp.run() == _serial_reference()

    _run_threads(5, worker)
    # both stages landed in the store exactly once, and the JSON on
    # disk is a loadable, complete snapshot (atomic save)
    assert ("sort",) in store and ("uniq", "-c") in store
    reloaded = CombinerStore(tmp_path / "combiners.json")
    assert len(reloaded) == len(store)
    assert reloaded.get(("sort",)).ok


def test_concurrent_store_save_is_atomic(tmp_path, fast_config):
    store = CombinerStore(tmp_path / "c.json")

    def worker(i):
        pp = parallelize(f"cat $IN | head -n {i + 1}", k=2, files=FILES,
                         env=ENV, config=fast_config, store=store)
        pp.run()
        store.save()

    _run_threads(4, worker)
    reloaded = CombinerStore(tmp_path / "c.json")
    assert len(reloaded) == 4


# ---------------------------------------------------------------------------
# RunnerPool


def test_runner_pool_reuses_thread_runner():
    pool = RunnerPool()
    context = ExecContext(fs=dict(FILES), env=dict(ENV))
    runner = pool.acquire(THREADS, 4, context)
    pool.release(runner)
    runner2 = pool.acquire(THREADS, 4, ExecContext(fs={"other.txt": "x\n"}))
    assert runner2 is runner            # same pool object, new context
    assert runner2.context.fs == {"other.txt": "x\n"}
    assert pool.created == 1 and pool.reused == 1
    pool.close()


def test_runner_pool_widths_are_distinct():
    pool = RunnerPool()
    a = pool.acquire(THREADS, 2)
    b = pool.acquire(THREADS, 4)
    assert a is not b
    pool.release(a)
    pool.release(b)
    assert pool.idle_count() == 2
    pool.close()
    assert pool.idle_count() == 0


def test_runner_pool_processes_keyed_by_context():
    pool = RunnerPool()
    ctx_a = ExecContext(fs={"a.txt": "1\n"})
    ctx_b = ExecContext(fs={"b.txt": "2\n"})
    runner_a = pool.acquire(PROCESSES, 2, ctx_a)
    pool.release(runner_a)
    # identical fingerprint: reuse; different fingerprint: fresh runner
    same = pool.acquire(PROCESSES, 2, ExecContext(fs={"a.txt": "1\n"}))
    assert same is runner_a
    pool.release(same)
    other = pool.acquire(PROCESSES, 2, ctx_b)
    assert other is not runner_a
    pool.release(other)
    pool.close()


def test_runner_pool_bounds_total_idle_process_runners():
    """Process runners are keyed by dataset, so the number of keys is
    unbounded: the idle bound must hold across keys, and an evicted
    runner's worker processes must be shut down, not leaked."""
    import multiprocessing

    from repro.shell.command import Command

    children_before = len(multiprocessing.active_children())
    pool = RunnerPool()
    command = Command(["tr", "a-z", "A-Z"])
    for i in range(6):
        context = ExecContext(fs={"in.txt": f"dataset {i}\n"})
        runner = pool.acquire(PROCESSES, 2, context)
        # start the runner's workers, as a job would
        assert runner.submit_timed(command, "x\n").result()[0] == "X\n"
        pool.release(runner)
        assert pool.idle_count() <= pool.max_idle
    assert pool.idle_count() == pool.max_idle
    children = len(multiprocessing.active_children()) - children_before
    assert children <= 2 * pool.max_idle
    # the most recently released runners are the ones kept warm
    kept = pool.acquire(PROCESSES, 2,
                        ExecContext(fs={"in.txt": "dataset 5\n"}))
    assert pool.reused == 1
    pool.release(kept)
    pool.close()
    assert len(multiprocessing.active_children()) == children_before


def test_runner_pool_concurrent_acquire_gets_distinct_runners():
    pool = RunnerPool()
    held = []
    lock = threading.Lock()

    def worker(_i):
        runner = pool.acquire(THREADS, 2)
        with lock:
            held.append(runner)

    _run_threads(4, worker)
    assert len({id(r) for r in held}) == 4
    for r in held:
        pool.release(r)
    # idle retention is bounded
    assert pool.idle_count() <= pool.max_idle
    pool.close()


def test_runner_pool_rejects_after_close():
    pool = RunnerPool()
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.acquire(SERIAL, 1)


def test_runner_pool_executes_through_reused_runner(fast_config):
    """A runner handed across jobs still computes correct results."""
    from repro.parallel.executor import ParallelPipeline
    from repro.parallel.planner import compile_pipeline, synthesize_pipeline

    pool = RunnerPool()
    expected = _serial_reference()
    for _round in range(3):
        context = ExecContext(fs=dict(FILES), env=dict(ENV))
        pipeline = Pipeline.from_string(PIPELINE, env=ENV, context=context)
        results = synthesize_pipeline(pipeline, config=fast_config)
        plan = compile_pipeline(pipeline, results)
        runner = pool.acquire(THREADS, 3, context)
        try:
            pp = ParallelPipeline(plan, k=3, engine=THREADS, runner=runner)
            assert pp.run() == expected
        finally:
            pool.release(runner)
    assert pool.created == 1
    assert pool.reused == 2
    pool.close()
