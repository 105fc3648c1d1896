"""Randomized differential fuzzing: every backend, byte-identical.

Each random pipeline runs over each random input through the serial
reference (plain in-order command execution) and a matrix of parallel
backends — barrier/streaming x static/stealing x serial/threads
engines (speculation enabled on the threaded stealing run), the
process-pool streaming engine the measured benchmark runs, the
two-node cluster, and the cost model's measured simulation.  Any
byte difference is a bug somewhere in splitting, scheduling,
combining, or reassembly; the failing (seed, pipeline, input) triple
is written to ``fuzz-failures/`` for the CI artifact upload.

Tier-1 runs the small fixed-seed corpus (deterministic); scale up with
``--fuzz-iterations N`` / ``--fuzz-seed S``.
"""

from __future__ import annotations

import time
from typing import Dict

import pytest

from repro import parallelize
from repro.core.synthesis import SynthesisConfig
from repro.distrib import LocalCluster
from repro.evaluation.benchsuite import StageRecorder
from repro.evaluation.costmodel import simulate_plan
from repro.parallel import STATIC, STEALING, SchedulerConfig

from .pipegen import corpus

#: synthesis results shared across the whole fuzz session (the grammar
#: has a fixed command pool, so this stays small)
_SYNTH_CACHE: Dict = {}

#: (name, streaming, engine, scheduler, speculate); every backend that
#: is not a plain in-thread run (worker threads or processes, the
#: multi-node ``distrib`` engine's executor threads, the cost model's
#: timed simulation) is exercised on a rotating subset of cases to
#: bound tier-1 runtime
BACKENDS = [
    ("barrier-static", False, "serial", STATIC, False),
    ("barrier-stealing", False, "serial", STEALING, False),
    ("streaming-serial", True, "serial", STATIC, False),
    ("streaming-threads-static", True, "threads", STATIC, False),
    ("streaming-threads-stealing", True, "threads", STEALING, True),
    ("streaming-processes-static", True, "processes", STATIC, False),
    ("distrib-2node", False, "distrib", STATIC, False),
    ("costmodel", False, "costmodel", STATIC, False),
]
_THREADED_EVERY = 3


@pytest.fixture(scope="module")
def fuzz_config() -> SynthesisConfig:
    return SynthesisConfig(max_size=5, max_rounds=3, patience=1,
                           gradient_steps=1, pairs_per_shape=2, seed=11)


def _backends_for(case_index: int):
    for name, streaming, engine, sched, speculate in BACKENDS:
        if engine != "serial" and case_index % _THREADED_EVERY:
            continue
        yield name, streaming, engine, sched, speculate


def _run_distrib(pp, k: int) -> str:
    """Run the compiled plan on an in-process two-node cluster.

    A small ``min_chunk_bytes`` keeps the fuzz corpus's tiny inputs
    actually sharded across both executors instead of collapsing to a
    single remote task.
    """
    with LocalCluster(nodes=2, k=k, min_chunk_bytes=64,
                      stage_timeout=60.0) as cluster:
        return cluster.run_plan(pp.plan)


def test_differential_corpus(fuzz_seed, fuzz_iterations, record_failure,
                             fuzz_config):
    cases = corpus(fuzz_seed, fuzz_iterations)
    failures = []
    backends_run = 0
    start = time.perf_counter()
    for ci, (text, inputs) in enumerate(cases):
        k = 2 + (ci % 3)  # 2..4
        for data in inputs:
            pp = parallelize(text, k=k, files={"in.txt": data},
                             rewrite=False, config=fuzz_config,
                             results=_SYNTH_CACHE)
            expected = pp.plan.pipeline.run()
            for name, streaming, engine, sched, speculate in \
                    _backends_for(ci):
                if engine == "distrib":
                    actual = _run_distrib(pp, k)
                elif engine == "costmodel":
                    actual = simulate_plan(pp.plan, k).output
                else:
                    pp.streaming = streaming
                    pp.engine = engine
                    pp.scheduler = sched
                    pp.scheduler_config = SchedulerConfig(
                        speculate=speculate)
                    actual = pp.run()
                backends_run += 1
                if actual != expected:
                    path = record_failure(fuzz_seed, ci, text, data, name,
                                          expected, actual)
                    failures.append(f"case {ci} [{name}] k={k} "
                                    f"pipeline={text!r} -> {path}")
    # report into the bench suite's BENCH_*.json when invoked by it
    recorder = StageRecorder.from_env()
    if recorder is not None:
        recorder.record("fuzz-corpus", time.perf_counter() - start,
                        ok=not failures, seed=fuzz_seed, cases=len(cases),
                        backend_runs=backends_run,
                        divergences=len(failures))
    assert not failures, "\n".join(failures)
