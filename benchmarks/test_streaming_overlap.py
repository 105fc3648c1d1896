"""Both data planes over an eliminated-combiner chain.

The planner lowers the chain (``sed | grep``) and the ``sort`` that
consumes its decomposition to one executed stage, so each chunk is cut
once and runs the whole chain as one task in one worker.  This bench
asserts what that guarantees on either plane: byte-identical output,
one task per chunk per *executed* parallel stage — fewer than one per
command — and per-stage byte accounting in ``RunStats``.  (Before the
lowering the streaming plane was gated on nonzero cross-stage overlap
here; inside a chain there is no stage boundary left to overlap
across.)
"""

from repro import parallelize
from repro.evaluation.performance import measure_streaming, streaming_table
from repro.parallel import BARRIER, STREAMING, THREADS
from repro.shell import Pipeline
from repro.unixsim import ExecContext
from repro.workloads import datagen
from repro.workloads.scripts import ALL_SCRIPTS

#: an eliminated-combiner chain (sed, grep) feeding a merge sink
CHAIN = "cat $IN | sed s/the/THE/ | grep -i the | sort | uniq -c"
SCALE = 60_000
K = 4


def _files():
    return {"input.txt": datagen.book_text(SCALE, seed=12)}


def _serial_output(files):
    ctx = ExecContext(fs=dict(files))
    return Pipeline.from_string(CHAIN, env={"IN": "input.txt"},
                                context=ctx).run()


def _check_dataflow(pp, out, files, plane):
    assert out == _serial_output(files)
    stats = pp.last_stats
    assert stats.data_plane == plane
    assert stats.bytes_in == len(files["input.txt"])
    assert all(s.bytes_in > 0 for s in stats.stages)
    # sed | grep | sort is one executed stage (whether or not the
    # optimizer fused sed and grep first), uniq -c the other
    plan = pp.plan
    chain, uniq = stats.stages
    assert "grep -i the" in chain.display
    assert chain.display.endswith(" | sort")
    assert uniq.display == "uniq -c"
    executed_parallel = sum(1 for s in plan.stages if s.parallel)
    assert stats.scheduler.tasks == K * executed_parallel
    assert stats.scheduler.tasks < K * plan.num_stages
    assert [s.chunks for s in stats.stages] == [K] * len(plan.stages)


def test_streaming_dataflow(benchmark, synth_config):
    files = _files()
    pp = parallelize(CHAIN, k=K, files=files, env={"IN": "input.txt"},
                     engine=THREADS, config=synth_config)
    out = benchmark.pedantic(pp.run_streaming, rounds=1, iterations=1)
    _check_dataflow(pp, out, files, STREAMING)
    assert pp.run_barrier() == out


def test_barrier_dataflow(benchmark, synth_config):
    files = _files()
    pp = parallelize(CHAIN, k=K, files=files, env={"IN": "input.txt"},
                     engine=THREADS, streaming=False, config=synth_config)
    out = benchmark.pedantic(pp.run, rounds=1, iterations=1)
    _check_dataflow(pp, out, files, BARRIER)
    assert pp.last_stats.total_overlap == 0.0


def test_streaming_report_on_benchmark_scripts(capsys, synth_config):
    """Barrier-vs-streaming comparison table over real benchmark scripts."""
    cache = {}
    wanted = {"sort.sh", "wf.sh", "spell.sh"}
    scripts = [s for s in ALL_SCRIPTS if s.name in wanted][:2] \
        or ALL_SCRIPTS[:2]
    reports = [measure_streaming(s, k=4, cache=cache, scale=120, seed=3,
                                 engine=THREADS, config=synth_config)
               for s in scripts]
    assert all(r.outputs_match for r in reports)
    with capsys.disabled():
        print()
        print(streaming_table(reports))
