"""Streaming data plane: output identity, stage overlap, throughput.

The barrier engine (the paper's measurement setup) materializes every
intermediate stream; the streaming engine hands line-aligned chunks
from stage to stage, each stage keeping up to ``k`` in flight, so
consecutive parallel stages compute concurrently.  This bench asserts the acceptance criteria of the
streaming data plane: byte-identical output on both planes, and
nonzero cross-stage overlap accounted by ``RunStats`` on a multi-stage
parallel pipeline under a concurrent engine.
"""

from repro import parallelize
from repro.evaluation.performance import measure_streaming, streaming_table
from repro.parallel import STREAMING, THREADS
from repro.shell import Pipeline
from repro.unixsim import ExecContext
from repro.workloads import datagen
from repro.workloads.scripts import ALL_SCRIPTS

#: an eliminated-combiner chain (sed, grep) feeding a merge sink — the
#: dataflow shape whose stages the streaming plane overlaps
CHAIN = "cat $IN | sed s/the/THE/ | grep -i the | sort | uniq -c"
SCALE = 60_000


def _files():
    return {"input.txt": datagen.book_text(SCALE, seed=12)}


def _serial_output(files):
    ctx = ExecContext(fs=dict(files))
    return Pipeline.from_string(CHAIN, env={"IN": "input.txt"},
                                context=ctx).run()


def test_streaming_dataflow(benchmark, synth_config):
    files = _files()
    pp = parallelize(CHAIN, k=4, files=files, env={"IN": "input.txt"},
                     engine=THREADS, config=synth_config)
    out = benchmark.pedantic(pp.run_streaming, rounds=1, iterations=1)
    assert out == _serial_output(files)
    stats = pp.last_stats
    assert stats.data_plane == STREAMING
    assert stats.bytes_in == len(files["input.txt"])
    assert all(s.bytes_in > 0 for s in stats.stages)
    # the eliminated sed/grep chain pipelines into the parallel sort:
    # at least one stage must have computed while its predecessor did.
    # Overlap is a wall-clock observation, so on a heavily loaded or
    # single-slice scheduler one run can legitimately read 0 — rerun a
    # few times before declaring the data plane broken
    for _ in range(3):
        if stats.total_overlap > 0.0:
            break
        pp.run_streaming()
        stats = pp.last_stats
    assert stats.total_overlap > 0.0


def test_barrier_dataflow(benchmark, synth_config):
    files = _files()
    pp = parallelize(CHAIN, k=4, files=files, env={"IN": "input.txt"},
                     engine=THREADS, streaming=False, config=synth_config)
    out = benchmark.pedantic(pp.run, rounds=1, iterations=1)
    assert out == _serial_output(files)
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
