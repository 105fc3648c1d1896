"""Streaming (chunk-pipelined) data plane: correctness and accounting."""

import threading

import pytest

from repro import parallelize
from repro.parallel import (
    BARRIER,
    PROCESSES,
    ParallelPipeline,
    SERIAL,
    STREAMING,
    THREADS,
    merge_intervals,
    overlap_seconds,
)
from repro.parallel.streaming import (
    MIN_CHUNK_BYTES,
    OVERSPLIT,
    split_count,
    stream_chunk_count,
)
from repro.shell import Pipeline
from repro.shell.command import Command, CommandError
from repro.unixsim import ExecContext

TEXT = ("the quick Brown fox\nthe lazy dog THE\n" * 40 +
        "And he said light\n" * 10)
WF = "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn"


def serial_output(pipeline_text, files, env=None):
    ctx = ExecContext(fs=dict(files), env=dict(env or {}))
    return Pipeline.from_string(pipeline_text, env=env, context=ctx).run()


class TestCorrectness:
    @pytest.mark.parametrize("engine", [SERIAL, THREADS, PROCESSES])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_wf_matches_serial(self, engine, k, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=k, files=files, engine=engine,
                         config=fast_config)
        assert pp.streaming
        assert pp.run() == serial_output(WF, files)

    @pytest.mark.parametrize("engine", [SERIAL, THREADS])
    def test_streaming_matches_barrier(self, engine, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, engine=engine,
                         config=fast_config)
        assert pp.run_streaming() == pp.run_barrier()

    def test_sequential_after_parallel(self, fast_config):
        text = "cat in.txt | sort | sed 1d | uniq"
        files = {"in.txt": "b\na\nb\nc\n"}
        pp = parallelize(text, k=4, files=files, config=fast_config)
        assert pp.plan.stages[1].mode == "sequential"
        assert pp.run() == serial_output(text, files)

    def test_unoptimized_plan(self, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, optimize=False,
                         config=fast_config)
        assert pp.run() == serial_output(WF, files)

    def test_empty_input(self, fast_config):
        pp = parallelize("sort | uniq", k=3, config=fast_config)
        assert pp.run("") == ""

    def test_explicit_data_argument(self, fast_config):
        pp = parallelize("sort | uniq", k=2, config=fast_config)
        assert pp.run("b\na\nb\nb\n") == "a\nb\n"

    def test_no_stages_returns_input(self, fast_config):
        files = {"in.txt": "x\ny\n"}
        pp = parallelize("cat in.txt", k=2, files=files, config=fast_config)
        assert pp.run() == "x\ny\n"

    def test_eliminated_final_stage_guard(self, fast_config):
        # the planner never eliminates the final combiner; force it to
        # exercise the executor's join-at-exit guard on both planes
        files = {"in.txt": TEXT}
        pp = parallelize("cat in.txt | tr A-Z a-z | sort", k=4, files=files,
                         config=fast_config)
        expected = serial_output("cat in.txt | tr A-Z a-z | sort", files)
        pp.plan.stages[-1].eliminated = True
        streamed = pp.run_streaming()
        barriered = pp.run_barrier()
        # both planes join the leftover substreams instead of combining
        assert streamed == barriered
        assert sorted(streamed.splitlines()) == sorted(expected.splitlines())


class TestErrorPropagation:
    @pytest.mark.parametrize("engine", [SERIAL, THREADS, PROCESSES])
    def test_stage_failure_raises(self, engine, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, engine=engine,
                         config=fast_config)
        # a command that fails where the chunk runs under every engine
        # (process workers rebuild commands from argv, so patching
        # ``run`` in the parent would never reach them)
        assert pp.plan.stages[2].parallel
        pp.plan.stages[2].command = Command(["cat", "missing.txt"])
        with pytest.raises(CommandError, match="missing.txt"):
            pp.run()


class TestSingleDriver:
    @pytest.mark.parametrize("scheduler", ["static", "stealing"])
    @pytest.mark.parametrize("streaming", [True, False])
    def test_no_control_threads_beyond_the_pool(self, scheduler, streaming,
                                                fast_config):
        """Every stage runs on the caller's thread: the only threads a
        threaded run adds are the runner's ``k`` pool workers — under
        either schedule and in either plane."""
        k = 3
        pp = parallelize(WF, k=k, files={"in.txt": TEXT * 20},
                         engine=THREADS, config=fast_config,
                         scheduler=scheduler, streaming=streaming,
                         rewrite=False)
        assert len(pp.plan.stages) >= 4
        seen = set()

        def observed(run):
            def wrapper(data):
                seen.update(threading.enumerate())
                return run(data)
            return wrapper

        for stage in pp.plan.stages:
            stage.command.run = observed(stage.command.run)
        before = set(threading.enumerate())
        assert pp.run() == serial_output(WF, {"in.txt": TEXT * 20})
        added = seen - before
        assert len(added) <= k, sorted(t.name for t in added)
        assert not [t.name for t in added if t.name.startswith("repro-")]


class TestAccounting:
    def test_stats_recorded(self, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, config=fast_config)
        pp.run()
        stats = pp.last_stats
        assert stats is not None
        assert stats.data_plane == STREAMING
        # one entry per *executed* stage: tr A-Z a-z | sort is one
        assert len(stats.stages) == len(pp.plan.stages) == 4
        assert stats.seconds > 0
        assert stats.bytes_in == len(TEXT)
        assert stats.bytes_out == len(serial_output(WF, files))
        for s in stats.stages:
            assert s.bytes_in > 0
            assert s.chunks >= 1

    def test_barrier_stats_recorded(self, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, streaming=False,
                         config=fast_config)
        pp.run()
        stats = pp.last_stats
        assert stats.data_plane == BARRIER
        assert stats.total_overlap == 0.0
        assert stats.bytes_in == len(TEXT)
        assert [s.chunks for s in stats.stages][0] == 1  # sequential tr -cs

    def test_serial_engine_has_zero_overlap(self, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, engine=SERIAL,
                         config=fast_config)
        pp.run()
        assert pp.last_stats.total_overlap == 0.0

    def test_chain_is_one_stage_row(self, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, config=fast_config)
        pp.run()
        stages = pp.last_stats.stages
        chain = stages[1]             # tr A-Z a-z | sort: 1:1 bytes
        assert chain.display == "tr A-Z a-z | sort"
        assert (chain.mode, chain.eliminated) == ("parallel", False)
        assert chain.chunks == 4
        assert chain.bytes_out == chain.bytes_in
        # sort's merged output is what uniq -c splits
        assert stages[2].bytes_in == chain.bytes_out

    def test_bytes_conserved_through_eliminated_stage(self, fast_config):
        # the one decomposition that still crosses a stage boundary:
        # into a prefix-limited consumer (barrier plane, so head reads
        # all of it instead of exiting early)
        text = "cat in.txt | rev | tr a-z A-Z | head -n 3"
        pp = parallelize(text, k=4, files={"in.txt": TEXT}, rewrite=False,
                         streaming=False, config=fast_config)
        assert pp.run() == serial_output(text, {"in.txt": TEXT})
        chain, head = pp.last_stats.stages
        assert chain.display == "rev | tr a-z A-Z"
        assert chain.eliminated
        assert chain.bytes_out == chain.bytes_in
        # its output chunks feed head directly
        assert head.bytes_in == chain.bytes_out


class TestChunkPolicy:
    def test_small_streams_not_oversplit(self):
        assert stream_chunk_count(1000, 4) == 4
        assert stream_chunk_count(0, 2) == 2

    def test_large_streams_oversplit(self):
        nbytes = MIN_CHUNK_BYTES * 100
        assert stream_chunk_count(nbytes, 4) == 4 * OVERSPLIT

    def test_oversplit_capped_by_min_chunk_size(self):
        nbytes = int(MIN_CHUNK_BYTES * 2.5)
        assert stream_chunk_count(nbytes, 2) == 2

    def test_k1_never_oversplits(self):
        # k=1 means no parallelism: a rerun combiner over oversplit
        # chunks would process the stream twice for nothing
        assert stream_chunk_count(MIN_CHUNK_BYTES * 100, 1) == 1

    def test_fresh_decomposition_is_k_way(self, fast_config):
        # a chain and its consumer are one stage, so a decomposition has
        # no next stage to pipeline into: k chunks, whatever combines them
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, config=fast_config)
        stages = pp.plan.stages
        big = MIN_CHUNK_BYTES * 100
        for index, stage in enumerate(stages):
            if stage.parallel:
                assert split_count(stages, index, 4, big) == 4

    def test_oversplit_only_ahead_of_prefix_limited_consumer(self,
                                                             fast_config):
        big = MIN_CHUNK_BYTES * 100
        files = {"in.txt": TEXT}
        # rev | tr is eliminated into head, which stops pulling early:
        # the finer the split, the more upstream work that cancels
        pp = parallelize("cat in.txt | rev | tr a-z A-Z | head -n 3", k=4,
                         files=files, rewrite=False, config=fast_config)
        stages = pp.plan.stages
        assert stages[0].eliminated
        assert split_count(stages, 0, 4, big) == 4 * OVERSPLIT
        assert split_count(stages, 0, 4, 1000) == 4   # too small to bother
        # sort keeps its merge combiner, so head gets one chunk anyway
        pp = parallelize("cat in.txt | sort | head -n 3", k=4, files=files,
                         rewrite=False, config=fast_config)
        assert split_count(pp.plan.stages, 0, 4, big) == 4


class TestIntervalMath:
    def test_merge_intervals(self):
        assert merge_intervals([(3, 4), (1, 2), (1.5, 2.5)]) == \
            [(1, 2.5), (3, 4)]
        assert merge_intervals([]) == []

    def test_overlap_seconds(self):
        a = [(0.0, 1.0), (2.0, 3.0)]
        b = [(0.5, 2.5)]
        assert overlap_seconds(a, b) == pytest.approx(1.0)
        assert overlap_seconds(a, []) == 0.0
        assert overlap_seconds([(0, 1)], [(1, 2)]) == 0.0


class TestExamplePipelines:
    """Acceptance: streaming output is byte-identical to barrier output
    on every pipeline shipped under ``examples/`` (at reduced scale)."""

    @staticmethod
    def _example_pipeline(module_name):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "examples" / \
            f"{module_name}.py"
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.PIPELINE

    def _check(self, text, files, env, fast_config):
        pp = parallelize(text, k=4, files=files, env=env, config=fast_config)
        streamed = pp.run_streaming()
        assert streamed == pp.run_barrier()
        assert streamed == serial_output(text, files, env=env)

    def test_quickstart(self, fast_config):
        from repro.workloads import datagen
        text = self._example_pipeline("quickstart")
        self._check(text, {"input.txt": datagen.book_text(400, seed=42)},
                    {"IN": "input.txt"}, fast_config)

    def test_spell_checker(self, fast_config):
        from repro.workloads import datagen
        text = self._example_pipeline("spell_checker")
        doc = datagen.book_text(250, seed=3) + "teh quikc borwn foks\n"
        self._check(text, {"doc.txt": doc,
                           "dict.txt": datagen.dictionary_file()},
                    {"IN": "doc.txt", "dict": "dict.txt"}, fast_config)

    def test_transit_analytics(self, fast_config):
        from repro.workloads import datagen
        text = self._example_pipeline("transit_analytics")
        self._check(text, {"telemetry.csv": datagen.transit_csv(800, seed=7)},
                    {"IN": "telemetry.csv"}, fast_config)


class TestEarlyExit:
    """A satisfied head/sed-Nq stage cancels upstream chunk production."""

    BIG = "".join(("match " if i % 3 == 0 else "nope ") + str(i) + "\n"
                  for i in range(40000))

    def _pp(self, text, engine, fast_config, k=2):
        # rewrite=False so the pipeline runs as written (a rewritten
        # topk stage would hide the head stage this suite targets)
        return parallelize(text, k=k, files={"in.txt": self.BIG},
                           engine=engine, config=fast_config, rewrite=False)

    def test_prefix_limit_detection(self, fast_config):
        from repro.parallel import prefix_limit
        from repro.shell.command import Command

        assert prefix_limit(Command(["head", "-n", "4"])) == 4
        assert prefix_limit(Command(["head"])) == 10
        assert prefix_limit(Command(["sed", "5q"])) == 5
        assert prefix_limit(Command(["tail", "-n", "4"])) is None
        assert prefix_limit(Command(["tail", "-n", "+2"])) is None
        assert prefix_limit(Command(["sort"])) is None

    def test_serial_pull_model_skips_late_chunks(self, fast_config):
        pp = self._pp("cat in.txt | grep match | head -n 3", SERIAL,
                      fast_config)
        grep = pp.plan.stages[0].command
        before = grep.executions  # synthesis probes also count
        assert pp.run() == "match 0\nmatch 3\nmatch 6\n"
        total_chunks = stream_chunk_count(len(self.BIG), 2)
        assert total_chunks > 1
        assert grep.executions - before < total_chunks

    @pytest.mark.parametrize("engine", [SERIAL, THREADS, PROCESSES])
    def test_output_matches_serial_reference(self, engine, fast_config):
        for text in ("cat in.txt | grep match | head -n 3",
                     "cat in.txt | grep match | sed 2q",
                     "cat in.txt | head -n 5 | head -n 2",
                     "cat in.txt | grep nope | head -n 100000"):
            pp = self._pp(text, engine, fast_config)
            assert pp.run() == serial_output(text, {"in.txt": self.BIG})

    def test_threaded_cancellation_counts_fewer_chunks(self, fast_config):
        pp = self._pp("cat in.txt | grep match | head -n 3", THREADS,
                      fast_config)
        out = pp.run()
        assert out == "match 0\nmatch 3\nmatch 6\n"
        head_stage = pp.last_stats.stages[-1]
        total_chunks = stream_chunk_count(len(self.BIG), 2)
        assert head_stage.chunks < total_chunks

    @pytest.mark.parametrize("engine", [SERIAL, THREADS, PROCESSES])
    def test_chain_stops_before_head_and_still_cancels(self, engine,
                                                       fast_config):
        # the tail of poets/3_3.sh: the chain is not collapsed into
        # head, keeps its oversplit, and early exit cancels most of it
        text = "cat in.txt | rev | awk '{print $2}' | head -n 3"
        pp = self._pp(text, engine, fast_config)
        stages = pp.plan.stages
        assert [s.display() for s in stages] == \
            ["rev | awk '{print $2}'", "head -n 3"]
        assert stages[0].eliminated
        assert pp.run() == serial_output(text, {"in.txt": self.BIG})
        cut = split_count(stages, 0, 2, len(self.BIG))
        assert cut == stream_chunk_count(len(self.BIG), 2) > 2
        assert pp.last_stats.scheduler.tasks < cut
        assert pp.run_barrier() == pp.run_streaming()

    def test_streaming_still_matches_barrier(self, fast_config):
        pp = self._pp("cat in.txt | grep match | head -n 3", THREADS,
                      fast_config)
        assert pp.run_streaming() == pp.run_barrier()

    def test_midstream_head_feeds_downstream(self, fast_config):
        text = "cat in.txt | grep match | head -n 4 | sort -r | wc -l"
        pp = self._pp(text, THREADS, fast_config)
        assert pp.run() == serial_output(text, {"in.txt": self.BIG})
