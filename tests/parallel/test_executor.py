"""Parallel-pipeline execution tests: correctness across k and engines."""

import pytest

from repro import parallelize
from repro.evaluation.costmodel import simulate_plan
from repro.parallel import (
    FaultPolicy,
    PROCESSES,
    SERIAL,
    STEALING,
    StageRunner,
    THREADS,
    run_chunk_pipelined,
)
from repro.parallel.scheduler import MIN_ADAPTIVE_CHUNK_BYTES, STEAL_OVERSPLIT
from repro.shell import Pipeline
from repro.unixsim import ExecContext

TEXT = ("the quick Brown fox\nthe lazy dog THE\n" * 40 +
        "And he said light\n" * 10)
WF = "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn"


def serial_output(pipeline_text, files, env=None):
    ctx = ExecContext(fs=dict(files), env=dict(env or {}))
    return Pipeline.from_string(pipeline_text, env=env, context=ctx).run()


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 16])
    def test_wf_pipeline_all_k(self, k, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=k, files=files, config=fast_config)
        assert pp.run() == serial_output(WF, files)

    def test_unoptimized_matches_too(self, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, optimize=False,
                         config=fast_config)
        assert pp.run() == serial_output(WF, files)

    def test_unsupported_stage_runs_sequentially(self, fast_config):
        text = "cat in.txt | sort | sed 1d | uniq"
        files = {"in.txt": "b\na\nb\n"}
        pp = parallelize(text, k=4, files=files, config=fast_config)
        assert pp.run() == serial_output(text, files)
        assert pp.plan.stages[1].mode == "sequential"

    def test_selection_combining(self, fast_config):
        text = "cat in.txt | sort | tail -n 1"
        files = {"in.txt": "b\nz\na\n"}
        pp = parallelize(text, k=3, files=files, config=fast_config)
        assert pp.run() == "z\n"

    def test_counting_pipeline(self, fast_config):
        text = "cat in.txt | grep -c the"
        files = {"in.txt": TEXT}
        pp = parallelize(text, k=4, files=files, config=fast_config)
        assert pp.run() == serial_output(text, files)

    def test_explicit_data_argument(self, fast_config):
        pp = parallelize("sort | uniq", k=2, config=fast_config)
        assert pp.run("b\na\nb\nb\n") == "a\nb\n"


class TestEngines:
    @pytest.mark.parametrize("engine", [SERIAL, THREADS, PROCESSES])
    def test_engines_agree(self, engine, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, engine=engine,
                         config=fast_config)
        assert pp.run() == serial_output(WF, files)

    def test_processes_with_filesystem_commands(self, fast_config):
        files = {"list.txt": "f1\nf2\n", "f1": "b\na\n", "f2": "c\n"}
        text = "cat list.txt | xargs cat | sort"
        pp = parallelize(text, k=2, files=files, engine=PROCESSES,
                         config=fast_config)
        assert pp.run() == "a\nb\nc\n"


class TestStats:
    def test_stage_stats_recorded(self, fast_config):
        files = {"in.txt": TEXT}
        pp = parallelize(WF, k=4, files=files, config=fast_config)
        pp.run()
        stats = pp.last_stats
        assert stats is not None and stats.k == 4
        assert len(stats.stages) == len(pp.plan.stages) == 4
        assert stats.seconds > 0

    @pytest.mark.parametrize("streaming", [True, False],
                             ids=["streaming", "barrier"])
    def test_wf_exact_task_and_chunk_counts(self, streaming, fast_config):
        """wf.sh at k=2: one sequential stage and three executed
        parallel stages — the eliminated ``tr A-Z a-z`` costs no task
        of its own — on both planes and in the cost model."""
        from repro.workloads import datagen

        # big enough that the old streaming split would have oversplit
        files = {"in.txt": datagen.book_text(6000, seed=1)}
        pp = parallelize(WF, k=2, files=files, engine=PROCESSES,
                         streaming=streaming, rewrite=False,
                         config=fast_config)
        assert pp.run() == serial_output(WF, files)
        stats = pp.last_stats
        assert stats.scheduler.tasks == 6
        assert [s.chunks for s in stats.stages] == [1, 2, 2, 2]
        modeled = simulate_plan(pp.plan, 2)
        assert [len(s.chunk_seconds) for s in modeled.stages] == \
            [s.chunks for s in stats.stages]
        assert [s.display for s in modeled.stages] == \
            [s.display for s in stats.stages]

    def test_invalid_k(self, fast_config):
        with pytest.raises(ValueError):
            parallelize("sort", k=0, config=fast_config)


class TestStealingSchedule:
    """``stealing`` is a finer split on the pool's shared queue."""

    K = 2
    TEXT = "cat in.txt | tr A-Z a-z | sort | uniq -c"
    #: large enough that the decomposition reaches its cap
    DATA = "".join(f"Word {i % 97} of the Stream\n" for i in range(
        STEAL_OVERSPLIT * K * MIN_ADAPTIVE_CHUNK_BYTES // 20))

    def _pp(self, tiny_config, **kwargs):
        return parallelize(self.TEXT, k=self.K, files={"in.txt": self.DATA},
                           rewrite=False, config=tiny_config,
                           scheduler=STEALING, **kwargs)

    @pytest.mark.parametrize("streaming", [True, False])
    def test_runtime_runs_the_decomposition_the_selector_priced(
            self, streaming, tiny_config):
        pp = self._pp(tiny_config, engine=THREADS, streaming=streaming)
        priced = simulate_plan(pp.plan, self.K, scheduler=STEALING)
        assert pp.run() == priced.output
        assert [s.chunks for s in pp.last_stats.stages] \
            == [len(s.chunk_seconds) for s in priced.stages]
        assert max(s.chunks for s in pp.last_stats.stages) \
            == STEAL_OVERSPLIT * self.K

    @pytest.mark.parametrize("streaming", [True, False])
    def test_serial_engine_keeps_the_static_split(self, streaming,
                                                  tiny_config):
        pp = self._pp(tiny_config, engine=SERIAL, streaming=streaming)
        pp.run()
        assert max(s.chunks for s in pp.last_stats.stages) == self.K

    def test_delayed_chunk_does_not_idle_the_other_workers(self,
                                                           tiny_config):
        """The stage that starts the decomposition submits all of it, so
        while chunk 1 straggles every later chunk runs on the free
        worker instead of waiting behind the head of the line."""
        pp = self._pp(tiny_config)
        first = next(i for i, s in enumerate(pp.plan.stages) if s.parallel)
        policy = FaultPolicy(delay={(first, 1): 0.3})
        with StageRunner(engine=THREADS, max_workers=self.K) as runner:
            output, traces = run_chunk_pipelined(
                pp.plan, self.K, runner,
                pp.plan.pipeline._initial_stream(None),
                scheduler=STEALING, fault_policy=policy)
        assert output == pp.plan.pipeline.run()
        assert policy.injected_delays == 1
        # intervals are recorded at delivery, i.e. in chunk order
        ends = [t1 for _, t1 in traces[first].intervals[:traces[first].chunks]]
        assert len(ends) >= 2 * self.K
        assert all(end < ends[1] for end in ends[2:])
