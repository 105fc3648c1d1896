"""Measured cost-model tests (evaluation.costmodel)."""

import pytest

from repro.evaluation.costmodel import simulate_plan, simulate_script
from repro.parallel.planner import compile_pipeline, synthesize_pipeline
from repro.shell import Pipeline
from repro.unixsim import ExecContext
from repro.workloads import get_script, run_serial


@pytest.fixture(scope="module")
def wf_plan(fast_config):
    text = ("cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | "
            "uniq -c | sort -rn")
    ctx = ExecContext(fs={"in.txt": "Alpha beta alpha\nGamma beta\n" * 200})
    pipeline = Pipeline.from_string(text, context=ctx)
    results = synthesize_pipeline(pipeline, config=fast_config)
    return (compile_pipeline(pipeline, results, optimize=True),
            compile_pipeline(pipeline, results, optimize=False),
            pipeline)


class TestSimulatePlan:
    def test_output_matches_serial(self, wf_plan):
        opt, unopt, pipeline = wf_plan
        serial = pipeline.run()
        for plan in (opt, unopt):
            for k in (1, 4, 16):
                assert simulate_plan(plan, k).output == serial

    def test_sequential_stage_charged_fully(self, wf_plan):
        opt, _, _ = wf_plan
        run = simulate_plan(opt, 8)
        seq = [s for s in run.stages if s.mode == "sequential"]
        assert seq and all(len(s.chunk_seconds) == 1 for s in seq)

    def test_parallel_stage_charged_max_chunk(self, wf_plan):
        opt, _, _ = wf_plan
        run = simulate_plan(opt, 8)
        par = [s for s in run.stages if s.mode == "parallel"]
        assert par
        for s in par:
            assert s.modeled_seconds <= sum(s.chunk_seconds) \
                + s.combine_seconds + s.split_seconds + 1e-9

    def test_eliminated_boundary_not_charged(self, wf_plan, fast_config):
        opt, unopt, _ = wf_plan
        # inside a chain the eliminated boundary is not even a stage
        run = simulate_plan(opt, 8)
        assert run.stages[1].display == "tr A-Z a-z | sort"
        assert len(run.stages) == len(simulate_plan(unopt, 8).stages) - 1
        # where a decomposition still crosses one (into a prefix-limited
        # consumer) no combine is charged
        ctx = ExecContext(fs={"in.txt": "Alpha beta\nGamma delta\n" * 200})
        pipeline = Pipeline.from_string(
            "cat in.txt | rev | tr a-z A-Z | head -n 3", context=ctx)
        results = synthesize_pipeline(pipeline, config=fast_config)
        run = simulate_plan(compile_pipeline(pipeline, results), 8)
        eliminated = [s for s in run.stages if s.eliminated]
        assert [s.display for s in eliminated] == ["rev | tr a-z A-Z"]
        for s in eliminated:
            assert s.combine_seconds == 0.0

    def test_modeled_time_positive(self, wf_plan):
        opt, _, _ = wf_plan
        assert simulate_plan(opt, 4).modeled_seconds > 0


class TestSimulateScript:
    def test_output_equals_serial(self, fast_config):
        script = get_script("oneliners", "top-n.sh")
        serial = run_serial(script, 60, seed=4).output
        cache = {}
        for k in (2, 8):
            out, secs = simulate_script(script, 60, k, seed=4,
                                        cache=cache, config=fast_config)
            assert out == serial
            assert secs > 0

    def test_chained_script(self, fast_config):
        script = get_script("poets", "4_3.sh")
        serial = run_serial(script, 60, seed=4).output
        out, _ = simulate_script(script, 60, 4, seed=4, cache={},
                                 config=fast_config)
        assert out == serial

    def test_unoptimized_never_cheaper_modeled(self, fast_config):
        """Eliminating a combiner can only remove modeled cost."""
        script = get_script("oneliners", "wf.sh")
        cache = {}
        opt = min(simulate_script(script, 3000, 8, cache=cache,
                                  config=fast_config, optimize=True)[1]
                  for _ in range(3))
        unopt = min(simulate_script(script, 3000, 8, cache=cache,
                                    config=fast_config, optimize=False)[1]
                    for _ in range(3))
        # min-of-3 to suppress timer noise; the optimized plan drops a
        # combine pass so it must not be substantially dearer
        assert opt <= unopt * 1.3
