"""Scheduler/cost-model interplay: the selector picks the right placement.

The chunk scheduler is a plan attribute priced by the cost model:
static assignment must win on tiny/uniform samples (per-task overhead,
no imbalance to fix) and work stealing must win on skewed samples
(one byte-balanced chunk an order of magnitude costlier than its
siblings).  Skew comes from :func:`repro.workloads.datagen.skewed_lines`.
"""

import statistics

import pytest

from repro.evaluation.costmodel import modeled_makespan, simulate_plan
from repro.optimizer import select_plan
from repro.parallel import STATIC, STEALING
from repro.shell import Pipeline
from repro.unixsim import ExecContext
from repro.workloads.datagen import skewed_lines


# -- makespan model ----------------------------------------------------------


def test_makespan_static_round_robin():
    # one chunk per worker: the longest chunk dominates
    assert modeled_makespan([1.0, 2.0, 3.0, 4.0], 4, STATIC) == 4.0
    # more chunks than workers: round-robin accumulation
    assert modeled_makespan([3.0, 1.0, 3.0, 1.0], 2, STATIC) == 6.0


def test_makespan_stealing_greedy():
    # greedy placement balances what round-robin serializes
    assert modeled_makespan([3.0, 1.0, 3.0, 1.0], 2, STEALING) == 4.0
    # per-task overhead is charged to stealing only
    assert modeled_makespan([1.0], 1, STEALING,
                            task_overhead=0.5) == 1.5
    assert modeled_makespan([1.0], 1, STATIC) == 1.0


def test_makespan_skew_bound():
    # the coarse static decomposition pays the 10x chunk on one worker;
    # the stealing runtime's finer decomposition (the same heavy region
    # carved into 4 tasks) lets greedy placement spread it
    static = modeled_makespan([10.0, 1.0, 1.0, 1.0], 4, STATIC)
    fine = [2.5] * 4 + [0.25] * 12  # same 13s of work, 4x finer
    stealing = modeled_makespan(fine, 4, STEALING)
    assert static == 10.0
    assert stealing < 10.0 / 1.3
    assert static / stealing >= 1.3


# -- simulate_plan decompositions --------------------------------------------


def _compiled(text, data, config, cache):
    from repro.parallel.planner import compile_pipeline, synthesize_pipeline

    context = ExecContext(fs={"in.txt": data})
    pipeline = Pipeline.from_string(text, context=context)
    synthesize_pipeline(pipeline, config=config, cache=cache)
    return compile_pipeline(pipeline, cache)


@pytest.fixture(scope="module")
def cache():
    return {}


def test_stealing_simulation_splits_finer(tiny_config, cache):
    data = "".join(f"{i % 100}\n" for i in range(60000))
    plan = _compiled("cat in.txt | sort", data, tiny_config, cache)
    static = simulate_plan(plan, 4, scheduler=STATIC)
    stealing = simulate_plan(plan, 4, scheduler=STEALING)
    assert static.output == stealing.output
    n_static = max(len(s.chunk_seconds) for s in static.stages
                   if s.mode == "parallel")
    n_steal = max(len(s.chunk_seconds) for s in stealing.stages
                  if s.mode == "parallel")
    assert n_static <= 4 < n_steal


def test_selector_prefers_static_on_tiny_input(tiny_config, cache):
    data = "b\na\nc\n" * 30
    context = ExecContext(fs={"in.txt": data})
    pipeline = Pipeline.from_string("cat in.txt | sort", context=context)
    plan, opt = select_plan(pipeline, k=4, config=tiny_config, cache=cache,
                            cost_repeats=3)
    assert plan.scheduler == STATIC
    assert opt.scheduler == STATIC


def test_selector_prefers_stealing_on_skewed_input(tiny_config, cache):
    data = skewed_lines(60_000, seed=3)
    context = ExecContext(fs={"in.txt": data})
    pipeline = Pipeline.from_string("cat in.txt | sort", context=context)
    plan, opt = select_plan(pipeline, k=4, config=tiny_config, cache=cache,
                            cost_repeats=3, sample=data)
    assert plan.scheduler == STEALING
    assert opt.scheduler == STEALING
    # both placements were priced for the chosen candidate
    labels = [label for label, _ in opt.costs]
    assert any(label.endswith("[stealing]") for label in labels)


def test_selector_auto_sample_sees_tail_skew(tiny_config, cache):
    """With no explicit sample, selection must not judge from the head
    of the stream alone: skewed_lines puts all the skew up front and
    uniform data after, so a head-only sample of the *reversed* layout
    would miss it.  The stratified auto-sample sees all regions."""
    from repro.optimizer.selector import SAMPLE_BYTES, stratified_sample

    data = skewed_lines(60_000, seed=7)
    context = ExecContext(fs={"in.txt": data})
    pipeline = Pipeline.from_string("cat in.txt | sort", context=context)
    plan, _opt = select_plan(pipeline, k=4, config=tiny_config, cache=cache,
                             cost_repeats=3)
    assert plan.scheduler == STEALING

    sample = stratified_sample(data)
    assert len(sample) <= SAMPLE_BYTES + 2
    # the sample contains both the tiny-line and the long-line regions
    lines = sample.splitlines()
    assert any(len(line) <= 2 for line in lines)
    assert any(len(line) > 100 for line in lines)


def test_single_and_costed_paths_profile_the_same_sample(tiny_config, cache,
                                                         monkeypatch):
    """One sampling policy: whether or not there is anything to choose
    between, stage reductions are profiled on the stratified sample —
    also when the context does not hold the input (the service)."""
    from repro.optimizer.selector import SAMPLE_BYTES, stratified_sample
    from repro.parallel import planner

    data = "".join(f"line {i % 97}\n" for i in range(40_000))
    assert len(data) > 200_000 > SAMPLE_BYTES
    profiled = []
    profile = planner.profile_stage_reductions

    def spy(pipeline, sample_input, *args, **kwargs):
        profiled.append(sample_input)
        return profile(pipeline, sample_input, *args, **kwargs)

    monkeypatch.setattr(planner, "profile_stage_reductions", spy)
    for fs, sample in (({"in.txt": data}, None),
                       ({}, stratified_sample(data))):
        pipeline = Pipeline.from_string("cat in.txt | sort",
                                        context=ExecContext(fs=fs))
        _plan, single = select_plan(pipeline, k=4, config=tiny_config,
                                    cache=cache, sample=sample,
                                    scheduler=STATIC)
        _plan, costed = select_plan(pipeline, k=4, config=tiny_config,
                                    cache=cache, sample=sample)
        assert single.candidates == 1 and not single.costs
        assert costed.costs, "auto prices both schedulers"
    assert len(profiled) == 4
    assert set(profiled) == {stratified_sample(data)}


def test_selector_pinned_scheduler_respected(tiny_config, cache):
    data = "b\na\nc\n" * 30
    context = ExecContext(fs={"in.txt": data})
    pipeline = Pipeline.from_string("cat in.txt | sort", context=context)
    plan, _opt = select_plan(pipeline, k=4, config=tiny_config, cache=cache,
                             scheduler=STEALING)
    assert plan.scheduler == STEALING


def test_skew_generator_produces_chunk_cost_skew(tiny_config, cache):
    """The datagen skew really does concentrate cost in one static chunk."""
    data = skewed_lines(60_000, seed=5)
    plan = _compiled("cat in.txt | sort", data, tiny_config, cache)
    run = simulate_plan(plan, 4, scheduler=STATIC)
    skews = [max(s.chunk_seconds) / statistics.median(s.chunk_seconds)
             for s in run.stages
             if s.mode == "parallel" and len(s.chunk_seconds) >= 4
             and statistics.median(s.chunk_seconds) > 0]
    assert skews, "no parallel stage with a full decomposition"
    # the sort stage sees the line-count skew even though cat does not
    assert max(skews) >= 10
