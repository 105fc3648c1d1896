"""Parallel-equals-serial correctness over representative scripts.

The full 70-script sweep runs in the benchmark harness; here we cover
one script of each structural kind (single pipeline, multi-pipeline
with chaining, xargs-based, comm-based, unsupported-stage-bearing).
"""

import pytest

from repro.parallel import (
    PROCESSES,
    ParallelPipeline,
    SERIAL,
    THREADS,
    compile_pipeline,
    synthesize_pipeline,
)
from repro.workloads import get_script, run_parallel, run_serial
from repro.workloads.runner import build_context, parse_script

REPRESENTATIVE = [
    ("analytics-mts", "2.sh"),      # CSV analytics, sort -k1n, awk OFS
    ("oneliners", "wf.sh"),         # the section 2 example
    ("oneliners", "spell.sh"),      # iconv/col/comm with dictionary
    ("oneliners", "shortest-scripts.sh"),  # xargs + virtual filesystem
    ("oneliners", "bi-grams.sh"),   # contains unsupported tail +2
    ("oneliners", "set-diff.sh"),   # multi-pipeline with chaining
    ("poets", "1_1.sh"),            # xargs cat corpus
    ("poets", "4_3b.sh"),           # four chained pipelines
    ("poets", "8.2_2.sh"),          # awk $1 == 2 unsupported stage
    ("poets", "8.3_3.sh"),          # comm against generated file
    ("unix50", "12.sh"),            # head|tail selection chain
    ("unix50", "23.sh"),            # tr -d '\n' non-stream stage
    ("unix50", "36.sh"),            # tr -s, tail -n 1
]


@pytest.fixture(scope="module")
def cache():
    return {}


@pytest.mark.parametrize("suite,name", REPRESENTATIVE,
                         ids=[f"{s}/{n}" for s, n in REPRESENTATIVE])
def test_parallel_output_equals_serial(suite, name, cache, fast_config):
    script = get_script(suite, name)
    serial = run_serial(script, scale=40, seed=9)
    for k in (2, 4):
        parallel = run_parallel(script, scale=40, k=k, seed=9,
                                cache=cache, config=fast_config)
        assert parallel.output == serial.output, f"k={k}"


def test_parallelized_counts_reported(cache, fast_config):
    script = get_script("oneliners", "wf.sh")
    run = run_parallel(script, scale=40, k=4, seed=9, cache=cache,
                       config=fast_config)
    # paper Table 3: wf.sh = 4/5 parallelized, 1 combiner eliminated
    assert run.stages == 5
    assert run.parallelized == 4
    assert run.eliminated == 1


def test_unoptimized_also_correct(cache, fast_config):
    script = get_script("oneliners", "wf.sh")
    serial = run_serial(script, scale=40, seed=9)
    run = run_parallel(script, scale=40, k=4, seed=9, optimize=False,
                       cache=cache, config=fast_config)
    assert run.output == serial.output
    assert run.eliminated == 0


def _compile_only_pipeline(suite, name, cache, config):
    script = get_script(suite, name)
    context = build_context(script, 40, 3)
    (pipeline,) = parse_script(script, context)
    synthesize_pipeline(pipeline, config=config, cache=cache)
    return pipeline, compile_pipeline(pipeline, cache)


@pytest.mark.parametrize("streaming", [True, False],
                         ids=["streaming", "barrier"])
@pytest.mark.parametrize("engine", [SERIAL, THREADS, PROCESSES])
def test_chain_into_rerun_consumer(engine, streaming, cache, fast_config):
    """poets/2_2.sh: ``tr -d | tr | tr -sc`` is one chain whose consumer
    combines by rerun — the combine re-runs the consumer alone."""
    pipeline, plan = _compile_only_pipeline("poets", "2_2.sh", cache,
                                            fast_config)
    chain = plan.stages[0]
    assert [m.command.name for m in chain.members] == ["tr", "tr", "tr"]
    assert chain.combiner.is_rerun()
    expected = pipeline.run()
    consumer = chain.members[-1].command
    before = (consumer.executions, chain.command.executions)
    pp = ParallelPipeline(plan, k=3, engine=engine, streaming=streaming)
    assert pp.run() == expected
    assert consumer.executions - before[0] == 1
    # in-process engines run the chain, as one command, once per chunk
    # (process workers rebuild it from argv, so the parent counts none)
    ran = 0 if engine == PROCESSES else pp.last_stats.stages[0].chunks
    assert chain.command.executions - before[1] == ran
    assert pp.last_stats.stages[0].chunks == 3


def test_chain_stops_before_prefix_limited_head(cache, fast_config):
    """poets/3_3.sh ends ``... | rev | awk | head``: the chain is not
    collapsed into ``head``, so early exit keeps its chunk boundary."""
    _, plan = _compile_only_pipeline("poets", "3_3.sh", cache, fast_config)
    chain, head = plan.stages[-2:]
    assert [m.command.name for m in chain.members] == ["rev", "awk"]
    assert chain.parallel and chain.eliminated
    assert head.command.name == "head" and not head.members
    assert plan.num_stages == 9
