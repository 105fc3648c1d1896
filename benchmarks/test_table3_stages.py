"""Table 3: stages parallelized and combiners eliminated, all 70 scripts.

The paper reports 325/427 stages parallelized (76.1%) with 144
intermediate combiners eliminated (44.3% of parallelized stages).  Our
reconstruction must land in the same regime.
"""

from repro.distrib import entry_to_plan, plan_to_entry
from repro.evaluation import account_all, table3
from repro.evaluation.paper_data import TOTAL_STAGES
from repro.parallel import compile_pipeline
from repro.workloads.runner import build_context, parse_script
from repro.workloads.scripts import ALL_SCRIPTS


def test_table3_stage_accounting(benchmark, full_sweep, synth_config):
    accounts = benchmark.pedantic(
        lambda: account_all(cache=full_sweep, scale=40, config=synth_config),
        rounds=1, iterations=1)

    print()
    print(table3(accounts))

    total_k = sum(a.parallelized_total[0] for a in accounts)
    total_n = sum(a.parallelized_total[1] for a in accounts)
    total_e = sum(a.eliminated_total for a in accounts)

    assert total_n == TOTAL_STAGES  # our suites reproduce all 427 stages
    # shape: roughly three quarters parallelized (paper: 76.1%)
    assert 0.60 <= total_k / total_n <= 0.95
    # shape: a substantial fraction of combiners eliminated (paper: 44.3%)
    assert 0.25 <= total_e / total_k <= 0.70


def _shapes(plan):
    return [(s.command.argv, s.mode, s.eliminated,
             s.combiner.primary.pretty() if s.combiner else None)
            for s in plan.stages]


def test_chain_plans_survive_replication(full_sweep):
    """Every corpus pipeline with an eliminated chain rebuilds, from its
    plan entry, to the same executed stages — what an executor node or
    a restarted daemon runs chunk tasks against."""
    chains = scripts_with_chain = 0
    for script in ALL_SCRIPTS:
        context = build_context(script, 40, 3)
        found = 0
        for sp, pipeline in zip(script.pipelines,
                                parse_script(script, context)):
            plan = compile_pipeline(pipeline, full_sweep)
            here = sum(1 for s in plan.stages if s.members)
            if here:
                rebuilt = entry_to_plan(
                    plan_to_entry(plan, context.fs, context.env))
                assert _shapes(rebuilt) == _shapes(plan), sp.text
                assert rebuilt.num_stages == plan.num_stages
                assert rebuilt.eliminated == plan.eliminated
            found += here
            out = pipeline.run()
            if sp.output_file is not None:
                context.fs[sp.output_file] = out
        chains += found
        scripts_with_chain += bool(found)
    # the lowering is not a corner case: most scripts have a chain
    assert chains >= 60
    assert scripts_with_chain >= len(ALL_SCRIPTS) // 2
