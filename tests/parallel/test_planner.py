"""Pipeline-compilation tests: stage modes and Theorem 5 elimination."""

from repro.parallel import (
    PROCESSES,
    ParallelPipeline,
    compile_pipeline,
    plan_stage,
    synthesize_pipeline,
)
from repro.shell import Command, Pipeline
from repro.unixsim import ExecContext


def compile_text(text, files=None, env=None, config=None, sample=None):
    ctx = ExecContext(fs=dict(files or {}), env=dict(env or {}))
    p = Pipeline.from_string(text, env=env, context=ctx)
    results = synthesize_pipeline(p, config=config)
    return compile_pipeline(p, results, sample_input=sample)


class TestPlanStage:
    def test_failed_synthesis_is_sequential(self):
        assert plan_stage(Command(["sort"]), None).mode == "sequential"

    def test_no_combiner_is_sequential(self, fast_config):
        from repro.core.synthesis import synthesize

        cmd = Command(["sed", "1d"])
        r = synthesize(cmd, fast_config)
        assert plan_stage(cmd, r).mode == "sequential"

    def test_rerun_with_low_reduction_is_sequential(self, fast_config):
        from repro.core.synthesis import synthesize

        cmd = Command(["tr", "-cs", "A-Za-z", "\\n"])
        r = synthesize(cmd, fast_config)
        plan = plan_stage(cmd, r, reduction_ratio=0.95)
        assert plan.mode == "sequential"

    def test_rerun_with_high_reduction_is_parallel(self, fast_config):
        from repro.core.synthesis import synthesize

        cmd = Command(["sed", "100q"])
        r = synthesize(cmd, fast_config)
        plan = plan_stage(cmd, r, reduction_ratio=0.05)
        assert plan.mode == "parallel"


class TestEliminationOptimization:
    def test_wf_pipeline_plan(self, fast_config):
        """The paper's section 2 example: one sequential stage, a
        concat combiner eliminated before the parallel sort."""
        text = ("cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | "
                "uniq -c | sort -rn")
        sample = "Hello world hello\nthe quick fox the\n" * 50
        plan = compile_text(text, files={"in.txt": sample},
                            config=fast_config)
        modes = [s.mode for s in plan.commands]
        assert modes == ["sequential", "parallel", "parallel", "parallel",
                         "parallel"]
        assert plan.commands[1].eliminated        # tr A-Z a-z -> sort
        assert not plan.commands[4].eliminated    # final combiner kept
        assert plan.num_stages == 5
        assert plan.parallelized == 4
        assert plan.eliminated == 1

    def test_concat_before_sequential_not_eliminated(self, fast_config):
        text = "cat in.txt | tr A-Z a-z | sed 1d"
        plan = compile_text(text, files={"in.txt": "A\nB\n"},
                            config=fast_config)
        assert not plan.stages[0].eliminated

    def test_non_stream_output_not_eliminated(self, fast_config):
        # tr -d '\n' violates the Theorem 5 precondition
        text = "cat in.txt | tr -d '\\n' | cut -c 1-4"
        plan = compile_text(text, files={"in.txt": "ab\ncd\n"},
                            config=fast_config)
        assert plan.stages[0].mode == "parallel"
        assert not plan.stages[0].eliminated

    def test_unoptimized_never_eliminates(self, fast_config):
        ctx = ExecContext(fs={"in.txt": "A\nb\n"})
        p = Pipeline.from_string("cat in.txt | tr A-Z a-z | sort",
                                 context=ctx)
        results = synthesize_pipeline(p, config=fast_config)
        plan = compile_pipeline(p, results, optimize=False)
        assert plan.eliminated == 0

    def test_repeated_command_gets_one_mode(self, tiny_config):
        # the rerun pays for the first head (4000 lines -> 5) and not
        # for the second (5 -> 5); one command text, one decision
        data = "".join(f"line {i}\n" for i in range(4000))
        plan = compile_text("cat in.txt | head -n 5 | rev | head -n 5",
                            files={"in.txt": data}, config=tiny_config)
        assert [s.mode for s in plan.commands] == ["parallel"] * 3
        assert ParallelPipeline(plan, k=3).run() == plan.pipeline.run()

    def test_describe_lists_all_stages(self, fast_config):
        plan = compile_text("cat in.txt | sort | uniq",
                            files={"in.txt": "b\na\n"}, config=fast_config)
        assert len(plan.describe()) == 2


class TestChainLowering:
    """An eliminated chain plus its consumer is one executed stage."""

    WF = ("cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | "
          "uniq -c | sort -rn")
    SAMPLE = "Hello world hello\nthe quick fox the\n" * 50

    def test_wf_executes_four_stages(self, fast_config):
        plan = compile_text(self.WF, files={"in.txt": self.SAMPLE},
                            config=fast_config)
        assert [s.display() for s in plan.stages] == [
            "tr -cs A-Za-z '\\n'", "tr A-Z a-z | sort", "uniq -c",
            "sort -rn"]
        chain = plan.stages[1]
        assert chain.command.argv == ["fused", "tr A-Z a-z", "sort"]
        assert [m.command.argv for m in chain.members] == \
            [["tr", "A-Z", "a-z"], ["sort"]]
        # the chain is planned as its consumer was
        consumer = chain.members[-1]
        assert (chain.mode, chain.eliminated) == ("parallel", False)
        assert chain.combiner is consumer.combiner
        assert chain.combiner.is_merge()
        assert chain.synthesis is consumer.synthesis
        # a plain stage has no members and is its own command
        assert all(not s.members for i, s in enumerate(plan.stages)
                   if i != 1)
        assert len(plan.commands) == 5

    def test_describe_keeps_one_row_per_command(self, fast_config):
        plan = compile_text(self.WF, files={"in.txt": self.SAMPLE},
                            config=fast_config)
        rows = plan.describe()
        assert len(rows) == 5
        assert [r[0] for r in rows] == [" ", "┌", "└", " ", " "]
        assert "tr A-Z a-z" in rows[1] and "combiner eliminated" in rows[1]

    def test_long_chain_is_one_stage(self, fast_config):
        text = "cat in.txt | sed s/a/b/ | grep b | cut -c 1-3 | sort"
        plan = compile_text(text, files={"in.txt": "abc\nxyz\nbca\n" * 20},
                            config=fast_config)
        assert len(plan.stages) == 1
        assert len(plan.stages[0].members) == 4
        assert (plan.num_stages, plan.parallelized, plan.eliminated) == \
            (4, 4, 3)

    def test_unoptimized_plan_has_no_chains(self, fast_config):
        ctx = ExecContext(fs={"in.txt": self.SAMPLE})
        p = Pipeline.from_string(self.WF, context=ctx)
        results = synthesize_pipeline(p, config=fast_config)
        plan = compile_pipeline(p, results, optimize=False)
        assert len(plan.stages) == 5
        assert all(not s.members for s in plan.stages)

    def test_chain_stops_before_prefix_limited_consumer(self, fast_config):
        # head must see chunks one at a time to stop pulling early
        text = "cat in.txt | rev | tr a-z A-Z | head -n 3"
        plan = compile_text(text, files={"in.txt": "abc\ndef\n" * 40},
                            config=fast_config)
        assert [s.display() for s in plan.stages] == \
            ["rev | tr a-z A-Z", "head -n 3"]
        chain = plan.stages[0]
        assert chain.parallel and chain.eliminated
        assert chain.combiner.is_concat()

    def test_single_stage_before_prefix_limit_is_left_alone(self, fast_config):
        text = "cat in.txt | rev | head -n 3"
        plan = compile_text(text, files={"in.txt": "abc\ndef\n" * 40},
                            config=fast_config)
        assert len(plan.stages) == 2
        assert all(not s.members for s in plan.stages)

    def test_fused_member_flattens_and_round_trips(self, fast_config):
        # optimizer output (a fused stage) feeding the planner
        text = "cat in.txt | fused 'sed s/a/b/' 'grep b' | cut -c 1-3 | sort"
        data = "abc\nxyz\nbca\n" * 20
        plan = compile_text(text, files={"in.txt": data}, config=fast_config)
        assert len(plan.stages) == 1
        chain = plan.stages[0]
        assert chain.command.argv == \
            ["fused", "sed s/a/b/", "grep b", "cut -c 1-3", "sort"]
        # argv is all a worker gets: rebuilt from it, same bytes
        rebuilt = Command(list(chain.command.argv))
        assert rebuilt.run(data) == plan.pipeline.run()
        pp = ParallelPipeline(plan, k=2, engine=PROCESSES)
        assert pp.run() == plan.pipeline.run()

    def test_rerun_consumer_reruns_the_consumer_alone(self, fast_config):
        from repro.core.dsl import EvalEnv

        # poets/2_2.sh's shape: a squeezing tr consumes a tr | tr chain
        text = ("cat in.txt | tr -d '[:punct:]' | tr a-z A-Z | "
                "tr -sc AEIOU '[\\012*]'")
        # consonant-heavy, so the squeeze shrinks it enough to be
        # worth a parallel rerun
        data = "Hll, wrld! th qck brwn fx; ae jmps vr th lzy dg io\n" * 60
        plan = compile_text(text, files={"in.txt": data}, config=fast_config)
        assert len(plan.stages) == 1
        chain = plan.stages[0]
        assert chain.combiner.is_rerun()
        consumer = chain.members[-1].command
        halves = [data[:len(data) // 2 + 4], data[len(data) // 2 + 4:]]
        outputs = [chain.command.run(h) for h in halves]
        expected = plan.pipeline.run()
        before = (consumer.executions, chain.command.executions)
        # the env every caller builds names the *chain*; the combiner
        # must not trust it
        combined = chain.combiner.combine(
            outputs, EvalEnv(run_command=chain.command.run))
        assert combined == expected
        assert consumer.executions == before[0] + 1
        assert chain.command.executions == before[1]

    def test_two_compiles_give_the_same_executed_stages(self, fast_config):
        a = compile_text(self.WF, files={"in.txt": self.SAMPLE},
                         config=fast_config)
        b = compile_text(self.WF, files={"in.txt": self.SAMPLE},
                         config=fast_config)
        assert [(s.command.argv, s.mode, s.eliminated) for s in a.stages] \
            == [(s.command.argv, s.mode, s.eliminated) for s in b.stages]
