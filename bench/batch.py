"""The two in-process workloads: one compiled plan, one reused process
pool, one caller that waits for each output.

``batch_aggregate`` and ``batch_perline`` mirror each other: the first
spends its time in ``sort``/``uniq`` and in combiners that could not be
eliminated, the second in line-local evaluation and chunk traffic with a
``concat`` combiner that costs nothing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.dsl import EvalEnv
from repro.core.synthesis import CombinerStore, SynthesisConfig
from repro.core.synthesis.store import clear_synthesis_memo
from repro.optimizer import enumerate_candidates, select_plan
from repro.parallel import (
    PROCESSES,
    STATIC,
    ParallelPipeline,
    PipelinePlan,
    StageRunner,
    compile_pipeline,
    split_stream,
)
from repro.shell import Pipeline
from repro.unixsim import ExecContext
from repro.workloads import datagen

from harness import (
    K,
    SYNTH_SEED,
    BenchError,
    Block,
    JobRecord,
    PlanFingerprint,
    Tracer,
    median,
    process_tree,
    require_same_plan,
)

ENV = {"IN": "input.txt"}


@dataclass(frozen=True)
class BatchSpec:
    pipeline: str
    generate: Callable[[int], str]
    #: warm-up jobs (a fixed count, so memory is read at the same point
    #: of every run); about 2 s, which is also what the second core needs
    warmup_jobs: int
    #: pins the chosen rewrite candidate; ``select_plan`` otherwise prices
    #: candidates by wall-clock on a sample and picks differently per run
    cost_fn: Optional[Callable] = None


def _fewest_stages(plan: PipelinePlan, _candidate) -> float:
    return plan.num_stages


SPECS: Dict[str, BatchSpec] = {
    # the paper's running example and Table 1's longest script
    "batch_aggregate": BatchSpec(
        pipeline="cat $IN | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort "
                 "| uniq -c | sort -rn",
        generate=lambda seed: datagen.book_text(30_000, seed=seed),
        warmup_jobs=20),
    # the analytics-mts projection prefix plus a filter (CSV-ETL shape);
    # its cold compile synthesizes all 4 rewrite candidates
    "batch_perline": BatchSpec(
        pipeline="cat $IN | sed 's/T..:..:..//' | grep ',bus,' "
                 "| cut -d ',' -f 1,3,4",
        generate=lambda seed: datagen.transit_csv(60_000, seed=seed),
        warmup_jobs=60, cost_fn=_fewest_stages),
}


def fingerprint(plan: PipelinePlan) -> PlanFingerprint:
    return PlanFingerprint(
        render=plan.pipeline.render(), scheduler=plan.scheduler,
        rewrites=plan.rewrites,
        modes=tuple(s.mode + ("-eliminated" if s.eliminated else "")
                    for s in plan.stages))


class BatchWorkload:
    callers = 1

    def __init__(self, name: str, seed: int, tracer: Tracer, tmp: Path,
                 inject_wrong_output: bool = False) -> None:
        self.spec = SPECS[name]
        self.warmup_jobs = self.spec.warmup_jobs
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp
        self.inject = inject_wrong_output
        self.runner: Optional[StageRunner] = None
        self.layers: Dict[str, List[float]] = {}

    # -- inputs and the serial reference (untimed) ---------------------------

    def parse(self) -> Pipeline:
        """The workload's pipeline over its input, in a context of its own
        (synthesis leaves probe files in the context it runs in)."""
        return Pipeline.from_string(
            self.spec.pipeline, env=ENV,
            context=ExecContext(fs={"input.txt": self.data}, env=dict(ENV)))

    def prepare(self) -> None:
        self.data = self.spec.generate(self.seed)
        self.reference = self.parse()
        self.expected = self.reference.run()

    def serial_reference(self) -> Dict[str, float]:
        start = time.perf_counter()
        with self.tracer.span("shell.serial"):
            self.reference.run()
        return {"input": time.perf_counter() - start}

    # -- set-up: cold compile, pool start, first correct job -----------------

    def setup(self) -> None:
        clear_synthesis_memo()
        store = CombinerStore(self.tmp / "combiners.json")
        self.cache: dict = {}
        with self.tracer.span("shell.parse"):
            pipeline = self.parse()
        with self.tracer.span("optimizer.select_plan") as select:
            self.plan, self.optimization = select_plan(
                pipeline, k=K, config=SynthesisConfig(seed=SYNTH_SEED),
                cache=self.cache, store=store, scheduler=STATIC,
                cost_fn=self.spec.cost_fn)
            if select is not None:
                # children the program timed itself; what is left of the
                # select_plan span is the optimizer's own cost
                now = time.perf_counter()
                for result in self.cache.values():
                    self.tracer.add("synthesis.synthesize",
                                    now - result.elapsed, now, parent=select)
        self.runner = StageRunner(engine=PROCESSES, max_workers=K,
                                  context=pipeline.context)
        self.pp = ParallelPipeline(self.plan, k=K, engine=PROCESSES,
                                   runner=self.runner, streaming=True)
        with self.tracer.span("parallel.first_job"):
            output = self.pp.run()
        if output != self.expected:
            raise BenchError("first job differs from the serial reference")

    def teardown(self) -> None:
        if self.runner is not None:
            self.runner.close()
            self.runner = None

    def check_plan_repeats(self) -> None:
        """Compile once more (memo warm, so cheap) and require the same
        plan as the cold compile of the set-up."""
        pipeline = self.parse()
        with self.tracer.span("optimizer.enumerate"):
            enumerate_candidates(pipeline)
        plan, _ = select_plan(pipeline, k=K,
                              config=SynthesisConfig(seed=SYNTH_SEED),
                              cache=dict(self.cache), scheduler=STATIC,
                              cost_fn=self.spec.cost_fn)
        require_same_plan(self.spec.pipeline, fingerprint(self.plan),
                          fingerprint(plan))
        with self.tracer.span("parallel.compile_pipeline"):
            compile_pipeline(plan.pipeline, self.cache, scheduler=STATIC)

    def plan_fingerprints(self) -> List[PlanFingerprint]:
        return [fingerprint(self.plan)]

    def exact_counts(self) -> Dict[str, int]:
        results = list(self.cache.values())
        stats = self.pp.last_stats
        return {
            "synthesis.commands": len(results),
            "synthesis.executions": sum(r.executions for r in results),
            "synthesis.rounds": sum(r.rounds for r in results),
            "synthesis.observations": sum(r.observation_count
                                          for r in results),
            "optimizer.candidates": self.optimization.candidates,
            "optimizer.rewrites": self.plan.rewrites,
            "parallel.chunks": sum(s.chunks for s in stats.stages),
        }

    # -- the job -------------------------------------------------------------

    def job(self, _caller: int, n: int) -> JobRecord:
        start = time.perf_counter()
        with self.tracer.span("parallel.job", job=str(n)):
            output = self.pp.run()
        end = time.perf_counter()
        if self.inject and n == self.warmup_jobs:
            output += "injected\n"
        ok = output == self.expected
        detail = None
        if self.tracer.enabled:
            stats = self.pp.last_stats
            detail = {"overlap": stats.total_overlap,
                      "chunks": sum(s.chunks for s in stats.stages),
                      "tasks": stats.scheduler.tasks,
                      "steals": stats.scheduler.steals,
                      "retries": stats.scheduler.retries}
        return JobRecord("input", len(self.data), start, end, ok,
                         "" if ok else "output differs from serial reference",
                         detail)

    def verify_after(self) -> int:
        return 0    # every output was compared as it arrived

    def sut_pids(self) -> List[int]:
        # the driver runs the pumps and combiners, its children the chunks
        return process_tree(os.getpid())

    # -- layers, from outside ------------------------------------------------

    def probe_layers(self) -> None:
        """Replay one job layer by layer in this process: same plan, same
        chunk counts as the last real job, each call timed on its own."""
        with self.tracer.span("shell.parse"):
            self.parse()
        took: Dict[str, float] = {"split": 0.0, "combine": 0.0,
                                  "sequential": 0.0, "parallel": 0.0}
        stream: Optional[str] = self.data
        chunks: Optional[List[str]] = None
        for stage, seen in zip(self.plan.stages, self.pp.last_stats.stages):
            name = stage.command.argv[0]
            if not stage.parallel:
                if chunks is not None:
                    stream, chunks = "".join(chunks), None
                t0 = time.perf_counter()
                stream = stage.command.run(stream)
                spent = time.perf_counter() - t0
                took["sequential"] += spent
                took[name] = took.get(name, 0.0) + spent
                continue
            if chunks is None:
                t0 = time.perf_counter()
                chunks = split_stream(stream, seen.chunks)
                took["split"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            outputs = [stage.command.run(c) for c in chunks]
            spent = time.perf_counter() - t0
            took["parallel"] += spent
            took[name] = took.get(name, 0.0) + spent
            if stage.eliminated:
                chunks = outputs
                continue
            t0 = time.perf_counter()
            stream = stage.combiner.combine(
                outputs, EvalEnv(run_command=stage.command.run))
            took["combine"] += time.perf_counter() - t0
            chunks = None
        if stream != self.expected:
            raise BenchError("layer replay differs from the serial reference")
        for name, seconds in took.items():
            self.layers.setdefault(name, []).append(seconds)

    def snapshot(self) -> None:
        pass    # everything is read in-process

    def layer_metrics(self, blocks: List[Block],
                      _rss_growth_mb_per_1k_jobs: float) -> Dict[str, float]:
        tracer = self.tracer
        ms = 1e3
        layer = {name: median(v) * ms for name, v in self.layers.items()}
        details = [r.detail for b in blocks for r in b.records if r.detail]
        job_ms = median([r.seconds for b in blocks if b.traced
                         for r in b.records]) * ms
        busy = layer["sequential"] + layer["parallel"]
        select = next(i for i, s in enumerate(tracer.spans)
                      if s["name"] == "optimizer.select_plan")
        metrics = dict(self.exact_counts())
        metrics.update({
            "shell.parse_ms": median(tracer.durations("shell.parse")) * ms,
            "shell.serial_ms": median(tracer.durations("shell.serial")) * ms,
            "synthesis.synthesize_s": sum(r.elapsed
                                          for r in self.cache.values()),
            "optimizer.enumerate_ms":
                median(tracer.durations("optimizer.enumerate")) * ms,
            "optimizer.select_self_s": tracer.self_seconds(select),
            "unixsim.busy_ms": busy,
            "parallel.compile_pipeline_ms":
                median(tracer.durations("parallel.compile_pipeline")) * ms,
            "parallel.first_job_ms":
                median(tracer.durations("parallel.first_job")) * ms,
            "parallel.split_ms": layer["split"],
            "parallel.combine_ms": layer["combine"],
            # what is left of a job once the commands, spread over K
            # workers where the plan allows, the split and the combiners
            # are paid: dispatch, pickling, queues, imbalance
            "parallel.runtime_overhead_ms":
                job_ms - layer["sequential"] - layer["parallel"] / K
                - layer["split"] - layer["combine"],
            "parallel.overlap_ms": median([d["overlap"] for d in details]) * ms,
            "parallel.tasks": median([d["tasks"] for d in details]),
            "parallel.steals": sum(d["steals"] for d in details),
            "parallel.retries": sum(d["retries"] for d in details),
        })
        for name in ("tr", "sort", "uniq", "fused"):
            metrics[f"unixsim.{name}_ms"] = layer.get(name, 0.0)
        return metrics
