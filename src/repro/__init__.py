"""KumQuat reproduction: automatic synthesis of combiners for
data-parallel Unix commands and pipelines (Shen, Rinard, Vasilakis —
PPoPP 2022, arXiv:2012.15443).

Quickstart
----------

>>> from repro import parallelize
>>> pp = parallelize("cat $IN | tr A-Z a-z | sort | uniq -c | sort -rn",
...                  k=4, files={"input.txt": "B\\na\\nb\\nA\\n"},
...                  env={"IN": "input.txt"})
>>> out = pp.run()

The top-level helpers wrap the full stack: pipeline parsing
(:mod:`repro.shell`), per-command combiner synthesis
(:mod:`repro.core.synthesis`), plan compilation with combiner
elimination (:mod:`repro.parallel.planner`), and parallel execution
(:mod:`repro.parallel.executor`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from .core.dsl import Combiner, EvalEnv
from .core.synthesis import (
    CombinerStore,
    CompositeCombiner,
    SynthesisConfig,
    SynthesisResult,
    synthesize,
)
from .parallel import (
    ParallelPipeline,
    PipelinePlan,
    RunStats,
    SERIAL,
    compile_pipeline,
    split_stream,
    synthesize_pipeline,
)
from .shell import Command, Pipeline
from .unixsim import ExecContext

__version__ = "1.6.0"

__all__ = [
    "Combiner", "CombinerStore", "Command", "CompositeCombiner", "EvalEnv",
    "ExecContext", "ParallelPipeline", "Pipeline", "PipelinePlan",
    "RunStats", "SynthesisConfig", "SynthesisResult", "compile_pipeline",
    "parallelize", "split_stream", "synthesize", "synthesize_pipeline",
    "__version__",
]


def parallelize(
    pipeline_text: str,
    k: int = 4,
    files: Optional[Dict[str, str]] = None,
    env: Optional[Dict[str, str]] = None,
    engine: str = SERIAL,
    optimize: bool = True,
    config: Optional[SynthesisConfig] = None,
    results: Optional[Dict[Tuple[str, ...], SynthesisResult]] = None,
    store: Optional[Union[str, "CombinerStore"]] = None,
    streaming: bool = True,
    rewrite: Optional[bool] = None,
    scheduler: str = "auto",
    speculate: bool = False,
) -> ParallelPipeline:
    """One-shot: parse, optimize, synthesize combiners, compile, and wrap.

    Args:
        pipeline_text: the shell pipeline, e.g. ``"cat $IN | sort | uniq -c"``.
        k: degree of data parallelism per stage.
        files: virtual filesystem contents (``$IN`` targets, dictionaries).
        env: variables for ``$VAR`` expansion.
        engine: ``"serial"``, ``"threads"``, or ``"processes"``.
        optimize: run the optimizer — the rewrite engine with cost-model
            plan selection (:mod:`repro.optimizer`) plus intermediate
            combiner elimination (Theorem 5).
        config: synthesis knobs; defaults are laptop-friendly.
        results: optional pre-computed synthesis cache keyed by
            :meth:`Command.key` — pass the same dict across calls to
            synthesize each unique command only once.  (Repeated calls
            in one process also hit the built-in synthesis memo.)
        store: path or :class:`CombinerStore` for persistent combiner
            reuse across processes.
        streaming: run with the chunk-pipelined streaming data plane
            (default); ``False`` selects the barrier plane, which fully
            materializes every intermediate stream.
        rewrite: override just the rewrite-engine half of ``optimize``
            (``rewrite=False, optimize=True`` keeps combiner
            elimination but executes the pipeline exactly as written).
        scheduler: chunk scheduler for parallel stages — ``"static"``
            (fixed k-way split), ``"stealing"`` (a finer split, up to
            ``8 * k`` chunks, balanced by the worker pool's shared
            queue), or ``"auto"`` (default: the
            optimizer's cost model picks per pipeline; resolves to
            static when the rewrite engine is disabled).
        speculate: launch speculative duplicates of straggler chunk
            tasks (first result wins; legal because chunk evaluation
            is deterministic).

    The applied rewrite trace is available as ``pp.plan.rewrite_trace``
    and the chosen plan's rewrite count lands in ``RunStats.rewrites``.
    """
    context = ExecContext(fs=dict(files or {}), env=dict(env or {}))
    pipeline = Pipeline.from_string(pipeline_text, env=env, context=context)
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = CombinerStore(store)
    rewrite = optimize if rewrite is None else rewrite
    if rewrite:
        from .optimizer import select_plan

        plan, _optimization = select_plan(
            pipeline, k=k, config=config, cache=results, store=store,
            optimize=optimize, scheduler=scheduler)
    else:
        results = synthesize_pipeline(pipeline, config=config, cache=results,
                                      store=store)
        plan = compile_pipeline(pipeline, results, optimize=optimize,
                                scheduler=scheduler)
    return ParallelPipeline(plan, k=k, engine=engine, streaming=streaming,
                            speculate=speculate)
