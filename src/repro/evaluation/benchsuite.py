"""Perf-trajectory benchmark harness: one staged suite, one JSON file.

``repro bench`` (or ``scripts/bench_suite.py``) executes a fixed
sequence of stages — the Table-1/Table-7 workload subsets, the
optimizer / scheduler / streaming benchmark scenarios, the fixed-seed
fuzz corpus, the service smoke script, and a load-generation soak
against a live :class:`~repro.service.server.ReproService` daemon —
and writes a single ``BENCH_<runid>.json`` at the output directory
with a stable, machine-readable schema (``docs/bench_schema.json``).

Successive files form the repository's *performance trajectory*: every
counter the paper's tables, the chunk scheduler, the pipeline
optimizer, and the multi-tenant service expose lands in one document
per run, keyed by timestamp + git sha, so regressions show up as a
diff between two JSON files (``scripts/bench_diff.py``) instead of as
an anecdote.

Layout of the emitted document::

    {
      "schema": 1,
      "run":       {runid, timestamp, git_sha, python, workers, smoke},
      "stages":    [{name, wall_seconds, ok, metrics...}, ...],
      "latency":   {jobs_per_second, p50_seconds, p99_seconds},
      "scheduler": {tasks, steals, retries, failures,
                    speculations, speculation_wins},
      "optimizer": {jobs_optimized, rewrites_applied, hit_rate},
      "cache":     {cold_jobs_per_second, warm_jobs_per_second,
                    warm_over_cold, hit_rate, persisted_warm_hits},
      "distrib":   {nodes, tasks, reassignments, evictions,
                    jobs_per_second, outputs_identical}
    }

Subprocess stages (fuzz corpus, service smoke) report their own timing
back into the suite through :class:`StageRecorder`: the suite exports
``REPRO_BENCH_STAGES`` pointing at a JSONL file, the child appends
entries, and the suite folds them into the stage's metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.synthesis.synthesizer import SynthesisConfig

#: environment variable naming the JSONL file subprocess stages append
#: their timings to (set by the suite, read via StageRecorder.from_env)
STAGE_FILE_ENV = "REPRO_BENCH_STAGES"

#: schema version of the emitted BENCH_*.json document (2: added the
#: ``distrib`` stage and top-level group)
BENCH_SCHEMA = 2

#: stage names in execution order
ALL_STAGES = ("table1", "table7", "optimizer", "scheduler", "streaming",
              "fuzz", "smoke", "soak", "distrib")

#: benchmark-script subset exercised in --smoke mode: two suites so
#: table1's "top two per suite" selection is meaningful, biased toward
#: pipelines the optimizer rewrites
SMOKE_SCRIPTS = (
    ("oneliners", "sort.sh"),
    ("oneliners", "sort-sort.sh"),
    ("oneliners", "top-n.sh"),
    ("poets", "3_1.sh"),
    ("poets", "3_2.sh"),
    ("poets", "6_1_2.sh"),
)

#: optimizer scenarios (same cases as benchmarks/test_optimizer_speedup)
OPTIMIZER_CASES = (
    ("oneliners", "sort-sort.sh"),
    ("poets", "3_2.sh"),
    ("poets", "6_1_2.sh"),
)


# ---------------------------------------------------------------------------
# cross-process stage timing


class StageRecorder:
    """Append-only JSONL of ``{name, wall_seconds, ok, metrics}`` rows.

    The suite owns the file; subprocess stages (the fuzz corpus run,
    the service smoke script) obtain a recorder via :meth:`from_env`
    and report their measured sections, which the suite folds back
    into the BENCH document.  Appends are line-atomic, so a recorder
    is safe to share across processes.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)

    @classmethod
    def from_env(cls) -> Optional["StageRecorder"]:
        path = os.environ.get(STAGE_FILE_ENV)
        return cls(path) if path else None

    def record(self, name: str, wall_seconds: float, ok: bool = True,
               **metrics: Any) -> None:
        row = {"name": name, "wall_seconds": float(wall_seconds),
               "ok": bool(ok), "metrics": metrics}
        with open(self.path, "a") as fh:
            fh.write(json.dumps(row) + "\n")

    @contextlib.contextmanager
    def stage(self, name: str, **metrics: Any):
        """Time a ``with`` block; records ok=False if it raises."""
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.record(name, time.perf_counter() - start, ok=False,
                        **metrics)
            raise
        self.record(name, time.perf_counter() - start, ok=True, **metrics)

    def read(self) -> List[dict]:
        """All complete rows recorded so far (partial lines skipped)."""
        if not self.path.exists():
            return []
        rows = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except ValueError:
                continue
        return rows

    def reset(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")


# ---------------------------------------------------------------------------
# suite options and per-stage results


@dataclass
class BenchOptions:
    """Knobs for one suite run; ``smoke`` selects the <2-minute preset."""

    smoke: bool = False
    out_dir: str = "."
    runid: Optional[str] = None
    stages: Sequence[str] = ALL_STAGES
    k: int = 4
    clients: int = 4
    concurrency: int = 4
    #: input scale for the table stages (rows in generated inputs);
    #: None picks the smoke/full preset
    scale: Optional[int] = None
    optimizer_scale: Optional[int] = None
    skew_lines: Optional[int] = None
    streaming_scale: Optional[int] = None
    soak_scale: Optional[int] = None
    fuzz_iterations: Optional[int] = None
    fuzz_seed: int = 20260729
    repeats: Optional[int] = None
    seed: int = 3
    config: Optional[SynthesisConfig] = None

    def _preset(self, explicit: Optional[int], smoke_value: int,
                full_value: int) -> int:
        if explicit is not None:
            return explicit
        return smoke_value if self.smoke else full_value

    @property
    def table_scale(self) -> int:
        return self._preset(self.scale, 60, 400)

    @property
    def opt_scale(self) -> int:
        return self._preset(self.optimizer_scale, 1500, 12_000)

    @property
    def skew_heavy_lines(self) -> int:
        return self._preset(self.skew_lines, 6000, 60_000)

    @property
    def stream_scale(self) -> int:
        return self._preset(self.streaming_scale, 150, 400)

    @property
    def service_scale(self) -> int:
        return self._preset(self.soak_scale, 40, 80)

    @property
    def fuzz_n(self) -> int:
        return self._preset(self.fuzz_iterations, 6, 24)

    @property
    def cost_repeats(self) -> int:
        return self._preset(self.repeats, 1, 3)

    def synth_config(self) -> SynthesisConfig:
        if self.config is not None:
            return self.config
        # the benchmarks/ conftest preset: fast rounds, deterministic
        return SynthesisConfig(max_rounds=6, patience=2, gradient_steps=2,
                               pairs_per_shape=2, seed=2024)


@dataclass
class StageResult:
    name: str
    wall_seconds: float
    ok: bool
    metrics: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    def to_dict(self) -> dict:
        row: Dict[str, Any] = {"name": self.name,
                               "wall_seconds": self.wall_seconds,
                               "ok": self.ok, "metrics": self.metrics}
        if self.error is not None:
            row["error"] = self.error
        return row


class _SuiteContext:
    """Mutable state shared across stages of one suite run."""

    def __init__(self, options: BenchOptions, repo_root: Path,
                 stage_file: Path) -> None:
        self.options = options
        self.root = repo_root
        self.stage_file = stage_file
        self.config = options.synth_config()
        #: synthesis cache shared by every stage (as in the paper,
        #: synthesis runs once per unique command)
        self.cache: Dict = {}
        self.perfs: Optional[list] = None


# ---------------------------------------------------------------------------
# stages


def _scripts_for(options: BenchOptions) -> list:
    from ..workloads.scripts import ALL_SCRIPTS, get_script

    if options.smoke:
        return [get_script(suite, name) for suite, name in SMOKE_SCRIPTS]
    return list(ALL_SCRIPTS)


def _stage_table1(ctx: _SuiteContext) -> Dict[str, Any]:
    from .performance import measure_all

    opts = ctx.options
    perfs = measure_all(ks=(1, opts.k), scripts=_scripts_for(opts),
                        cache=ctx.cache, scale=opts.table_scale,
                        seed=opts.seed, config=ctx.config)
    ctx.perfs = perfs
    unopt = [p.unopt_speedup(opts.k) for p in perfs
             if p.unoptimized.get(opts.k)]
    opt = [p.opt_speedup(opts.k) for p in perfs if p.optimized.get(opts.k)]
    by_suite: Dict[str, list] = {}
    for p in perfs:
        by_suite.setdefault(p.suite, []).append(p)
    top2 = [p for suite in sorted(by_suite)
            for p in sorted(by_suite[suite], key=lambda q: q.u1,
                            reverse=True)[:2]]
    return {
        "k": opts.k,
        "scale": opts.table_scale,
        "scripts": len(perfs),
        "median_unopt_speedup": statistics.median(unopt) if unopt else 0.0,
        "median_opt_speedup": statistics.median(opt) if opt else 0.0,
        "rows": [{"suite": p.suite, "name": p.name,
                  "u1_seconds": p.u1,
                  "t_k_seconds": p.optimized.get(opts.k, 0.0),
                  "opt_speedup": p.opt_speedup(opts.k)} for p in top2],
    }


def _stage_table7(ctx: _SuiteContext) -> Dict[str, Any]:
    opts = ctx.options
    if ctx.perfs is None:  # table1 not in the stage subset: measure now
        _stage_table1(ctx)
    perfs = ctx.perfs or []
    ranked = sorted(perfs, key=lambda p: p.u1, reverse=True)
    subset = ranked[: max(1, len(ranked) // 2)]
    unopt = [p.unopt_speedup(opts.k) for p in subset]
    opt = [p.opt_speedup(opts.k) for p in subset]
    return {
        "k": opts.k,
        "scripts": len(subset),
        "median_unopt_speedup": statistics.median(unopt) if unopt else 0.0,
        "median_opt_speedup": statistics.median(opt) if opt else 0.0,
        "rows": [{"suite": p.suite, "name": p.name, "u1_seconds": p.u1,
                  "opt_speedup": p.opt_speedup(opts.k)} for p in subset],
    }


def _stage_optimizer(ctx: _SuiteContext) -> Dict[str, Any]:
    from ..workloads.scripts import get_script
    from .performance import measure_optimizer

    opts = ctx.options
    reports = [measure_optimizer(get_script(suite, name), k=opts.k,
                                 cache=ctx.cache, scale=opts.opt_scale,
                                 seed=opts.seed, config=ctx.config,
                                 repeats=opts.cost_repeats)
               for suite, name in OPTIMIZER_CASES]
    optimized = sum(1 for r in reports if r.rewrites >= 1)
    total_plain = sum(r.plain_seconds for r in reports)
    total_opt = sum(r.optimized_seconds for r in reports)
    return {
        "cases": len(reports),
        "jobs_optimized": optimized,
        "rewrites_applied": sum(r.rewrites for r in reports),
        "hit_rate": optimized / len(reports) if reports else 0.0,
        "aggregate_speedup": (total_plain / total_opt
                              if total_opt > 0 else 0.0),
        "outputs_identical": all(r.outputs_match for r in reports),
        "rows": [{"suite": r.suite, "name": r.name, "rewrites": r.rewrites,
                  "plain_seconds": r.plain_seconds,
                  "optimized_seconds": r.optimized_seconds,
                  "speedup": r.speedup} for r in reports],
    }


def _stage_scheduler(ctx: _SuiteContext) -> Dict[str, Any]:
    from .. import parallelize
    from ..workloads.datagen import skewed_lines
    from ..workloads.scripts import get_script
    from .scheduler_eval import measure_faults, measure_skew

    opts = ctx.options
    skew = measure_skew(k=opts.k, n_heavy_lines=opts.skew_heavy_lines,
                        seed=opts.seed, config=ctx.config, cache=ctx.cache,
                        cost_repeats=opts.cost_repeats)
    # a *real* ``stealing`` run (threads, speculation on) over the
    # same skewed shape, to collect live SchedulerStats counters
    data = skewed_lines(opts.skew_heavy_lines, seed=opts.seed)
    pp = parallelize("cat skew.txt | sort | uniq -c", k=opts.k,
                     files={"skew.txt": data}, engine="threads",
                     optimize=False, config=ctx.config, results=ctx.cache,
                     scheduler="stealing", speculate=True)
    pp.run()
    counters = {"tasks": 0, "steals": 0, "retries": 0, "failures": 0,
                "speculations": 0, "speculation_wins": 0}
    if pp.last_stats is not None and pp.last_stats.scheduler is not None:
        for name in counters:
            counters[name] += getattr(pp.last_stats.scheduler, name)
    faults = measure_faults([get_script("oneliners", "sort.sh")],
                            scale=max(20, opts.table_scale // 2), k=opts.k,
                            seed=opts.seed, config=ctx.config,
                            cache=ctx.cache)
    counters["retries"] += sum(m.retries for m in faults)
    counters["failures"] += sum(m.injected for m in faults)
    speedups = [m.speedup for m in skew]
    return {
        **counters,
        "skew_pipelines": len(skew),
        "median_steal_speedup": (statistics.median(speedups)
                                 if speedups else 0.0),
        "fault_runs": len(faults),
        "fault_recovered_identical": all(m.identical for m in faults),
    }


def _stage_streaming(ctx: _SuiteContext) -> Dict[str, Any]:
    from ..workloads.scripts import get_script
    from .performance import measure_streaming

    opts = ctx.options
    cases = [("oneliners", "sort.sh"), ("poets", "3_2.sh")]
    reports = [measure_streaming(get_script(suite, name), k=opts.k,
                                 cache=ctx.cache, scale=opts.stream_scale,
                                 seed=opts.seed, config=ctx.config)
               for suite, name in cases]
    return {
        "cases": len(reports),
        "outputs_identical": all(r.outputs_match for r in reports),
        "total_overlap_seconds": sum(r.overlap_seconds for r in reports),
        "rows": [{"suite": r.suite, "name": r.name,
                  "barrier_seconds": r.barrier_seconds,
                  "streaming_seconds": r.streaming_seconds,
                  "overlap_seconds": r.overlap_seconds,
                  "throughput_mbs": r.throughput_mbs} for r in reports],
    }


def _child_env(ctx: _SuiteContext) -> Dict[str, str]:
    env = dict(os.environ)
    env[STAGE_FILE_ENV] = str(ctx.stage_file)
    src = str(ctx.root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    return env


def _run_child(ctx: _SuiteContext, argv: List[str],
               timeout: float) -> Dict[str, Any]:
    recorder = StageRecorder(ctx.stage_file)
    before = len(recorder.read())
    proc = subprocess.run(argv, cwd=str(ctx.root), env=_child_env(ctx),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout)
    recorded = recorder.read()[before:]
    metrics: Dict[str, Any] = {"exit_code": proc.returncode,
                               "recorded": recorded}
    if proc.returncode != 0:
        metrics["tail"] = proc.stdout[-2000:]
        raise _StageFailed(f"exit code {proc.returncode}", metrics)
    return metrics


class _StageFailed(RuntimeError):
    """A stage failed but still produced partial metrics."""

    def __init__(self, message: str, metrics: Dict[str, Any]) -> None:
        super().__init__(message)
        self.metrics = metrics


def _stage_fuzz(ctx: _SuiteContext) -> Dict[str, Any]:
    opts = ctx.options
    if not (ctx.root / "tests" / "fuzz").is_dir():
        return {"skipped": True}
    argv = [sys.executable, "-m", "pytest", "-x", "-q",
            "-p", "no:cacheprovider", "tests/fuzz",
            "--fuzz-seed", str(opts.fuzz_seed),
            "--fuzz-iterations", str(opts.fuzz_n)]
    metrics = _run_child(ctx, argv, timeout=600)
    metrics.update(seed=opts.fuzz_seed, iterations=opts.fuzz_n)
    return metrics


def _stage_smoke(ctx: _SuiteContext) -> Dict[str, Any]:
    script = ctx.root / "scripts" / "service_smoke.py"
    if not script.is_file():
        return {"skipped": True}
    argv = [sys.executable, str(script)]
    return _run_child(ctx, argv, timeout=600)


def _stage_soak(ctx: _SuiteContext) -> Dict[str, Any]:
    """Loadgen soak against a live daemon, in four acts:

    cold pass (empty plan cache) → warm pass (same jobs, in-memory
    hits) → per-tenant quota probe (expect 429s) → graceful drain
    (``stop()`` finishes admitted jobs and persists the plan cache) →
    restart (same snapshot path; jobs come back as *warm* disk hits,
    proving no recompile across daemon lifetimes).
    """
    from ..service.client import ServiceClient, ServiceUnavailable
    from ..service.server import ReproService, ServiceConfig
    from ..workloads.loadgen import run_load, script_requests

    opts = ctx.options
    scripts = _scripts_for(opts)
    if opts.smoke:
        scripts = scripts[:4]
    requests = script_requests(scripts, scale=opts.service_scale,
                               seed=opts.seed, k=opts.k, engine="serial")
    snapshot = ctx.stage_file.with_name("plan_cache_snapshot.json")
    if snapshot.exists():
        snapshot.unlink()
    factory = (lambda _request: ctx.config)
    config = ServiceConfig(concurrency=opts.concurrency,
                           quotas={"quota-probe": 1},
                           plan_cache_path=str(snapshot),
                           config_factory=factory)
    service = ReproService(config)
    service.start_http()
    metrics: Dict[str, Any] = {"jobs_per_pass": len(requests),
                               "clients": opts.clients,
                               "concurrency": opts.concurrency}
    try:
        cold = run_load(service.url, requests, clients=opts.clients)
        warm = run_load(service.url, requests, clients=opts.clients)
        metrics.update(
            cold_jobs_per_second=cold.jobs_per_second,
            warm_jobs_per_second=warm.jobs_per_second,
            cold_p50_seconds=cold.p50, cold_p99_seconds=cold.p99,
            warm_p50_seconds=warm.p50, warm_p99_seconds=warm.p99,
            warm_over_cold=(warm.jobs_per_second / cold.jobs_per_second
                            if cold.jobs_per_second > 0 else 0.0),
            warm_hit_rate=warm.cache_hit_rate,
            failures=cold.failures + warm.failures)

        # quota probe: park every worker at a gate so admission state
        # is deterministic, then burst past the probe tenant's quota
        # of one queued job — the excess must come back as 429
        gate = threading.Event()
        original_run_job = service.scheduler.run_job

        def gated(job):
            gate.wait(timeout=120)
            original_run_job(job)

        service.scheduler.run_job = gated
        filler = ServiceClient(service.url, client_id="soak-filler")
        probe = ServiceClient(service.url, client_id="quota-probe")
        heavy = max(requests, key=lambda r: sum(
            len(v) for v in r.files.values()))
        filler_ids = [filler.submit(heavy.pipeline, files=heavy.files,
                                    env=heavy.env, k=opts.k)
                      for _ in range(opts.concurrency * 2)]
        rejected = accepted = 0
        probe_ids = []
        for _ in range(4):
            try:
                probe_ids.append(probe.submit(
                    heavy.pipeline, files=heavy.files, env=heavy.env,
                    k=opts.k))
                accepted += 1
            except ServiceUnavailable as exc:
                if exc.code == 429:
                    rejected += 1
                else:
                    raise
        gate.set()
        for job_id in filler_ids + probe_ids:
            filler.wait(job_id, timeout=300, include_output=False)
        service.scheduler.run_job = original_run_job
        status = service.status()
        metrics.update(
            quota_accepted=accepted, quota_rejected_429=rejected,
            quota_rejections=status["scheduler"]["quota_rejections"])

        # graceful drain: submit a burst, stop() with jobs still in
        # flight — every admitted job must finish before stop()
        # returns, and the snapshot must land on disk
        drainer = ServiceClient(service.url, client_id="soak-drain")
        for _ in range(opts.concurrency):
            drainer.submit(heavy.pipeline, files=heavy.files,
                           env=heavy.env, k=opts.k)
        admitted = service.status()["jobs"]["submitted"]
    finally:
        service.stop()
    post = service.status()["jobs"]
    metrics.update(
        drain_admitted=admitted,
        drain_completed=post["done"] + post["failed"],
        drain_clean=(post["done"] + post["failed"] == admitted
                     and post["failed"] == 0),
        snapshot_persisted=snapshot.exists())

    # restart: a fresh daemon on the same snapshot path serves the same
    # jobs as warm (disk) hits — zero synthesis, zero plan selection
    service = ReproService(ServiceConfig(concurrency=opts.concurrency,
                                         plan_cache_path=str(snapshot),
                                         config_factory=factory))
    service.start_http()
    try:
        restarted = run_load(service.url, requests, clients=opts.clients)
        stats = service.plan_cache.stats()
    finally:
        service.stop()
    with contextlib.suppress(OSError):
        snapshot.unlink()
    metrics.update(
        restart_jobs_per_second=restarted.jobs_per_second,
        restart_warm_hit_rate=restarted.warm_hit_rate,
        persisted_warm_hits=stats["warm_hits"],
        restart_failures=restarted.failures)
    return metrics


def _stage_distrib(ctx: _SuiteContext) -> Dict[str, Any]:
    """Distributed-dispatch throughput: the daemon as a controller with
    two in-process executor nodes, driving ``--distribute`` jobs and
    checking byte-identity against the serial oracle."""
    import threading as _threading

    from ..distrib import ExecutorAgent, LocalTransport
    from ..service.server import ReproService, ServiceConfig
    from ..workloads.loadgen import (
        expected_outputs,
        run_load,
        script_requests,
    )

    opts = ctx.options
    scripts = _scripts_for(opts)
    if opts.smoke:
        scripts = scripts[:4]
    requests = script_requests(scripts, scale=opts.service_scale,
                               seed=opts.seed, k=opts.k, engine="serial",
                               distribute=True)
    expected = expected_outputs(requests)
    n_nodes = 2
    service = ReproService(ServiceConfig(
        concurrency=opts.concurrency,
        config_factory=lambda _request: ctx.config))
    service.start_http()
    transport = LocalTransport(service.node_pool, service.board,
                               service.plan_registry)
    stop = _threading.Event()
    agents = [ExecutorAgent(transport, capacity=opts.k, poll_wait=0.05)
              for _ in range(n_nodes)]
    threads = []
    for agent in agents:
        agent.register()
        thread = _threading.Thread(target=agent.run, args=(stop,),
                                   daemon=True)
        thread.start()
        threads.append(thread)
    try:
        report = run_load(service.url, requests, clients=opts.clients,
                          keep_outputs=True)
        status = service.status()
    finally:
        service.stop()
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
    by_index = {o.request_index: o for o in report.outcomes}
    identical = all(
        by_index.get(i) is not None and by_index[i].output == want
        for i, want in enumerate(expected))
    distrib = status["distrib"]
    return {
        "nodes": n_nodes,
        "jobs": report.jobs,
        "failures": report.failures,
        "jobs_per_second": report.jobs_per_second,
        "jobs_distributed": distrib["jobs_distributed"],
        "distrib_fallbacks": distrib["distrib_fallbacks"],
        "tasks": distrib["tasks"],
        "bytes_shipped": distrib["bytes_shipped"],
        "plan_replications": distrib["plan_replications"],
        "reassignments": distrib["reassignments"],
        "evictions": distrib["evictions"],
        "speculations": distrib["speculations"],
        "outputs_identical": identical,
        "per_node": [{"ordinal": agent.ordinal,
                      "tasks_run": agent.tasks_run,
                      "tasks_errored": agent.tasks_errored,
                      "plans_fetched": agent.plans_fetched,
                      "jobs_per_second": (agent.tasks_run / report.seconds
                                          if report.seconds > 0 else 0.0)}
                     for agent in agents],
    }


_STAGES: Dict[str, Callable[[_SuiteContext], Dict[str, Any]]] = {
    "table1": _stage_table1,
    "table7": _stage_table7,
    "optimizer": _stage_optimizer,
    "scheduler": _stage_scheduler,
    "streaming": _stage_streaming,
    "fuzz": _stage_fuzz,
    "smoke": _stage_smoke,
    "soak": _stage_soak,
    "distrib": _stage_distrib,
}


# ---------------------------------------------------------------------------
# document assembly


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root),
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def make_runid(root: Path, when: Optional[time.struct_time] = None) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", when or time.gmtime())
    return f"{stamp}-{_git_sha(root)[:7]}"


def _first(stages: List[StageResult], name: str) -> Dict[str, Any]:
    for stage in stages:
        if stage.name == name:
            return stage.metrics
    return {}


def _compose_groups(stages: List[StageResult]) -> Dict[str, Dict[str, Any]]:
    soak = _first(stages, "soak")
    sched = _first(stages, "scheduler")
    opt = _first(stages, "optimizer")
    dist = _first(stages, "distrib")
    warm_or_cold = soak.get("warm_jobs_per_second",
                            soak.get("cold_jobs_per_second", 0.0))
    return {
        "latency": {
            "jobs_per_second": float(warm_or_cold),
            "p50_seconds": float(soak.get("warm_p50_seconds", 0.0)),
            "p99_seconds": float(soak.get("warm_p99_seconds", 0.0)),
        },
        "scheduler": {
            name: int(sched.get(name, 0))
            for name in ("tasks", "steals", "retries", "failures",
                         "speculations", "speculation_wins")
        },
        "optimizer": {
            "jobs_optimized": int(opt.get("jobs_optimized", 0)),
            "rewrites_applied": int(opt.get("rewrites_applied", 0)),
            "hit_rate": float(opt.get("hit_rate", 0.0)),
        },
        "cache": {
            "cold_jobs_per_second": float(
                soak.get("cold_jobs_per_second", 0.0)),
            "warm_jobs_per_second": float(
                soak.get("warm_jobs_per_second", 0.0)),
            "warm_over_cold": float(soak.get("warm_over_cold", 0.0)),
            "hit_rate": float(soak.get("warm_hit_rate", 0.0)),
            "persisted_warm_hits": int(soak.get("persisted_warm_hits", 0)),
        },
        "distrib": {
            "nodes": int(dist.get("nodes", 0)),
            "tasks": int(dist.get("tasks", 0)),
            "reassignments": int(dist.get("reassignments", 0)),
            "evictions": int(dist.get("evictions", 0)),
            "jobs_per_second": float(dist.get("jobs_per_second", 0.0)),
            "outputs_identical": bool(dist.get("outputs_identical", True)),
        },
    }


def run_suite(options: BenchOptions,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Execute the selected stages and write ``BENCH_<runid>.json``.

    Returns the emitted document (with ``_path`` and
    ``_schema_errors`` bookkeeping keys the file itself omits).
    """
    say = progress or (lambda _line: None)
    root = Path.cwd()
    out_dir = Path(options.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runid = options.runid or make_runid(root)
    stage_file = out_dir / f".bench_stages_{runid}.jsonl"
    StageRecorder(stage_file).reset()
    ctx = _SuiteContext(options, root, stage_file)

    unknown = [name for name in options.stages if name not in _STAGES]
    if unknown:
        raise ValueError(f"unknown stages: {unknown} "
                         f"(expected a subset of {list(_STAGES)})")

    results: List[StageResult] = []
    for name in ALL_STAGES:
        if name not in options.stages:
            continue
        say(f"stage {name} ...")
        start = time.perf_counter()
        try:
            metrics = _STAGES[name](ctx)
            result = StageResult(name, time.perf_counter() - start, True,
                                 metrics)
        except _StageFailed as exc:
            result = StageResult(name, time.perf_counter() - start, False,
                                 exc.metrics, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - a broken stage is data
            result = StageResult(name, time.perf_counter() - start, False,
                                 {}, error=f"{type(exc).__name__}: {exc}")
        results.append(result)
        say(f"stage {name}: {'ok' if result.ok else 'FAILED'} "
            f"in {result.wall_seconds:.1f}s")

    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "run": {
            "runid": runid,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_sha": _git_sha(root),
            "python": sys.version.split()[0],
            "workers": int(options.concurrency),
            "smoke": bool(options.smoke),
        },
        "stages": [r.to_dict() for r in results],
    }
    payload.update(_compose_groups(results))

    errors: List[str] = []
    schema_path = root / "docs" / "bench_schema.json"
    if schema_path.is_file():
        errors = validate_schema(payload,
                                 json.loads(schema_path.read_text()))

    path = out_dir / f"BENCH_{runid}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    with contextlib.suppress(OSError):
        stage_file.unlink()
    payload["_path"] = str(path)
    payload["_schema_errors"] = errors
    return payload


# ---------------------------------------------------------------------------
# schema validation (subset of JSON Schema; no third-party dependency)


def validate_schema(instance: Any, schema: dict,
                    path: str = "$") -> List[str]:
    """Validate ``instance`` against a subset of JSON Schema.

    Supports ``type`` (object/array/string/number/integer/boolean),
    ``properties``/``required``, ``items``, and ``minimum`` — exactly
    what ``docs/bench_schema.json`` uses.  Returns a flat list of
    human-readable error strings; empty means valid.
    """
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None and not _type_ok(instance, expected):
        return [f"{path}: expected {expected}, "
                f"got {type(instance).__name__}"]
    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                errors.append(f"{path}: missing required key {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in instance:
                errors.extend(validate_schema(instance[name], subschema,
                                              f"{path}.{name}"))
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(validate_schema(item, schema["items"],
                                          f"{path}[{index}]"))
    minimum = schema.get("minimum")
    if minimum is not None and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool) and instance < minimum:
        errors.append(f"{path}: {instance} below minimum {minimum}")
    return errors


def _type_ok(value: Any, expected: str) -> bool:
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    return True  # unknown type names never fail (forward compatible)


# ---------------------------------------------------------------------------
# CLI


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro bench",
        description="run the perf-trajectory benchmark suite and write "
                    "BENCH_<runid>.json")
    ap.add_argument("--smoke", action="store_true",
                    help="small presets: the whole suite in under two "
                         "minutes")
    ap.add_argument("--out", default=".", metavar="DIR",
                    help="directory for BENCH_<runid>.json (default .)")
    ap.add_argument("--runid", help="override the timestamp+sha run id")
    ap.add_argument("--stages", metavar="A,B,...",
                    help=f"comma-separated subset of {','.join(ALL_STAGES)}")
    ap.add_argument("-k", type=int, default=4, help="parallelism degree")
    ap.add_argument("--clients", type=int, default=4,
                    help="concurrent loadgen tenants in the soak stage")
    ap.add_argument("--concurrency", type=int, default=4,
                    help="daemon worker slots in the soak stage")
    ap.add_argument("--scale", type=int, default=None,
                    help="table-stage input scale override")
    ap.add_argument("--fuzz-iterations", type=int, default=None,
                    help="fixed-seed fuzz corpus size override")
    return ap


def options_from_args(args: argparse.Namespace) -> BenchOptions:
    stages: Sequence[str] = ALL_STAGES
    if args.stages:
        stages = tuple(s.strip() for s in args.stages.split(",")
                       if s.strip())
    return BenchOptions(smoke=args.smoke, out_dir=args.out,
                        runid=args.runid, stages=stages, k=args.k,
                        clients=args.clients, concurrency=args.concurrency,
                        scale=args.scale,
                        fuzz_iterations=args.fuzz_iterations)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    options = options_from_args(args)
    start = time.perf_counter()
    payload = run_suite(options, progress=lambda line: print(line,
                                                             flush=True))
    print(f"wrote {payload['_path']} "
          f"in {time.perf_counter() - start:.1f}s")
    for error in payload["_schema_errors"]:
        print(f"schema error: {error}", file=sys.stderr)
    failed = [s["name"] for s in payload["stages"] if not s["ok"]]
    for name in failed:
        print(f"stage failed: {name}", file=sys.stderr)
    return 1 if failed or payload["_schema_errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
