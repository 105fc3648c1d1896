"""The two daemon workloads: a real ``python -m repro serve`` subprocess
(plus its executors), two tenants that each wait for their output.

``service_fresh`` and ``distrib_2node`` use the plan cache in opposite
ways: fresh data makes every job a plan-cache miss served from a warm
combiner store, resubmitted data makes every job a hit.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.synthesis import CombinerStore, SynthesisConfig
from repro.optimizer import enumerate_candidates, select_plan
from repro.parallel import STATIC, compile_pipeline
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import JobRequest, JobResult, ValidationError
from repro.shell import Pipeline
from repro.unixsim import ExecContext
from repro.workloads import datagen
from repro.workloads.scripts import get_script

from harness import (
    K,
    ROOT,
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
JOB_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# the daemon process tree


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` subprocess in its own session, so that the
    daemon and the executors it forks can be killed as one group."""

    def __init__(self, flags: List[str], tmp: Path) -> None:
        self.flags = flags
        self.log_path = tmp / "daemon.log"
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self) -> None:
        port = free_port()
        self.url = f"http://127.0.0.1:{port}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", str(port),
                 *self.flags],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        client = ServiceClient(self.url, client_id="bench-admin")
        deadline = time.monotonic() + 30.0
        while not client.healthy():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("daemon did not come up:\n"
                                 + self.log_path.read_text()[-2000:])
            time.sleep(0.02)

    def stop(self) -> None:
        if self.proc is None:
            return
        tree = process_tree(self.proc.pid)
        try:
            if self.proc.poll() is None:
                try:
                    ServiceClient(self.url, timeout=5.0).shutdown()
                except (ServiceUnavailable, OSError):
                    pass
                self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass    # the whole group has already exited
            self.proc.wait()
            deadline = time.monotonic() + 10.0
            while any(os.path.exists(f"/proc/{pid}") for pid in tree) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            self.proc = None


# ---------------------------------------------------------------------------
# what both workloads share


def serial_pipeline(text: str, data: str) -> Pipeline:
    return Pipeline.from_string(
        text, env=ENV, context=ExecContext(fs={"input.txt": data},
                                           env=dict(ENV)))


def fingerprint(result: JobResult) -> PlanFingerprint:
    stats = result.stats
    return PlanFingerprint(
        render=" | ".join(s.display for s in stats.stages),
        scheduler=stats.scheduler.name if stats.scheduler else "-",
        rewrites=stats.rewrites,
        modes=tuple(s.mode + ("-eliminated" if s.eliminated else "")
                    for s in stats.stages))


class ServiceWorkload:
    """Daemon lifecycle, the job, and the layer metrics.  Subclasses say
    which daemon, which jobs, and how outputs are checked."""

    callers = K
    #: executor nodes the daemon forks; jobs are distributed iff there are any
    nodes = 0
    #: warm-up jobs per tenant (a fixed count, so memory is read at the
    #: same point of every run); about 2 s
    warmup_jobs = 0

    def __init__(self, name: str, seed: int, tracer: Tracer, tmp: Path,
                 inject_wrong_output: bool = False) -> None:
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp
        self.inject = inject_wrong_output
        self.daemon: Optional[Daemon] = None
        #: pipeline text -> plan of its first compile in this run
        self.fingerprints: Dict[str, PlanFingerprint] = {}
        self.boot_s = self.join_s = self.cold_submit_s = 0.0
        self.setup_chunks: List[int] = []
        self.setup_tasks: List[int] = []
        self.dispatch_overhead: List[float] = []
        self.final_status: dict = {}
        self.final_nodes: List[dict] = []

    # -- subclass interface --------------------------------------------------

    def prepare(self) -> None:
        raise NotImplementedError

    def cold_jobs(self) -> List[Tuple[str, str, str]]:
        """``(pipeline, input, expected output)`` of each set-up job."""
        raise NotImplementedError

    def next_job(self, caller: int, n: int) -> Tuple[str, str, str]:
        """``(reference key, pipeline, input)`` of a caller's n-th job."""
        raise NotImplementedError

    def output_ok(self, caller: int, n: int, pipeline: str, data: str,
                  output: str) -> bool:
        raise NotImplementedError

    def pipelines(self) -> List[Tuple[str, str]]:
        """``(pipeline, an input of it)`` of every distinct pipeline."""
        raise NotImplementedError

    # -- set-up: boot, (join,) cold jobs -------------------------------------

    def request(self, pipeline: str, data: str, client_id: str,
                distribute: Optional[bool] = None) -> JobRequest:
        return JobRequest(
            pipeline=pipeline, files={"input.txt": data}, env=dict(ENV),
            k=K, engine="serial", scheduler=STATIC, seed=SYNTH_SEED,
            distribute=self.nodes > 0 if distribute is None else distribute,
            client_id=client_id)

    def setup(self) -> None:
        self.store_path = self.tmp / "combiners.json"
        flags = ["--concurrency", str(K), "--store", str(self.store_path)]
        if self.nodes:
            flags += ["--nodes", str(self.nodes), "--node-capacity", "1"]
        self.daemon = Daemon(flags, self.tmp)
        start = time.perf_counter()
        self.daemon.start()
        booted = time.perf_counter()
        self.boot_s = booted - start
        self.admin = ServiceClient(self.daemon.url, client_id="bench-admin",
                                   timeout=JOB_TIMEOUT)
        self.clients = [ServiceClient(self.daemon.url,
                                      client_id=f"tenant-{c}",
                                      timeout=JOB_TIMEOUT)
                        for c in range(self.callers)]
        while sum(n["state"] == "live"
                  for n in self.admin.nodes()) < self.nodes:
            if time.perf_counter() - booted > 30.0:
                raise BenchError("executors did not join")
            time.sleep(0.01)
        joined = time.perf_counter()
        self.join_s = joined - booted
        for pipeline, data, expected in self.cold_jobs():
            job_id = self.admin.submit_request(
                self.request(pipeline, data, "bench-admin"))
            result = self.admin.wait(job_id, timeout=JOB_TIMEOUT)
            if result.status != "done" or result.output != expected:
                raise BenchError(f"set-up job failed or differs from the "
                                 f"serial reference: {pipeline}: "
                                 f"{result.error}")
            self.note_plan(pipeline, result)
            stats = result.stats
            self.setup_chunks.append(sum(s.chunks for s in stats.stages))
            self.setup_tasks.append(stats.distrib.tasks
                                    if stats.distrib else 0)
        self.cold_submit_s = time.perf_counter() - joined

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def note_plan(self, pipeline: str, result: JobResult) -> None:
        seen = fingerprint(result)
        require_same_plan(pipeline,
                          self.fingerprints.setdefault(pipeline, seen), seen)

    def check_plan_repeats(self) -> None:
        """Every job that compiles is checked in :meth:`job`; here the
        optimizer and planner are timed from outside, against a copy of
        the store the daemon has just filled."""
        self.candidates = 0
        store = None
        if self.tracer.enabled:
            copy = self.tmp / "combiners-probe.json"
            shutil.copyfile(self.store_path, copy)
            store = CombinerStore(copy)
        for text, data in self.pipelines():
            with self.tracer.span("shell.parse"):
                pipeline = serial_pipeline(text, data)
            with self.tracer.span("optimizer.enumerate"):
                self.candidates += len(enumerate_candidates(pipeline))
            if store is None:
                continue
            with self.tracer.span("optimizer.select_plan"):
                plan, _ = select_plan(
                    pipeline, config=SynthesisConfig(seed=SYNTH_SEED),
                    store=store, scheduler=STATIC)
            with self.tracer.span("parallel.compile_pipeline"):
                compile_pipeline(plan.pipeline, store.as_cache(),
                                 scheduler=STATIC)

    def plan_fingerprints(self) -> List[PlanFingerprint]:
        return list(self.fingerprints.values())

    def synthesized(self) -> List[dict]:
        """What the daemon wrote into its store: one record per command."""
        return [entry["result"] for entry in
                json.loads(self.store_path.read_text())["entries"]]

    def exact_counts(self) -> Dict[str, int]:
        entries = self.synthesized()
        return {
            "synthesis.commands": len(entries),
            "synthesis.executions": sum(e["executions"] for e in entries),
            "synthesis.rounds": sum(e["rounds"] for e in entries),
            "synthesis.observations": sum(e["observation_count"]
                                          for e in entries),
            "optimizer.candidates": self.candidates,
            "optimizer.rewrites": sum(f.rewrites
                                      for f in self.fingerprints.values()),
            # over the set-up jobs
            "parallel.chunks": sum(self.setup_chunks),
            "distrib.tasks_per_job": int(median(self.setup_tasks)),
        }

    # -- the job -------------------------------------------------------------

    def job(self, caller: int, n: int) -> JobRecord:
        key, pipeline, data = self.next_job(caller, n)
        client = self.clients[caller]
        request = self.request(pipeline, data, client.client_id)
        tag = f"{caller}-{n}"
        start = time.perf_counter()
        try:
            with self.tracer.span("service.http_submit", job=tag):
                job_id = client.submit_request(request)
            submitted = time.perf_counter()
            with self.tracer.span("service.wait_result", job=tag):
                result = client.wait(job_id, timeout=JOB_TIMEOUT)
        except (ServiceUnavailable, TimeoutError, ValidationError) as exc:
            refused = getattr(exc, "code", None) in (429, 503)
            return JobRecord(key, len(data), start, time.perf_counter(),
                             False, f"{'refused: ' if refused else ''}"
                                    f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        # same clock as the daemon's job timestamps (one host)
        fetched_at = time.time()
        if result.status != "done":
            return JobRecord(key, len(data), start, end, False,
                             result.error or result.status)
        if result.plan_cache == "miss":
            self.note_plan(pipeline, result)
        output = result.output
        if self.inject and caller == 0 and n == self.warmup_jobs:
            output += "injected\n"
        ok = self.output_ok(caller, n, pipeline, data, output)
        detail = None
        if self.tracer.enabled:
            stats = result.stats
            busy: Dict[str, float] = {}
            for stage in stats.stages:
                name = stage.display.split()[0]
                busy[name] = busy.get(name, 0.0) + stage.seconds
            detail = {
                "submit": submitted - start, "wait": result.wait_seconds,
                "run": result.run_seconds, "exec": stats.seconds,
                "fetch": fetched_at - result.finished_at,
                "hit": result.plan_cache == "hit", "busy": busy,
                "request_bytes": len(json.dumps(request.to_dict())),
                "response_bytes": len(json.dumps(result.to_dict())),
                "chunks": sum(s.chunks for s in stats.stages),
                "overlap": stats.total_overlap,
                "scheduler": stats.scheduler.to_dict()
                if stats.scheduler else {},
                "distrib": stats.distrib.to_dict() if stats.distrib else {},
            }
        return JobRecord(key, len(data), start, end, ok,
                         "" if ok else "output differs from serial reference",
                         detail)

    def serial_reference(self) -> Dict[str, float]:
        times = {}
        for index, reference in enumerate(self.references):
            start = time.perf_counter()
            reference.run()
            times[str(index)] = time.perf_counter() - start
        return times

    def verify_after(self) -> int:
        return 0

    def sut_pids(self) -> List[int]:
        return process_tree(self.daemon.pid)

    def probe_layers(self) -> None:
        pass

    def snapshot(self) -> None:
        """Read the daemon's own counters while it is still up."""
        self.final_status = self.admin.status()
        self.final_nodes = self.admin.nodes()

    # -- layers, from outside ------------------------------------------------

    def layer_metrics(self, blocks: List[Block],
                      rss_growth_mb_per_1k_jobs: float) -> Dict[str, float]:
        tracer = self.tracer
        ms = 1e3
        details = [r.detail for b in blocks for r in b.records if r.detail]

        def per_job(fn) -> float:
            return median([fn(d) for d in details])

        status = self.final_status
        distrib = status["distrib"]
        pool = status["runner_pool"]
        tasks = [n["tasks_done"] for n in self.final_nodes]
        metrics = dict(self.exact_counts())
        metrics.update({
            "shell.parse_ms": median(tracer.durations("shell.parse")) * ms,
            "shell.serial_ms": median(
                [sum(b.serial[r.key] for r in b.records) / len(b.records)
                 for b in blocks]) * ms,
            "synthesis.synthesize_s": sum(e["elapsed"]
                                          for e in self.synthesized()),
            "optimizer.enumerate_ms":
                median(tracer.durations("optimizer.enumerate")) * ms,
            "optimizer.select_self_s":
                median(tracer.durations("optimizer.select_plan")),
            "unixsim.busy_ms": per_job(lambda d: sum(d["busy"].values())) * ms,
            "parallel.compile_pipeline_ms":
                median(tracer.durations("parallel.compile_pipeline")) * ms,
            # what the run itself spent beyond the commands: with the
            # serial engine that is splitting, combining and bookkeeping
            "parallel.runtime_overhead_ms": per_job(
                lambda d: d["exec"] - sum(d["busy"].values())) * ms,
            "parallel.overlap_ms": per_job(lambda d: d["overlap"]) * ms,
            "parallel.chunks": per_job(lambda d: d["chunks"]),
            "parallel.tasks": per_job(
                lambda d: d["scheduler"].get("tasks", 0)),
            "parallel.steals": sum(d["scheduler"].get("steals", 0)
                                   for d in details),
            "parallel.retries": sum(d["scheduler"].get("retries", 0)
                                    for d in details),
            "service.boot_s": self.boot_s,
            "service.cold_submit_s": self.cold_submit_s,
            "service.http_submit_ms": per_job(lambda d: d["submit"]) * ms,
            "service.queue_wait_ms": per_job(lambda d: d["wait"]) * ms,
            "service.run_ms": per_job(lambda d: d["run"]) * ms,
            # plan lookup or compile, plus runner acquire
            "service.compile_ms": per_job(
                lambda d: d["run"] - d["exec"]) * ms,
            # from the job finishing in the daemon to the output in hand
            "service.result_fetch_ms": per_job(lambda d: d["fetch"]) * ms,
            "service.request_bytes": per_job(lambda d: d["request_bytes"]),
            "service.response_bytes": per_job(lambda d: d["response_bytes"]),
            "service.plan_cache_hit_share":
                sum(d["hit"] for d in details) / len(details),
            "service.store_entries": status["store"]["entries"],
            "service.runner_reuse_share":
                pool["reused"] / max(1, pool["reused"] + pool["created"]),
            "service.rejected":
                sum(r.error.startswith("refused") for b in blocks
                    for r in b.records)
                + status["scheduler"]["quota_rejections"],
            "service.rss_growth_mb_per_1k_jobs": rss_growth_mb_per_1k_jobs,
            "distrib.fallbacks": distrib["distrib_fallbacks"],
        })
        for name in ("tr", "sort", "uniq", "fused"):
            metrics[f"unixsim.{name}_ms"] = per_job(
                lambda d: d["busy"].get(name, 0.0)) * ms
        if self.nodes:
            metrics.update({
                "distrib.join_s": self.join_s,
                "distrib.exec_ms": per_job(lambda d: d["exec"]) * ms,
                "distrib.dispatch_overhead_ms":
                    median(self.dispatch_overhead) * ms,
                "distrib.tasks_per_job":
                    per_job(lambda d: d["distrib"]["tasks"]),
                "distrib.bytes_shipped_per_job":
                    per_job(lambda d: d["distrib"]["bytes_shipped"]),
                "distrib.bytes_returned_per_job":
                    per_job(lambda d: d["distrib"]["bytes_returned"]),
                "distrib.plan_replications": distrib["plan_replications"],
                "distrib.node_task_skew":
                    (max(tasks) - min(tasks)) / (sum(tasks) / len(tasks)),
                "distrib.retries": distrib["retries"],
                "distrib.reassignments": distrib["reassignments"],
                "distrib.speculations": distrib["speculations"],
            })
        return metrics


# ---------------------------------------------------------------------------
# service_fresh: popular pipelines over data the daemon has never seen


#: corpus scripts by popularity, each single-candidate for the rewrite
#: engine (so the daemon's unpinned ``select_plan`` has nothing to choose),
#: with the lines that make ~100 KB of that script's own input
FRESH_SCRIPTS = [
    ("oneliners", "wf.sh", 2900), ("unix50", "4.sh", 7800),
    ("unix50", "7.sh", 12500), ("unix50", "2.sh", 7800),
    ("unix50", "21.sh", 2900), ("oneliners", "sort.sh", 2900),
]
#: jobs per script in one cycle of 20: Zipf(1.2) popularity, rounded.  A
#: tenant sends seeded shuffles of this cycle, so every run has the same
#: mix and only the order depends on the seed.
FRESH_CYCLE = [9, 4, 3, 2, 1, 1]
#: share of fresh-data outputs recomputed serially after timing ends
CHECK_SHARE = 0.1


class ServiceFresh(ServiceWorkload):
    warmup_jobs = 60

    def prepare(self) -> None:
        self.texts: List[str] = []
        self.bases: List[str] = []
        self.references: List[Pipeline] = []
        for suite, name, lines in FRESH_SCRIPTS:
            script = get_script(suite, name)
            text = script.pipelines[0].text
            base = script.make_fs(lines, self.seed)["input.txt"]
            self.texts.append(text)
            self.bases.append(base)
            self.references.append(serial_pipeline(text, base))
        self.cold = [(text, base + "cold start\n",
                      serial_pipeline(text, base + "cold start\n").run())
                     for text, base in zip(self.texts, self.bases)]
        # per tenant: its own shuffler and the scripts it has drawn so far
        self.order_rng = [random.Random(self.seed * 1000 + caller)
                          for caller in range(self.callers)]
        self.orders: List[List[int]] = [[] for _ in range(self.callers)]
        self.check_rng = [random.Random(self.seed * 1000 + 500 + caller)
                          for caller in range(self.callers)]
        self.to_check: List[Tuple[str, str, str]] = []

    def pipelines(self) -> List[Tuple[str, str]]:
        return list(zip(self.texts, self.bases))

    def cold_jobs(self) -> List[Tuple[str, str, str]]:
        return self.cold

    def next_job(self, caller: int, n: int) -> Tuple[str, str, str]:
        order = self.orders[caller]
        while n >= len(order):
            cycle = [i for i, count in enumerate(FRESH_CYCLE)
                     for _ in range(count)]
            self.order_rng[caller].shuffle(cycle)
            order.extend(cycle)
        script = order[n]
        # one line no earlier job had: the (pipeline, files) pair is new
        return (str(script), self.texts[script],
                f"{self.bases[script]}zz{caller}x{n} yy\n")

    def output_ok(self, caller: int, n: int, pipeline: str, data: str,
                  output: str) -> bool:
        first_measured = caller == 0 and n == self.warmup_jobs
        if first_measured or self.check_rng[caller].random() < CHECK_SHARE:
            self.to_check.append((pipeline, data, output))
        return True

    def verify_after(self) -> int:
        return sum(serial_pipeline(pipeline, data).run() != output
                   for pipeline, data, output in self.to_check)


# ---------------------------------------------------------------------------
# distrib_2node: one pipeline, four warm datasets, two executors


class Distrib2Node(ServiceWorkload):
    nodes = 2
    warmup_jobs = 16
    DATASETS = 4

    def prepare(self) -> None:
        # the pipeline of batch_aggregate: the difference between the two
        # workloads is what distribution costs
        self.text = get_script("oneliners", "wf.sh").pipelines[0].text
        self.data = [datagen.book_text(9_000, seed=self.seed * 1000 + i)
                     for i in range(self.DATASETS)]
        self.references = [serial_pipeline(self.text, d) for d in self.data]
        self.expected = [r.run() for r in self.references]

    def pipelines(self) -> List[Tuple[str, str]]:
        return [(self.text, self.data[0])]

    def cold_jobs(self) -> List[Tuple[str, str, str]]:
        # compiles each dataset's plan and replicates it to both nodes
        return [(self.text, d, e) for d, e in zip(self.data, self.expected)]

    def next_job(self, caller: int, n: int) -> Tuple[str, str, str]:
        index = (self.callers * n + caller) % self.DATASETS
        return str(index), self.text, self.data[index]

    def output_ok(self, caller: int, n: int, pipeline: str, data: str,
                  output: str) -> bool:
        index = (self.callers * n + caller) % self.DATASETS
        return output == self.expected[index]

    def probe_layers(self) -> None:
        """The same job on the same daemon, run locally and distributed
        with no other load: the difference is what dispatch costs."""
        for data in self.data:
            seconds = []
            for distribute in (False, True):
                job_id = self.admin.submit_request(self.request(
                    self.text, data, "bench-admin", distribute=distribute))
                result = self.admin.wait(job_id, timeout=JOB_TIMEOUT)
                if result.status != "done":
                    raise BenchError(f"probe job failed: {result.error}")
                seconds.append(result.stats.seconds)
            self.dispatch_overhead.append(seconds[1] - seconds[0])


WORKLOADS = {"service_fresh": ServiceFresh, "distrib_2node": Distrib2Node}
