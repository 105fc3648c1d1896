"""The resident parallelization daemon.

:class:`ReproService` is the embeddable core — plan cache + fair-share
scheduler + shared :class:`~repro.parallel.RunnerPool` + job table —
and the HTTP front end maps it onto a local socket:

==========================  =============================================
``POST /v1/jobs``           submit a job (JSON :class:`JobRequest`);
                            202 with ``{"job_id": ...}``, 400 on
                            validation failure, 429 when saturated or
                            over quota, 503 while draining for shutdown
``GET /v1/jobs/<id>``       job result; ``?wait=1&timeout=30`` blocks
                            until done (at most 30 s per request; 400
                            for a non-finite timeout), ``?output=0``
                            omits the stream
``GET /v1/status``          scheduler / cache / throughput counters
``GET /metrics``            the same counters, flat ``name value`` text
``GET /v1/healthz``         liveness probe
``POST /v1/shutdown``       graceful stop (drains queued jobs first)
``POST /v1/nodes/register`` executor join (``repro executor --join``)
``POST /v1/nodes/<id>/...`` ``heartbeat`` / ``pull`` / ``result``: the
                            chunk-task lease protocol (see
                            ``docs/DISTRIBUTED.md``)
``GET /v1/nodes``           membership table (``repro nodes``)
``GET /v1/plans/<digest>``  plan-entry replication fetch
==========================  =============================================

Isolation model: a compiled plan embeds the side files its commands
can read and the env, in its own :class:`ExecContext`; jobs *share a
read-only plan* only when those are byte-identical — that sharing is
the point of the cache.  A job's input stream is never in a shared
plan: it is bound when the job runs (``run(data)``), so it is visible
to that job alone.  Worker pools are the only cross-job mutable
resource, and the :class:`RunnerPool` hands each runner to exactly one
job at a time.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..core.synthesis.store import CombinerStore, synthesis_memo_stats
from ..core.synthesis.synthesizer import SynthesisConfig
from ..distrib.board import DistribError, TaskBoard, UnknownNode
from ..distrib.nodepool import (
    DEFAULT_CAPACITY,
    DEFAULT_HEARTBEAT_TIMEOUT,
    EXECUTOR_ROLE,
    NodePool,
)
from ..distrib.plans import PlanRegistry
from ..distrib.runner import DistributedRunner
from ..parallel.executor import ParallelPipeline
from ..parallel.runner import RunnerPool
from .cache import (
    DEFAULT_PLAN_CAPACITY,
    HIT_DISK,
    HIT_MEMORY,
    PlanCache,
    _default_config,
)
from .protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobRequest,
    JobResult,
    MAX_WAIT_SECONDS,
    ValidationError,
    new_job_id,
)
from .scheduler import JobScheduler, SchedulerDraining, SchedulerSaturated

logger = logging.getLogger("repro.service")

#: finished job records retained for late result polls
DEFAULT_JOB_HISTORY = 4096


@dataclass
class ServiceConfig:
    """Daemon knobs (CLI flags map 1:1 onto these fields)."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0: pick an ephemeral port
    concurrency: int = 2               # jobs executing at once
    max_queued: int = 256              # admission bound (total)
    max_queued_per_client: Optional[int] = None
    #: per-tenant admission bounds overriding max_queued_per_client
    quotas: Dict[str, int] = field(default_factory=dict)
    plan_cache_capacity: int = DEFAULT_PLAN_CAPACITY
    store_path: Optional[str] = None   # persistent combiner store
    #: plan-cache snapshot surviving daemon restarts (warm starts)
    plan_cache_path: Optional[str] = None
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
    job_history: int = DEFAULT_JOB_HISTORY
    max_idle_runners: int = 2
    #: executor nodes silent for this long are evicted and their leased
    #: chunk tasks reassigned to surviving nodes
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT
    #: override synthesis knobs per request (tests use fast configs)
    config_factory: Callable[[JobRequest], SynthesisConfig] = _default_config


class _Job:
    __slots__ = ("request", "result", "done")

    def __init__(self, request: JobRequest, result: JobResult) -> None:
        #: dropped once the job is picked up (or failed unrun): the job
        #: table outlives the run by ``job_history`` jobs and must not
        #: pin every input file; result polls need only ``result``
        self.request: Optional[JobRequest] = request
        self.result = result
        self.done = threading.Event()


class ReproService:
    """Embeddable multi-tenant parallelization service."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store: Optional[CombinerStore] = (
            CombinerStore(self.config.store_path)
            if self.config.store_path else None)
        self.plan_cache = PlanCache(
            capacity=self.config.plan_cache_capacity, store=self.store,
            config_factory=self.config.config_factory,
            path=self.config.plan_cache_path)
        self.runner_pool = RunnerPool(max_idle=self.config.max_idle_runners)
        self.scheduler = JobScheduler(
            self._execute, concurrency=self.config.concurrency,
            max_queued=self.config.max_queued,
            max_queued_per_client=self.config.max_queued_per_client,
            quotas=self.config.quotas)
        # distributed control plane: executor membership, the chunk-task
        # lease board, and the content-addressed plan replica store
        self.node_pool = NodePool(
            heartbeat_timeout=self.config.heartbeat_timeout)
        self.plan_registry = PlanRegistry()
        self.board = TaskBoard(self.node_pool)
        self._jobs: Dict[str, _Job] = {}
        self._history: List[str] = []    # finished job ids, oldest first
        self._jobs_lock = threading.Lock()
        self._counts = {JOB_DONE: 0, JOB_FAILED: 0}
        self._optimizer = {"jobs_optimized": 0, "rewrites_applied": 0}
        #: chunk-scheduler behavior aggregated across finished jobs
        self._runtime = {"jobs_stealing": 0, "tasks": 0, "steals": 0,
                         "retries": 0, "failures": 0, "speculations": 0,
                         "speculation_wins": 0}
        #: multi-node dispatch behavior aggregated across finished jobs
        self._distrib = {"jobs_distributed": 0, "distrib_fallbacks": 0,
                         "tasks": 0, "bytes_shipped": 0, "bytes_returned": 0,
                         "plan_replications": 0, "retries": 0, "failures": 0,
                         "reassignments": 0, "evictions": 0,
                         "speculations": 0, "speculation_wins": 0}
        self._stage_totals: Dict[str, Dict[str, float]] = {}
        self._started_at = time.time()
        self._stopped = False
        self._stop_lock = threading.Lock()
        self._stop_done = threading.Event()
        self._stop_clean = True
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # -- job lifecycle -------------------------------------------------------

    def submit(self, request: JobRequest) -> JobResult:
        """Validate, admit, and enqueue a job; returns the queued record."""
        request.validate(max_request_bytes=self.config.max_request_bytes)
        result = JobResult(job_id=new_job_id(), client_id=request.client_id,
                           status=JOB_QUEUED, pipeline=request.pipeline,
                           submitted_at=time.time())
        job = _Job(request, result)
        with self._jobs_lock:
            self._jobs[result.job_id] = job
        try:
            self.scheduler.submit(request.client_id, job,
                                  priority=request.priority)
        except (SchedulerSaturated, SchedulerDraining):
            with self._jobs_lock:
                self._jobs.pop(result.job_id, None)
            raise
        return result

    def _execute(self, job: _Job) -> None:
        request, result = job.request, job.result
        job.request = None
        result.started_at = time.time()
        result.status = JOB_RUNNING
        try:
            plan, hit = self.plan_cache.get_or_compile(request)
            result.plan_cache = ("hit" if hit == HIT_MEMORY
                                 else "warm" if hit == HIT_DISK else "miss")
            # the plan is a function of the pipeline; the stream it runs
            # on is this job's own (None: the pipeline reads no file)
            data = request.files.get(plan.pipeline.input_file)
            distributed = None
            if request.distribute:
                distributed = self._run_distributed(result.job_id, plan,
                                                    request.k, data)
            if distributed is not None:
                result.output, result.stats = distributed
            else:
                runner = self.runner_pool.acquire(
                    engine=request.engine, max_workers=request.k,
                    context=plan.pipeline.context)
                try:
                    pp = ParallelPipeline(
                        plan, k=request.k, engine=request.engine,
                        runner=runner, streaming=request.streaming,
                        speculate=request.speculate)
                    result.output = pp.run(data)
                finally:
                    self.runner_pool.release(runner)
                result.stats = pp.last_stats
            final_status = JOB_DONE
        except Exception as exc:  # noqa: BLE001 - job failure is a result
            logger.warning("job %s failed: %s", result.job_id, exc)
            result.error = f"{type(exc).__name__}: {exc}"
            final_status = JOB_FAILED
        # handlers serialize results without a lock: publish the status
        # last, so an observer that sees "done" also sees the timings
        result.finished_at = time.time()
        result.status = final_status
        self._account(result)
        job.done.set()

    def _run_distributed(self, job_id: str, plan, k: int,
                         data: Optional[str]):
        """Run a ``distribute`` job on the cluster; ``(output, stats)``,
        or None to fall back to local execution (no live nodes, or the
        cluster failed the stage — e.g. every node died mid-job)."""
        self.board.tick()   # settle evictions before counting nodes
        if self.node_pool.live_count() == 0:
            with self._jobs_lock:
                self._distrib["distrib_fallbacks"] += 1
            return None
        runner = DistributedRunner(
            plan, self.board, self.node_pool, self.plan_registry,
            k=k, job_id=job_id)
        try:
            output = runner.run(data)
        except DistribError as exc:
            logger.warning("job %s fell back to local execution: %s",
                           job_id, exc)
            with self._jobs_lock:
                self._distrib["distrib_fallbacks"] += 1
            return None
        return output, runner.last_stats

    def _account(self, result: JobResult) -> None:
        with self._jobs_lock:
            self._counts[result.status] += 1
            self._history.append(result.job_id)
            while len(self._history) > self.config.job_history:
                self._jobs.pop(self._history.pop(0), None)
            if result.stats is None:
                return
            if result.stats.rewrites:
                self._optimizer["jobs_optimized"] += 1
                self._optimizer["rewrites_applied"] += result.stats.rewrites
            sched = result.stats.scheduler
            if sched is not None:
                if sched.name == "stealing":
                    self._runtime["jobs_stealing"] += 1
                for counter in ("tasks", "steals", "retries", "failures",
                                "speculations", "speculation_wins"):
                    self._runtime[counter] += getattr(sched, counter)
            distrib = result.stats.distrib
            if distrib is not None:
                self._distrib["jobs_distributed"] += 1
                for counter in ("tasks", "bytes_shipped", "bytes_returned",
                                "plan_replications", "retries", "failures",
                                "reassignments", "evictions", "speculations",
                                "speculation_wins"):
                    self._distrib[counter] += getattr(distrib, counter)
            for stage in result.stats.stages:
                agg = self._stage_totals.setdefault(
                    stage.display, {"runs": 0, "bytes_in": 0.0,
                                    "bytes_out": 0.0, "busy_seconds": 0.0})
                agg["runs"] += 1
                agg["bytes_in"] += stage.bytes_in
                agg["bytes_out"] += stage.bytes_out
                agg["busy_seconds"] += stage.seconds

    def result(self, job_id: str, wait: bool = False,
               timeout: Optional[float] = None) -> Optional[JobResult]:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        if wait and not job.result.done:
            job.done.wait(timeout=timeout)
        return job.result

    # -- introspection -------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        sched = self.scheduler.counts()
        with self._jobs_lock:
            done, failed = self._counts[JOB_DONE], self._counts[JOB_FAILED]
            optimizer = dict(self._optimizer)
            runtime = dict(self._runtime)
            distrib = dict(self._distrib)
            per_stage = [
                {"display": display,
                 "runs": int(agg["runs"]),
                 "bytes_in": int(agg["bytes_in"]),
                 "bytes_out": int(agg["bytes_out"]),
                 "busy_seconds": agg["busy_seconds"],
                 "throughput_mbs": (agg["bytes_out"] / agg["busy_seconds"]
                                    / 1e6 if agg["busy_seconds"] > 0 else 0.0)}
                for display, agg in sorted(self._stage_totals.items())
            ]
        return {
            "uptime_seconds": time.time() - self._started_at,
            "jobs": {"queued": sched["queued"], "running": sched["running"],
                     "done": done, "failed": failed,
                     "submitted": sched["submitted"]},
            "scheduler": sched,
            "plan_cache": self.plan_cache.stats(),
            "optimizer": optimizer,
            "runtime": runtime,
            "distrib": {**distrib, "nodes": self.node_pool.stats(),
                        "board": self.board.stats(),
                        "plans": self.plan_registry.stats()},
            "synthesis_memo": synthesis_memo_stats(),
            "runner_pool": {"created": self.runner_pool.created,
                            "reused": self.runner_pool.reused,
                            "idle": self.runner_pool.idle_count()},
            "store": {"path": self.config.store_path,
                      "entries": len(self.store) if self.store else 0},
            "per_stage": per_stage,
        }

    def metrics_text(self) -> str:
        """Flat ``repro_<name> <value>`` lines (Prometheus exposition-ish)."""
        s = self.status()
        lines = [
            ("repro_uptime_seconds", s["uptime_seconds"]),
            ("repro_jobs_queued", s["jobs"]["queued"]),
            ("repro_jobs_running", s["jobs"]["running"]),
            ("repro_jobs_done", s["jobs"]["done"]),
            ("repro_jobs_failed", s["jobs"]["failed"]),
            ("repro_jobs_submitted", s["jobs"]["submitted"]),
            ("repro_jobs_queued_high", s["scheduler"]["queued_by_class"]["high"]),
            ("repro_jobs_queued_normal",
             s["scheduler"]["queued_by_class"]["normal"]),
            ("repro_jobs_queued_low", s["scheduler"]["queued_by_class"]["low"]),
            ("repro_quota_rejections", s["scheduler"]["quota_rejections"]),
            ("repro_draining", int(s["scheduler"]["draining"])),
            ("repro_plan_cache_hits", s["plan_cache"]["hits"]),
            ("repro_plan_cache_warm_hits", s["plan_cache"]["warm_hits"]),
            ("repro_plan_cache_misses", s["plan_cache"]["misses"]),
            ("repro_plan_compile_seconds_total",
             s["plan_cache"]["compile_seconds"]),
            ("repro_plan_cache_entries", s["plan_cache"]["entries"]),
            ("repro_plan_cache_persistent_entries",
             s["plan_cache"]["persistent_entries"]),
            ("repro_jobs_optimized", s["optimizer"]["jobs_optimized"]),
            ("repro_rewrites_applied", s["optimizer"]["rewrites_applied"]),
            ("repro_runtime_jobs_stealing", s["runtime"]["jobs_stealing"]),
            ("repro_runtime_tasks", s["runtime"]["tasks"]),
            ("repro_runtime_steals", s["runtime"]["steals"]),
            ("repro_runtime_retries", s["runtime"]["retries"]),
            ("repro_runtime_failures", s["runtime"]["failures"]),
            ("repro_runtime_speculations", s["runtime"]["speculations"]),
            ("repro_runtime_speculation_wins",
             s["runtime"]["speculation_wins"]),
            ("repro_nodes_live", s["distrib"]["nodes"]["live"]),
            ("repro_nodes_registered", s["distrib"]["nodes"]["registered"]),
            ("repro_nodes_evicted", s["distrib"]["nodes"]["evicted"]),
            ("repro_distrib_jobs", s["distrib"]["jobs_distributed"]),
            ("repro_distrib_fallbacks", s["distrib"]["distrib_fallbacks"]),
            ("repro_distrib_tasks", s["distrib"]["tasks"]),
            ("repro_distrib_bytes_shipped", s["distrib"]["bytes_shipped"]),
            ("repro_distrib_bytes_returned", s["distrib"]["bytes_returned"]),
            ("repro_distrib_plan_replications",
             s["distrib"]["plan_replications"]),
            ("repro_distrib_retries", s["distrib"]["retries"]),
            ("repro_distrib_reassignments", s["distrib"]["reassignments"]),
            ("repro_distrib_evictions", s["distrib"]["evictions"]),
            ("repro_distrib_speculations", s["distrib"]["speculations"]),
            ("repro_distrib_speculation_wins",
             s["distrib"]["speculation_wins"]),
            ("repro_synthesis_memo_hits", s["synthesis_memo"]["hits"]),
            ("repro_synthesis_memo_misses", s["synthesis_memo"]["misses"]),
            ("repro_runners_created", s["runner_pool"]["created"]),
            ("repro_runners_reused", s["runner_pool"]["reused"]),
        ]
        out = [f"{name} {value}" for name, value in lines]
        for stage in s["per_stage"]:
            label = stage["display"].replace("\\", "\\\\").replace('"', '\\"')
            out.append(f'repro_stage_bytes_out{{stage="{label}"}} '
                       f'{stage["bytes_out"]}')
            out.append(f'repro_stage_busy_seconds{{stage="{label}"}} '
                       f'{stage["busy_seconds"]}')
        return "\n".join(out) + "\n"

    # -- HTTP front end ------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("service is not serving HTTP")
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start_http(self) -> Tuple[str, int]:
        """Bind the HTTP server and serve on a background thread."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http",
            daemon=True)
        self._http_thread.start()
        logger.info("serving on %s", self.url)
        return self.address

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Stop HTTP, workers, and pools; save the store.  Idempotent:
        one caller performs the teardown, later callers block until it
        has finished (so e.g. the ``serve_forever`` loop cannot exit
        the process while a ``POST /v1/shutdown`` thread is still
        draining jobs or saving the store).

        Returns True when every thread was joined within ``timeout``.
        """
        with self._stop_lock:
            first = not self._stopped
            self._stopped = True
        if not first:
            self._stop_done.wait(timeout=timeout)
            return self._stop_clean
        try:
            # refuse new work first: a graceful drain must not be held
            # open by clients that keep submitting (they now get 429)
            self.scheduler.stop_admissions()
            clean = self.scheduler.shutdown(drain=drain, timeout=timeout)
            if not drain:
                self._fail_unfinished("service shut down before the job ran")
            # after the last job drained: tell pulling executors to exit
            self.board.close()
            if self._httpd is not None:
                self._httpd.shutdown()
                self._httpd.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=timeout)
                clean = clean and not self._http_thread.is_alive()
            self.runner_pool.close()
            if self.store is not None:
                self.store.save()
            self.plan_cache.save()    # no-op without a snapshot path
            self._stop_clean = clean
        finally:
            self._stop_done.set()
        return self._stop_clean

    def _fail_unfinished(self, message: str) -> None:
        with self._jobs_lock:
            pending = [j for j in self._jobs.values() if not j.result.done]
        for job in pending:
            job.request = None
            job.result.status = JOB_FAILED
            job.result.error = message
            job.result.finished_at = time.time()
            job.done.set()

    def __enter__(self) -> "ReproService":
        self.start_http()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# HTTP plumbing


def _make_handler(service: ReproService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # route table -------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                url = urlparse(self.path)
                if url.path == "/v1/healthz":
                    return self._json(200, {"ok": True})
                if url.path == "/v1/status":
                    return self._json(200, service.status())
                if url.path == "/metrics":
                    return self._text(200, service.metrics_text())
                if url.path.startswith("/v1/jobs/"):
                    return self._get_job(url)
                if url.path == "/v1/nodes":
                    return self._json(200,
                                      {"nodes": service.node_pool.nodes()})
                if url.path.startswith("/v1/plans/"):
                    return self._get_plan(url)
                self._json(404, {"error": f"no route {url.path}"})
            except (ValueError, TypeError) as exc:
                self._json(400, {"error": str(exc)})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            try:
                url = urlparse(self.path)
                if url.path == "/v1/jobs":
                    return self._submit()
                if url.path == "/v1/nodes/register":
                    return self._node_register()
                if url.path.startswith("/v1/nodes/"):
                    return self._node_call(url)
                if url.path == "/v1/shutdown":
                    # respond first; stopping tears down this very listener
                    self._json(200, {"ok": True})
                    threading.Thread(target=service.stop,
                                     daemon=True).start()
                    return
                self._json(404, {"error": f"no route {url.path}"})
            except (ValueError, TypeError) as exc:
                self._json(400, {"error": str(exc)})

        # handlers ----------------------------------------------------------

        def _submit(self) -> None:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except (TypeError, ValueError):
                return self._json(400, {"error": "bad Content-Length"})
            if length < 0:
                return self._json(400, {"error": "bad Content-Length"})
            if length > service.config.max_request_bytes * 2:
                return self._json(413, {"error": "request too large"})
            try:
                body = self.rfile.read(length)
                request = JobRequest.from_dict(json.loads(body or b"{}"))
                result = service.submit(request)
            except ValidationError as exc:
                return self._json(400, {"error": str(exc)})
            except SchedulerDraining as exc:
                # the daemon is winding down: not "try again here later"
                # (429) but "this instance is going away" (503)
                return self._json(503, {"error": str(exc)})
            except SchedulerSaturated as exc:
                return self._json(429, {"error": str(exc)})
            except json.JSONDecodeError as exc:
                return self._json(400, {"error": f"bad JSON: {exc}"})
            except (TypeError, ValueError) as exc:
                # malformed field shapes that slipped past from_dict
                return self._json(400, {"error": f"bad request: {exc}"})
            self._json(202, {"job_id": result.job_id,
                             "status": result.status})

        def _get_job(self, url) -> None:
            job_id = url.path[len("/v1/jobs/"):]
            qs = parse_qs(url.query)
            wait = qs.get("wait", ["0"])[0] not in ("0", "false", "")
            timeout = float(qs.get("timeout", [MAX_WAIT_SECONDS])[0])
            if not math.isfinite(timeout):
                raise ValueError(f"timeout must be finite, got {timeout}")
            timeout = min(timeout, MAX_WAIT_SECONDS)
            include_output = qs.get("output", ["1"])[0] \
                not in ("0", "false", "")
            result = service.result(job_id, wait=wait, timeout=timeout)
            if result is None:
                return self._json(404, {"error": f"unknown job {job_id!r}"})
            self._json(200, result.to_dict(include_output=include_output))

        # node protocol -----------------------------------------------------

        def _read_json(self) -> Dict[str, Any]:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except (TypeError, ValueError):
                raise ValueError("bad Content-Length") from None
            if not 0 <= length <= service.config.max_request_bytes * 2:
                raise ValueError("bad Content-Length")
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
            return body

        def _node_register(self) -> None:
            try:
                body = self._read_json()
            except (ValueError, json.JSONDecodeError) as exc:
                return self._json(400, {"error": str(exc)})
            node = service.node_pool.register(
                node_id=body.get("node_id"),
                role=body.get("role", EXECUTOR_ROLE),
                capacity=int(body.get("capacity", DEFAULT_CAPACITY)))
            self._json(200, {
                "node_id": node.node_id, "ordinal": node.ordinal,
                "heartbeat_timeout": service.node_pool.heartbeat_timeout})

        def _node_call(self, url) -> None:
            # /v1/nodes/<id>/{heartbeat,pull,result}
            parts = url.path[len("/v1/nodes/"):].split("/")
            if len(parts) != 2 or not parts[0]:
                return self._json(404, {"error": f"no route {url.path}"})
            node_id, verb = parts
            try:
                body = self._read_json()
            except (ValueError, json.JSONDecodeError) as exc:
                return self._json(400, {"error": str(exc)})
            if verb == "heartbeat":
                alive = service.node_pool.touch(node_id)
                return self._json(200, {"ok": alive,
                                        "reregister": not alive})
            if verb == "pull":
                try:
                    tasks = service.board.pull(
                        node_id,
                        max_tasks=body.get("max_tasks"),
                        wait=min(float(body.get("wait", 0.0)),
                                 MAX_WAIT_SECONDS))
                except UnknownNode:
                    return self._json(200, {"reregister": True})
                if tasks is None:
                    return self._json(200, {"draining": True})
                return self._json(200, {"tasks": tasks})
            if verb == "result":
                if "task_id" not in body:
                    return self._json(400, {"error": "missing task_id"})
                accepted = service.board.complete(
                    node_id, body["task_id"], output=body.get("output"),
                    error=body.get("error"),
                    seconds=float(body.get("seconds", 0.0)))
                return self._json(200, {"accepted": accepted})
            self._json(404, {"error": f"no route {url.path}"})

        def _get_plan(self, url) -> None:
            digest = url.path[len("/v1/plans/"):]
            entry = service.plan_registry.entry(digest)
            if entry is None:
                return self._json(404,
                                  {"error": f"unknown plan {digest!r}"})
            self._json(200, entry)

        # response helpers --------------------------------------------------

        def _json(self, code: int, payload: Dict[str, Any]) -> None:
            self._raw(code, json.dumps(payload).encode("utf-8"),
                      "application/json")

        def _text(self, code: int, text: str) -> None:
            self._raw(code, text.encode("utf-8"),
                      "text/plain; charset=utf-8")

        def _raw(self, code: int, body: bytes, ctype: str) -> None:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt: str, *args) -> None:  # noqa: A003
            logger.debug("%s %s", self.address_string(), fmt % args)

    return Handler


def serve_forever(config: Optional[ServiceConfig] = None,
                  ready: Optional[Callable[[ReproService], None]] = None
                  ) -> int:
    """Blocking entry point for ``repro serve``.

    Runs until SIGINT/SIGTERM or ``POST /v1/shutdown``; returns a
    process exit code.
    """
    import signal

    service = ReproService(config)
    service.start_http()
    if ready is not None:
        ready(service)
    stop_requested = threading.Event()

    def _signal(_sig, _frame):
        stop_requested.set()

    try:
        signal.signal(signal.SIGINT, _signal)
        signal.signal(signal.SIGTERM, _signal)
    except ValueError:  # not the main thread (embedded serve)
        pass
    try:
        while not stop_requested.is_set() and not service._stopped:
            stop_requested.wait(timeout=0.2)
    finally:
        service.stop()
    return 0
