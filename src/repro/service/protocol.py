"""Wire format of the parallelization service.

A job is one pipeline run: the request carries everything
:func:`repro.parallelize` needs (pipeline text, virtual files, env,
``k``, engine, data-plane and synthesis knobs) plus a ``client_id``
used for fair-share scheduling; the result carries the output stream,
structured :class:`~repro.parallel.RunStats`, plan-cache provenance,
and queue/run timings.

Everything crossing the socket is JSON with string keys, so both ends
stay pure standard library.  Requests are validated *before* admission
(:meth:`JobRequest.validate`): a malformed pipeline or an unknown
engine is rejected at submit time with a 400, not discovered by a
worker thread mid-job.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..parallel.executor import RunStats, run_stats_from_dict
from ..parallel.runner import PROCESSES, SERIAL, THREADS
from ..parallel.scheduler import AUTO, STATIC, STEALING
from ..shell import CommandError, ParseError, validate_pipeline_text
from .scheduler import NORMAL, PRIORITIES

#: job lifecycle states
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

ENGINES = (SERIAL, THREADS, PROCESSES)

#: chunk schedulers a job may request (``auto``: cost model decides)
JOB_SCHEDULERS = (AUTO, STATIC, STEALING)

#: ceiling on the total bytes of virtual files in one request — the
#: whole request is held in memory while queued
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: parallelism a single job may request from the shared pool budget
MAX_JOB_K = 64

#: longest a handler thread blocks for one request (job ``?wait=1``,
#: executor ``pull``); clients re-poll past it
MAX_WAIT_SECONDS = 30.0


class ValidationError(ValueError):
    """A request that must be rejected at admission time."""


@dataclass
class JobRequest:
    """One parallelization job as submitted by a client."""

    pipeline: str
    files: Dict[str, str] = field(default_factory=dict)
    env: Dict[str, str] = field(default_factory=dict)
    k: int = 4
    engine: str = SERIAL
    streaming: bool = True
    optimize: bool = True
    scheduler: str = AUTO
    speculate: bool = False
    #: run the chunk map steps on the cluster's executor nodes (falls
    #: back to local execution when no node is live); runtime-only, so
    #: like ``priority`` it is not part of the plan-cache identity
    distribute: bool = False
    max_size: int = 7
    seed: int = 0
    client_id: str = "anonymous"
    #: scheduling class (``high`` > ``normal`` > ``low``); runtime-only,
    #: so it is not part of the plan-cache identity
    priority: str = NORMAL

    # -- validation ----------------------------------------------------------

    def validate(self,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES) -> None:
        """Raise :class:`ValidationError` unless the job is admissible."""
        if not isinstance(self.pipeline, str) or not self.pipeline.strip():
            raise ValidationError("pipeline must be a non-empty string")
        if self.engine not in ENGINES:
            raise ValidationError(
                f"unknown engine {self.engine!r} (expected one of {ENGINES})")
        if self.scheduler not in JOB_SCHEDULERS:
            raise ValidationError(
                f"unknown scheduler {self.scheduler!r} "
                f"(expected one of {JOB_SCHEDULERS})")
        if not isinstance(self.k, int) or not 1 <= self.k <= MAX_JOB_K:
            raise ValidationError(f"k must be in 1..{MAX_JOB_K}, got {self.k}")
        if not isinstance(self.max_size, int) or self.max_size < 1:
            raise ValidationError(
                f"max_size must be a positive int, got {self.max_size}")
        if not isinstance(self.seed, int):
            raise ValidationError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.client_id, str) or not self.client_id:
            raise ValidationError("client_id must be a non-empty string")
        if self.priority not in PRIORITIES:
            raise ValidationError(
                f"unknown priority {self.priority!r} "
                f"(expected one of {PRIORITIES})")
        for mapping, label in ((self.files, "files"), (self.env, "env")):
            if not isinstance(mapping, dict) or any(
                    not isinstance(k, str) or not isinstance(v, str)
                    for k, v in mapping.items()):
                raise ValidationError(f"{label} must map str -> str")
        total = len(self.pipeline) + sum(
            len(k) + len(v) for k, v in self.files.items())
        if total > max_request_bytes:
            raise ValidationError(
                f"request holds {total} bytes of pipeline+files, "
                f"limit is {max_request_bytes}")
        try:
            validate_pipeline_text(self.pipeline, env=self.env)
        except (ParseError, CommandError) as exc:
            raise ValidationError(f"invalid pipeline: {exc}") from exc

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pipeline": self.pipeline, "files": self.files, "env": self.env,
            "k": self.k, "engine": self.engine, "streaming": self.streaming,
            "optimize": self.optimize, "scheduler": self.scheduler,
            "speculate": self.speculate, "distribute": self.distribute,
            "max_size": self.max_size, "seed": self.seed,
            "client_id": self.client_id, "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRequest":
        if not isinstance(data, dict):
            raise ValidationError("request body must be a JSON object")
        if "pipeline" not in data:
            raise ValidationError("request is missing 'pipeline'")
        unknown = set(data) - {
            "pipeline", "files", "env", "k", "engine", "streaming",
            "optimize", "scheduler", "speculate", "distribute",
            "max_size", "seed", "client_id", "priority"}
        if unknown:
            raise ValidationError(f"unknown request fields: {sorted(unknown)}")
        for label in ("files", "env"):
            if data.get(label) is not None and not isinstance(data[label],
                                                              dict):
                raise ValidationError(f"{label} must be a JSON object")
        return cls(
            pipeline=data["pipeline"],
            files=dict(data.get("files") or {}),
            env=dict(data.get("env") or {}),
            k=data.get("k", 4),
            engine=data.get("engine", SERIAL),
            streaming=bool(data.get("streaming", True)),
            optimize=bool(data.get("optimize", True)),
            scheduler=data.get("scheduler", AUTO),
            speculate=bool(data.get("speculate", False)),
            distribute=bool(data.get("distribute", False)),
            max_size=data.get("max_size", 7),
            seed=data.get("seed", 0),
            client_id=data.get("client_id", "anonymous"),
            priority=data.get("priority", NORMAL),
        )


@dataclass
class JobResult:
    """The service-side record of a job, as returned to clients."""

    job_id: str
    client_id: str
    status: str = JOB_QUEUED
    pipeline: str = ""
    output: Optional[str] = None
    error: Optional[str] = None
    stats: Optional[RunStats] = None
    plan_cache: Optional[str] = None       # "hit" | "miss"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.status in (JOB_DONE, JOB_FAILED)

    @property
    def wait_seconds(self) -> Optional[float]:
        """Time spent queued before a worker picked the job up."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def latency_seconds(self) -> Optional[float]:
        """Submit-to-finish latency as observed by the service."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self, include_output: bool = True) -> Dict[str, Any]:
        return {
            "job_id": self.job_id, "client_id": self.client_id,
            "status": self.status, "pipeline": self.pipeline,
            "output": self.output if include_output else None,
            "error": self.error,
            "stats": self.stats.to_dict() if self.stats else None,
            "plan_cache": self.plan_cache,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wait_seconds": self.wait_seconds,
            "run_seconds": self.run_seconds,
            "latency_seconds": self.latency_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        stats = data.get("stats")
        return cls(
            job_id=data["job_id"], client_id=data.get("client_id", ""),
            status=data.get("status", JOB_QUEUED),
            pipeline=data.get("pipeline", ""),
            output=data.get("output"), error=data.get("error"),
            stats=run_stats_from_dict(stats) if stats else None,
            plan_cache=data.get("plan_cache"),
            submitted_at=data.get("submitted_at", 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
        )


def new_job_id() -> str:
    return uuid.uuid4().hex[:16]
