"""Shared compiled-plan cache.

Compilation — parsing, per-command combiner synthesis, planning — is
the expensive half of a job (the paper reports 39-331 s of synthesis
per command); the service pays it once per distinct job shape and
serves every repeat from this cache.

A plan is a function of the pipeline, never of the stream it is run
on (combiners are correct for every split of every input), so the key
is everything plan compilation can *observe*: pipeline text,
environment, the synthesis-config fingerprint, the optimize flag, the
scheduler, and a fingerprint of the request's **side files** — every
file except the one the leading ``cat FILE`` names, unless the pipeline
can reach that file some other way (:func:`_stream_file`).  The input
stream itself is a *runtime* argument like ``k``, engine, and data
plane: the service passes it to ``run(data)``, so one cached plan
serves jobs over any dataset at any parallelism degree.  The first
dataset a pipeline is seen with prices its rewrite candidates and
answers the rerun-profitability question, once, like a prepared
statement.

Concurrency: lookups are guarded by one lock; compilation runs outside
it under a per-key *single-flight* lock, so ten identical jobs
arriving cold trigger one synthesis, not ten, and distinct pipelines
compile concurrently.  A cached plan is safe to execute from many jobs
at once — plans and their stages are read-only at run time, and each
job wraps the plan in its own :class:`ParallelPipeline`.

Persistence: with a ``path`` the cache keeps a JSON snapshot, keyed by
a content digest of the full cache key, of everything needed to
*rehydrate* a plan without re-running synthesis or cost-model plan
selection — the chosen (post-rewrite) pipeline text, the request's
side files/env, and the per-stage synthesis results serialized through the
combiner-store idiom (:func:`result_to_dict`).  A daemon restart loads
the snapshot and serves previously-seen pipelines as *warm* hits: a
cheap parse + ``compile_pipeline`` from stored synthesis results, with
zero synthesis executions and no candidate selection.  The snapshot
holds at most ``capacity`` entries, like the in-memory LRU: the oldest
is dropped first, and a warm hit refreshes its entry's age.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..parallel.runner import fs_digest

from ..core.synthesis.store import CombinerStore
from ..core.synthesis.synthesizer import SynthesisConfig
# the snapshot-entry format is shared with distributed plan replication:
# one serialization feeds both restart warm hits and executor fetches
from ..distrib.plans import entry_to_plan, plan_to_entry
from ..parallel.planner import PipelinePlan, compile_pipeline, synthesize_pipeline
from ..shell.pipeline import Pipeline
from ..unixsim import ExecContext
from .protocol import JobRequest

#: compiled plans kept before LRU eviction; a plan embeds the side
#: files its commands can name (dictionaries, stop lists), never a job's
#: input stream, so this also bounds resident side-file data
DEFAULT_PLAN_CAPACITY = 128

#: largest plan (pipeline + side-file bytes) worth snapshotting to disk —
#: the snapshot embeds those side files, so a pipeline over a huge
#: dictionary would bloat it for little warm-start value
DEFAULT_MAX_PERSIST_BYTES = 4 * 1024 * 1024

_SNAPSHOT_SCHEMA = 1

#: provenance of a cache lookup, in the order the layers are consulted
HIT_MEMORY = "memory"
HIT_DISK = "disk"


def key_digest(key: tuple) -> str:
    """Content digest of a plan-cache key, stable across processes.

    The key tuple contains only strings, ints, bools, and nested tuples
    of the same (file contents enter via :func:`fs_digest`), so its
    ``repr`` is deterministic and the digest can name a snapshot entry
    from one daemon lifetime to the next.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _default_config(request: JobRequest) -> SynthesisConfig:
    return SynthesisConfig(max_size=request.max_size, seed=request.seed)


@lru_cache(maxsize=1024)
def _stream_file(text: str,
                 env_items: Tuple[Tuple[str, str], ...]) -> Optional[str]:
    """Name of the file plan compilation cannot observe, or None.

    That is the file the leading ``cat FILE`` names: no command of the
    plan reads it, the job binds its contents at run time.  Two ways a
    pipeline can reach the file anyway, and then it is a side file like
    any other: an argument names it again (``comm -23 - $IN``), or an
    ``xargs`` reads files named by its *data*.  Both are matched as
    substrings of every argument, which sees through
    ``fused 'xargs cat'`` at the price of an occasional needless
    per-dataset plan.
    """
    pipeline = Pipeline.from_string(text, env=dict(env_items))
    name = pipeline.input_file
    if name is None or any("xargs" in arg or name in arg
                           for cmd in pipeline.commands for arg in cmd.argv):
        return None
    return name


def _side_files(request: JobRequest) -> Dict[str, str]:
    """The request's files that plan compilation can observe."""
    stream = _stream_file(request.pipeline,
                          tuple(sorted(request.env.items())))
    return {name: contents for name, contents in request.files.items()
            if name != stream}


def plan_cache_key(request: JobRequest,
                   config: Optional[SynthesisConfig] = None) -> tuple:
    """Hashable identity of everything plan compilation observes.

    The pipeline enters via its **canonical render**
    (:func:`repro.optimizer.canonical_text`), so whitespace, quoting,
    and flag-spelling variants of one pipeline (``sort -rn`` vs
    ``sort -nr``) share a cache entry instead of each paying a cold
    compile.  Of the files, only those a command can read enter
    (:func:`_side_files`): two jobs that differ only in their input
    stream share a plan, two that differ in a dictionary never do.
    Contents enter via a cryptographic digest, not ``hash()``: two
    tenants' jobs share the filesystem embedded in a cached plan, so
    the fingerprint must not have a practical collision class.
    """
    from ..optimizer import canonical_text

    if config is None:
        config = _default_config(request)
    try:
        pipeline_id = canonical_text(request.pipeline, env=request.env)
        files = _side_files(request)
    except Exception:
        # unparsable: fall back to the text and every file
        pipeline_id, files = request.pipeline, request.files
    return (
        pipeline_id,
        tuple(sorted(request.env.items())),
        fs_digest(files),
        tuple(sorted(dataclasses.asdict(config).items())),
        request.optimize,
        # the chunk scheduler is a plan attribute: an "auto" plan
        # resolved by the cost model must not serve a pinned request
        getattr(request, "scheduler", "auto"),
    )


class PlanCache:
    """Thread-safe LRU of compiled :class:`PipelinePlan`s, optionally
    backed by an on-disk snapshot that survives daemon restarts."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CAPACITY,
                 store: Optional[CombinerStore] = None,
                 config_factory: Callable[[JobRequest], SynthesisConfig]
                 = _default_config,
                 path: Optional[Union[str, Path]] = None,
                 max_persist_bytes: int = DEFAULT_MAX_PERSIST_BYTES) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.store = store
        self.config_factory = config_factory
        self.path = Path(path) if path is not None else None
        self.max_persist_bytes = max_persist_bytes
        self._plans: "OrderedDict[tuple, PipelinePlan]" = OrderedDict()
        self._snapshot: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: Dict[tuple, threading.Lock] = {}
        self._hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._compile_seconds = 0.0
        if self.path is not None and self.path.exists():
            self.load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    # -- lookup / compile ----------------------------------------------------

    def get_or_compile(self,
                       request: JobRequest) -> Tuple[PipelinePlan, object]:
        """Return ``(plan, hit)`` for the request, compiling at most once
        per key across all concurrent callers.

        ``hit`` is falsy for a cold compile, :data:`HIT_MEMORY` for an
        in-memory hit, and :data:`HIT_DISK` for a plan rehydrated from
        the persistent snapshot (warm: no synthesis ran).  The plan's
        context holds the request's side files only; the caller binds
        the input stream with ``run(data)``.
        """
        config = self.config_factory(request)
        key = plan_cache_key(request, config)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._hits += 1
                self._plans.move_to_end(key)
                return plan, HIT_MEMORY
            flight = self._inflight.setdefault(key, threading.Lock())
        with flight:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    # compiled by the flight we waited behind
                    self._hits += 1
                    self._plans.move_to_end(key)
                    return plan, HIT_MEMORY
                digest = key_digest(key)
                entry = self._snapshot.get(digest)
                if entry is not None:
                    self._snapshot.move_to_end(digest)
            hit: object = False
            started = time.perf_counter()
            try:
                plan = None
                if entry is not None:
                    try:
                        plan = self._rehydrate(entry)
                        hit = HIT_DISK
                    except Exception:
                        plan = None  # stale snapshot: fall back to compile
                if plan is None:
                    plan = self._compile(request, config)
                with self._lock:
                    if hit:
                        self._disk_hits += 1
                    else:
                        self._misses += 1
                    self._compile_seconds += time.perf_counter() - started
                    self._plans[key] = plan
                    self._plans.move_to_end(key)
                    while len(self._plans) > self.capacity:
                        self._plans.popitem(last=False)
                if not hit and self.path is not None:
                    self._record_snapshot(key, request, plan)
            except BaseException:
                with self._lock:
                    self._misses += 1
                raise
            finally:
                # always discharge the flight — a failing compile must
                # not leave a permanent per-key lock behind
                with self._lock:
                    self._inflight.pop(key, None)
        return plan, hit

    def _compile(self, request: JobRequest,
                 config: SynthesisConfig) -> PipelinePlan:
        from ..optimizer.selector import stratified_sample

        context = ExecContext(fs=_side_files(request), env=dict(request.env))
        pipeline = Pipeline.from_string(request.pipeline, env=request.env,
                                        context=context)
        # the first dataset seen prices the candidates and answers the
        # rerun-profitability question; it is not kept.  A job without
        # its input fails here as its run would, before a plan nobody
        # has run is left behind for the pipeline's next tenant
        sample = ""
        if pipeline.input_file is not None:
            sample = stratified_sample(ExecContext(fs=request.files)
                                       .read_file(pipeline.input_file))
        if request.optimize:
            from ..optimizer import select_plan

            plan, _optimization = select_plan(pipeline, config=config,
                                              store=self.store,
                                              sample=sample,
                                              scheduler=request.scheduler)
            return plan
        results = synthesize_pipeline(pipeline, config=config,
                                      store=self.store)
        return compile_pipeline(pipeline, results, optimize=request.optimize,
                                sample_input=sample or None,
                                scheduler=request.scheduler)

    # -- persistence ---------------------------------------------------------

    def _record_snapshot(self, key: tuple, request: JobRequest,
                         plan: PipelinePlan) -> None:
        """Remember everything a restart needs to rebuild ``plan`` warm.

        The snapshot stores the *chosen* pipeline (post-rewrite render)
        plus every stage's serialized synthesis result, so rehydration
        is parse + ``compile_pipeline`` — no synthesis executions, no
        rewrite search, no cost-model candidate runs.
        """
        files = _side_files(request)
        size = len(request.pipeline) + sum(
            len(k) + len(v) for k, v in files.items())
        if size > self.max_persist_bytes:
            return
        entry = plan_to_entry(plan, files, request.env)
        digest = key_digest(key)
        with self._lock:
            self._snapshot[digest] = entry
            while len(self._snapshot) > self.capacity:
                self._snapshot.popitem(last=False)

    def _rehydrate(self, entry: dict) -> PipelinePlan:
        return entry_to_plan(entry)

    def save(self) -> None:
        """Write the snapshot atomically (temp file + rename); no-op
        without a configured ``path``."""
        if self.path is None:
            return
        with self._lock:
            payload = {"schema": _SNAPSHOT_SCHEMA,
                       "entries": dict(self._snapshot)}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1))
        tmp.replace(self.path)

    def load(self) -> None:
        payload = json.loads(self.path.read_text())
        if payload.get("schema") != _SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported plan-cache schema: {payload.get('schema')}")
        entries = list(payload["entries"].items())
        with self._lock:
            self._snapshot = OrderedDict(entries[-self.capacity:])

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "warm_hits": self._disk_hits,
                    # spent in cold compiles and rehydrations
                    "compile_seconds": self._compile_seconds,
                    "entries": len(self._plans), "capacity": self.capacity,
                    "persistent_entries": len(self._snapshot)}

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._snapshot.clear()
            self._hits = 0
            self._disk_hits = 0
            self._misses = 0
            self._compile_seconds = 0.0
