"""Compiled-plan replication by content digest.

A distributed run must execute the *same* compiled plan on every
executor node, without paying synthesis per node: combiner synthesis is
the expensive half of a job (39-331 s per command in the paper), and
the controller already paid it once.  This module reuses the plan-cache
persistence format (the PR that added snapshot warm starts): a plan
*entry* is the JSON record holding the chosen (post-rewrite) pipeline
text, the virtual files and environment of the plan's context, and
every stage's serialized synthesis result — exactly what a daemon
restart needs to rebuild a plan with zero synthesis executions, and
therefore exactly what a remote executor needs too.

Entries are addressed by a **content digest** (sha256 of the canonical
JSON), so replication is idempotent and cache-friendly: an executor
fetches each digest at most once per lifetime, no matter how many chunk
tasks of how many jobs reference it, and two jobs whose plans are
byte-identical share one replica.

:class:`PlanRegistry` is the controller side (publish + serve entries);
the executor side rehydrates with :func:`entry_to_plan`, the same
parse-plus-``compile_pipeline`` path the plan cache uses for warm disk
hits.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..core.synthesis.store import result_from_dict, result_to_dict
from ..parallel.planner import PipelinePlan, compile_pipeline
from ..shell.pipeline import Pipeline
from ..unixsim import ExecContext


#: plan entries a registry (controller) or an executor keeps, least
#: recently used evicted first.  An entry embeds the files of its
#: plan's context — from the service the side files its commands can
#: read, never a job's input stream — so an unbounded table leaks one
#: set of side files per distinct plan.  Far above any controller's
#: concurrent-job count, so a running job's plan is never the eviction
#: victim.
MAX_RETAINED_PLANS = 64


def plan_to_entry(plan: PipelinePlan, files: Dict[str, str],
                  env: Dict[str, str]) -> dict:
    """Serialize a compiled plan into the snapshot-entry format.

    The entry stores the *chosen* pipeline (post-rewrite render) plus
    the serialized synthesis result of every command the plan runs in
    parallel — chain members included — so rebuilding it is a cheap
    parse + ``compile_pipeline``: no synthesis executions, no rewrite
    search, no cost-model candidate runs.  A command the plan runs
    sequentially gets no result: which commands are parallel is the
    plan's decision, and a rebuild must reproduce it, not re-derive it
    from a profile of whatever input it finds — chunk tasks name their
    stage by its index in ``plan.stages``.
    """
    results = [{"argv": list(stage.command.key()),
                "result": result_to_dict(stage.synthesis)}
               for stage in plan.commands if stage.parallel]
    return {
        "pipeline": plan.pipeline.render(),
        "env": dict(env),
        "files": dict(files),
        "optimized": plan.optimized,
        "scheduler": plan.scheduler,
        "rewrites": plan.rewrites,
        "rewrite_trace": list(plan.rewrite_trace),
        "results": results,
    }


def entry_to_plan(entry: dict) -> PipelinePlan:
    """Rebuild a compiled plan from its entry (no synthesis runs)."""
    context = ExecContext(fs=dict(entry["files"]), env=dict(entry["env"]))
    pipeline = Pipeline.from_string(entry["pipeline"], env=entry["env"],
                                    context=context)
    results = {tuple(r["argv"]): result_from_dict(r["result"])
               for r in entry["results"]}
    # every recorded result is a command the plan ran in parallel: the
    # rerun-profitability question was answered at compile time, so
    # there is nothing to profile the entry's input for
    plan = compile_pipeline(pipeline, results, optimize=entry["optimized"],
                            rerun_threshold=float("inf"), sample_input="",
                            scheduler=entry["scheduler"])
    plan.rewrites = entry["rewrites"]
    plan.rewrite_trace = list(entry["rewrite_trace"])
    return plan


def entry_digest(entry: dict) -> str:
    """Content address of an entry: stable across processes and hosts."""
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class PlanRegistry:
    """Controller-side store of plan entries, keyed by content digest.

    ``register`` publishes a compiled plan (idempotent: re-registering
    an identical plan returns the same digest); ``entry`` serves one
    replication fetch.  The fetch counters let a run report how many
    replications *it* triggered (executors cache by digest, so steady
    state is zero).  At most :data:`MAX_RETAINED_PLANS` entries are
    kept; a job registers its plan when it starts, which also makes it
    the most recently used.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._fetches: Dict[str, int] = {}
        self._replications = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def register(self, plan: PipelinePlan, files: Dict[str, str],
                 env: Dict[str, str]) -> str:
        entry = plan_to_entry(plan, files, env)
        digest = entry_digest(entry)
        with self._lock:
            self._entries.setdefault(digest, entry)
            self._entries.move_to_end(digest)
            if len(self._entries) > MAX_RETAINED_PLANS:
                evicted, _ = self._entries.popitem(last=False)
                self._fetches.pop(evicted, None)
        return digest

    def entry(self, digest: str) -> Optional[dict]:
        """Serve one replication fetch (None for an unknown digest)."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                self._fetches[digest] = self._fetches.get(digest, 0) + 1
                self._replications += 1
            return entry

    def fetches(self, digest: Optional[str] = None) -> int:
        """Fetches served for one retained digest, or for all ever."""
        with self._lock:
            if digest is not None:
                return self._fetches.get(digest, 0)
            return self._replications

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"plans": len(self._entries),
                    "replications": self._replications}
