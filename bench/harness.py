"""Shared machinery of the benchmark: metric tables, the closed-loop
driver, span tracing, process-tree memory readings and plan fingerprints.

Nothing here imports :mod:`repro`; ``run.py`` puts ``src/`` on the path
and then imports the workload modules, which do.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: traces, result records and per-run temp dirs (listed in .gitignore)
OUT_DIR = ROOT / ".bench_out"

#: data parallelism of every job, and load-generator threads at most this
K = 2
#: the measured phase is cut into this many equal blocks.  Metrics come
#: from the half of them the host disturbed least (``run.quiet_blocks``);
#: throughput and speed-up are medians over those, which drops a stall
BLOCKS = 16
#: synthesis seed of every compile.  Not derived from ``--seed``: that one
#: seeds the *inputs*.  And not 0: ``synthesize`` then seeds itself from
#: ``hash(argv)``, which differs per process, so the synthesis counts and
#: set-up time would not repeat.
SYNTH_SEED = 1

WORKLOADS: Dict[str, str] = {
    "batch_aggregate": "wf.sh over 1 MB of book text on a reused 2-process "
                       "pool: sort/uniq and non-eliminated combiners do the "
                       "work, per-line fusion does none",
    "batch_perline": "sed|grep|cut over 2 MB of transit CSV pinned to the "
                     "fully fused plan: line-local evaluation, chunk "
                     "streaming and worker IPC do the work, the combiner none",
    "service_fresh": "2 tenants send 6 popular pipelines over never-seen "
                     "100 KB inputs to the daemon: plan-cache miss, store "
                     "hit, so fixed per-job service costs dominate",
    "distrib_2node": "2 tenants resubmit wf.sh over 4 warm datasets to a "
                     "2-executor cluster: plan-cache hit; lease board, chunk "
                     "shipping and reassembly do the work",
}

#: (name, unit, better) — what a caller of the system sees
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("throughput_mb_s", "MB/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("speedup_vs_serial", "x", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: (name, unit, better) — one layer each, prefix = module under src/repro
PER_LAYER: List[Tuple[str, str, str]] = [
    ("shell.parse_ms", "ms", "lower"),
    ("shell.serial_ms", "ms", "lower"),
    ("synthesis.synthesize_s", "s", "lower"),
    ("synthesis.commands", "count", "lower"),
    ("synthesis.executions", "count", "lower"),
    ("synthesis.rounds", "count", "lower"),
    ("synthesis.observations", "count", "lower"),
    ("optimizer.candidates", "count", "lower"),
    ("optimizer.rewrites", "count", "higher"),
    ("optimizer.enumerate_ms", "ms", "lower"),
    ("optimizer.select_self_s", "s", "lower"),
    ("unixsim.busy_ms", "ms", "lower"),
    ("unixsim.tr_ms", "ms", "lower"),
    ("unixsim.sort_ms", "ms", "lower"),
    ("unixsim.uniq_ms", "ms", "lower"),
    ("unixsim.fused_ms", "ms", "lower"),
    ("parallel.compile_pipeline_ms", "ms", "lower"),
    ("parallel.first_job_ms", "ms", "lower"),
    ("parallel.split_ms", "ms", "lower"),
    ("parallel.combine_ms", "ms", "lower"),
    ("parallel.runtime_overhead_ms", "ms", "lower"),
    ("parallel.overlap_ms", "ms", "higher"),
    ("parallel.chunks", "count", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.steals", "count", "lower"),
    ("parallel.retries", "count", "lower"),
    ("service.boot_s", "s", "lower"),
    ("service.cold_submit_s", "s", "lower"),
    ("service.http_submit_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.run_ms", "ms", "lower"),
    ("service.compile_ms", "ms", "lower"),
    ("service.result_fetch_ms", "ms", "lower"),
    ("service.request_bytes", "bytes", "lower"),
    ("service.response_bytes", "bytes", "lower"),
    ("service.plan_cache_hit_share", "share", "higher"),
    ("service.store_entries", "count", "lower"),
    ("service.runner_reuse_share", "share", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.rss_growth_mb_per_1k_jobs", "MB", "lower"),
    ("distrib.join_s", "s", "lower"),
    ("distrib.exec_ms", "ms", "lower"),
    ("distrib.dispatch_overhead_ms", "ms", "lower"),
    ("distrib.tasks_per_job", "count", "lower"),
    ("distrib.bytes_shipped_per_job", "bytes", "lower"),
    ("distrib.bytes_returned_per_job", "bytes", "lower"),
    ("distrib.plan_replications", "count", "lower"),
    ("distrib.node_task_skew", "share", "lower"),
    ("distrib.retries", "count", "lower"),
    ("distrib.reassignments", "count", "lower"),
    ("distrib.speculations", "count", "lower"),
    ("distrib.fallbacks", "count", "lower"),
    ("loadgen.cpu_share", "share", "lower"),
    ("loadgen.steal_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# small statistics


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory span recorder: name, start, end, parent, job id.

    ``enabled`` is flipped per block by the traced run (every other block
    runs untraced, which is where ``trace.overhead_share`` comes from) and
    is never set by an untraced run, whose ``span`` calls are no-ops.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, job: Optional[str] = None) -> int:
        """Record a finished span (also used for durations the program
        itself reports, e.g. ``SynthesisResult.elapsed``)."""
        with self._lock:
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": parent, "job": job})
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        index = self.add(name, time.perf_counter(), 0.0,
                         parent=stack[-1] if stack else None, job=job)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_seconds(self, index: int) -> float:
        """A span's duration minus the part its direct children cover."""
        span = self.spans[index]
        covered = sum(s["end"] - s["start"] for s in self.spans
                      if s["parent"] == index)
        return (span["end"] - span["start"]) - covered

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


# ---------------------------------------------------------------------------
# closed-loop load


@dataclass
class JobRecord:
    """One job as its caller saw it."""

    key: str            # which serial reference time it is compared with
    nbytes: int         # input bytes
    start: float
    end: float
    ok: bool
    error: str = ""
    #: what the program reported about the job (traced blocks only)
    detail: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Block:
    records: List[JobRecord]
    wall: float
    #: serial reference seconds per job key, timed just before the block
    serial: Dict[str, float]
    traced: bool = False
    cpu_seconds: float = 0.0
    #: share of the machine's CPU time the hypervisor gave to other guests
    #: while the block ran (0 where the host does not report it)
    steal_share: float = 0.0

    @property
    def throughput_mb_s(self) -> float:
        return sum(r.nbytes for r in self.records) / self.wall / 1e6

    @property
    def speedup(self) -> float:
        """Seconds one serial caller would need for this block's jobs,
        over the seconds the block took.  Both sides ran within the same
        second or two, so slow drift of the machine cancels."""
        return sum(self.serial[r.key] for r in self.records) / self.wall


def closed_loop(job: Callable[[int, int], JobRecord], callers: int,
                next_index: List[int], seconds: Optional[float] = None,
                jobs: Optional[int] = None) -> Tuple[List[JobRecord], float]:
    """Run ``callers`` closed loops: each sends its next job only when the
    previous one is in hand.  Stops each caller after ``jobs`` jobs or at
    the first job boundary past ``seconds``.  Returns the records and the
    wall time from start to the last completion.
    """
    start = time.perf_counter()
    per_caller: List[List[JobRecord]] = [[] for _ in range(callers)]
    errors: List[BaseException] = []

    def loop(caller: int) -> None:
        mine = per_caller[caller]
        try:
            while (len(mine) < jobs if jobs is not None
                   else time.perf_counter() - start < seconds):
                mine.append(job(caller, next_index[caller]))
                next_index[caller] += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    if callers == 1:
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(c,),
                                    name=f"bench-caller-{c}")
                   for c in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    records = [r for mine in per_caller for r in mine]
    if not records:
        raise BenchError("a closed-loop phase completed no job")
    return records, max(r.end for r in records) - start


# ---------------------------------------------------------------------------
# CPU time and memory, read from /proc


def cpu_jiffies() -> Tuple[int, int]:
    """``(stolen, total)`` CPU time of the whole machine so far."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)



def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant of it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # the command name may contain spaces; fields follow ')'
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we were listing
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, []))
    return tree


def rss_mb(pids: Sequence[int], field_name: str = "VmHWM") -> float:
    """Sum of ``VmHWM`` (peak) or ``VmRSS`` (current) over ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith(field_name + ":"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# plan identity


@dataclass
class PlanFingerprint:
    """What must be identical on every run for timings to be comparable."""

    render: str
    scheduler: str
    rewrites: int
    modes: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def digest(self) -> str:
        text = json.dumps([self.render, self.scheduler, self.rewrites,
                           list(self.modes)])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        return (f"{self.digest}  {self.render}  [{self.scheduler}, "
                f"rewrites={self.rewrites}, {' '.join(self.modes)}]")


def require_same_plan(label: str, first: PlanFingerprint,
                      again: PlanFingerprint) -> None:
    if first != again:
        raise BenchError(
            f"{label}: two compiles of one pipeline chose different plans:\n"
            f"  {first.describe()}\n  {again.describe()}")
