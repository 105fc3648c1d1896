#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process: set-up (timed), a warm-up of a fixed
number of jobs, then ``S`` seconds of closed-loop load in 16 blocks, with a
timed run of the serial reference between blocks.  Every output is checked
against ``repro.shell.Pipeline.run``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` every workload runs in
a fresh process of its own.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402 - after the path line above
    BLOCKS,
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    ROOT,
    WORKLOADS,
    BenchError,
    Block,
    Tracer,
    closed_loop,
    cpu_jiffies,
    median,
    percentile,
    rss_mb,
)

#: seconds of measured load under ``--smoke``: enough for every block to
#: see a job, so the whole code path runs
SMOKE_SECONDS = 1.0


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def make_workload(name: str, seed: int, tracer: Tracer, tmp: Path,
                  inject_wrong_output: bool):
    # the checkout's own source, never an installed copy; imported here
    # because the workload modules import repro
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no source tree at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import batch
    import service

    cls = service.WORKLOADS.get(name, batch.BatchWorkload)
    return cls(name, seed, tracer, tmp, inject_wrong_output)


def quiet_blocks(blocks: List[Block]) -> List[Block]:
    """The half of the blocks that lost the least CPU time to other guests
    of the host; all of them where the host took (or reports) none.

    On a shared host stolen time is the largest source of noise: a block
    that lost 15 % of the machine's CPU time ran 40 % slower.  Every number
    reported is still a measurement, of the blocks least disturbed.
    """
    cutoff = sorted(b.steal_share for b in blocks)[len(blocks) // 2 - 1]
    return [b for b in blocks if b.steal_share <= cutoff]


def measure(workload, tracer: Tracer, trace: bool, seconds: float,
            smoke: bool):
    """Set-up, warm-up and the measured blocks of one workload; returns
    the metric values, the blocks, the warm-up records and the number of
    failed jobs."""
    workload.prepare()
    tracer.enabled = trace
    start = time.perf_counter()
    workload.setup()
    setup_seconds = time.perf_counter() - start
    workload.check_plan_repeats()
    tracer.enabled = False

    next_index = [0] * workload.callers
    if smoke:
        workload.warmup_jobs = max(1, workload.warmup_jobs // 10)
    warm, _ = closed_loop(workload.job, workload.callers, next_index,
                          jobs=workload.warmup_jobs)
    # after a fixed number of jobs, not at the end of a fixed time: the
    # daemon keeps its finished jobs, so memory at the end of a timed
    # phase would grow with throughput
    peak_rss = rss_mb(workload.sut_pids(), "VmHWM")
    rss_start = rss_mb(workload.sut_pids(), "VmRSS")

    blocks: List[Block] = []
    serial = workload.serial_reference()
    for index in range(BLOCKS):
        # every other block of a traced run is untraced: the difference
        # between the two halves is what tracing costs
        tracer.enabled = trace and index % 2 == 0
        if tracer.enabled:
            workload.probe_layers()
        cpu = time.process_time()
        stolen, total = cpu_jiffies()
        records, wall = closed_loop(workload.job, workload.callers,
                                    next_index, seconds=seconds / BLOCKS)
        cpu = time.process_time() - cpu
        # the machine's speed drifts within seconds, so a block is compared
        # with the serial reference timed at both of its ends
        before, serial = serial, workload.serial_reference()
        stolen, total = (now - then for then, now
                         in zip((stolen, total), cpu_jiffies()))
        blocks.append(Block(records, wall,
                            {key: (before[key] + serial[key]) / 2
                             for key in serial}, tracer.enabled, cpu,
                            stolen / max(1, total)))
    tracer.enabled = False
    measured = [r for b in blocks for r in b.records]
    rss_growth = ((rss_mb(workload.sut_pids(), "VmRSS") - rss_start)
                  / len(measured) * 1000)
    workload.snapshot()
    counted = warm + measured
    failed = sum(not r.ok for r in counted) + workload.verify_after()
    for record in counted:
        if not record.ok:
            print(f"! job failed: {record.error}")

    if trace:
        values = workload.layer_metrics(blocks, rss_growth)
        values["loadgen.cpu_share"] = (sum(b.cpu_seconds for b in blocks)
                                       / sum(b.wall for b in blocks))
        values["loadgen.steal_share"] = median([b.steal_share
                                                for b in blocks])
        values["trace.overhead_share"] = 1.0 - (
            median([b.throughput_mb_s for b in blocks if b.traced])
            / median([b.throughput_mb_s for b in blocks if not b.traced]))
    else:
        quiet = quiet_blocks(blocks)
        latencies = [r.seconds * 1e3 for b in quiet for r in b.records]
        print(f"quiet blocks: {len(quiet)} of {len(blocks)} "
              f"({len(latencies)} latency samples); stolen CPU share per "
              "block: " + " ".join(f"{b.steal_share:.2f}" for b in blocks))
        values = {
            "setup_s": setup_seconds,
            "throughput_mb_s": median([b.throughput_mb_s for b in quiet]),
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_p90_ms": percentile(latencies, 0.90),
            "speedup_vs_serial": median([b.speedup for b in quiet]),
            "peak_rss_mb": peak_rss,
        }
    return values, blocks, warm, failed


def run_workload(args: argparse.Namespace) -> int:
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    trace = bool(args.trace)
    tracer = Tracer()
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": seconds, "trace": int(trace),
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "commit": commit()}
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        workload = make_workload(args.workload, args.seed, tracer, tmp,
                                 args.inject_wrong_output)
        try:
            values, blocks, warm, failed = measure(workload, tracer, trace,
                                                   seconds, args.smoke)
            exact = workload.exact_counts()
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = [r for b in blocks for r in b.records]
    if trace:
        table = PER_LAYER
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{trace_path.relative_to(ROOT)}")
    else:
        table = END_TO_END
    for plan in workload.plan_fingerprints():
        print("plan " + plan.describe())
    print("exact " + " ".join(f"{k}={v}" for k, v in sorted(exact.items())))
    print(f"jobs: {len(measured)} measured (latency samples) + {len(warm)} "
          f"warm-up; blocks MB/s: "
          + " ".join(f"{b.throughput_mb_s:.2f}" for b in blocks))
    metrics = {}
    for name, unit, _better in table:
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:38s} {value:14.4f} {unit}")
    result = {"correct": failed == 0,
              "attempted": len(measured) + len(warm),
              "failed": failed, "metrics": metrics}
    if args.out:
        record = dict(header, **result, exact=exact, plans=[
            p.digest for p in workload.plan_fingerprints()], blocks=[
            {"jobs": len(b.records), "mb_s": b.throughput_mb_s,
             "speedup": b.speedup, "steal_share": b.steal_share,
             "p50_ms": percentile([r.seconds * 1e3 for r in b.records], 0.5)}
            for b in blocks])
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so that none inherits another's
    memo, pools or memory."""
    combined: Dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", f"{args.out}.{name}.json"]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if done.returncode in (0, 1) and lines:
            combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="default: all four, each in its own process")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the generated inputs and the job order")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s measured, a tenth of the "
                             "warm-up")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the full result record here "
                             "(input of aa_check.py)")
    parser.add_argument("--inject-wrong-output", action="store_true",
                        help="corrupt one observed output; the run must "
                             "then fail (used by test_smoke.py)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    def terminate(_signum, _frame):
        raise SystemExit(143)   # unwinds through the teardown above

    signal.signal(signal.SIGTERM, terminate)
    try:
        return run_workload(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
