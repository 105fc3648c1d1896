#!/usr/bin/env python
"""CI smoke test for the parallelization service.

Starts the daemon as a real subprocess (``python -m repro serve``),
submits concurrent jobs from several tenants, asserts every output is
byte-identical to the serial reference semantics, checks that repeat
submissions — half of them over data the daemon has never seen — hit
the shared plan cache, and verifies the daemon shuts down cleanly
(exit code 0, no orphaned process).

Run from the repository root::

    PYTHONPATH=src python scripts/service_smoke.py
"""

import os
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.evaluation.benchsuite import StageRecorder  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.shell import Pipeline  # noqa: E402
from repro.unixsim import ExecContext  # noqa: E402

PIPELINES = [
    "cat $IN | sort",
    "cat $IN | sort | uniq -c",
    "cat $IN | tr a-z A-Z | sort",
    "cat $IN | grep a | sort | uniq",
]
FILES = {"input.txt": "delta\nalpha\nbravo\nalpha\ncharlie\nbravo\n" * 40}
ENV = {"IN": "input.txt"}
# job count is overridable so the bench suite can tune the soak; the
# plan-cache assertions below assume a multiple of len(PIPELINES)
N_JOBS = max(len(PIPELINES),
             int(os.environ.get("REPRO_SMOKE_JOBS", "8")))
N_TENANTS = 4


def job_files(index: int) -> dict:
    """Every second job's input has one line no earlier job had: fresh
    data over a known pipeline must still be a plan-cache hit."""
    if index % 2 == 0:
        return FILES
    return {"input.txt": FILES["input.txt"] + f"fresh-{index}\n"}


def serial_reference(pipeline: str, files: dict) -> str:
    context = ExecContext(fs=dict(files), env=dict(ENV))
    return Pipeline.from_string(pipeline, env=ENV, context=context).run()


def start_daemon() -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--concurrency", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise SystemExit(f"daemon failed to start: {line!r}")
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return proc, url


def main() -> int:
    proc, url = start_daemon()
    print(f"daemon up at {url}")
    try:
        probe = ServiceClient(url)
        assert probe.wait_until_healthy(timeout=10), "daemon not healthy"

        results = {}
        errors = []

        def tenant(index: int) -> None:
            client = ServiceClient(url, client_id=f"tenant-{index % N_TENANTS}",
                                   timeout=600)
            try:
                pipeline = PIPELINES[index % len(PIPELINES)]
                results[index] = (pipeline,
                                  client.run(pipeline, files=job_files(index),
                                             env=ENV, k=4, engine="threads",
                                             timeout=600))
            except Exception as exc:  # noqa: BLE001
                errors.append(f"job {index}: {exc}")

        threads = [threading.Thread(target=tenant, args=(i,))
                   for i in range(N_JOBS)]
        start = time.time()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(results) == N_JOBS

        for index, (pipeline, result) in sorted(results.items()):
            assert result.status == "done", \
                f"job {index} {result.status}: {result.error}"
            expected = serial_reference(pipeline, job_files(index))
            assert result.output == expected, \
                f"job {index} output diverged for {pipeline!r}"
        print(f"{N_JOBS} concurrent jobs byte-identical "
              f"in {time.time() - start:.1f}s")

        status = probe.status()
        hits = status["plan_cache"]["hits"]
        misses = status["plan_cache"]["misses"]
        assert misses == len(PIPELINES), (hits, misses)
        assert hits == N_JOBS - len(PIPELINES), (hits, misses)
        assert status["jobs"]["done"] == N_JOBS
        assert status["jobs"]["failed"] == 0
        print(f"plan cache: {hits} hits / {misses} misses; "
              f"runner pool reused {status['runner_pool']['reused']}")

        probe.shutdown()
        proc.wait(timeout=30)
        assert proc.returncode == 0, f"daemon exit code {proc.returncode}"
        print("daemon shut down cleanly")

        # report into the bench suite's BENCH_*.json when invoked by it
        recorder = StageRecorder.from_env()
        if recorder is not None:
            recorder.record("service-smoke", time.time() - start, ok=True,
                            jobs=N_JOBS, tenants=N_TENANTS,
                            plan_cache_hits=hits, plan_cache_misses=misses)
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
