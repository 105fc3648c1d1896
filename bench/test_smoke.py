"""Smoke test of the benchmark itself (about a minute on 2 cores).

Not part of the tier-1 ``testpaths``; run it explicitly::

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_metric_names_match_benchmark_json(workload, trace, group):
    done, result = run("--workload", workload, "--smoke",
                       "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[group]}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    sys.path.insert(0, str(BENCH))
    import harness

    assert list(harness.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("workload", ["batch_perline", "service_fresh"])
def test_injected_wrong_output_fails_the_run(workload):
    done, result = run("--workload", workload, "--smoke",
                       "--inject-wrong-output")
    assert done.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
