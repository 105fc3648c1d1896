#!/usr/bin/env python3
"""Do two sets of runs of the same code agree within the bounds?

    python3 bench/aa_check.py DIR_A DIR_B

Each directory holds result records written by ``run.py --out`` (any
number per workload, five or more is sensible).  Per workload and
end-to-end metric this prints both set medians, how much worse the second
is than the first (the driver's drift rule), the interquartile spread of
all runs as a share of their median (the driver's spread rule, which
exempts ``setup_s``) and the bound from ``BENCHMARK.json``.  It also
requires the plan fingerprints and the exact-repeat counts to be the same
in every record of a workload.  Exit code 1 on any violation.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> Dict[str, List[dict]]:
    by_workload: Dict[str, List[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue    # end-to-end metrics come from untraced runs only
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = load(argv[0]), load(argv[1])
    violations = 0
    print(f"{'workload':16s} {'metric':18s} {'median A':>10s} {'median B':>10s} "
          f"{'B worse':>8s} {'spread':>7s} {'bound':>6s}")
    for workload in sorted(set(first) | set(second)):
        a, b = first.get(workload, []), second.get(workload, [])
        if len(a) < 2 or len(b) < 2:
            print(f"{workload}: needs at least 2 runs in each set "
                  f"(have {len(a)} and {len(b)})")
            violations += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma
            if metric["better"] == "higher":
                worse = -worse
            share = spread(va + vb)
            bad = worse > metric["bound"] or (
                name != "setup_s" and share > metric["bound"])
            violations += bad
            print(f"{workload:16s} {name:18s} {ma:10.3f} {mb:10.3f} "
                  f"{worse:+8.1%} {share:7.1%} {metric['bound']:6.0%}"
                  f"{'  VIOLATION' if bad else ''}")
        records = a + b
        for key in ("plans", "exact"):
            if any(r[key] != records[0][key] for r in records):
                print(f"{workload}: '{key}' differs between runs: "
                      + " | ".join(sorted({json.dumps(r[key], sort_keys=True)
                                           for r in records})))
                violations += 1
        failed = sum(r["failed"] for r in records)
        if failed:
            print(f"{workload}: {failed} failed jobs")
            violations += 1
    print("violations:", violations)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
