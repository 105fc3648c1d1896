"""Synthesis sweep over every unique benchmark command.

Regenerates the paper's synthesis-side artifacts:

* **Table 10** — per-command search-space size, synthesis time, and
  the set of synthesized plausible combiners;
* **Table 8** — the histogram of synthesized combiners;
* **Table 9** — the unsupported commands and the failure reason;
* the section 4 summary (commands synthesized / total).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.dsl.ast import (
    Add,
    Back,
    Concat,
    First,
    Fuse,
    Merge,
    Offset,
    Rerun,
    Second,
    Stitch,
    Stitch2,
)
from ..core.synthesis.composite import select_priority_class
from ..core.synthesis.synthesizer import SynthesisConfig, SynthesisResult, synthesize
from ..shell.pipeline import Pipeline
from ..workloads.runner import SynthCache, build_context
from ..workloads.scripts import ALL_SCRIPTS, BenchmarkScript
from .reporting import render_table


def sweep_commands(scripts: Optional[List[BenchmarkScript]] = None,
                   config: Optional[SynthesisConfig] = None,
                   scale: int = 40, seed: int = 3) -> SynthCache:
    """Synthesize a combiner for every unique command in the suites."""
    scripts = scripts if scripts is not None else ALL_SCRIPTS
    cache: SynthCache = {}
    for script in scripts:
        context = build_context(script, scale=scale, seed=seed)
        for sp in script.pipelines:
            pipeline = Pipeline.from_string(sp.text, env=script.env,
                                            context=context)
            for cmd in pipeline.commands:
                if cmd.key() not in cache:
                    cache[cmd.key()] = synthesize(cmd, config)
            # execute so chained intermediate files exist for later
            # pipelines of the same script (e.g. comm -23 - g2.txt)
            out = pipeline.run()
            if sp.output_file is not None:
                context.fs[sp.output_file] = out
    return cache


def _bucket(op) -> str:
    if isinstance(op, Concat):
        return "concat"
    if isinstance(op, Rerun):
        return "rerun"
    if isinstance(op, Merge):
        return "merge"
    if isinstance(op, Back) and isinstance(op.child, Add):
        return "back-add"
    if isinstance(op, (First, Second)):
        return "first/second"
    if isinstance(op, Fuse):
        return "fuse"
    if isinstance(op, Stitch):
        return "stitch"
    if isinstance(op, Stitch2):
        return "stitch2"
    if isinstance(op, Offset):
        return "offset"
    return op.pretty()


def plausible_buckets(result: SynthesisResult) -> List[str]:
    """Distinct combiner buckets among the composite's members.

    The paper's Table 8 tallies how often each combiner (and its
    equivalents) appears as synthesized-plausible; we tally the members
    of the priority class the composite is built from.
    """
    if not result.ok:
        return []
    return sorted({_bucket(c.op)
                   for c in select_priority_class(result.survivors)})


def classify_combiner(result: SynthesisResult) -> str:
    """Bucket a synthesis result for the Table 8 histogram."""
    if not result.ok or result.combiner is None:
        return "none"
    op = result.combiner.primary.op
    if isinstance(op, Concat):
        return "concat"
    if isinstance(op, Rerun):
        return "rerun"
    if isinstance(op, Merge):
        return "merge"
    if isinstance(op, Back) and isinstance(op.child, Add):
        return "back-add"
    if isinstance(op, (First, Second)):
        return "first/second"
    if isinstance(op, Fuse):
        return "fuse"
    if isinstance(op, Stitch):
        return "stitch"
    if isinstance(op, Stitch2):
        return "stitch2"
    if isinstance(op, Offset):
        return "offset"
    return op.pretty()


@dataclass
class SweepSummary:
    total_commands: int
    synthesized: int
    unsupported: int
    histogram: Counter = field(default_factory=Counter)
    times: List[float] = field(default_factory=list)
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def median_time(self) -> float:
        if not self.times:
            return 0.0
        ts = sorted(self.times)
        return ts[len(ts) // 2]


def summarize(cache: SynthCache) -> SweepSummary:
    results = list(cache.values())
    ok = [r for r in results if r.ok]
    summary = SweepSummary(
        total_commands=len(results),
        synthesized=len(ok),
        unsupported=len(results) - len(ok),
    )
    for r in results:
        if r.ok:
            for bucket in plausible_buckets(r):
                summary.histogram[bucket] += 1
            summary.times.append(r.elapsed)
        else:
            summary.failures.append((r.command_display, r.status))
    return summary


def table8(cache: SynthCache) -> str:
    summary = summarize(cache)
    rows = [(count, name) for name, count in summary.histogram.most_common()]
    return render_table(("Count", "Synthesized plausible combiner"), rows,
                        title="Table 8: combiners synthesized across benchmarks")


def table9(cache: SynthCache) -> str:
    summary = summarize(cache)
    rows = sorted(summary.failures)
    return render_table(("Command", "Reason unsupported"), rows,
                        title="Table 9: unsupported commands")


def table10(cache: SynthCache) -> str:
    rows = []
    for key, r in sorted(cache.items()):
        rec, struct, run = r.search_space
        space = f"{rec + struct + run} (={rec}+{struct}+{run})"
        plaus = "; ".join(r.pretty_survivors()[:4]) if r.ok else f"<{r.status}>"
        rows.append((r.command_display[:44], space, f"{r.elapsed:.2f}s",
                     len(r.survivors), plaus[:60]))
    return render_table(
        ("Command", "Search space", "Time", "#P", "Synthesized plausible"),
        rows, title="Table 10: per-command synthesis results")
