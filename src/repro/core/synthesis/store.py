"""Persistent combiner store and in-process synthesis memo.

Synthesis is the expensive step (the paper reports 39-331 s per
command); a production deployment synthesizes each unique command once
and reuses the result.  This module provides two layers of reuse:

* :class:`CombinerStore` serializes synthesis outcomes to JSON keyed
  by the command's argv, giving KumQuat the combiner-database-free
  workflow of the paper *plus* PaSh-style instant reuse for commands
  seen before;
* :func:`memoized_synthesize` adds a process-wide in-memory memo on
  top, so repeated pipeline compilations within one process (REPL
  loops, benchmark sweeps, a long-lived service) skip re-synthesis
  entirely.  The memo key covers everything a synthesis run can
  observe — argv, backend, config knobs, and the command's virtual
  filesystem/environment — so a hit is guaranteed to reproduce what a
  fresh run would compute (synthesis is deterministic given its seed).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import json

from ...shell.command import Command
from ..dsl.parser import parse_combiner
from ..inputgen.preprocess import seed_synthetic_files
from .composite import CompositeCombiner
from .synthesizer import SynthesisConfig, SynthesisResult, synthesize

_SCHEMA_VERSION = 1


def result_to_dict(result: SynthesisResult) -> dict:
    return {
        "command_display": result.command_display,
        "status": result.status,
        "reason": result.reason,
        "survivors": [c.pretty() for c in result.survivors],
        "composite": ([c.pretty() for c in result.combiner.combiners]
                      if result.combiner else None),
        "search_space": list(result.search_space),
        "delims": list(result.delims),
        "rounds": result.rounds,
        "executions": result.executions,
        "observation_count": result.observation_count,
        "elapsed": result.elapsed,
        "reduction_ratio": result.reduction_ratio,
        "input_mode": result.input_mode,
        "outputs_are_streams": result.outputs_are_streams,
    }


def result_from_dict(data: dict) -> SynthesisResult:
    result = SynthesisResult(
        command_display=data["command_display"],
        status=data["status"],
        reason=data.get("reason", ""),
        survivors=[parse_combiner(s) for s in data.get("survivors", [])],
        search_space=tuple(data.get("search_space", (0, 0, 0))),
        delims=tuple(data.get("delims", ("\n",))),
        rounds=data.get("rounds", 0),
        executions=data.get("executions", 0),
        observation_count=data.get("observation_count", 0),
        elapsed=data.get("elapsed", 0.0),
        reduction_ratio=data.get("reduction_ratio", 1.0),
        input_mode=data.get("input_mode", "plain"),
        outputs_are_streams=data.get("outputs_are_streams", True),
    )
    composite = data.get("composite")
    if composite:
        result.combiner = CompositeCombiner(
            [parse_combiner(s) for s in composite])
    return result


class CombinerStore:
    """A JSON-backed map from command argv to synthesis results.

    Safe for concurrent use from multiple threads (a resident service
    compiles many pipelines against one store): lookups and updates are
    guarded by an internal lock, and :meth:`save` writes the JSON
    atomically (temp file + rename) so a reader never observes a
    half-written store.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._results: Dict[Tuple[str, ...], SynthesisResult] = {}
        self._lock = threading.RLock()
        if self.path.exists():
            self.load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def __contains__(self, key: Tuple[str, ...]) -> bool:
        with self._lock:
            return tuple(key) in self._results

    def get(self, key: Tuple[str, ...]) -> Optional[SynthesisResult]:
        with self._lock:
            return self._results.get(tuple(key))

    def put(self, key: Tuple[str, ...], result: SynthesisResult) -> None:
        with self._lock:
            self._results[tuple(key)] = result

    def as_cache(self) -> Dict[Tuple[str, ...], SynthesisResult]:
        """A mutable view usable as the ``results=`` synthesis cache."""
        return self._results

    # -- persistence ---------------------------------------------------------

    def save(self) -> None:
        with self._lock:
            payload = {
                "schema": _SCHEMA_VERSION,
                "entries": [
                    {"argv": list(key), "result": result_to_dict(res)}
                    for key, res in sorted(self._results.items())
                ],
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text(json.dumps(payload, indent=1))
            tmp.replace(self.path)

    def load(self) -> None:
        payload = json.loads(self.path.read_text())
        if payload.get("schema") != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported combiner-store schema: {payload.get('schema')}")
        with self._lock:
            self._results = {
                tuple(entry["argv"]): result_from_dict(entry["result"])
                for entry in payload["entries"]
            }


# ---------------------------------------------------------------------------
# in-process synthesis memo


#: entries kept in the in-process memo before least-recently-used
#: eviction — bounds memory in long-lived processes compiling pipelines
#: over many distinct contexts (each context hash is a distinct key; the
#: service's contexts hold side files only, so not one per dataset)
MEMO_CAPACITY = 512

_MEMO: "OrderedDict[tuple, SynthesisResult]" = OrderedDict()
_MEMO_STATS = {"hits": 0, "misses": 0}
_MEMO_LOCK = threading.Lock()


def _config_fingerprint(config: Optional[SynthesisConfig]) -> tuple:
    if config is None:
        config = SynthesisConfig()
    return tuple(sorted(dataclasses.asdict(config).items()))


def context_fingerprint(command: Command) -> int:
    """Hash of the virtual filesystem and environment the command sees.

    Synthesis probes the command as a black box, and commands like
    ``xargs cat`` read the virtual filesystem during probing — two
    commands with identical argv but different contexts may synthesize
    differently, so the context is part of the memo identity.  The memo
    is process-local, so this uses Python's built-in string hashing:
    CPython caches ``hash(str)`` on the object, making repeat
    fingerprints of an unchanged multi-megabyte dataset effectively
    free.  Callers fingerprinting several commands that share one
    context should still compute this once and pass it to
    :func:`synthesis_memo_key`.
    """
    context = command.context
    return hash((
        tuple(sorted((name, hash(contents))
                     for name, contents in context.fs.items())),
        tuple(sorted(context.env.items())),
    ))


def synthesis_memo_key(command: Command,
                       config: Optional[SynthesisConfig] = None,
                       context_fp: Optional[int] = None) -> tuple:
    # memoize sim commands by *canonical* argv: flag-spelling variants
    # (`sort -rn` / `sort -nr`, `head -5` / `head -n 5`) synthesize
    # identically, so they share one memo entry (lazy import: the
    # optimizer package pulls in the planner, which imports this
    # module).  Subprocess-backed commands keep the exact argv — their
    # semantics belong to the real binary, which may distinguish
    # spellings the sim collapses (`-k2,3` vs `-k2,5`, `-g`, ...).
    if command.backend == "sim":
        from ...optimizer.canonical import canonical_argv

        key_argv = tuple(canonical_argv(command.argv))
    else:
        key_argv = command.key()
    return (key_argv, command.backend, _config_fingerprint(config),
            context_fp if context_fp is not None
            else context_fingerprint(command))


def memoized_synthesize(
    command: Command,
    config: Optional[SynthesisConfig] = None,
    store: Optional[CombinerStore] = None,
    key: Optional[tuple] = None,
) -> SynthesisResult:
    """Synthesize with memoization: memory first, then ``store``, then run.

    A fresh result is written back to both layers, and a memory hit
    backfills a ``store`` that is missing the entry (the caller owns
    :meth:`CombinerStore.save`).  Store hits are trusted for any
    context/config: the store is the operator's explicit cross-run
    database, keyed by argv alone, exactly like the paper's
    once-per-unique-command evaluation workflow.

    Synthesis leaves probe files in the command's shared context, so a
    caller synthesizing several commands against one context should
    precompute every :func:`synthesis_memo_key` up front and pass it
    via ``key`` — fingerprinting lazily would make a stage's identity
    depend on whether earlier stages hit or missed the memo.
    """
    if key is None:
        key = synthesis_memo_key(command, config)
    # replicate the one context side effect a cold run would have: a
    # cache hit must leave the shared virtual fs in the same state as
    # the synthesis it stands in for (seeded after fingerprinting, so
    # standalone keys stay comparable with precomputed pristine keys)
    seed_synthetic_files(command.context)
    with _MEMO_LOCK:
        cached = _MEMO.get(key)
        if cached is not None:
            _MEMO_STATS["hits"] += 1
            _MEMO.move_to_end(key)
    if cached is not None:
        if store is not None and command.key() not in store:
            store.put(command.key(), cached)  # backfill a lagging store
        return cached
    if store is not None:
        prior = store.get(command.key())
        if prior is not None:
            with _MEMO_LOCK:
                _MEMO_STATS["hits"] += 1
                _memo_put(key, prior)
            return prior
    with _MEMO_LOCK:
        _MEMO_STATS["misses"] += 1
    result = synthesize(command, config)  # long-running: outside the lock
    with _MEMO_LOCK:
        _memo_put(key, result)
    if store is not None:
        store.put(command.key(), result)
    return result


def _memo_put(key: tuple, result: SynthesisResult) -> None:
    # caller holds _MEMO_LOCK
    _MEMO[key] = result
    _MEMO.move_to_end(key)
    while len(_MEMO) > MEMO_CAPACITY:
        _MEMO.popitem(last=False)


def synthesis_memo_stats() -> Dict[str, int]:
    """Hit/miss counters of the in-process memo (a copy)."""
    with _MEMO_LOCK:
        return dict(_MEMO_STATS)


def clear_synthesis_memo() -> None:
    with _MEMO_LOCK:
        _MEMO.clear()
        _MEMO_STATS["hits"] = 0
        _MEMO_STATS["misses"] = 0
