"""PlanCache: keying, LRU, single-flight compilation, persistence."""

import threading

import pytest

from repro.core.synthesis.store import clear_synthesis_memo, \
    synthesis_memo_stats
from repro.parallel.executor import ParallelPipeline
from repro.service.cache import HIT_DISK, HIT_MEMORY, PlanCache, \
    plan_cache_key
from repro.service.protocol import JobRequest
from repro.shell import CommandError, Pipeline
from repro.unixsim import ExecContext

FILES = {"input.txt": "b\na\nb\n"}
ENV = {"IN": "input.txt"}


def _request(**overrides):
    base = dict(pipeline="cat $IN | sort | uniq", files=dict(FILES),
                env=dict(ENV), k=2)
    base.update(overrides)
    return JobRequest(**base)


def _cache(fast_config, **kwargs):
    return PlanCache(config_factory=lambda _request: fast_config, **kwargs)


def test_repeat_request_hits(fast_config):
    cache = _cache(fast_config)
    plan, hit = cache.get_or_compile(_request())
    assert not hit
    plan2, hit2 = cache.get_or_compile(_request())
    assert hit2 and plan2 is plan
    stats = cache.stats()
    assert stats.pop("compile_seconds") > 0.0
    assert stats == {"hits": 1, "misses": 1, "warm_hits": 0,
                     "entries": 1, "capacity": cache.capacity,
                     "persistent_entries": 0}


def test_runtime_knobs_share_one_plan(fast_config):
    """k / engine / data plane are not part of the plan identity."""
    cache = _cache(fast_config)
    plan, _ = cache.get_or_compile(_request(k=2, engine="serial"))
    plan2, hit = cache.get_or_compile(
        _request(k=8, engine="threads", streaming=False))
    assert hit and plan2 is plan


@pytest.mark.parametrize("overrides", [
    dict(files={"input.txt": "b\na\nb\n", "dict.txt": "a\n"}),
    dict(env={"IN": "input.txt", "EXTRA": "1"}),
    dict(pipeline="cat $IN | sort"),
    dict(optimize=False),
])
def test_distinct_identities_miss(fast_config, overrides):
    cache = _cache(fast_config)
    cache.get_or_compile(_request())
    _, hit = cache.get_or_compile(_request(**overrides))
    assert not hit
    assert cache.stats()["misses"] == 2


def _serial(request):
    context = ExecContext(fs=dict(request.files), env=dict(request.env))
    return Pipeline.from_string(request.pipeline, env=request.env,
                                context=context).run()


def _run(plan, request):
    """What the service does with a plan: bind the job's own stream."""
    return ParallelPipeline(plan, k=request.k).run(
        request.files.get(plan.pipeline.input_file))


def test_input_stream_is_not_part_of_the_identity(fast_config):
    """A plan is a function of the pipeline: fresh data is a hit, and
    the shared plan holds neither tenant's stream."""
    cache = _cache(fast_config)
    first = _request()
    second = _request(files={"input.txt": "zebra\nzebra\nyak\n"})
    plan, hit = cache.get_or_compile(first)
    plan2, hit2 = cache.get_or_compile(second)
    assert not hit and hit2 == HIT_MEMORY and plan2 is plan
    assert plan_cache_key(first) == plan_cache_key(second)
    assert "input.txt" not in plan.pipeline.context.fs
    assert _run(plan, first) == _serial(first) == "a\nb\n"
    assert _run(plan, second) == _serial(second) == "yak\nzebra\n"


@pytest.mark.parametrize("pipeline", [
    # xargs reads files named by its data, also from inside a `fused`
    "cat $IN | fused 'xargs cat' sort",
    # a later stage names the input again
    "cat $IN | sort | comm -12 - $IN",
])
def test_observable_input_keeps_per_dataset_identity(fast_config, pipeline):
    """The exception to the rule (end to end, with plain ``xargs``, in
    ``test_server.py``): such an input is a side file like any other."""
    cache = _cache(fast_config)
    side = {"a.txt": "x\ny\n", "b.txt": "b.txt\na.txt\n"}
    requests = [_request(pipeline=pipeline,
                         files={**side, "input.txt": listing})
                for listing in ("a.txt\nb.txt\n", "b.txt\n")]
    plans = [cache.get_or_compile(r) for r in requests]
    assert [hit for _plan, hit in plans] == [False, False]
    for (plan, _hit), request in zip(plans, requests):
        assert plan.pipeline.context.fs["input.txt"] \
            == request.files["input.txt"]
        assert _run(plan, request) == _serial(request)


def test_missing_input_fails_before_compiling(fast_config, monkeypatch):
    """Today's run-time message, but nothing is synthesized, selected or
    left behind for the pipeline's next tenant."""
    import repro.optimizer
    import repro.service.cache as cache_module

    def compiled(*_args, **_kwargs):
        pytest.fail("compiled a plan nobody can run")

    monkeypatch.setattr(repro.optimizer, "select_plan", compiled)
    monkeypatch.setattr(cache_module, "synthesize_pipeline", compiled)
    cache = _cache(fast_config)
    for optimize in (True, False):
        with pytest.raises(CommandError, match="input.txt: No such file"):
            cache.get_or_compile(_request(files={"dict.txt": "a\n"},
                                          optimize=optimize))
    assert len(cache) == 0 and not cache._inflight


def test_storeless_cache_synthesizes_a_command_once(fast_config):
    """The synthesis memo's context fingerprint no longer moves with
    the dataset: a second pipeline over new data re-uses ``sort``."""
    clear_synthesis_memo()
    cache = _cache(fast_config)
    cache.get_or_compile(_request(pipeline="cat $IN | sort | uniq -c"))
    before = synthesis_memo_stats()
    _plan, hit = cache.get_or_compile(_request(
        pipeline="cat $IN | sort", files={"input.txt": "fresh\ndata\n"}))
    assert not hit
    after = synthesis_memo_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]


def test_key_is_hashable_and_stable():
    key = plan_cache_key(_request())
    assert key == plan_cache_key(_request())
    assert hash(key) == hash(plan_cache_key(_request()))


def test_synthesis_knobs_change_key():
    """With the default config factory, per-request synthesis knobs are
    part of the plan identity (they change what synthesis computes)."""
    base = plan_cache_key(_request())
    assert plan_cache_key(_request(seed=77)) != base
    assert plan_cache_key(_request(max_size=5)) != base


def test_lru_eviction(fast_config):
    cache = _cache(fast_config, capacity=2)
    first = _request()
    cache.get_or_compile(first)
    cache.get_or_compile(_request(pipeline="cat $IN | sort"))
    cache.get_or_compile(_request(pipeline="cat $IN | uniq"))  # evicts first
    assert len(cache) == 2
    _, hit = cache.get_or_compile(first)
    assert not hit


def test_single_flight_compiles_once(fast_config, monkeypatch):
    cache = _cache(fast_config)
    calls = []
    barrier = threading.Barrier(4)
    original = cache._compile

    def slow_compile(request, config):
        calls.append(request.pipeline)
        return original(request, config)

    monkeypatch.setattr(cache, "_compile", slow_compile)
    results = []

    def worker():
        barrier.wait()
        results.append(cache.get_or_compile(_request()))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    plans = {id(plan) for plan, _hit in results}
    assert len(plans) == 1
    assert sum(1 for _plan, hit in results if not hit) == 1


def test_failed_compile_releases_single_flight(fast_config, monkeypatch):
    """A compile error must not leave a permanent per-key lock behind."""
    cache = _cache(fast_config)
    original = cache._compile
    boom = {"raise": True}

    def flaky_compile(request, config):
        if boom["raise"]:
            raise RuntimeError("synthesis exploded")
        return original(request, config)

    monkeypatch.setattr(cache, "_compile", flaky_compile)
    with pytest.raises(RuntimeError, match="exploded"):
        cache.get_or_compile(_request())
    assert not cache._inflight, "inflight lock leaked"
    assert cache.stats()["misses"] == 1
    boom["raise"] = False
    _plan, hit = cache.get_or_compile(_request())  # key is retryable
    assert not hit
    assert not cache._inflight


def test_clear(fast_config):
    cache = _cache(fast_config)
    cache.get_or_compile(_request())
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["hits"] == 0


# ---------------------------------------------------------------------------
# persistence: the snapshot survives a "daemon restart" (a fresh cache
# on the same path) and serves previously compiled plans warm


def test_persistence_round_trip(fast_config, tmp_path):
    path = tmp_path / "plans.json"
    cache = _cache(fast_config, path=path)
    plan, hit = cache.get_or_compile(_request())
    assert not hit
    assert cache.stats()["persistent_entries"] == 1
    cache.save()
    assert path.exists()

    reborn = _cache(fast_config, path=path)  # the "restarted daemon"
    warm_plan, warm_hit = cache_hit = reborn.get_or_compile(_request())
    assert warm_hit == HIT_DISK, cache_hit
    stats = reborn.stats()
    assert stats["warm_hits"] == 1
    assert stats["misses"] == 0, "warm hit must not count as a recompile"
    # the rehydrated plan is executable and byte-identical
    assert _run(warm_plan, _request()) == _run(plan, _request()) \
        == _serial(_request())
    # and a repeat is now an ordinary in-memory hit
    _, again = reborn.get_or_compile(_request())
    assert again == HIT_MEMORY


def test_snapshot_is_bounded_by_capacity(fast_config, tmp_path):
    """Fresh-input traffic must not grow the snapshot (and the file
    ``save`` rewrites) without limit: oldest entry out first, a warm
    hit refreshes its entry."""
    path = tmp_path / "plans.json"
    cache = _cache(fast_config, path=path, capacity=2)
    requests = [_request(files={**FILES, "dict.txt": f"{i}\n"})
                for i in range(4)]
    for request in requests[:3]:
        cache.get_or_compile(request)
    assert cache.stats()["persistent_entries"] == 2
    cache.save()

    reborn = _cache(fast_config, path=path, capacity=2)
    assert reborn.stats()["persistent_entries"] == 2
    _, hit = reborn.get_or_compile(requests[1])   # refreshes entry 1
    assert hit == HIT_DISK
    reborn.get_or_compile(requests[3])            # evicts entry 2, not 1
    assert reborn.stats()["persistent_entries"] == 2
    reborn.save()
    third = _cache(fast_config, path=path, capacity=2)
    assert third.get_or_compile(requests[1])[1] == HIT_DISK
    assert not third.get_or_compile(requests[2])[1]
    assert not third.get_or_compile(requests[0])[1]


def test_snapshot_holds_no_input_and_serves_new_data_warm(fast_config,
                                                          tmp_path):
    path = tmp_path / "plans.json"
    cache = _cache(fast_config, path=path)
    marker = "only-in-the-first-tenants-stream"
    cache.get_or_compile(_request(files={"input.txt": f"b\n{marker}\n"}))
    cache.save()
    assert marker not in path.read_text()

    reborn = _cache(fast_config, path=path)
    fresh = _request(files={"input.txt": "never\nseen\nnever\n"})
    plan, hit = reborn.get_or_compile(fresh)
    assert hit == HIT_DISK
    assert _run(plan, fresh) == _serial(fresh)


def test_persistence_skips_oversized_plans(fast_config, tmp_path):
    """The size gate measures what the snapshot would embed — the side
    files — not the stream the plan happened to be compiled on."""
    cache = _cache(fast_config, path=tmp_path / "plans.json",
                   max_persist_bytes=64)
    cache.get_or_compile(_request(files={"input.txt": "b\na\n" * 100}))
    assert cache.stats()["persistent_entries"] == 1
    cache.get_or_compile(_request(
        pipeline="cat $IN | sort | comm -23 - dict.txt",
        files={**FILES, "dict.txt": "a\n" * 100}))
    assert cache.stats()["persistent_entries"] == 1


def test_stale_snapshot_falls_back_to_compile(fast_config, tmp_path):
    path = tmp_path / "plans.json"
    cache = _cache(fast_config, path=path)
    cache.get_or_compile(_request())
    # corrupt every snapshot entry: rehydration must fail closed into
    # an ordinary cold compile, never a failed job
    for entry in cache._snapshot.values():
        entry["pipeline"] = "definitely | not || a pipeline |"
    cache.save()
    reborn = _cache(fast_config, path=path)
    plan, hit = reborn.get_or_compile(_request())
    assert not hit and plan is not None
    assert reborn.stats()["misses"] == 1


def test_unsupported_snapshot_schema_rejected(fast_config, tmp_path):
    path = tmp_path / "plans.json"
    path.write_text('{"schema": 999, "entries": {}}')
    with pytest.raises(ValueError, match="schema"):
        _cache(fast_config, path=path)
