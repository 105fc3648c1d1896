"""PlanCache: keying, LRU, single-flight compilation, persistence."""

import threading

import pytest

from repro.parallel.executor import ParallelPipeline
from repro.service.cache import HIT_DISK, HIT_MEMORY, PlanCache, \
    plan_cache_key
from repro.service.protocol import JobRequest

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
    assert cache.stats() == {"hits": 1, "misses": 1, "warm_hits": 0,
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
    dict(files={"input.txt": "different\n"}),
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
    out = ParallelPipeline(warm_plan, k=2).run()
    assert out == ParallelPipeline(plan, k=2).run()
    # and a repeat is now an ordinary in-memory hit
    _, again = reborn.get_or_compile(_request())
    assert again == HIT_MEMORY


def test_snapshot_is_bounded_by_capacity(fast_config, tmp_path):
    """Fresh-input traffic must not grow the snapshot (and the file
    ``save`` rewrites) without limit: oldest entry out first, a warm
    hit refreshes its entry."""
    path = tmp_path / "plans.json"
    cache = _cache(fast_config, path=path, capacity=2)
    requests = [_request(files={"input.txt": f"{i}\nb\na\n"})
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


def test_persistence_skips_oversized_requests(fast_config, tmp_path):
    cache = _cache(fast_config, path=tmp_path / "plans.json",
                   max_persist_bytes=8)
    cache.get_or_compile(_request())
    assert cache.stats()["persistent_entries"] == 0


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
