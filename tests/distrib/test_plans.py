"""Plan replication: entry round-trip, digests, and the registry."""

from __future__ import annotations

from repro.distrib import (
    ExecutorAgent,
    LocalTransport,
    NodePool,
    PlanRegistry,
    TaskBoard,
    entry_digest,
    entry_to_plan,
    plan_to_entry,
)


def stage_shapes(plan):
    """What an executor must agree with the controller on, per stage."""
    return [(s.command.argv, s.mode, s.eliminated,
             s.combiner.primary.pretty() if s.combiner else None)
            for s in plan.stages]


def _entry(pp):
    context = pp.plan.pipeline.context
    return plan_to_entry(pp.plan, context.fs, context.env)


def test_entry_round_trip_is_byte_identical(pp, serial_output):
    entry = _entry(pp)
    rebuilt = entry_to_plan(entry)
    assert rebuilt.pipeline.render() == pp.plan.pipeline.render()
    assert rebuilt.pipeline.run() == serial_output


def test_round_trip_preserves_plan_metadata(pp):
    entry = _entry(pp)
    rebuilt = entry_to_plan(entry)
    assert rebuilt.optimized == pp.plan.optimized
    assert rebuilt.scheduler == pp.plan.scheduler
    assert rebuilt.rewrites == pp.plan.rewrites
    assert rebuilt.rewrite_trace == pp.plan.rewrite_trace
    assert len(rebuilt.stages) == len(pp.plan.stages)


def test_round_trip_preserves_executed_stages(pp):
    """Chunk tasks name a stage by its index in ``plan.stages``, so an
    executor's rebuild must have the controller's executed stages —
    chain members rehydrated parallel, not as sequential strangers."""
    rebuilt = entry_to_plan(_entry(pp))
    assert [s.display() for s in pp.plan.stages] == \
        ["tr A-Z a-z | sort", "uniq -c", "sort -rn"]
    assert stage_shapes(rebuilt) == stage_shapes(pp.plan)
    assert [m.mode for m in rebuilt.commands] == ["parallel"] * 4
    assert rebuilt.eliminated == pp.plan.eliminated == 1


def test_round_trip_pins_the_sequential_decision(tiny_config):
    """Which commands run in parallel is recorded, not re-profiled: a
    rebuild over other input keeps an unprofitable rerun sequential."""
    from repro import parallelize

    text = "cat in.txt | tr -cs A-Za-z '\\n' | sort"
    pp = parallelize(text, k=2, files={"in.txt": "some words here\n" * 50},
                     rewrite=False, config=tiny_config)
    assert [s.mode for s in pp.plan.stages] == ["sequential", "parallel"]
    entry = plan_to_entry(pp.plan, {"in.txt": "\n" * 400 + "x\n"}, {})
    assert [r["argv"] for r in entry["results"]] == [["sort"]]
    assert stage_shapes(entry_to_plan(entry)) == stage_shapes(pp.plan)


def test_round_trip_of_a_repeated_command(tiny_config):
    """Entries map argv to result, so a command text has one mode per
    plan — otherwise the rebuild could not tell its occurrences apart."""
    from repro import parallelize

    data = "".join(f"line {i}\n" for i in range(4000))
    pp = parallelize("cat in.txt | topk 5 | rev | topk 5", k=2,
                     files={"in.txt": data}, rewrite=False,
                     config=tiny_config)
    rebuilt = entry_to_plan(_entry(pp))
    assert stage_shapes(rebuilt) == stage_shapes(pp.plan)
    assert rebuilt.pipeline.run() == pp.plan.pipeline.run()


def test_digest_is_stable_and_content_addressed(pp):
    entry = _entry(pp)
    assert entry_digest(entry) == entry_digest(_entry(pp))
    # a re-serialized rebuild is the same content, hence the same digest
    rebuilt = entry_to_plan(entry)
    context = rebuilt.pipeline.context
    assert entry_digest(plan_to_entry(rebuilt, context.fs, context.env)) \
        == entry_digest(entry)
    # ... and touching any content changes it
    other = dict(entry, env={**entry["env"], "X": "1"})
    assert entry_digest(other) != entry_digest(entry)


def test_registry_register_is_idempotent(pp):
    registry = PlanRegistry()
    context = pp.plan.pipeline.context
    d1 = registry.register(pp.plan, context.fs, context.env)
    d2 = registry.register(pp.plan, context.fs, context.env)
    assert d1 == d2
    assert len(registry) == 1
    assert registry.stats() == {"plans": 1, "replications": 0}


def test_registry_counts_replication_fetches(pp):
    registry = PlanRegistry()
    context = pp.plan.pipeline.context
    digest = registry.register(pp.plan, context.fs, context.env)
    assert registry.entry("no-such-digest") is None
    assert registry.fetches(digest) == 0
    assert registry.entry(digest)["pipeline"] == pp.plan.pipeline.render()
    assert registry.entry(digest) is not None
    assert registry.fetches(digest) == 2
    assert registry.fetches() == 2
    assert registry.stats() == {"plans": 1, "replications": 2}


def _register_variant(registry, pp, i):
    """Entry ``i`` of one plan: same pipeline, fresh input files."""
    context = pp.plan.pipeline.context
    return registry.register(pp.plan, {**context.fs, "fresh": str(i)},
                             context.env)


def test_registry_retains_a_bounded_lru(pp, monkeypatch):
    monkeypatch.setattr("repro.distrib.plans.MAX_RETAINED_PLANS", 2)
    registry = PlanRegistry()
    first = _register_variant(registry, pp, 1)
    second = _register_variant(registry, pp, 2)
    assert registry.entry(first) is not None     # a fetch is a use
    third = _register_variant(registry, pp, 3)
    assert len(registry) == 2
    assert registry.entry(second) is None        # least recently used
    assert registry.entry(first) is not None
    assert registry.entry(third) is not None
    # the total outlives the entries it counted
    assert registry.stats() == {"plans": 2, "replications": 3}
    assert registry.fetches(second) == 0


def test_executor_plan_cache_evicts_and_refetches_by_digest(pp, monkeypatch):
    monkeypatch.setattr("repro.distrib.executor.MAX_RETAINED_PLANS", 2)
    pool = NodePool()
    registry = PlanRegistry()
    agent = ExecutorAgent(LocalTransport(pool, TaskBoard(pool), registry))
    first, second, third = (_register_variant(registry, pp, i)
                            for i in (1, 2, 3))
    for digest in (first, second, first):
        assert agent._plan(digest).pipeline.render() \
            == pp.plan.pipeline.render()
    assert agent.plans_fetched == 2              # the repeat was a hit
    agent._plan(third)                           # evicts second, not first
    assert agent.plans_fetched == 3
    agent._plan(first)
    assert agent.plans_fetched == 3
    agent._plan(second)                          # miss: refetched
    assert agent.plans_fetched == 4
    assert registry.fetches(second) == 2
