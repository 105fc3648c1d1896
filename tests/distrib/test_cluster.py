"""End-to-end LocalCluster runs: byte identity under failures.

The in-process cluster is the real distributed runtime (board, leases,
plan replication, eviction) minus the network, so these are the
integration tests for the whole ``repro.distrib`` stack.
"""

from __future__ import annotations

import time

from repro.distrib import DISTRIBUTED, LocalCluster
from repro.distrib.executor import TransportError
from repro.parallel import BARRIER, FaultPolicy

from .conftest import make_data


def test_two_node_run_is_byte_identical(pp, serial_output):
    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64) as cluster:
        assert cluster.run_plan(pp.plan) == serial_output
        stats = cluster.last_stats
    assert stats.engine == DISTRIBUTED
    assert stats.data_plane == BARRIER
    assert stats.distrib is not None
    assert stats.distrib.nodes == 2
    assert stats.distrib.tasks > 0
    assert stats.distrib.failures == 0
    # both executors replicated the plan exactly once
    assert stats.distrib.plan_replications == 2
    assert len(cluster.registry) == 1


def test_one_pipeline_over_many_datasets_replicates_one_plan(tiny_config):
    """The service's plans hold no input stream, so the registry entry
    of a pipeline is the same for every dataset: each executor fetches
    it once, however many datasets the pipeline runs over."""
    from repro.service.cache import PlanCache
    from repro.service.protocol import JobRequest
    from repro.shell import Pipeline
    from repro.unixsim import ExecContext

    from .conftest import TEXT

    cache = PlanCache(config_factory=lambda _request: tiny_config)
    datasets = [make_data(3000 + 400 * i) for i in range(4)]
    replications = 0
    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64) as cluster:
        for data in datasets:
            plan, _hit = cache.get_or_compile(
                JobRequest(pipeline=TEXT, files={"in.txt": data}))
            serial = Pipeline.from_string(
                TEXT, context=ExecContext(fs={"in.txt": data})).run()
            assert cluster.run_plan(plan, data) == serial
            replications += cluster.last_stats.distrib.plan_replications
        (entry,) = cluster.registry._entries.values()
    assert cache.stats()["misses"] == 1
    assert replications == cluster.registry.fetches() == 2
    assert "in.txt" not in entry["files"]
    assert not any(data in contents for data in datasets
                   for contents in entry["files"].values())


def test_eliminated_member_is_neither_a_task_nor_shipped(pp, serial_output,
                                                         tiny_config):
    """``tr A-Z a-z`` is eliminated into ``sort``: the two run as one
    task per chunk on the executor, so against the one-stage-per-command
    plan the job loses that stage's tasks and one whole copy of the
    input in each direction (shipped is 2x the input, not 3x)."""
    from repro import parallelize

    from .conftest import TEXT

    data = make_data()
    unchained = parallelize(TEXT, k=4, files={"in.txt": data}, rewrite=False,
                            optimize=False, config=tiny_config)
    assert [s.display() for s in pp.plan.stages] == \
        ["tr A-Z a-z | sort", "uniq -c", "sort -rn"]
    assert len(unchained.plan.stages) == 4
    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64) as cluster:
        assert cluster.run_plan(pp.plan) == serial_output
        chained = cluster.last_stats
        assert cluster.run_plan(unchained.plan) == serial_output
        plain = cluster.last_stats
    per_stage = chained.stages[0].chunks
    assert [s.chunks for s in plain.stages][:2] == [per_stage, per_stage]
    assert chained.distrib.tasks == plain.distrib.tasks - per_stage
    assert chained.distrib.bytes_shipped == \
        plain.distrib.bytes_shipped - len(data)
    assert chained.distrib.bytes_returned == \
        plain.distrib.bytes_returned - len(data)
    assert 2 * len(data) <= chained.distrib.bytes_shipped < 2.1 * len(data)
    assert [s.display for s in chained.stages] == \
        [s.display() for s in pp.plan.stages]


def test_stats_round_trip_through_dict(pp):
    from repro.parallel import RunStats, run_stats_from_dict

    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64) as cluster:
        cluster.run_plan(pp.plan)
        stats = cluster.last_stats
    data = stats.to_dict()
    assert data["distrib"]["nodes"] == 2
    restored = run_stats_from_dict(data)
    assert isinstance(restored, RunStats)
    assert restored.distrib.tasks == stats.distrib.tasks
    assert restored.distrib.plan_replications == 2


def test_plan_replicated_once_across_repeat_runs(pp, serial_output):
    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64) as cluster:
        assert cluster.run_plan(pp.plan) == serial_output
        assert cluster.last_stats.distrib.plan_replications == 2
        assert cluster.run_plan(pp.plan) == serial_output
        # executors cache by digest: steady state fetches nothing
        assert cluster.last_stats.distrib.plan_replications == 0


def test_node_kill_mid_run_reassigns_and_stays_identical(pp, serial_output):
    policy = FaultPolicy(node_kill={0: 1})   # node 0 dies after one task
    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64,
                      heartbeat_timeout=0.2, fault_policy=policy,
                      stage_timeout=60.0) as cluster:
        assert cluster.run_plan(pp.plan) == serial_output
        stats = cluster.last_stats
    assert policy.injected_node_kills == 1
    assert stats.distrib.evictions >= 1
    assert stats.distrib.reassignments >= 1


def test_chunk_kill_consumes_retries_not_correctness(pp, serial_output):
    policy = FaultPolicy(kill={(1, 0): 1})
    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64,
                      fault_policy=policy) as cluster:
        assert cluster.run_plan(pp.plan) == serial_output
        stats = cluster.last_stats
    assert policy.injected_kills == 1
    assert stats.distrib.retries == 1
    assert stats.distrib.failures == 1


def test_lost_result_post_is_resent(pp, serial_output):
    """The node that lost a result keeps pulling, so its lease never
    expires and nobody else retries the task: the agent itself must
    re-send the completion instead of stalling the stage."""
    cluster = LocalCluster(nodes=2, k=2, min_chunk_bytes=64,
                           stage_timeout=20.0)
    deliver = cluster.transport.complete
    posts = []

    def flaky_complete(*args, **kwargs):
        posts.append(args)
        if len(posts) == 1:
            raise TransportError("connection reset before the reply")
        return deliver(*args, **kwargs)

    cluster.transport.complete = flaky_complete
    start = time.monotonic()
    with cluster:
        assert cluster.run_plan(pp.plan) == serial_output
        stats = cluster.last_stats
    assert time.monotonic() - start < 10.0   # well inside the stage timeout
    assert stats.distrib.failures == 0
    assert sum(agent.tasks_errored for agent in cluster.agents) == 0


def test_single_node_cluster_still_exact(pp, serial_output):
    with LocalCluster(nodes=1, k=2, min_chunk_bytes=64) as cluster:
        assert cluster.run_plan(pp.plan) == serial_output
        assert cluster.last_stats.distrib.nodes == 1


def test_explicit_data_overrides_plan_input(tiny_config):
    from repro import parallelize

    pp2 = parallelize("cat in.txt | sort", k=2,
                      files={"in.txt": "b\na\n"}, rewrite=False,
                      config=tiny_config)
    override = make_data(200)
    expected = pp2.plan.pipeline.run(override)
    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64) as cluster:
        assert cluster.run_plan(pp2.plan, override) == expected


def test_empty_input_distributes_to_the_empty_output(tiny_config):
    from repro import parallelize

    pp2 = parallelize("cat in.txt | sort | uniq", k=2,
                      files={"in.txt": ""}, rewrite=False,
                      config=tiny_config)
    expected = pp2.plan.pipeline.run()
    with LocalCluster(nodes=2, k=2, min_chunk_bytes=64) as cluster:
        assert cluster.run_plan(pp2.plan) == expected
