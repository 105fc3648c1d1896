"""The service's distributed control plane over HTTP.

Covers the executor-node protocol routes, the ``distribute`` job path
(byte-identical output computed by remote executors), the local
fallback when no nodes joined, and the surfaced counters in
``/v1/status`` and ``/metrics``.
"""

from __future__ import annotations

import threading

import pytest

from repro.distrib import ExecutorAgent, HttpTransport
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.shell.pipeline import Pipeline
from repro.unixsim import ExecContext

PIPELINE = "cat in.txt | tr A-Z a-z | sort | uniq -c"
#: big enough that the service-side shard planner (default 8 KiB
#: minimum chunk) splits every parallel stage across both executors
FILES = {"in.txt": "".join(f"Word {i % 7}\n" for i in range(8000))}


def _serial(pipeline=PIPELINE, files=FILES):
    context = ExecContext(fs=dict(files), env={})
    return Pipeline.from_string(pipeline, context=context).run()


@pytest.fixture()
def cluster_service(service):
    """The HTTP service plus two executor agents joined over HTTP."""
    client = ServiceClient(service.url, client_id="nodes")
    stop = threading.Event()
    agents = [ExecutorAgent(HttpTransport(client), capacity=2,
                            poll_wait=0.05) for _ in range(2)]
    threads = []
    for i, agent in enumerate(agents):
        agent.register()
        thread = threading.Thread(target=agent.run, args=(stop,),
                                  name=f"test-executor-{i}", daemon=True)
        thread.start()
        threads.append(thread)
    yield service, agents
    stop.set()
    service.board.close()
    for thread in threads:
        thread.join(timeout=5.0)


def test_distribute_job_runs_on_executors(cluster_service):
    service, agents = cluster_service
    client = ServiceClient(service.url, client_id="tenant")
    result = client.run(PIPELINE, files=dict(FILES), k=2, distribute=True)
    assert result.status == "done"
    assert result.output == _serial()
    assert result.stats.distrib is not None
    assert result.stats.distrib.nodes == 2
    assert result.stats.distrib.tasks > 0
    assert sum(a.tasks_run for a in agents) == result.stats.distrib.tasks

    status = client.status()["distrib"]
    assert status["jobs_distributed"] == 1
    assert status["distrib_fallbacks"] == 0
    assert status["tasks"] == result.stats.distrib.tasks
    assert status["nodes"]["live"] == 2
    assert status["plans"]["plans"] == 1
    metrics = client.metrics()
    assert "repro_distrib_jobs 1" in metrics
    assert "repro_nodes_live 2" in metrics


def test_one_pipeline_over_many_datasets_replicates_one_plan(
        cluster_service):
    """Four datasets, one pipeline, two nodes: one plan entry holding
    no input, fetched once per node (it was one entry and two fetches
    per dataset), and every job gets its own bytes."""
    service, _agents = cluster_service
    client = ServiceClient(service.url, client_id="tenant")
    datasets = [{"in.txt": "".join(f"Word {(i * d) % 11}\n"
                                   for i in range(8000))}
                for d in range(1, 5)]
    results = [client.run(PIPELINE, files=files, k=2, distribute=True)
               for files in datasets]
    assert [r.plan_cache for r in results] == ["miss", "hit", "hit", "hit"]
    assert [r.output for r in results] \
        == [_serial(files=files) for files in datasets]
    assert all(r.stats.distrib.tasks > 0 for r in results)
    assert sum(r.stats.distrib.plan_replications for r in results) == 2
    status = client.status()["distrib"]
    assert status["plan_replications"] == 2
    assert status["plans"] == {"plans": 1, "replications": 2}
    (entry,) = service.plan_registry._entries.values()
    assert "in.txt" not in entry["files"]


def test_distributed_xargs_ships_its_files_in_the_entry(cluster_service):
    """``xargs`` reads files named by its data, so the input and the
    files it lists stay in the plan — and travel to the executors."""
    service, _agents = cluster_service
    pipeline = "cat in.txt | xargs cat | sort"
    files = {"in.txt": "a.txt\nb.txt\n" * 100,
             "a.txt": "Word 1\nword 2\n", "b.txt": "WORD 1\n"}
    client = ServiceClient(service.url, client_id="tenant")
    result = client.run(pipeline, files=dict(files), k=2, distribute=True)
    assert result.status == "done", result.error
    assert result.output == _serial(pipeline, files)
    assert result.stats.distrib.tasks > 0
    (entry,) = service.plan_registry._entries.values()
    assert {name: entry["files"][name] for name in files} == files


def test_distribute_falls_back_without_nodes(service):
    client = ServiceClient(service.url, client_id="tenant")
    result = client.run(PIPELINE, files=dict(FILES), k=2, distribute=True)
    assert result.status == "done"
    assert result.output == _serial()
    status = client.status()["distrib"]
    assert status["jobs_distributed"] == 0
    assert status["distrib_fallbacks"] == 1


def test_node_protocol_routes(service):
    client = ServiceClient(service.url, client_id="proto")
    joined = client.register_node(capacity=3)
    assert joined["ordinal"] == 0
    assert joined["heartbeat_timeout"] == \
        pytest.approx(service.config.heartbeat_timeout)
    node_id = joined["node_id"]
    assert client.node_heartbeat(node_id)
    assert client.node_pull(node_id, max_tasks=1, wait=0.0) == {"tasks": []}
    listing = client.nodes()
    assert len(listing) == 1
    assert listing[0]["node_id"] == node_id
    assert listing[0]["state"] == "live"
    # rejoining under the same id revives the same membership record
    assert client.register_node(node_id=node_id)["ordinal"] == 0


def test_malformed_node_posts_are_400_not_dropped_connections(service):
    client = ServiceClient(service.url, client_id="proto")
    node_id = client.register_node()["node_id"]
    for path, body in ((f"/v1/nodes/{node_id}/pull", {"wait": "soon"}),
                       ("/v1/nodes/register", {"capacity": "two"})):
        status, data = client._request("POST", path, body=body)
        assert status == 400, (path, status, data)
        assert data["error"]
    # the handler thread survived: the node can still pull
    assert client.node_pull(node_id, wait=0.0) == {"tasks": []}


def test_evicted_node_is_told_to_reregister(service):
    client = ServiceClient(service.url, client_id="proto")
    node_id = client.register_node()["node_id"]
    service.node_pool.mark_dead(node_id)
    assert client.node_pull(node_id) == {"reregister": True}
    assert not client.node_heartbeat(node_id)


def test_plan_fetch_unknown_digest_is_404(service):
    client = ServiceClient(service.url, client_id="proto")
    with pytest.raises(ServiceUnavailable) as exc:
        client.plan_entry("0" * 64)
    assert exc.value.code == 404


@pytest.fixture()
def quick_evict_service(fast_config):
    """A daemon whose dead executors are evicted fast (test speed)."""
    from repro.service.server import ReproService, ServiceConfig

    svc = ReproService(ServiceConfig(
        concurrency=4, heartbeat_timeout=0.3,
        config_factory=lambda _request: fast_config))
    svc.start_http()
    yield svc
    svc.stop()


def test_node_kill_over_http_stays_byte_identical(quick_evict_service):
    """An executor that dies mid-job is evicted; its leases finish on
    the survivor and the output still matches the serial run."""
    from repro.parallel import FaultPolicy

    service = quick_evict_service
    client = ServiceClient(service.url, client_id="nodes")
    stop = threading.Event()
    policy = FaultPolicy()
    doomed = ExecutorAgent(HttpTransport(client), capacity=2,
                           fault_policy=policy, poll_wait=0.05)
    survivor = ExecutorAgent(HttpTransport(client), capacity=2,
                             poll_wait=0.05)
    doomed.register()
    policy.node_kill = {doomed.ordinal: 1}   # dies after one task
    survivor.register()
    threads = [threading.Thread(target=a.run, args=(stop,), daemon=True)
               for a in (doomed, survivor)]
    for thread in threads:
        thread.start()
    try:
        tenant = ServiceClient(service.url, client_id="tenant")
        result = tenant.run(PIPELINE, files=dict(FILES), k=2,
                            distribute=True, timeout=60.0)
        assert result.status == "done"
        assert result.output == _serial()
        assert policy.injected_node_kills == 1
        status = tenant.status()["distrib"]
        assert status["evictions"] >= 1
        assert status["reassignments"] >= 1
    finally:
        stop.set()
        service.board.close()
        for thread in threads:
            thread.join(timeout=5.0)
