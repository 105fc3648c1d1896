"""End-to-end daemon tests over the HTTP API.

The acceptance test of the subsystem: N >= 8 concurrent jobs submitted
through the service return byte-identical output to one-shot runs of
the same pipelines, repeat submissions hit the shared plan cache
(observed via the status endpoint), and shutdown leaves no worker
threads behind.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import ValidationError
from repro.service.server import ReproService, ServiceConfig
from repro.shell import Pipeline
from repro.unixsim import ExecContext

PIPELINES = [
    "cat $IN | sort",
    "cat $IN | sort | uniq -c",
    "cat $IN | tr a-z A-Z | sort",
    "cat $IN | grep a | sort | uniq",
]

FILES = {"input.txt": "b\na\nc\na\nb\nabc\ncab\n"}
ENV = {"IN": "input.txt"}


def _serial(pipeline: str, files=FILES) -> str:
    context = ExecContext(fs=dict(files), env=dict(ENV))
    return Pipeline.from_string(pipeline, env=ENV, context=context).run()


def _assert_no_new_threads(before, timeout=3.0):
    """HTTP handler threads are daemons that die with their connection;
    give them a moment before declaring a leak."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        leftovers = [t.name for t in threading.enumerate()
                     if t.ident not in before and t.is_alive()]
        if not leftovers:
            return
        time.sleep(0.05)
    raise AssertionError(f"threads leaked past shutdown: {leftovers}")


def test_concurrent_jobs_byte_identical_with_cache_and_clean_shutdown(
        fast_config):
    """The subsystem's acceptance criteria, in one scenario."""
    before = {t.ident for t in threading.enumerate()}
    service = ReproService(ServiceConfig(
        concurrency=4, config_factory=lambda _request: fast_config))
    service.start_http()
    url = service.url

    jobs = [(f"tenant-{i % 4}", PIPELINES[i % len(PIPELINES)])
            for i in range(8)]
    outputs: dict = {}

    def tenant(index: int, client_id: str, pipeline: str) -> None:
        client = ServiceClient(url, client_id=client_id)
        result = client.run(pipeline, files=FILES, env=ENV, k=3,
                            engine="threads")
        outputs[index] = result

    threads = [threading.Thread(target=tenant, args=(i, cid, pipe))
               for i, (cid, pipe) in enumerate(jobs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # byte-identical to the one-shot serial reference, every job
    assert len(outputs) == 8
    for i, (_cid, pipeline) in enumerate(jobs):
        assert outputs[i].status == "done", outputs[i].error
        assert outputs[i].output == _serial(pipeline), pipeline

    # each distinct pipeline compiled once; repeats hit the plan cache
    status = ServiceClient(url).status()
    assert status["plan_cache"]["misses"] == len(PIPELINES)
    assert status["plan_cache"]["hits"] == len(jobs) - len(PIPELINES)
    assert status["jobs"]["done"] == 8
    assert status["jobs"]["failed"] == 0
    cache_states = {outputs[i].plan_cache for i in outputs}
    assert cache_states == {"hit", "miss"}

    # clean shutdown: every service thread joined
    assert service.stop(timeout=10)
    _assert_no_new_threads(before)


def _run_all(url, jobs):
    """Admit every ``(pipeline, files, knobs)`` job before waiting for
    any, so they queue and run concurrently; results in job order."""
    clients = [ServiceClient(url, client_id=f"tenant-{i % 4}")
               for i in range(len(jobs))]
    job_ids = [client.submit(pipeline, files=files, env=ENV, **knobs)
               for client, (pipeline, files, knobs) in zip(clients, jobs)]
    return [client.wait(job_id, timeout=120)
            for client, job_id in zip(clients, job_ids)]


def test_one_plan_serves_every_dataset_and_leaks_none(service):
    """A plan is a function of the pipeline: 16 concurrent jobs of one
    pipeline over 16 distinct streams share one compile under every
    engine and data plane, and each gets its own bytes back."""
    pipeline = PIPELINES[1]
    inputs = [{"input.txt": "".join(f"w{(i * j) % 7} t{i}\n"
                                    for j in range(200))}
              for i in range(16)]
    expected = [_serial(pipeline, files) for files in inputs]
    assert len(set(expected)) == 16
    for engine in ("serial", "threads", "processes"):
        for streaming in (True, False):
            knobs = dict(k=2, engine=engine, streaming=streaming)
            results = _run_all(service.url, [(pipeline, files, knobs)
                                             for files in inputs])
            assert [r.error for r in results] == [None] * 16
            assert [r.output for r in results] == expected, knobs
    stats = service.plan_cache.stats()
    assert stats["misses"] == 1 and stats["entries"] == 1
    assert stats["hits"] == 6 * 16 - 1


def test_side_files_split_plans_streams_do_not(service):
    pipeline = "cat $IN | sort | comm -23 - dict.txt"
    jobs = [{"input.txt": "b\na\nc\n", "dict.txt": "a\n"},
            {"input.txt": "b\na\nc\n", "dict.txt": "b\nc\n"},
            {"input.txt": "d\na\n", "dict.txt": "a\n"}]
    client = ServiceClient(service.url)
    results = [client.run(pipeline, files=files, env=ENV, k=2)
               for files in jobs]
    assert [r.plan_cache for r in results] == ["miss", "miss", "hit"]
    assert [r.output for r in results] \
        == [_serial(pipeline, files) for files in jobs] \
        == ["b\nc\n", "a\n", "d\n"]
    assert service.plan_cache.stats()["entries"] == 2


@pytest.mark.parametrize("pipeline", [
    "cat $IN | xargs cat | sort",         # the poets/1_1.sh shape
    "cat $IN | sort | comm -12 - $IN",    # a later stage names $IN
])
@pytest.mark.parametrize("engine", ["serial", "processes"])
def test_observable_input_stays_per_dataset_and_byte_correct(
        service, pipeline, engine):
    """Where the pipeline can reach its input other than as the stream
    (xargs reads files named by its data; an argument re-names it), the
    input stays in the plan's identity and context, as before."""
    side = {"a.txt": "x\ny\nx\n", "b.txt": "b.txt\na.txt\n"}
    jobs = [{**side, "input.txt": listing}
            for listing in ("a.txt\nb.txt\n", "b.txt\n", "a.txt\nb.txt\n")]
    client = ServiceClient(service.url)
    results = [client.run(pipeline, files=files, env=ENV, k=2, engine=engine)
               for files in jobs]
    assert [r.error for r in results] == [None] * 3
    assert [r.plan_cache for r in results] == ["miss", "miss", "hit"]
    assert [r.output for r in results] \
        == [_serial(pipeline, files) for files in jobs]


def test_process_runner_is_reused_across_datasets(service):
    """The process-pool key is the plan's context — side files — so two
    datasets of one pipeline warm one pool (it was one pool each)."""
    client = ServiceClient(service.url)
    for text in ("b\na\nb\n", "z\ny\nz\nx\n"):
        files = {"input.txt": text}
        result = client.run(PIPELINES[1], files=files, env=ENV, k=2,
                            engine="processes")
        assert result.output == _serial(PIPELINES[1], files)
    assert service.runner_pool.created == 1
    assert service.runner_pool.reused == 1


def test_submit_and_wait_roundtrip(service, fast_config):
    client = ServiceClient(service.url, client_id="alice")
    assert client.wait_until_healthy(timeout=5)
    result = client.run(PIPELINES[1], files=FILES, env=ENV, k=2)
    assert result.output == _serial(PIPELINES[1])
    assert result.stats is not None
    assert result.stats.data_plane == "streaming"
    assert result.stats.k == 2
    assert result.plan_cache == "miss"
    assert result.wait_seconds >= 0.0
    assert result.run_seconds >= 0.0


def test_barrier_plane_via_service(service):
    client = ServiceClient(service.url)
    result = client.run(PIPELINES[0], files=FILES, env=ENV, k=2,
                        streaming=False)
    assert result.output == _serial(PIPELINES[0])
    assert result.stats.data_plane == "barrier"


def test_invalid_pipeline_rejected_at_submit(service):
    client = ServiceClient(service.url)
    with pytest.raises(ValidationError, match="invalid pipeline"):
        client.submit("cat $IN | not-a-real-command", files=FILES, env=ENV)
    # nothing was admitted
    assert client.status()["jobs"]["submitted"] == 0


def test_failing_job_reports_error(service):
    client = ServiceClient(service.url)
    # valid commands, but the input file is missing at run time
    result = client.run("cat missing.txt | sort", files={}, env={})
    assert result.status == "failed"
    assert "missing.txt" in result.error
    assert client.status()["jobs"]["failed"] == 1


def test_unknown_job_404(service):
    client = ServiceClient(service.url)
    with pytest.raises(ServiceUnavailable) as exc:
        client.result("deadbeef")
    assert exc.value.code == 404


def test_output_elision(service):
    client = ServiceClient(service.url)
    job_id = client.submit(PIPELINES[0], files=FILES, env=ENV)
    result = client.wait(job_id, include_output=False)
    assert result.status == "done"
    assert result.output is None
    # the stream is still retained server-side
    assert client.result(job_id).output == _serial(PIPELINES[0])


def test_finished_jobs_release_their_request(service):
    """The job table keeps ``job_history`` finished records for late
    polls; none of them may pin the request (every virtual file)."""
    client = ServiceClient(service.url)
    done = client.submit(PIPELINES[0], files=FILES, env=ENV)
    failed = client.submit("cat missing.txt | sort", files={}, env={})
    assert client.wait(done).status == "done"
    assert client.wait(failed).status == "failed"
    with service._jobs_lock:
        assert [job.request for job in service._jobs.values()] == [None, None]
    # a late poll needs only the JobResult
    assert client.result(done).output == _serial(PIPELINES[0])


def test_unrun_jobs_release_their_request_on_hard_stop(fast_config):
    service = ReproService(ServiceConfig(
        concurrency=1, config_factory=lambda _request: fast_config))
    release = threading.Event()
    execute = service._execute
    service.scheduler.run_job = lambda job: (release.wait(10), execute(job))
    from repro.service.protocol import JobRequest
    results = [service.submit(JobRequest(pipeline=PIPELINES[0],
                                         files=dict(FILES), env=dict(ENV)))
               for _ in range(3)]
    threading.Timer(0.2, release.set).start()
    service.stop(drain=False, timeout=10)
    assert any(r.status == "failed" for r in results)
    with service._jobs_lock:
        assert all(job.request is None for job in service._jobs.values())


def test_status_and_metrics_endpoints(service):
    client = ServiceClient(service.url)
    client.run(PIPELINES[0], files=FILES, env=ENV)
    status = client.status()
    assert status["uptime_seconds"] > 0
    assert status["jobs"]["done"] == 1
    assert status["per_stage"], "per-stage throughput missing"
    assert all({"display", "runs", "bytes_out", "throughput_mbs"}
               <= set(stage) for stage in status["per_stage"])
    metrics = client.metrics()
    assert "repro_jobs_done 1" in metrics
    assert "repro_plan_cache_misses 1" in metrics
    assert 'repro_stage_bytes_out{stage="sort"}' in metrics
    # latency, not only counts: the compile share is readable from the
    # daemon itself, and repeats do not add to it
    compiled = status["plan_cache"]["compile_seconds"]
    assert 0.0 < compiled <= status["uptime_seconds"]
    assert f"repro_plan_compile_seconds_total {compiled}" in metrics
    assert client.run(PIPELINES[0], files=FILES, env=ENV).plan_cache == "hit"
    assert client.status()["plan_cache"]["compile_seconds"] == compiled


def test_saturation_maps_to_429(fast_config):
    """A genuinely full admission queue backpressures with 429."""
    service = ReproService(ServiceConfig(
        concurrency=1, max_queued=1,
        config_factory=lambda _request: fast_config))
    service.start_http()
    gate = threading.Event()
    original = service.scheduler.run_job

    def gated(job):
        gate.wait(timeout=10)
        original(job)

    service.scheduler.run_job = gated
    try:
        client = ServiceClient(service.url)
        first = client.submit(PIPELINES[0], files=FILES, env=ENV)
        while service.scheduler.counts()["running"] != 1:
            time.sleep(0.01)
        second = client.submit(PIPELINES[1], files=FILES, env=ENV)
        with pytest.raises(ServiceUnavailable) as exc:
            client.submit(PIPELINES[2], files=FILES, env=ENV)
        assert exc.value.code == 429
        gate.set()
        assert client.wait(first).status == "done"
        assert client.wait(second).status == "done"
    finally:
        gate.set()
        service.stop()


def test_job_wait_is_clamped_and_rejects_non_finite(fast_config,
                                                    monkeypatch):
    """``?wait=1&timeout=inf`` used to kill the handler thread with an
    OverflowError (the client saw a dropped connection) and a huge
    finite value pinned it; the server waits at most MAX_WAIT_SECONDS."""
    from repro.service import server

    monkeypatch.setattr(server, "MAX_WAIT_SECONDS", 0.2)
    service = ReproService(ServiceConfig(
        concurrency=1, config_factory=lambda _request: fast_config))
    service.start_http()
    gate = threading.Event()
    original = service.scheduler.run_job

    def gated(job):
        gate.wait(timeout=10)
        original(job)

    service.scheduler.run_job = gated
    try:
        client = ServiceClient(service.url)
        job_id = client.submit(PIPELINES[0], files=FILES, env=ENV)
        for bad in ("inf", "-inf", "nan", "1e400"):
            with pytest.raises(ValidationError, match="finite"):   # 400
                client._checked(
                    "GET", f"/v1/jobs/{job_id}?wait=1&timeout={bad}")
        start = time.monotonic()
        pending = client._checked(
            "GET", f"/v1/jobs/{job_id}?wait=1&timeout=1e12")
        assert time.monotonic() - start < 5.0
        assert pending["status"] in ("queued", "running")
        gate.set()
        assert client.wait(job_id).status == "done"
    finally:
        gate.set()
        service.stop()


def test_graceful_drain_finishes_admitted_jobs_and_503s_new(fast_config):
    """Draining: admitted jobs run to completion, new submits get 503."""
    service = ReproService(ServiceConfig(
        concurrency=1, config_factory=lambda _request: fast_config))
    service.start_http()
    gate = threading.Event()
    original = service.scheduler.run_job

    def gated(job):
        gate.wait(timeout=10)
        original(job)

    service.scheduler.run_job = gated
    try:
        client = ServiceClient(service.url, client_id="drain-tenant")
        admitted = [client.submit(PIPELINES[i % len(PIPELINES)],
                                  files=FILES, env=ENV)
                    for i in range(3)]
        while service.scheduler.counts()["running"] != 1:
            time.sleep(0.01)
        service.scheduler.stop_admissions()
        with pytest.raises(ServiceUnavailable) as exc:
            client.submit(PIPELINES[0], files=FILES, env=ENV)
        assert exc.value.code == 503
        assert service.scheduler.counts()["draining"]
        gate.set()
        # zero admitted jobs lost: all run to completion through drain
        results = [client.wait(job_id, timeout=30) for job_id in admitted]
        assert [r.status for r in results] == ["done"] * len(admitted)
    finally:
        gate.set()
        assert service.stop(timeout=10)
    status = service.status()
    assert status["jobs"]["done"] == len(admitted)
    assert status["jobs"]["failed"] == 0


def test_unknown_route_404(service):
    with pytest.raises(ServiceUnavailable) as exc:
        ServiceClient(service.url)._checked("GET", "/v1/nope")
    assert exc.value.code == 404


def test_non_object_files_400(service):
    body = json.dumps({"pipeline": "sort", "files": "x=y"}).encode()
    request = urllib.request.Request(
        service.url + "/v1/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(request)
    assert exc.value.code == 400
    assert "files must be" in json.loads(exc.value.read())["error"]


def test_bad_content_length_400(service):
    import http.client

    conn = http.client.HTTPConnection(*service.address, timeout=5)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Length", "abc")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
    finally:
        conn.close()


def test_concurrent_stop_waits_for_teardown(fast_config, monkeypatch):
    """A second stop() blocks until the first finishes the teardown
    (the POST /v1/shutdown thread vs the serve_forever loop)."""
    service = ReproService(ServiceConfig(
        concurrency=1, config_factory=lambda _request: fast_config))
    service.start_http()
    entered = threading.Event()
    original = service.scheduler.shutdown

    def slow_shutdown(**kwargs):
        entered.set()
        time.sleep(0.3)
        return original(**kwargs)

    monkeypatch.setattr(service.scheduler, "shutdown", slow_shutdown)
    first = threading.Thread(target=service.stop)
    first.start()
    assert entered.wait(timeout=5)
    t0 = time.monotonic()
    assert service.stop()          # must block until teardown completes
    assert time.monotonic() - t0 >= 0.2
    first.join(timeout=5)
    assert service._stop_done.is_set()


def test_bad_json_400(service):
    request = urllib.request.Request(
        service.url + "/v1/jobs", data=b"{not json",
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(request)
    assert exc.value.code == 400
    assert "bad JSON" in json.loads(exc.value.read())["error"]


def test_shutdown_endpoint_stops_daemon(fast_config):
    service = ReproService(ServiceConfig(
        concurrency=2, config_factory=lambda _request: fast_config))
    service.start_http()
    client = ServiceClient(service.url)
    client.run(PIPELINES[0], files=FILES, env=ENV)
    client.shutdown()
    # the daemon winds down; subsequent calls fail with a connection error
    deadline = threading.Event()
    for _ in range(100):
        if not client.healthy():
            break
        deadline.wait(0.05)
    assert not client.healthy()
    assert service._stopped
    service.stop()  # idempotent


def test_plan_cache_survives_daemon_restart(fast_config, tmp_path):
    """Stop the daemon, start a new one on the same snapshot path: the
    same job is served warm — no recompile, no synthesis."""
    snapshot = tmp_path / "plans.json"
    config = ServiceConfig(concurrency=2, plan_cache_path=str(snapshot),
                           config_factory=lambda _request: fast_config)
    service = ReproService(config)
    service.start_http()
    try:
        first = ServiceClient(service.url).run(PIPELINES[1], files=FILES,
                                               env=ENV, k=2)
        assert first.plan_cache == "miss"
    finally:
        service.stop()  # persists the snapshot
    assert snapshot.exists()

    reborn = ReproService(ServiceConfig(
        concurrency=2, plan_cache_path=str(snapshot),
        config_factory=lambda _request: fast_config))
    reborn.start_http()
    try:
        again = ServiceClient(reborn.url).run(PIPELINES[1], files=FILES,
                                              env=ENV, k=2)
        assert again.status == "done"
        assert again.plan_cache == "warm"
        assert again.output == first.output == _serial(PIPELINES[1])
        stats = reborn.plan_cache.stats()
        assert stats["warm_hits"] == 1
        assert stats["misses"] == 0, "restart must not recompile"
        metrics = ServiceClient(reborn.url).metrics()
        assert "repro_plan_cache_warm_hits 1" in metrics
    finally:
        reborn.stop()
    # the snapshot is per pipeline, not per dataset: a third daemon
    # serves data it has never seen from it
    third = ReproService(ServiceConfig(
        concurrency=2, plan_cache_path=str(snapshot),
        config_factory=lambda _request: fast_config))
    third.start_http()
    try:
        fresh = {"input.txt": "never\nseen\nnever\n"}
        result = ServiceClient(third.url).run(PIPELINES[1], files=fresh,
                                              env=ENV, k=2)
        assert result.plan_cache == "warm"
        assert result.output == _serial(PIPELINES[1], fresh)
    finally:
        third.stop()


def test_jobs_queue_fair_share_over_http(fast_config):
    """Two tenants' jobs interleave rather than FIFO by arrival."""
    service = ReproService(ServiceConfig(
        concurrency=1, config_factory=lambda _request: fast_config))
    service.start_http()
    # hold the single worker on its first job until every other job is
    # queued, so completion order is decided by the scheduler alone
    gate = threading.Event()
    original = service.scheduler.run_job

    def gated(job):
        gate.wait(timeout=10)
        original(job)

    service.scheduler.run_job = gated
    try:
        alice = ServiceClient(service.url, client_id="alice")
        bob = ServiceClient(service.url, client_id="bob")
        alice_ids = [alice.submit(PIPELINES[i % len(PIPELINES)],
                                  files=FILES, env=ENV)
                     for i in range(4)]
        while service.scheduler.counts()["running"] != 1:
            time.sleep(0.01)
        bob_id = bob.submit(PIPELINES[0], files=FILES, env=ENV)
        gate.set()
        results = [alice.wait(j) for j in alice_ids] + [bob.wait(bob_id)]
        assert all(r.status == "done" for r in results)
        bob_result = results[-1]
        # fair share: bob's lone job overtakes alice's queued burst —
        # only her running job and the next round-robin pick beat it
        finished_before_bob = sum(
            1 for r in results[:-1]
            if r.finished_at <= bob_result.finished_at)
        assert finished_before_bob <= 2
    finally:
        service.stop()
