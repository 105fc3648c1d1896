"""JobRequest/JobResult wire format and admission validation."""

import pytest

from repro.parallel.executor import RunStats, StageStats
from repro.service.protocol import (
    JOB_DONE,
    JobRequest,
    JobResult,
    ValidationError,
)

FILES = {"input.txt": "b\na\n"}
ENV = {"IN": "input.txt"}


def _request(**overrides):
    base = dict(pipeline="cat $IN | sort | uniq -c", files=dict(FILES),
                env=dict(ENV), k=2, engine="threads", client_id="alice")
    base.update(overrides)
    return JobRequest(**base)


def test_request_roundtrip():
    req = _request(streaming=False, optimize=False, max_size=5, seed=9)
    again = JobRequest.from_dict(req.to_dict())
    assert again == req


def test_request_validates():
    _request().validate()


@pytest.mark.parametrize("overrides,fragment", [
    (dict(pipeline=""), "non-empty"),
    (dict(pipeline="   "), "non-empty"),
    (dict(engine="gpu"), "unknown engine"),
    (dict(k=0), "k must be"),
    (dict(k=10_000), "k must be"),
    (dict(max_size=0), "max_size"),
    (dict(seed=[1, 2]), "seed"),
    (dict(seed="7"), "seed"),
    (dict(client_id=""), "client_id"),
    (dict(files={"in.txt": 7}), "files must map"),
    (dict(env={3: "x"}), "env must map"),
    (dict(pipeline="sort | 'unclosed"), "invalid pipeline"),
    (dict(pipeline="cat $IN | definitely-not-a-command"), "invalid pipeline"),
])
def test_request_rejections(overrides, fragment):
    with pytest.raises(ValidationError, match=fragment):
        _request(**overrides).validate()


def test_request_size_limit():
    req = _request(files={"input.txt": "x" * 100})
    with pytest.raises(ValidationError, match="limit"):
        req.validate(max_request_bytes=50)
    req.validate(max_request_bytes=1000)


def test_from_dict_rejects_garbage():
    with pytest.raises(ValidationError, match="JSON object"):
        JobRequest.from_dict("sort")
    with pytest.raises(ValidationError, match="missing 'pipeline'"):
        JobRequest.from_dict({"k": 2})
    with pytest.raises(ValidationError, match="unknown request fields"):
        JobRequest.from_dict({"pipeline": "sort", "sudo": True})
    # a removed wire field is an unknown field like any other
    with pytest.raises(ValidationError, match="unknown request fields"):
        JobRequest.from_dict({"pipeline": "sort", "queue_depth": 8})
    for label in ("files", "env"):
        with pytest.raises(ValidationError, match=f"{label} must be"):
            JobRequest.from_dict({"pipeline": "sort", label: "x=y"})
        with pytest.raises(ValidationError, match=f"{label} must be"):
            JobRequest.from_dict({"pipeline": "sort", label: [1, 2]})


def test_result_roundtrip_with_stats():
    stats = RunStats(k=2, engine="threads", data_plane="streaming",
                     seconds=1.5, stages=[
                         StageStats(display="sort", mode="parallel",
                                    eliminated=False, chunks=4, seconds=0.5,
                                    bytes_in=10, bytes_out=10,
                                    overlap_seconds=0.1)])
    result = JobResult(job_id="j1", client_id="alice", status=JOB_DONE,
                       pipeline="sort", output="a\nb\n", stats=stats,
                       plan_cache="hit", submitted_at=100.0,
                       started_at=101.0, finished_at=103.0)
    again = JobResult.from_dict(result.to_dict())
    assert again.output == "a\nb\n"
    assert again.stats.stages[0].display == "sort"
    assert again.stats.total_overlap == pytest.approx(0.1)
    assert again.wait_seconds == pytest.approx(1.0)
    assert again.run_seconds == pytest.approx(2.0)
    assert again.latency_seconds == pytest.approx(3.0)
    assert again.done


def test_result_output_can_be_elided():
    result = JobResult(job_id="j1", client_id="a", output="big")
    assert JobResult.from_dict(result.to_dict(include_output=False)).output \
        is None
