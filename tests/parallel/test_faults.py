"""Fault-injection suite: retries and speculation preserve byte identity.

A deterministic :class:`FaultPolicy` kills or delays specific chunk
dispatches; every test asserts (a) the output stays byte-identical to
the serial run and (b) the :class:`SchedulerStats` counters in
``RunStats`` equal exactly what the policy injected.
"""

import pytest

from repro import parallelize
from repro.parallel import (
    FaultPolicy,
    InjectedFault,
    STEALING,
    SchedulerConfig,
)

TEXT = "cat in.txt | tr A-Z a-z | sort | uniq -c | sort -rn"


def _data(n=6000):
    # large enough that every plane and the adaptive splitter (8 KiB
    # minimum chunk) decompose into several chunk tasks per stage
    return "".join(f"Word {i % 13} tail\n" for i in range(n))


def _pp(tiny_config, k=4, **kwargs):
    return parallelize(TEXT, k=k, files={"in.txt": _data()}, rewrite=False,
                       config=tiny_config, **kwargs)


@pytest.fixture(scope="module")
def serial_output(tiny_config):
    pp = _pp(tiny_config)
    return pp.plan.pipeline.run()


def test_kill_specific_chunk_barrier_stealing(tiny_config, serial_output):
    policy = FaultPolicy(kill={(1, 0): 1, (1, 2): 1})
    pp = _pp(tiny_config)
    pp.streaming = False
    pp.scheduler = STEALING
    pp.fault_policy = policy
    assert pp.run() == serial_output
    sched = pp.last_stats.scheduler
    assert sched.name == STEALING
    assert policy.injected_kills == 2
    assert sched.retries == 2
    assert sched.failures == 2
    assert pp.last_stats.to_dict()["scheduler"]["retries"] == 2


def test_kill_first_dispatch_every_plane(tiny_config, serial_output):
    for streaming, engine, scheduler in [
        (False, "serial", "static"),
        (False, "serial", STEALING),
        (True, "serial", "static"),
        (True, "threads", "static"),
        (True, "threads", STEALING),
    ]:
        policy = FaultPolicy(kill_first=1)
        pp = _pp(tiny_config)
        pp.streaming, pp.engine, pp.scheduler = streaming, engine, scheduler
        pp.fault_policy = policy
        assert pp.run() == serial_output, (streaming, engine, scheduler)
        sched = pp.last_stats.scheduler
        assert policy.injected_kills == 1, (streaming, engine, scheduler)
        assert sched.retries == 1, (streaming, engine, scheduler)


def test_attempts_exhausted_surfaces_injected_fault(tiny_config):
    policy = FaultPolicy(kill={(1, 1): 99})
    pp = _pp(tiny_config)
    pp.streaming = False
    pp.scheduler = STEALING
    pp.scheduler_config = SchedulerConfig(max_attempts=2)
    pp.fault_policy = policy
    with pytest.raises(InjectedFault):
        pp.run()
    assert policy.injected_kills == 2  # bounded: not retried forever


def test_delayed_straggler_speculation_threads(tiny_config, serial_output):
    """A 0.4 s injected delay on one chunk triggers a speculative
    duplicate that wins; output identical, counters match."""
    policy = FaultPolicy(delay={(1, 0): 0.4})
    pp = _pp(tiny_config)
    pp.engine = "threads"
    pp.streaming = False
    pp.scheduler = STEALING
    pp.scheduler_config = SchedulerConfig(
        speculate=True, speculation_factor=1.5,
        speculation_min_samples=2, speculation_min_seconds=0.02)
    pp.fault_policy = policy
    assert pp.run() == serial_output
    sched = pp.last_stats.scheduler
    assert policy.injected_delays >= 1
    assert sched.speculations >= 1
    assert sched.speculation_wins >= 1
    assert sched.retries == 0  # a straggler is not a failure


def test_delayed_head_of_line_speculation_streaming(tiny_config,
                                                    serial_output):
    policy = FaultPolicy(delay={(1, 0): 0.4})
    pp = _pp(tiny_config)
    pp.engine = "threads"
    pp.scheduler = "static"
    pp.scheduler_config = SchedulerConfig(
        speculate=True, speculation_factor=1.5,
        speculation_min_samples=2, speculation_min_seconds=0.02)
    pp.fault_policy = policy
    assert pp.run() == serial_output
    sched = pp.last_stats.scheduler
    assert sched.speculations >= 1 and sched.speculation_wins >= 1


def test_upstream_head_of_line_straggler_streaming_threads(tiny_config,
                                                           serial_output):
    """One driver thread: while the head chunk of the first stage — the
    ``tr | sort`` chain — straggles, nothing downstream can start
    (docs/ARCHITECTURE.md, "The streaming engine") — the run still
    terminates with the serial output and schedules exactly the
    undelayed run's tasks."""
    import threading

    def run(policy):
        pp = _pp(tiny_config, engine="threads", scheduler="static")
        stages = pp.plan.stages
        assert stages[0].parallel and len(stages[0].members) == 2
        assert stages[1].parallel
        pp.fault_policy = policy
        outputs = []
        worker = threading.Thread(target=lambda: outputs.append(pp.run()),
                                  daemon=True)
        worker.start()
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        return outputs[0], pp.last_stats

    plain_output, plain_stats = run(None)
    policy = FaultPolicy(delay={(0, 0): 0.3})
    output, stats = run(policy)
    assert output == plain_output == serial_output
    assert policy.injected_delays == 1
    assert stats.scheduler.tasks == plain_stats.scheduler.tasks
    assert stats.seconds >= 0.3


def test_chain_task_kill_retries_the_whole_chain(tiny_config, serial_output):
    """Stage 0 is the ``tr | sort`` chain, one task per chunk: a killed
    attempt costs a retry of that task — the chain re-runs from the
    chunk it was cut from, no member is ever dispatched on its own."""
    for streaming, engine in [(False, "serial"), (True, "serial"),
                              (True, "threads"), (False, "processes"),
                              (True, "processes")]:
        policy = FaultPolicy(kill={(0, 1): 2})
        pp = _pp(tiny_config, engine=engine, streaming=streaming)
        assert len(pp.plan.stages[0].members) == 2
        pp.fault_policy = policy
        assert pp.run() == serial_output, (streaming, engine)
        sched = pp.last_stats.scheduler
        assert policy.injected_kills == 2, (streaming, engine)
        assert (sched.retries, sched.failures) == (2, 2), (streaming, engine)
        # k tasks for each of the 3 executed stages, none per member
        assert sched.tasks == 3 * 4, (streaming, engine)


def test_chain_task_retry_is_bounded(tiny_config):
    policy = FaultPolicy(kill={(0, 1): 99})
    pp = _pp(tiny_config)
    pp.scheduler_config = SchedulerConfig(max_attempts=2)
    pp.fault_policy = policy
    with pytest.raises(InjectedFault):
        pp.run()
    assert policy.injected_kills == 2


def test_chain_task_straggler_speculation(tiny_config, serial_output):
    """A delayed chain task gets one duplicate of the whole chain;
    first result wins and the output is unchanged."""
    for streaming in (True, False):
        policy = FaultPolicy(delay={(0, 0): 0.4})
        pp = _pp(tiny_config, engine="threads", streaming=streaming)
        pp.scheduler_config = SchedulerConfig(
            speculate=True, speculation_factor=1.5,
            speculation_min_samples=2, speculation_min_seconds=0.02)
        pp.fault_policy = policy
        assert pp.run() == serial_output
        sched = pp.last_stats.scheduler
        assert policy.injected_delays == 1
        assert sched.speculations >= 1 and sched.speculation_wins >= 1
        assert sched.retries == 0   # a straggler is not a failure
        assert sched.tasks == 3 * 4


def test_fault_policy_counters_roundtrip_run_stats(tiny_config,
                                                   serial_output):
    from repro.parallel import run_stats_from_dict

    policy = FaultPolicy(kill_first=1)
    pp = _pp(tiny_config)
    pp.scheduler = STEALING
    pp.fault_policy = policy
    assert pp.run() == serial_output
    rebuilt = run_stats_from_dict(pp.last_stats.to_dict())
    assert rebuilt.scheduler.name == STEALING
    assert rebuilt.scheduler.retries == pp.last_stats.scheduler.retries
    assert rebuilt.scheduler.tasks == pp.last_stats.scheduler.tasks


def test_speculation_disabled_by_default(tiny_config, serial_output):
    pp = _pp(tiny_config)
    pp.engine = "threads"
    assert pp.run() == serial_output
    assert pp.last_stats.scheduler.speculate is False
    assert pp.last_stats.scheduler.speculations == 0
