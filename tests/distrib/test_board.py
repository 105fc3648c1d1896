"""Task-board semantics: leases, retries, reassignment, speculation.

These tests drive the board directly (no executor threads, no real
plans — a digest here is just an opaque string) so every state
transition is deterministic and single-threaded.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.distrib import (
    DistribError,
    NodePool,
    NoLiveNodes,
    TaskBoard,
    UnknownNode,
)
from repro.parallel import DistribStats, FaultPolicy, SchedulerConfig


def _board(pool=None, **config):
    pool = pool if pool is not None else NodePool(heartbeat_timeout=5.0)
    return pool, TaskBoard(pool, config=SchedulerConfig(**config))


def _submit(board, chunks, **kwargs):
    stats = DistribStats()
    handle = board.submit_stage("job-1", "digest-1", 1, chunks, stats,
                                **kwargs)
    return handle, stats


def test_pull_leases_wire_tasks_and_complete_reassembles_in_order():
    pool, board = _board()
    node = pool.register(capacity=4)
    handle, stats = _submit(board, ["aa", "bb", "cc"])
    batch = board.pull(node.node_id)
    assert [t["chunk_index"] for t in batch] == [0, 1, 2]
    assert all(t["digest"] == "digest-1" and t["attempt"] == 0
               for t in batch)
    # complete out of order: reassembly is by chunk index, not arrival
    for wire in reversed(batch):
        assert board.complete(node.node_id, wire["task_id"],
                              output=wire["chunk"].upper(), seconds=0.01)
    assert handle.wait(timeout=5.0) == ["AA", "BB", "CC"]
    assert stats.tasks == 3
    assert stats.bytes_shipped == 6
    assert stats.bytes_returned == 6
    assert board.stats()["pending"] == 0
    assert board.stats()["leased"] == 0


def test_pull_respects_capacity_and_preference():
    pool, board = _board()
    a = pool.register(capacity=1)
    b = pool.register(capacity=1)
    _submit(board, ["x", "y"], preferred=[b.node_id, a.node_id])
    # each node gets its preferred chunk even though FIFO order differs
    assert board.pull(a.node_id)[0]["chunk_index"] == 1
    assert board.pull(b.node_id)[0]["chunk_index"] == 0
    assert board.pull(a.node_id) == []       # capacity exhausted the queue


def test_error_result_retries_until_attempts_exhausted():
    pool, board = _board(max_attempts=3)
    node = pool.register(capacity=1)
    handle, stats = _submit(board, ["x"])
    for attempt in range(3):
        (wire,) = board.pull(node.node_id)
        assert wire["attempt"] == attempt
        board.complete(node.node_id, wire["task_id"], error="boom")
    assert board.stats()["retries"] == 2
    assert board.stats()["failures"] == 3
    assert stats.retries == 2
    with pytest.raises(DistribError, match="exhausted 3 attempts"):
        handle.wait(timeout=5.0)


def test_unknown_node_must_reregister():
    pool, board = _board()
    node = pool.register()
    pool.mark_dead(node.node_id)
    with pytest.raises(UnknownNode):
        board.pull(node.node_id)
    with pytest.raises(UnknownNode):
        board.pull("never-registered")


def test_dead_node_leases_are_reassigned_without_burning_attempts():
    pool = NodePool(heartbeat_timeout=0.05)
    _, board = _board(pool)
    doomed = pool.register(capacity=2)
    handle, stats = _submit(board, ["x", "y"])
    taken = board.pull(doomed.node_id)
    assert len(taken) == 2
    time.sleep(0.1)                     # let the heartbeat expire
    survivor = pool.register(capacity=2)
    board.tick()                        # evicts doomed, requeues leases
    assert pool.get(doomed.node_id).live is False
    assert board.stats()["reassignments"] == 2
    assert board.stats()["evictions"] == 1
    batch = board.pull(survivor.node_id)
    assert sorted(t["chunk_index"] for t in batch) == [0, 1]
    for wire in batch:
        board.complete(survivor.node_id, wire["task_id"],
                       output=wire["chunk"])
    assert handle.wait(timeout=5.0) == ["x", "y"]
    # reassignment consumed no retry budget
    assert board.stats()["retries"] == 0
    assert stats.reassignments == 2
    assert stats.evictions == 1


def test_reassignment_gives_the_lost_attempt_back():
    """A chunk whose first node died still gets its full retry budget:
    exactly ``max_attempts`` error completions before the stage fails."""
    pool = NodePool(heartbeat_timeout=0.05)
    _, board = _board(pool, max_attempts=3)
    doomed = pool.register(capacity=1)
    handle, stats = _submit(board, ["x"])
    assert len(board.pull(doomed.node_id)) == 1
    time.sleep(0.1)                     # let the heartbeat expire
    survivor = pool.register(capacity=1)
    board.tick()                        # evicts doomed, requeues the lease
    assert board.stats()["reassignments"] == 1
    for attempt in range(3):
        assert not handle.done
        (wire,) = board.pull(survivor.node_id)
        assert wire["attempt"] == attempt
        board.complete(survivor.node_id, wire["task_id"], error="boom")
    assert (stats.failures, stats.retries) == (3, 2)
    with pytest.raises(DistribError, match="exhausted 3 attempts"):
        handle.wait(timeout=5.0)


def test_late_duplicate_completion_loses_the_race():
    pool = NodePool(heartbeat_timeout=0.05)
    _, board = _board(pool)
    slow = pool.register(capacity=1)
    handle, _ = _submit(board, ["x"])
    (wire,) = board.pull(slow.node_id)
    time.sleep(0.1)
    fast = pool.register(capacity=1)
    board.tick()
    (rewire,) = board.pull(fast.node_id)
    assert rewire["task_id"] == wire["task_id"]
    assert board.complete(fast.node_id, rewire["task_id"], output="fast")
    # the evicted node's answer arrives afterwards and is dropped
    assert not board.complete(slow.node_id, wire["task_id"], output="slow")
    assert handle.wait(timeout=5.0) == ["fast"]


def test_idle_node_speculates_on_the_overdue_straggler():
    pool, board = _board(speculate=True, speculation_min_samples=1,
                         speculation_min_seconds=0.0,
                         speculation_factor=1.0)
    busy = pool.register(capacity=2)
    handle, stats = _submit(board, ["x", "y"])
    batch = board.pull(busy.node_id)
    assert len(batch) == 2
    done, straggler = batch
    board.complete(busy.node_id, done["task_id"], output=done["chunk"],
                   seconds=0.001)       # seeds the duration ETA
    time.sleep(0.05)                    # straggler is now overdue
    idle = pool.register(capacity=2)
    (spec,) = board.pull(idle.node_id)
    assert spec["task_id"] == straggler["task_id"]
    assert spec["attempt"] == 1
    assert board.stats()["speculations"] == 1
    # the speculative copy finishes first and wins
    assert board.complete(idle.node_id, spec["task_id"],
                          output=spec["chunk"], seconds=0.001)
    assert board.stats()["speculation_wins"] == 1
    assert stats.speculations == 1
    assert stats.speculation_wins == 1
    assert not board.complete(busy.node_id, straggler["task_id"],
                              output="late")
    assert handle.wait(timeout=5.0) == ["x", "y"]


def test_injected_dispatch_kill_is_retried_at_lease_time():
    pool, board = _board(max_attempts=3)
    node = pool.register(capacity=1)
    policy = FaultPolicy(kill={(1, 0): 1})
    handle, stats = _submit(board, ["x"], fault_policy=policy)
    (wire,) = board.pull(node.node_id)
    assert wire["attempt"] == 1          # attempt 0 died on dispatch
    assert policy.injected_kills == 1
    assert board.stats()["retries"] == 1
    board.complete(node.node_id, wire["task_id"], output="x")
    assert handle.wait(timeout=5.0) == ["x"]
    assert stats.retries == 1


def test_no_live_nodes_fails_the_stage_after_grace():
    pool = NodePool(heartbeat_timeout=5.0)
    board = TaskBoard(pool, no_nodes_grace=0.1)
    handle, _ = _submit(board, ["x"])
    with pytest.raises(NoLiveNodes):
        handle.wait(timeout=5.0)


def test_closed_board_drains_pullers_and_fails_active_stages():
    pool, board = _board()
    node = pool.register()
    handle, _ = _submit(board, ["x"])
    waiter_error = []

    def waiter():
        try:
            handle.wait(timeout=5.0)
        except DistribError as exc:
            waiter_error.append(exc)

    thread = threading.Thread(target=waiter)
    thread.start()
    board.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert waiter_error and "closed" in str(waiter_error[0])
    assert board.pull(node.node_id) is None     # drain signal
    with pytest.raises(DistribError):
        _submit(board, ["y"])
