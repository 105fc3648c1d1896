"""Node membership and shard planning."""

from __future__ import annotations

import time

import pytest

from repro.distrib import (
    DEFAULT_CAPACITY,
    NODE_DEAD,
    NODE_LIVE,
    NodePool,
    ShardPlanner,
)


def test_register_assigns_ordinals_in_join_order():
    pool = NodePool()
    a = pool.register()
    b = pool.register(capacity=4)
    assert (a.ordinal, b.ordinal) == (0, 1)
    assert a.node_id != b.node_id
    assert a.capacity == DEFAULT_CAPACITY
    assert b.capacity == 4
    assert pool.stats() == {"registered": 2, "live": 2, "evicted": 0}


def test_reregister_revives_the_same_ordinal():
    pool = NodePool()
    node = pool.register()
    pool.register()
    pool.mark_dead(node.node_id)
    assert not pool.get(node.node_id).live
    revived = pool.register(node_id=node.node_id, capacity=8)
    assert revived.ordinal == 0          # membership record survives
    assert revived.live
    assert revived.capacity == 8
    assert pool.registered == 2          # a revival is not a new member


def test_touch_only_heartbeats_live_members():
    pool = NodePool()
    node = pool.register()
    assert pool.touch(node.node_id)
    assert not pool.touch("never-joined")
    pool.mark_dead(node.node_id)
    assert not pool.touch(node.node_id)


def test_evict_stale_marks_silent_nodes_dead():
    pool = NodePool(heartbeat_timeout=5.0)
    quiet = pool.register()
    chatty = pool.register()
    future = time.monotonic() + 6.0
    chatty.last_seen = future            # kept heartbeating
    dead = pool.evict_stale(now=future)
    assert [n.node_id for n in dead] == [quiet.node_id]
    assert pool.get(quiet.node_id).state == NODE_DEAD
    assert pool.get(chatty.node_id).state == NODE_LIVE
    assert pool.live_count() == 1
    assert pool.stats()["evicted"] == 1
    # eviction is idempotent
    assert pool.evict_stale(now=future) == []


def test_nodes_listing_is_ordinal_ordered():
    pool = NodePool()
    for _ in range(3):
        pool.register()
    listing = pool.nodes()
    assert [n["ordinal"] for n in listing] == [0, 1, 2]
    assert all(n["state"] == NODE_LIVE for n in listing)


def test_heartbeat_timeout_must_be_positive():
    with pytest.raises(ValueError):
        NodePool(heartbeat_timeout=0.0)


def test_shard_planner_scales_chunks_with_cluster_size():
    planner = ShardPlanner(slots_per_node=2, nodes=3, min_chunk_bytes=100)
    assert planner.chunk_count(10_000) == 6      # one chunk per slot
    assert planner.chunk_count(350) == 3         # input-bound
    assert planner.chunk_count(50) == 1          # below one minimum chunk
    assert planner.chunk_count(0) == 1


def test_shard_planner_round_robins_preferences():
    planner = ShardPlanner(slots_per_node=2, nodes=3)
    assert [planner.preferred_ordinal(i) for i in range(6)] \
        == [0, 1, 2, 0, 1, 2]
