"""Tests for consistent-hashing tenant routing with load-aware pinning."""

import math

import pytest

from repro.errors import ConfigurationError, ShardError
from repro.serving import SloPolicy
from repro.sharding import ShardRouter
from repro.sharding.router import REBALANCE_MARGIN


def test_pins_are_sticky_and_deterministic():
    a = ShardRouter(4, SloPolicy())
    b = ShardRouter(4, SloPolicy())
    tenants = [f"tenant{i}" for i in range(20)]
    first = {t: a.shard_for(t) for t in tenants}
    # Same tenant, same router -> same shard on every later lookup.
    for t in tenants:
        assert a.shard_for(t) == first[t]
    # A fresh router with the same shape reproduces the placement exactly
    # (keyed BLAKE2b hashing, not Python's randomized hash).
    assert {t: b.shard_for(t) for t in tenants} == first


def test_single_shard_routes_everything_to_zero():
    router = ShardRouter(1, SloPolicy())
    assert {router.shard_for(f"t{i}") for i in range(10)} == {0}
    assert router.loads() == [10]


def test_load_aware_rebalancing_bounds_skew():
    router = ShardRouter(4, SloPolicy())
    for i in range(40):
        router.shard_for(f"tenant{i}")
    loads = router.loads()
    assert sum(loads) == 40
    # The margin caps how far the hash distribution can wander from the
    # lightest shard at each placement.
    assert max(loads) - min(loads) <= REBALANCE_MARGIN
    # Some tenants were diverted off their ring candidate to get there.
    assert any(router.ring_candidate(t) != s for t, s in router.pins().items())


def test_ring_candidate_ignores_pin_state():
    router = ShardRouter(3, SloPolicy())
    candidate = router.ring_candidate("alice")
    assert candidate in (0, 1, 2)
    # ring_candidate is pure placement; it never pins.
    assert router.pins() == {}


def test_remove_shard_remaps_displaced_tenants_to_survivors():
    router = ShardRouter(3, SloPolicy())
    tenants = [f"tenant{i}" for i in range(12)]
    before = {t: router.shard_for(t) for t in tenants}
    victims = [t for t, s in before.items() if s == 1]
    assert victims, "expected at least one tenant on shard 1"
    remap = router.remove_shard(1)
    assert sorted(remap) == sorted(victims)
    assert all(shard in (0, 2) for shard in remap.values())
    # Tenants on surviving shards never move.
    for t, s in before.items():
        if s != 1:
            assert router.shard_for(t) == s
    # The removed shard is out of every future placement.
    assert 1 not in router.healthy_shards()
    assert all(router.shard_for(f"new{i}") in (0, 2) for i in range(8))
    # Removing a shard twice is a no-op.
    assert router.remove_shard(1) == {}


def test_all_shards_failed_raises():
    router = ShardRouter(2, SloPolicy())
    router.shard_for("alice")
    router.remove_shard(0)
    assert router.remove_shard(1) == {}  # nowhere left to re-pin onto
    with pytest.raises(ShardError):
        router.shard_for("alice")


def test_invalid_parameters_are_rejected():
    with pytest.raises(ConfigurationError):
        ShardRouter(0, SloPolicy())
    with pytest.raises(ConfigurationError):
        ShardRouter(2, SloPolicy()).remove_shard(5)


def test_a_grown_ring_places_like_a_constructed_one():
    """``ShardRouter(n)`` puts exactly the virtual nodes on the ring that
    adding shards one by one does, so both place every tenant alike."""
    plain = ShardRouter(4, SloPolicy())
    grown = ShardRouter(1, SloPolicy())
    for _ in range(3):
        assert grown.add_shard()[1] == {}  # nobody pinned yet, nobody moves
    assert grown._ring_keys == plain._ring_keys
    assert grown._ring_shards == plain._ring_shards
    tenants = [f"tenant{i}" for i in range(30)]
    assert {t: plain.shard_for(t) for t in tenants} == {
        t: grown.shard_for(t) for t in tenants
    }


def test_add_shard_moves_at_most_a_fair_share_of_the_pins():
    router = ShardRouter(3, SloPolicy())
    for i in range(30):
        router.shard_for(f"tenant{i}")
    new_id, remap = router.add_shard()
    assert 0 < len(remap) <= math.ceil(30 / 4)
    assert set(remap.values()) == {new_id}
    assert sum(router.loads()) == 30
    assert router.loads()[new_id] == len(remap)


def test_walking_past_a_removed_shard_places_like_a_ring_without_it():
    """A removed shard's virtual nodes stay on the ring; the walk steps
    past them, which is the walk a ring without them takes."""
    walked = ShardRouter(4, SloPolicy())
    pruned = ShardRouter(4, SloPolicy())
    for router in (walked, pruned):
        router.remove_shard(1)
    keep = [(k, s) for k, s in zip(pruned._ring_keys, pruned._ring_shards) if s != 1]
    pruned._ring_keys = [k for k, _ in keep]
    pruned._ring_shards = [s for _, s in keep]
    assert len(walked._ring_keys) > len(pruned._ring_keys)
    tenants = [f"tenant{i}" for i in range(60)]
    assert {t: walked.ring_candidate(t) for t in tenants} == {
        t: pruned.ring_candidate(t) for t in tenants
    }
    assert {t: walked.shard_for(t) for t in tenants} == {
        t: pruned.shard_for(t) for t in tenants
    }
