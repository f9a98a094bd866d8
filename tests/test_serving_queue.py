"""Tests for the multi-tenant request queue."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import PendingRequest, RequestQueue, ServingConfig, SloClass, SloPolicy


def _req(request_id, tenant="t0", t=0.0):
    return PendingRequest(
        request_id=request_id,
        tenant=tenant,
        x=np.zeros(4),
        arrival_time=t,
    )


def test_single_tenant_fifo_order():
    q = RequestQueue(SloPolicy())
    for i in range(5):
        q.push(_req(i))
    assert [r.request_id for r in q.pop_fair(5)] == [0, 1, 2, 3, 4]
    assert q.depth == 0


def test_round_robin_interleaves_tenants():
    q = RequestQueue(SloPolicy())
    for i in range(10):
        q.push(_req(i, tenant="hog"))
    for i in range(2):
        q.push(_req(100 + i, tenant="mouse"))
    popped = q.pop_fair(4)
    # One per tenant per rotation: the saturating tenant cannot fill a batch.
    assert [r.tenant for r in popped] == ["hog", "mouse", "hog", "mouse"]


def test_rotation_resumes_where_it_stopped():
    q = RequestQueue(SloPolicy())
    for tenant in ("a", "b", "c"):
        for i in range(3):
            q.push(_req(i, tenant=tenant))
    first = [r.tenant for r in q.pop_fair(2)]
    second = [r.tenant for r in q.pop_fair(2)]
    assert first == ["a", "b"]
    assert second == ["c", "a"]


def test_oldest_enqueue_time_tracks_heads():
    q = RequestQueue(SloPolicy())
    assert q.oldest_enqueue_time() is None
    q.push(_req(0, tenant="a", t=1.0))
    q.push(_req(1, tenant="b", t=0.5))
    assert q.oldest_enqueue_time() == 0.5
    q.pop_fair(1)  # pops tenant a first (arrival order of tenants)
    assert q.oldest_enqueue_time() == 0.5
    assert q.depth == 1 and [r.tenant for r in q.pop_fair(1)] == ["b"]


def test_invalid_capacity_rejected():
    """The queue keeps no bound of its own; the deployment's one bound
    (``queue_capacity``) is refused at configuration time."""
    with pytest.raises(ConfigurationError, match="queue capacity must be >= 1, got 0"):
        ServingConfig(queue_capacity=0)


def test_new_tenant_mid_rotation_cannot_jump_the_turn_order():
    """Regression: the old integer cursor re-mapped onto a grown tenant
    list, letting a brand-new tenant serve ahead of tenants already
    waiting their turn (and double-serving others)."""
    q = RequestQueue(SloPolicy())
    for tenant in ("a", "b"):
        for i in range(3):
            q.push(_req(i, tenant=tenant))
    assert [r.tenant for r in q.pop_fair(2)] == ["a", "b"]
    # A third tenant arrives mid-rotation: it must queue *behind* the
    # rotation, not hijack the next slot.
    q.push(_req(9, tenant="c"))
    assert [r.tenant for r in q.pop_fair(3)] == ["a", "b", "c"]


def test_idle_tenants_are_pruned_from_the_rotation():
    """A tenant that drained leaves the rotation entirely and re-enters
    at the back when it next pushes — it cannot hold a phantom turn."""
    q = RequestQueue(SloPolicy())
    for i in range(4):
        q.push(_req(i, tenant="a"))
    q.push(_req(10, tenant="b"))
    assert [r.tenant for r in q.pop_fair(2)] == ["a", "b"]
    # b is drained: only a serves, without phantom-b rotation stalls.
    assert [r.tenant for r in q.pop_fair(2)] == ["a", "a"]
    # b returns and waits one a-turn, exactly as a fresh tenant would.
    q.push(_req(11, tenant="b"))
    assert [r.tenant for r in q.pop_fair(2)] == ["a", "b"]
    assert q.depth == 0


# ----------------------------------------------------------------------
# draining under an SLO policy
# ----------------------------------------------------------------------
def _priority_policy(priorities):
    classes = {name: SloClass(name=name, priority=p) for name, p in priorities.items()}
    return SloPolicy(classes=classes, assignments={name: name for name in priorities})


def test_default_weight_is_bit_identical_to_classic_rotation():
    """A queue under an SLO policy pops the exact same sequence as one
    without: every class drains one request per turn."""
    plain = RequestQueue(SloPolicy())
    classed = RequestQueue(_priority_policy({"a": 0, "b": 1}))
    for q in (plain, classed):
        for i in range(6):
            q.push(_req(i, tenant="a"))
        for i in range(3):
            q.push(_req(100 + i, tenant="b"))
    for n in (4, 3, 2):
        assert [r.request_id for r in plain.pop_fair(n)] == [
            r.request_id for r in classed.pop_fair(n)
        ]


# ----------------------------------------------------------------------
# eviction candidates
# ----------------------------------------------------------------------
def test_peek_eviction_candidate_names_the_victim_without_taking_it():
    policy = _priority_policy({"bulk": 0, "std": 1, "prem": 2})
    q = RequestQueue(policy)
    q.push(_req(0, tenant="bulk", t=0.0))
    q.push(_req(1, tenant="bulk", t=1.0))
    q.push(_req(2, tenant="std", t=2.0))
    key, tenant = q.peek_eviction_candidate(priority=2)
    assert tenant == "bulk" and key[0] == 0  # the lowest class goes first
    assert q.depth == 3
    assert q.peek_eviction_candidate(priority=0) is None  # nothing strictly below
    victim = q.evict_newest_below(priority=2)
    assert (victim.request_id, victim.tenant) == (1, "bulk")  # its newest request
    assert q.depth == 2


def test_newest_request_breaks_ties_within_a_priority():
    q = RequestQueue(_priority_policy({"a": 0, "b": 0}))
    q.push(_req(0, tenant="a", t=0.0))
    q.push(_req(1, tenant="b", t=2.0))
    q.push(_req(2, tenant="a", t=1.0))
    # Across tenants of one priority the newest pending request goes first...
    assert q.evict_newest_below(priority=1).request_id == 1
    # ...and at one enqueue time the later request id does.
    q.push(_req(3, tenant="b", t=1.0))
    assert q.evict_newest_below(priority=1).request_id == 3


def test_without_a_policy_nobody_is_below_anybody():
    """Under the default policy every tenant is in the default class."""
    q = RequestQueue(SloPolicy())
    q.push(_req(0))
    assert q.earliest_deadline(0.01) == pytest.approx(0.01)  # no budget caps the wait
    assert q.peek_eviction_candidate(priority=0) is None
    assert q.evict_newest_below(priority=0) is None
    # Any higher standing outranks the default class's zero.
    assert q.evict_newest_below(priority=1).request_id == 0
    assert q.depth == 0
