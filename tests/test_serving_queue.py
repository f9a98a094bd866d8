"""Tests for the bounded multi-tenant request queue."""

import numpy as np
import pytest

from repro.errors import BackpressureError, ConfigurationError
from repro.serving import PendingRequest, RequestQueue


def _req(request_id, tenant="t0", t=0.0):
    return PendingRequest(
        request_id=request_id,
        tenant=tenant,
        x=np.zeros(4),
        arrival_time=t,
        enqueue_time=t,
    )


def test_single_tenant_fifo_order():
    q = RequestQueue(capacity=8)
    for i in range(5):
        q.push(_req(i))
    assert [r.request_id for r in q.pop_fair(5)] == [0, 1, 2, 3, 4]
    assert q.depth == 0


def test_round_robin_interleaves_tenants():
    q = RequestQueue(capacity=32)
    for i in range(10):
        q.push(_req(i, tenant="hog"))
    for i in range(2):
        q.push(_req(100 + i, tenant="mouse"))
    popped = q.pop_fair(4)
    # One per tenant per rotation: the saturating tenant cannot fill a batch.
    assert [r.tenant for r in popped] == ["hog", "mouse", "hog", "mouse"]


def test_rotation_resumes_where_it_stopped():
    q = RequestQueue(capacity=32)
    for tenant in ("a", "b", "c"):
        for i in range(3):
            q.push(_req(i, tenant=tenant))
    first = [r.tenant for r in q.pop_fair(2)]
    second = [r.tenant for r in q.pop_fair(2)]
    assert first == ["a", "b"]
    assert second == ["c", "a"]


def test_backpressure_sheds_beyond_capacity():
    q = RequestQueue(capacity=3)
    for i in range(3):
        q.push(_req(i))
    with pytest.raises(BackpressureError):
        q.push(_req(99))
    assert q.shed_count == 1
    assert q.depth == 3
    # Draining frees capacity again.
    q.pop_fair(1)
    q.push(_req(4))
    assert q.depth == 3


def test_oldest_enqueue_time_tracks_heads():
    q = RequestQueue(capacity=8)
    assert q.oldest_enqueue_time() is None
    q.push(_req(0, tenant="a", t=1.0))
    q.push(_req(1, tenant="b", t=0.5))
    assert q.oldest_enqueue_time() == 0.5
    q.pop_fair(1)  # pops tenant a first (arrival order of tenants)
    assert q.oldest_enqueue_time() == 0.5
    assert q.depth_by_tenant() == {"b": 1}


def test_invalid_capacity_rejected():
    with pytest.raises(ConfigurationError):
        RequestQueue(capacity=0)


def test_new_tenant_mid_rotation_cannot_jump_the_turn_order():
    """Regression: the old integer cursor re-mapped onto a grown tenant
    list, letting a brand-new tenant serve ahead of tenants already
    waiting their turn (and double-serving others)."""
    q = RequestQueue(capacity=32)
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
    q = RequestQueue(capacity=32)
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
    # The seen-tenant listing (first-arrival order) is unaffected.
    assert q.tenants == ["a", "b"]


# ----------------------------------------------------------------------
# class-weighted fair draining (deficit round-robin)
# ----------------------------------------------------------------------
def _weighted_policy(weights):
    from repro.serving import SloClass, SloPolicy

    classes = {
        name: SloClass(name=name, drain_weight=w) for name, w in weights.items()
    }
    return SloPolicy(
        classes=classes, assignments={name: name for name in weights}
    )


def test_default_weight_is_bit_identical_to_classic_rotation():
    """With every class at drain_weight=1 (or no policy), the deficit
    round-robin must pop the exact same sequence as the old
    one-request-per-turn rotation."""
    plain = RequestQueue(capacity=64)
    weighted = RequestQueue(capacity=64, slo=_weighted_policy({"a": 1.0, "b": 1.0}))
    for q in (plain, weighted):
        for i in range(6):
            q.push(_req(i, tenant="a"))
        for i in range(3):
            q.push(_req(100 + i, tenant="b"))
    for n in (4, 3, 2):
        assert [r.request_id for r in plain.pop_fair(n)] == [
            r.request_id for r in weighted.pop_fair(n)
        ]


def test_premium_tenant_drains_proportionally_under_contention():
    q = RequestQueue(capacity=64, slo=_weighted_policy({"prem": 3.0, "std": 1.0}))
    for i in range(12):
        q.push(_req(i, tenant="prem"))
        q.push(_req(100 + i, tenant="std"))
    out = q.pop_fair(8)
    by_tenant = {}
    for r in out:
        by_tenant[r.tenant] = by_tenant.get(r.tenant, 0) + 1
    # 3:1 split of an 8-slot window, both backlogs deep enough.
    assert by_tenant == {"prem": 6, "std": 2}
    # FIFO within each tenant survives the weighting.
    assert [r.request_id for r in out if r.tenant == "prem"] == list(range(6))


def test_fractional_weights_accumulate_as_deficit_credit():
    q = RequestQueue(capacity=64, slo=_weighted_policy({"fast": 1.5, "slow": 1.0}))
    for i in range(12):
        q.push(_req(i, tenant="fast"))
        q.push(_req(100 + i, tenant="slow"))
    counts = {"fast": 0, "slow": 0}
    for _ in range(4):
        for r in q.pop_fair(3):
            counts[r.tenant] += 1
    # 1.5 credit/turn: fast's turns alternate 1 and 2 pops as the 0.5
    # fractions bank up, landing at 7:5 over twelve slots — within one
    # turn of the ideal 1.5:1 split, which a one-per-turn rotation
    # (6:6) can never reach.
    assert counts == {"fast": 7, "slow": 5}


def test_drained_tenant_forfeits_banked_credit():
    q = RequestQueue(capacity=64, slo=_weighted_policy({"fast": 1.5}))
    q.push(_req(0, tenant="fast"))
    q.push(_req(100, tenant="other"))
    q.push(_req(1, tenant="fast"))
    # fast's turn pops 1 (credit 1.5 -> leftover 0.5 banked)...
    assert [r.request_id for r in q.pop_fair(2)] == [0, 100]
    # ...then pops the last one and drains; its 0.5 carry must die with
    # the rotation entry rather than resurrect on re-activation.
    assert [r.request_id for r in q.pop_fair(2)] == [1]
    q.push(_req(2, tenant="fast"))
    q.push(_req(3, tenant="fast"))
    q.push(_req(4, tenant="fast"))
    # Fresh activation: 1.5 credit again -> one pop, not two.
    q.push(_req(101, tenant="other"))
    popped = q.pop_fair(2)
    assert [r.request_id for r in popped] == [2, 101]


def test_weight_below_one_is_rejected():
    from repro.serving import SloClass

    with pytest.raises(ConfigurationError):
        SloClass(name="thin", drain_weight=0.5)


# ----------------------------------------------------------------------
# per-class admission quotas
# ----------------------------------------------------------------------
def _quota_policy(shares, priorities=None):
    from repro.serving import SloClass, SloPolicy

    priorities = priorities or {}
    classes = {
        name: SloClass(
            name=name, admission_share=s, priority=priorities.get(name, 0)
        )
        for name, s in shares.items()
    }
    return SloPolicy(classes=classes, assignments={name: name for name in shares})


def test_quota_caps_a_class_at_its_share_of_capacity():
    from repro.errors import QuotaExceededError

    q = RequestQueue(capacity=8, slo=_quota_policy({"bulk": 0.25, "prem": 1.0}))
    q.push(_req(0, tenant="bulk"))
    q.push(_req(1, tenant="bulk"))
    # 0.25 * 8 = 2 slots: the third bulk arrival is refused even though
    # the queue itself has plenty of room.
    with pytest.raises(QuotaExceededError):
        q.push(_req(2, tenant="bulk"))
    assert q.quota_shed_count == 1
    assert q.shed_count == 1
    assert q.depth == 2
    # Other classes are unaffected.
    for i in range(6):
        q.push(_req(100 + i, tenant="prem"))
    assert q.depth == 8


def test_quota_slots_are_released_on_drain():
    from repro.errors import QuotaExceededError

    q = RequestQueue(capacity=8, slo=_quota_policy({"bulk": 0.25}))
    q.push(_req(0, tenant="bulk"))
    q.push(_req(1, tenant="bulk"))
    with pytest.raises(QuotaExceededError):
        q.push(_req(2, tenant="bulk"))
    q.pop_fair(1)
    q.push(_req(3, tenant="bulk"))  # freed slot admits again
    assert q.depth_by_class() == {"bulk": 2}


def test_quota_slots_are_released_on_eviction():
    from repro.errors import QuotaExceededError

    policy = _quota_policy(
        {"bulk": 0.5, "prem": 1.0}, priorities={"bulk": 0, "prem": 1}
    )
    q = RequestQueue(capacity=4, slo=policy)
    q.push(_req(0, tenant="bulk"))
    q.push(_req(1, tenant="bulk"))
    with pytest.raises(QuotaExceededError):
        q.push(_req(2, tenant="bulk"))
    for i in range(2):
        q.push(_req(100 + i, tenant="prem"))
    # Full queue: premium evicts the newest bulk request, and the quota
    # accounting must follow the victim out of the queue.
    evicted = q.push(_req(102, tenant="prem"))
    assert evicted is not None and evicted.tenant == "bulk"
    assert q.depth_by_class() == {"bulk": 1, "prem": 3}
    q.pop_fair(1)  # bulk is first in rotation
    q.push(_req(3, tenant="bulk"))  # back under its 2-slot cap


def test_over_quota_class_cannot_evict_to_grow():
    """The quota check runs before eviction: a premium flood with a
    share cap cannot push every best-effort request out of the queue."""
    from repro.errors import QuotaExceededError

    policy = _quota_policy(
        {"bulk": 1.0, "prem": 0.5}, priorities={"bulk": 0, "prem": 1}
    )
    q = RequestQueue(capacity=4, slo=policy)
    for i in range(2):
        q.push(_req(i, tenant="bulk"))
    q.push(_req(100, tenant="prem"))
    q.push(_req(101, tenant="prem"))
    # Queue full AND prem at its 2-slot cap: without the quota this
    # arrival would evict bulk request 1; with it, the arrival sheds.
    with pytest.raises(QuotaExceededError):
        q.push(_req(102, tenant="prem"))
    assert q.evicted_count == 0
    assert q.depth_by_class() == {"bulk": 2, "prem": 2}


def test_quota_always_grants_at_least_one_slot():
    q = RequestQueue(capacity=4, slo=_quota_policy({"tiny": 0.01}))
    q.push(_req(0, tenant="tiny"))  # int(0.01 * 4) == 0, floored to 1
    assert q.depth == 1


def test_full_share_class_never_hits_the_quota_path():
    q = RequestQueue(capacity=4, slo=_quota_policy({"std": 1.0}))
    for i in range(4):
        q.push(_req(i, tenant="std"))
    with pytest.raises(BackpressureError):
        q.push(_req(9, tenant="std"))
    assert q.quota_shed_count == 0


# ----------------------------------------------------------------------
# eviction candidates
# ----------------------------------------------------------------------
def test_peek_eviction_candidate_names_the_victim_without_taking_it():
    policy = _quota_policy(
        {"bulk": 1.0, "std": 1.0, "prem": 1.0},
        priorities={"bulk": 0, "std": 1, "prem": 2},
    )
    q = RequestQueue(capacity=8, slo=policy)
    q.push(_req(0, tenant="bulk", t=0.0))
    q.push(_req(1, tenant="bulk", t=1.0))
    q.push(_req(2, tenant="std", t=2.0))
    key, tenant = q.peek_eviction_candidate(priority=2)
    assert tenant == "bulk" and key[0] == 0  # the lowest class goes first
    assert q.depth == 3 and q.evicted_count == 0
    assert q.peek_eviction_candidate(priority=0) is None  # nothing strictly below
    victim = q.evict_newest_below(priority=2)
    assert (victim.request_id, victim.tenant) == (1, "bulk")  # its newest request
    assert q.depth == 2 and q.evicted_count == 1


def test_without_a_policy_nobody_is_below_anybody():
    q = RequestQueue(capacity=4)
    q.push(_req(0))
    assert q.peek_eviction_candidate(priority=0) is None
    assert q.evict_newest_below(priority=0) is None
    # Any higher standing outranks the policy-free default of zero.
    assert q.evict_newest_below(priority=1).request_id == 0
    assert q.depth == 0
