"""Tests for per-tenant SLO classes across the whole request path."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import BackpressureError, ConfigurationError
from repro.serving import (
    FLUSH_BUDGET_FRACTION,
    PendingRequest,
    RequestQueue,
    ServerMetrics,
    ServingUnit,
    SloClass,
    SloPolicy,
    VirtualBatchScheduler,
    build_slo_policy,
)
from repro.serving.adaptive import AdaptiveFlushPolicy
from repro.serving.metrics import SHED_EVICTED
from repro.serving.requests import STATUS_OK, RequestOutcome
from repro.serving.scheduler import ShardedBatchScheduler
from repro.sharding import ShardRouter

PREMIUM = SloClass(name="premium", latency_budget=0.004, priority=2)
BULK = SloClass(name="bulk", latency_budget=math.inf, priority=-1, shed_weight=2.0)


def _policy(assignments=None):
    return SloPolicy(
        classes={"premium": PREMIUM, "bulk": BULK},
        assignments=assignments or {"p0": "premium", "b0": "bulk", "b1": "bulk"},
    )


def _req(request_id, tenant="t0", t=0.0):
    return PendingRequest(
        request_id=request_id,
        tenant=tenant,
        x=np.zeros(4),
        arrival_time=t,
        enqueue_time=t,
    )


# ----------------------------------------------------------------------
# SloClass / SloPolicy
# ----------------------------------------------------------------------
def test_default_class_is_todays_behavior():
    policy = SloPolicy()
    assert policy.budget_for("anyone") == math.inf
    assert policy.priority_for("anyone") == 0
    assert policy.class_for("anyone").name == "standard"
    assert policy.tightest_flush_budget() is None


def test_policy_lookups_and_class_table():
    policy = _policy()
    assert policy.budget_for("p0") == pytest.approx(0.004)
    assert policy.flush_budget_for("p0") == pytest.approx(
        0.004 * FLUSH_BUDGET_FRACTION
    )
    assert policy.priority_for("b0") == -1
    assert policy.priority_for("stranger") == 0
    assert policy.tightest_flush_budget() == pytest.approx(
        0.004 * FLUSH_BUDGET_FRACTION
    )
    table = {row["name"]: row for row in policy.class_table()}
    assert table["premium"]["tenants"] == ["p0"]
    assert table["bulk"]["latency_budget"] is None  # strict-JSON inf
    assert table["standard"]["priority"] == 0


def test_invalid_classes_and_assignments_rejected():
    with pytest.raises(ConfigurationError):
        SloClass(name="", latency_budget=1.0)
    with pytest.raises(ConfigurationError):
        SloClass(name="x", latency_budget=0.0)
    with pytest.raises(ConfigurationError):
        SloClass(name="x", shed_weight=-1.0)
    with pytest.raises(ConfigurationError):
        SloPolicy(classes={"a": SloClass(name="b")})
    with pytest.raises(ConfigurationError):
        SloPolicy(assignments={"t0": "undefined"})


def test_build_slo_policy_ranks_priority_by_budget_tightness():
    policy = build_slo_policy(
        {"premium": 0.002, "standard-plus": 0.050},
        {"t0": "premium", "t1": "standard-plus"},
    )
    assert policy.priority_for("t0") > policy.priority_for("t1") > 0
    assert policy.budget_for("t0") == pytest.approx(0.002)
    with pytest.raises(ConfigurationError):
        build_slo_policy({}, {"t0": "premium"})
    with pytest.raises(ConfigurationError):
        build_slo_policy({"premium": 0.0})


# ----------------------------------------------------------------------
# admission: class-aware eviction
# ----------------------------------------------------------------------
def test_premium_arrival_evicts_newest_lowest_priority_pending():
    q = RequestQueue(capacity=3, slo=_policy())
    q.push(_req(0, tenant="b0", t=0.0))
    q.push(_req(1, tenant="b0", t=0.001))
    q.push(_req(2, tenant="stranger", t=0.002))
    victim = q.push(_req(3, tenant="p0", t=0.003))
    # The newest *lowest-priority* pending request goes — bulk (-1)
    # before the default-class stranger, newest bulk request first.
    assert victim is not None and victim.request_id == 1
    assert q.depth == 3
    assert q.evicted_count == 1
    assert q.shed_count == 0
    # The premium request is queued, the stranger survived.
    tenants = {r.tenant for r in q.pop_fair(3)}
    assert tenants == {"b0", "stranger", "p0"}


def test_equal_priority_sheds_the_arrival_exactly_as_before():
    q = RequestQueue(capacity=2, slo=_policy())
    q.push(_req(0, tenant="stranger"))
    q.push(_req(1, tenant="other"))
    with pytest.raises(BackpressureError):
        q.push(_req(2, tenant="third"))  # default class cannot evict default
    assert q.shed_count == 1
    assert q.evicted_count == 0


def test_full_queue_of_premium_sheds_bulk_arrival():
    q = RequestQueue(capacity=1, slo=_policy())
    q.push(_req(0, tenant="p0"))
    with pytest.raises(BackpressureError):
        q.push(_req(1, tenant="b0"))
    assert q.depth == 1
    assert q.evicted_count == 0


def test_eviction_prunes_drained_tenant_from_rotation():
    q = RequestQueue(capacity=2, slo=_policy())
    q.push(_req(0, tenant="b0"))
    q.push(_req(1, tenant="stranger"))
    victim = q.push(_req(2, tenant="p0"))
    assert victim.request_id == 0  # b0's only request
    # b0 drained by eviction: rotation must not hold a phantom turn.
    assert [r.tenant for r in q.pop_fair(2)] == ["stranger", "p0"]
    assert q.depth == 0


def test_shed_weight_breaks_ties_within_a_priority():
    heavy = SloClass(name="heavy", priority=-1, shed_weight=5.0)
    light = SloClass(name="light", priority=-1, shed_weight=1.0)
    policy = SloPolicy(
        classes={"heavy": heavy, "light": light},
        assignments={"h": "heavy", "l": "light"},
    )
    q = RequestQueue(capacity=2, slo=policy)
    q.push(_req(0, tenant="l", t=0.0))
    q.push(_req(1, tenant="h", t=0.0))
    victim = q.push(_req(2, tenant="anyone", t=0.001))
    assert victim.tenant == "h"  # heavier shed weight goes first


def test_queue_without_policy_is_unchanged():
    q = RequestQueue(capacity=1)
    q.push(_req(0))
    with pytest.raises(BackpressureError):
        q.push(_req(1))
    assert q.evicted_count == 0
    assert q.earliest_deadline(0.01) == pytest.approx(0.01)


# ----------------------------------------------------------------------
# flush: minimum-remaining-budget deadlines
# ----------------------------------------------------------------------
def test_premium_budget_pulls_the_flush_deadline_forward():
    q = RequestQueue(capacity=16, slo=_policy())
    sched = VirtualBatchScheduler(q, batch_size=4, max_wait=0.010)
    q.push(_req(0, tenant="stranger", t=0.0))
    q.push(_req(1, tenant="p0", t=0.001))
    # Without SLO the deadline would be 0.010 (oldest + max_wait); the
    # premium flush budget (4ms * fraction = 2ms) fires at 0.003.
    assert sched.collect_expired(now=0.0029) == []
    batches = sched.collect_expired(now=0.0031)
    assert len(batches) == 1
    assert batches[0].flush_time == pytest.approx(0.001 + PREMIUM.flush_budget)
    assert {r.tenant for r in batches[0].requests} == {"stranger", "p0"}


def test_budgetless_queue_keeps_the_classic_deadline():
    q = RequestQueue(capacity=16, slo=_policy())
    sched = VirtualBatchScheduler(q, batch_size=4, max_wait=0.010)
    q.push(_req(0, tenant="stranger", t=0.0))
    q.push(_req(1, tenant="b0", t=0.004))
    assert sched.collect_expired(now=0.0099) == []
    batches = sched.collect_expired(now=0.0101)
    assert len(batches) == 1
    assert batches[0].flush_time == pytest.approx(0.010)


def test_sharded_mixed_deadline_drain_interleaves_in_deadline_order():
    """collect_expired must merge shards into one deadline-ordered stream
    even when per-shard deadlines interleave (mixed budgets + enqueue
    times) — asserted nowhere before this test."""
    slo = _policy()
    queues = [RequestQueue(16, slo=slo), RequestQueue(16, slo=slo)]
    ids = itertools.count()
    sched = ShardedBatchScheduler(
        [
            ServingUnit(
                executor=SimpleNamespace(shard_id=i, retired=False),
                queue=queue,
                scheduler=VirtualBatchScheduler(
                    queue, batch_size=1, max_wait=0.010, shard_id=i, id_source=ids
                ),
                sessions=None,
            )
            for i, queue in enumerate(queues)
        ]
    )
    # Shard 0: default-class requests -> deadlines 0.010 and 0.014.
    queues[0].push(_req(0, tenant="s0a", t=0.000))
    queues[0].push(_req(1, tenant="s0b", t=0.004))
    # Shard 1: a premium request (budget 2ms -> 0.008) and a default one
    # (0.012) — both interleave with shard 0's deadlines.
    queues[1].push(_req(2, tenant="p0", t=0.006))
    queues[1].push(_req(3, tenant="s1b", t=0.002))
    batches = sched.collect_expired(now=math.inf)
    flush_times = [b.flush_time for b in batches]
    assert flush_times == sorted(flush_times)
    assert [b.shard_id for b in batches] == [1, 0, 1, 0]
    assert flush_times == pytest.approx([0.008, 0.010, 0.012, 0.014])


def test_adaptive_policy_ceiling_clamps_to_the_tightest_flush_budget():
    policy = AdaptiveFlushPolicy(
        batch_size=4, max_wait=0.010, budget_ceiling=0.002
    )
    assert policy.ceiling == pytest.approx(0.002)
    for i in range(32):
        policy.observe_arrival(i * 1.0)  # huge gaps, winsorized at ceiling
    assert policy.current_wait() <= 0.002 + 1e-12
    with pytest.raises(ConfigurationError):
        AdaptiveFlushPolicy(batch_size=4, max_wait=0.01, budget_ceiling=0.0)


# ----------------------------------------------------------------------
# placement: SLO-aware pinning
# ----------------------------------------------------------------------
def test_premium_tenants_spread_across_lightly_loaded_shards():
    slo = build_slo_policy(
        {"premium": 0.005},
        {f"vip{i}": "premium" for i in range(4)},
    )
    router = ShardRouter(4, slo=slo)
    # Load the deployment unevenly with default-class tenants.
    for i in range(12):
        router.shard_for(f"tenant{i}")
    loads_before = router.loads()
    # Each premium tenant lands on the then-lightest shard, not the ring.
    for i in range(4):
        pinned = router.shard_for(f"vip{i}")
        assert loads_before[pinned] == min(loads_before)
        loads_before[pinned] += 1
    assert router.slo_pins == 4
    # Pins stay sticky on re-lookup (no double counting).
    router.shard_for("vip0")
    assert router.slo_pins == 4


# ----------------------------------------------------------------------
# metrics: per-class latency + shed split
# ----------------------------------------------------------------------
def _ok(request_id, tenant, arrival, completion):
    return RequestOutcome(
        request_id=request_id,
        tenant=tenant,
        status=STATUS_OK,
        arrival_time=arrival,
        dispatch_time=arrival,
        completion_time=completion,
        prediction=0,
    )


def test_per_class_percentiles_and_attainment():
    metrics = ServerMetrics(slo=_policy())
    metrics.record_outcome(_ok(0, "p0", 0.0, 0.003))   # inside 4ms budget
    metrics.record_outcome(_ok(1, "p0", 0.0, 0.009))   # violates it
    metrics.record_outcome(_ok(2, "b0", 0.0, 0.500))   # bulk: no budget
    assert metrics.class_latency_percentile("premium", 50) == pytest.approx(0.006)
    assert metrics.slo_attainment("premium") == pytest.approx(0.5)
    assert metrics.slo_attainment("bulk") == pytest.approx(1.0)
    assert metrics.slo_attainment() == pytest.approx(2 / 3)
    snap = metrics.snapshot()
    assert snap["slo_attainment"] == pytest.approx(2 / 3)
    assert snap["slo_classes"]["premium"]["completed"] == 2
    assert snap["slo_classes"]["premium"]["latency_budget"] == pytest.approx(0.004)
    assert snap["slo_classes"]["bulk"]["latency_budget"] is None
    assert "premium p99" in metrics.render()


def test_shed_accounting_distinguishes_eviction_from_admission():
    metrics = ServerMetrics(slo=_policy())
    metrics.record_shed("b0")  # default kind: refused at admission
    metrics.record_shed("b1", kind=SHED_EVICTED)
    assert metrics.shed == 2
    assert metrics.shed_at_admission == 1
    assert metrics.shed_evicted == 1
    snap = metrics.snapshot()
    assert snap["shed_at_admission"] == 1
    assert snap["shed_evicted"] == 1
    with pytest.raises(ValueError):
        metrics.record_shed("b0", kind="nonsense")


def test_metrics_without_policy_keep_stable_snapshot_shape():
    import json

    metrics = ServerMetrics()
    metrics.record_outcome(_ok(0, "a", 0.0, 0.01))
    snap = metrics.snapshot()
    assert snap["slo_attainment"] is None
    assert snap["slo_classes"] == {}
    json.loads(json.dumps(snap), parse_constant=lambda c: pytest.fail(c))


def test_equal_budgets_share_a_priority_rank():
    """Identical contracts must never evict each other: equal budgets map
    to one priority, regardless of class-name sort order."""
    policy = build_slo_policy({"gold": 0.005, "silver": 0.005, "bulk": 0.050})
    gold, silver, bulk = (
        policy.classes["gold"], policy.classes["silver"], policy.classes["bulk"]
    )
    assert gold.priority == silver.priority
    assert gold.priority > bulk.priority > 0


def test_admission_share_validation_and_cap():
    with pytest.raises(ConfigurationError):
        SloClass(name="bad", admission_share=0.0)
    with pytest.raises(ConfigurationError):
        SloClass(name="bad", admission_share=1.5)
    cls = SloClass(name="bulk", admission_share=0.25)
    assert cls.admission_cap(8) == 2
    assert cls.admission_cap(100) == 25
    # The floor: any valid share always gets at least one slot.
    assert SloClass(name="tiny", admission_share=0.01).admission_cap(4) == 1
    # class_table rows carry the knob for telemetry.
    table = SloPolicy(classes={"bulk": cls}).class_table()
    by_name = {row["name"]: row for row in table}
    assert by_name["bulk"]["admission_share"] == pytest.approx(0.25)
    assert by_name["standard"]["admission_share"] == pytest.approx(1.0)
