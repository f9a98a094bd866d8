"""End-to-end tests for multi-enclave sharded serving.

Covers the three load-bearing properties of the sharding subsystem:

* correctness — every shard count serves bit-identical logits on the
  same trace (per-sample normalization makes responses independent of
  batch composition, hence of routing);
* scaling — parallel enclave timelines beat one serialized timeline on
  enclave-bound traffic;
* resilience — a shard killed mid-window fails its sessions over through
  the attestation mesh onto survivors with per-batch retry, dropping and
  corrupting nothing.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import Dense, PlainBackend, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import PrivateInferenceServer, ServingConfig, SloPolicy, synthetic_trace
from repro.sharding import ShardRouter
from serving_units import make_membership


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _serve(trace, num_shards, **kwargs):
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=num_shards)
    config = ServingConfig(darknight=dk, queue_capacity=512, **kwargs)
    server = PrivateInferenceServer(_tiny_net(), config)
    return server, server.serve_trace(trace)


def test_shard_counts_serve_bit_identical_logits():
    """num_shards in {1, 2, 4} must agree to the last bit per request."""
    trace = synthetic_trace(48, (16,), n_tenants=8, mean_interarrival=1e-4, seed=3)
    logits_by_count = {}
    for num_shards in (1, 2, 4):
        _, report = _serve(trace, num_shards)
        assert len(report.completed) == 48
        assert report.shards == num_shards
        logits_by_count[num_shards] = {
            o.request_id: o.logits for o in report.completed
        }
    for num_shards in (2, 4):
        for rid, logits in logits_by_count[1].items():
            assert np.array_equal(logits, logits_by_count[num_shards][rid]), (
                f"request {rid} differs between 1 and {num_shards} shards"
            )


def test_sharded_serving_matches_float_reference():
    trace = synthetic_trace(32, (16,), n_tenants=6, mean_interarrival=1e-4, seed=4)
    _, report = _serve(trace, 2)
    events = sorted(trace, key=lambda r: r.time)
    reference = _tiny_net().forward(
        np.stack([e.x for e in events]), PlainBackend(), training=False
    )
    by_id = {o.request_id: o for o in report.completed}
    for i in range(len(events)):
        assert np.max(np.abs(by_id[i].logits - reference[i])) < 0.1
        assert by_id[i].prediction == int(np.argmax(reference[i]))


def test_parallel_timelines_scale_enclave_bound_throughput():
    """2 shards ~2x one shard's simulated throughput when enclave-bound."""
    trace = synthetic_trace(160, (16,), n_tenants=16, mean_interarrival=2e-5, seed=5)
    _, single = _serve(trace, 1, max_batch_wait=2e-3)
    _, dual = _serve(trace, 2, max_batch_wait=2e-3)
    assert len(single.completed) == len(dual.completed) == 160
    assert dual.metrics.throughput / single.metrics.throughput >= 1.6


def test_tenants_stay_pinned_and_sessions_are_shard_scoped():
    trace = synthetic_trace(40, (16,), n_tenants=6, mean_interarrival=1e-4, seed=6)
    server, report = _serve(trace, 3)
    # One handshake per tenant even though requests spread over time.
    assert report.handshakes == 6
    assert sorted(server.membership.active_tenants) == sorted(report.tenants)
    # Session shard matches the router's pin for every tenant.
    for unit in server.units:
        for tenant in unit.sessions.active_tenants:
            assert server.router.pins()[tenant] == unit.unit_id


def test_shard_killed_mid_window_fails_over_without_losing_responses():
    """The ISSUE's failover drill: kill a shard mid-window, expect every
    session to re-attest through the mesh onto a survivor and every
    request to complete with correct logits (per-batch retry)."""
    n = 64
    trace = synthetic_trace(n, (16,), n_tenants=8, mean_interarrival=2e-5, seed=5)
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=3)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=256)
    )
    victim = server.shards[1]
    victim.fail_after(2)  # 2 batches in, the next window dies partway

    report = server.serve_trace(trace)

    # No dropped responses: every request completed despite the failure.
    assert len(report.completed) == n
    assert all(o.ok for o in report.outcomes)
    assert report.failovers == 1
    assert report.migrations >= 1
    assert not victim.healthy
    assert 1 not in server.router.healthy_shards()
    assert victim.failed_at is not None

    # No corrupted responses: logits still track the float reference.
    events = sorted(trace, key=lambda r: r.time)
    reference = _tiny_net().forward(
        np.stack([e.x for e in events]), PlainBackend(), training=False
    )
    by_id = {o.request_id: o for o in report.completed}
    for i in range(n):
        assert np.max(np.abs(by_id[i].logits - reference[i])) < 0.1

    # Sessions re-attested onto survivors: the dead shard holds none, and
    # the displaced tenants' migrations show up as extra handshakes.
    assert server.units[1].sessions.active_tenants == []
    assert report.handshakes == 8 + report.migrations
    # Per-batch retry: every scheduled batch produced outcomes exactly once.
    batch_ids = [o.batch_id for o in report.outcomes if o.batch_id is not None]
    assert len(set(batch_ids)) == report.metrics.batches


def test_scale_in_keeps_the_retired_units_handshakes_in_the_report():
    """Regression: the report summed handshakes over non-retired units
    only, so decommissioning a shard made its lifetime handshakes vanish
    (8 tenants, 4 migrated off the victim: 12 performed, 8 reported)."""
    trace = synthetic_trace(32, (16,), n_tenants=8, mean_interarrival=2e-5, seed=5)
    server, report = _serve(trace, 2)
    assert (report.handshakes, report.migrations) == (8, 0)

    server.decommission_shard()
    report = server.report()
    assert report.migrations >= 1
    assert report.handshakes == 8 + report.migrations
    assert report.handshakes == sum(
        u.sessions.handshakes_performed for u in server.units
    )


def test_failover_logits_match_unfailed_run_bit_for_bit():
    """Migration must not perturb values: the run with a mid-trace shard
    death serves the exact logits of the same trace with no failure."""
    trace = synthetic_trace(48, (16,), n_tenants=8, mean_interarrival=2e-5, seed=7)
    _, healthy_report = _serve(trace, 3)
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=3)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=512)
    )
    server.shards[2].fail_after(1)
    failed_report = server.serve_trace(trace)
    assert len(failed_report.completed) == 48
    healthy = {o.request_id: o.logits for o in healthy_report.completed}
    failed = {o.request_id: o.logits for o in failed_report.completed}
    for rid, logits in healthy.items():
        assert np.array_equal(logits, failed[rid])


def test_total_outage_fails_requests_without_crashing_the_server():
    """When the only shard dies there is nowhere to fail over to: affected
    requests must end as ``shard_failed`` outcomes, not a raised error."""
    from repro.serving import STATUS_SHARD_FAILED

    n = 16
    trace = synthetic_trace(n, (16,), n_tenants=2, mean_interarrival=2e-5, seed=8)
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=1)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=64)
    )
    server.shards[0].fail_after(1)
    report = server.serve_trace(trace)
    # The replay ran to completion and every request got a terminal outcome.
    assert len(report.outcomes) == n
    failed = [o for o in report.outcomes if o.status == STATUS_SHARD_FAILED]
    assert len(report.completed) == 4  # the one batch served before death
    assert len(failed) == n - 4
    assert all(o.error for o in failed)
    assert report.metrics.shard_failures == n - 4
    assert report.failovers == 1
    assert "shard_failed" not in report.render()  # render stays tabular
    assert "1 failovers" in report.render()


@pytest.mark.parametrize("depth", [1, 2])
def test_a_cascading_total_outage_still_ends_every_request_once(depth):
    """Regression: responses computed before the last healthy unit died
    later in the same window had no live session to carry them, and the
    routing error escaped ``serve_trace``.  They now end ``shard_failed``."""
    from repro.serving import STATUS_SHARD_FAILED

    trace = synthetic_trace(40, (16,), n_tenants=6, mean_interarrival=2e-5, seed=0)
    dk = DarKnightConfig(
        virtual_batch_size=4, seed=0, num_shards=2, pipeline_depth=depth
    )
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=512)
    )
    server.shards[0].fail_after(3)
    server.shards[1].fail_after(7)
    report = server.serve_trace(trace)

    assert sorted(o.request_id for o in report.outcomes) == list(range(40))
    failed = [o for o in report.outcomes if not o.ok]
    assert any("no healthy shards" in o.error for o in failed)
    assert all(o.status == STATUS_SHARD_FAILED and o.logits is None for o in failed)
    assert report.metrics.shard_failures + report.metrics.completed == 40


def test_failed_batch_splits_across_tenants_new_shards():
    """A mixed-tenant batch whose shard dies retries each request on the
    shard its *migrated* session now lives on — one sub-batch per target."""
    from repro.serving import InferenceWorkerPool, PendingRequest, ScheduledBatch, SloPolicy
    from repro.sharding import EnclaveShard

    dk = DarKnightConfig(virtual_batch_size=4, seed=0)
    shards = [EnclaveShard.provision(i, _tiny_net(), dk) for i in range(3)]
    router = ShardRouter(3, SloPolicy())
    membership = make_membership(shards, router)
    units = membership.units
    tenants = ["alice", "bob", "carol"]
    # White-box: pin all three tenants (and their sessions) to shard 0.
    router._pins = {t: 0 for t in tenants}
    router._load = [3, 0, 0]
    for t in tenants:
        membership.connect(t)
    pool = InferenceWorkerPool(membership, slo=SloPolicy())

    def failed_over():
        return [u.unit_id for u in units if u.shards[0].failed_at is not None]

    shards[0].healthy = False
    rng = np.random.default_rng(1)
    batch = ScheduledBatch(
        batch_id=7,
        requests=[
            PendingRequest(
                request_id=i, tenant=t, x=rng.normal(size=16),
                arrival_time=0.0,
            )
            for i, t in enumerate(tenants)
        ],
        flush_time=0.0,
        trigger="size",
        slots=4,
        shard_id=0,
    )
    outcomes = pool.dispatch_window([batch])

    assert sorted(o.request_id for o in outcomes) == [0, 1, 2]
    assert all(o.ok and o.batch_id == 7 for o in outcomes)
    # Margin-1 rebalancing spreads 3 displaced tenants over 2 survivors,
    # so the retry necessarily split into one sub-batch per target shard.
    pins = router.pins()
    targets = {pins[t] for t in tenants}
    assert targets == {1, 2}
    for target in targets:
        expected = sum(1 for t in tenants if pins[t] == target)
        assert shards[target].batches_run == 1  # one sub-batch each
        assert sorted(units[target].sessions.active_tenants) == sorted(
            t for t in tenants if pins[t] == target
        )
        assert expected >= 1
    assert membership.migrations == 3
    assert failed_over() == [0]

    # A leftover batch still addressed to the dead shard (flushed from its
    # queue after the failure) reroutes without counting a second failover.
    leftover = ScheduledBatch(
        batch_id=8,
        requests=[
            PendingRequest(
                request_id=3, tenant="alice", x=rng.normal(size=16),
                arrival_time=0.0,
            )
        ],
        flush_time=0.0,
        trigger="deadline",
        slots=4,
        shard_id=0,
    )
    late = pool.dispatch_window([leftover])
    assert len(late) == 1 and late[0].ok
    assert failed_over() == [0]
    assert membership.migrations == 3


def test_refused_migration_leaves_no_tenant_with_two_sessions():
    """If the mesh refuses a migration target, the dead shard's sessions
    are dropped outright: the failing window's batches fail, no tenant is
    ever listed on two shards, and migrations stays zero."""
    trace = synthetic_trace(24, (16,), n_tenants=4, mean_interarrival=2e-5, seed=12)
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=64)
    )
    # White-box: sabotage the (normally startup-verified) mesh so the
    # failover gate refuses every cross-shard migration.
    server.mesh._links.clear()
    server.shards[0].fail_after(1)
    report = server.serve_trace(trace)
    assert len(report.outcomes) == 24
    assert report.migrations == 0
    # The dead shard holds no stale sessions.
    assert server.units[0].sessions.active_tenants == []
    # No tenant appears on more than one shard.
    placed = server.membership.active_tenants
    assert len(placed) == len(set(placed))
    # Later arrivals re-attested fresh on the survivor and were served.
    assert len(report.completed) + report.metrics.shard_failures == 24
    assert report.metrics.shard_failures >= 1


def test_retries_release_after_the_failure_frontier():
    """A retried batch cannot start on the survivor before the dead
    shard's failure was observable — failover cost must reach the
    latency metrics instead of vanishing from the simulated clock."""
    from repro.serving import InferenceWorkerPool, PendingRequest, ScheduledBatch, SloPolicy
    from repro.sharding import EnclaveShard

    dk = DarKnightConfig(virtual_batch_size=2, seed=0)
    shards = [EnclaveShard.provision(i, _tiny_net(), dk) for i in range(2)]
    pool = InferenceWorkerPool(make_membership(shards), slo=SloPolicy())
    shards[0].fail_after(1)
    rng = np.random.default_rng(2)
    batches = [
        ScheduledBatch(
            batch_id=b,
            requests=[
                PendingRequest(
                    request_id=2 * b + i, tenant=f"t{i}", x=rng.normal(size=16),
                    arrival_time=0.0,
                )
                for i in range(2)
            ],
            flush_time=0.0,
            trigger="size",
            slots=2,
            shard_id=0,
        )
        for b in range(2)
    ]
    outcomes = pool.dispatch_window(batches)
    assert len(outcomes) == 4 and all(o.ok for o in outcomes)
    frontier = shards[0].timeline.free_at  # where the dead shard stopped
    assert frontier > 0.0
    retried = [o for o in outcomes if o.batch_id == 1]
    assert all(o.dispatch_time >= frontier for o in retried)


def test_retry_cap_counts_surviving_shards_only():
    """Regression: the cascade cap used ``len(self.shards)`` (dead ones
    included), letting a much-retried batch keep bouncing long after the
    fleet shrank.  The cap must track survivors — while still always
    allowing the last survivor one honest attempt."""
    from repro.serving import (
        STATUS_SHARD_FAILED,
        InferenceWorkerPool,
        PendingRequest,
        ScheduledBatch,
    )
    from repro.sharding import EnclaveShard

    def _batch(retries):
        rng = np.random.default_rng(3)
        return ScheduledBatch(
            batch_id=1,
            requests=[
                PendingRequest(
                    request_id=0, tenant="t0", x=rng.normal(size=16),
                    arrival_time=0.0,
                )
            ],
            flush_time=0.0,
            trigger="size",
            slots=2,
            shard_id=0,
            retries=retries,
        )

    dk = DarKnightConfig(virtual_batch_size=2, seed=0)
    shards = [EnclaveShard.provision(i, _tiny_net(), dk) for i in range(3)]
    membership = make_membership(shards)
    pool = InferenceWorkerPool(membership, slo=SloPolicy())
    shards[0].healthy = False
    shards[1].healthy = False
    # An earlier failover already took shard 1 out.
    membership.leave(membership.units[1], 0.0, failed=True)

    # retries already exceed the single survivor: capped, not bounced.
    (capped,) = pool.dispatch_window([_batch(retries=2)])
    assert capped.status == STATUS_SHARD_FAILED
    assert "exhausted" in capped.error

    # At the cap boundary the last survivor still gets its attempt.
    (served,) = pool.dispatch_window([_batch(retries=1)])
    assert served.ok
    assert shards[2].batches_run == 1


def test_failover_repins_do_not_inflate_the_rebalance_counter():
    """A failover re-pins exactly the dead shard's tenants, onto survivors,
    and leaves every other pin where it was."""
    router = ShardRouter(3, SloPolicy())
    for i in range(12):
        router.shard_for(f"tenant{i}")
    before = router.pins()
    displaced = [t for t, s in before.items() if s == 1]
    assert displaced
    remap = router.remove_shard(1)
    assert sorted(remap) == sorted(displaced)
    after = router.pins()
    assert {t: s for t, s in after.items() if t not in remap} == {
        t: s for t, s in before.items() if t not in remap
    }
    assert all(after[t] == s != 1 for t, s in remap.items())
    # Placements afterwards avoid the dead shard too.
    for i in range(12, 24):
        assert router.shard_for(f"tenant{i}") != 1


def test_num_shards_below_one_is_rejected():
    with pytest.raises(ConfigurationError):
        DarKnightConfig(num_shards=0)


def test_budget_exhausted_retries_are_skipped_not_bounced():
    """A failover retry whose class budget already expired at the failure
    frontier must terminate (counted) instead of burning a survivor;
    budget-holding co-batched requests still retry and complete."""
    from repro.serving import (
        STATUS_SHARD_FAILED,
        InferenceWorkerPool,
        PendingRequest,
        ScheduledBatch,
        SloClass,
        SloPolicy,
    )
    from repro.sharding import EnclaveShard

    slo = SloPolicy(
        classes={"tight": SloClass(name="tight", latency_budget=1e-9)},
        assignments={"hurried": "tight"},
    )
    dk = DarKnightConfig(virtual_batch_size=2, seed=0)
    shards = [EnclaveShard.provision(i, _tiny_net(), dk) for i in range(2)]
    pool = InferenceWorkerPool(make_membership(shards), slo=slo)
    shards[0].fail_after(1)
    rng = np.random.default_rng(4)

    def _pending(rid, tenant):
        return PendingRequest(
            request_id=rid, tenant=tenant, x=rng.normal(size=16),
            arrival_time=0.0,
        )

    batches = [
        ScheduledBatch(
            batch_id=0,
            requests=[_pending(0, "calm"), _pending(1, "calm")],
            flush_time=0.0, trigger="size", slots=2, shard_id=0,
        ),
        ScheduledBatch(
            batch_id=1,
            requests=[_pending(2, "hurried"), _pending(3, "calm")],
            flush_time=0.0, trigger="size", slots=2, shard_id=0,
        ),
    ]
    outcomes = pool.dispatch_window(batches)
    assert len(outcomes) == 4
    by_id = {o.request_id: o for o in outcomes}
    # The first batch completed before the shard died.
    assert by_id[0].ok and by_id[1].ok
    # The expired-budget request was skipped, with the reason recorded.
    assert by_id[2].status == STATUS_SHARD_FAILED
    assert "budget exhausted" in by_id[2].error
    assert pool.retries_skipped_budget == 1
    # Its co-batched budget-holder still failed over and completed —
    # after the failure frontier, on the survivor.
    assert by_id[3].ok
    assert by_id[3].dispatch_time >= shards[0].timeline.free_at
    assert shards[1].batches_run == 1


def test_infinite_budgets_never_skip_retries():
    """Without a policy (or with all-default classes) failover retries
    behave exactly as before: everything bounces, nothing is skipped."""
    from repro.serving import InferenceWorkerPool, PendingRequest, ScheduledBatch, SloPolicy
    from repro.sharding import EnclaveShard

    dk = DarKnightConfig(virtual_batch_size=2, seed=0)
    shards = [EnclaveShard.provision(i, _tiny_net(), dk) for i in range(2)]
    pool = InferenceWorkerPool(make_membership(shards), slo=SloPolicy())
    shards[0].fail_after(1)
    rng = np.random.default_rng(5)
    batches = [
        ScheduledBatch(
            batch_id=b,
            requests=[
                PendingRequest(
                    request_id=2 * b + i, tenant=f"t{i}", x=rng.normal(size=16),
                    arrival_time=0.0,
                )
                for i in range(2)
            ],
            flush_time=0.0, trigger="size", slots=2, shard_id=0,
        )
        for b in range(2)
    ]
    outcomes = pool.dispatch_window(batches)
    assert all(o.ok for o in outcomes)
    assert pool.retries_skipped_budget == 0


def test_service_floor_sheds_retries_that_cannot_finish_in_time():
    """A retry whose deadline has *not* passed at the failure frontier is
    still shed when the remaining budget is smaller than the measured
    per-batch service floor — no survivor can physically finish it in
    time, so retrying would burn a healthy enclave on a guaranteed miss.
    Counted separately from hard budget expiry."""
    import math

    from repro.serving import (
        STATUS_SHARD_FAILED,
        InferenceWorkerPool,
        PendingRequest,
        ScheduledBatch,
        SloClass,
        SloPolicy,
    )
    from repro.sharding import EnclaveShard

    dk = DarKnightConfig(virtual_batch_size=2, seed=0)
    rng = np.random.default_rng(6)
    xs = [rng.normal(size=16) for _ in range(4)]

    def _batches():
        reqs = [
            PendingRequest(
                request_id=i,
                tenant="hurried" if i == 2 else "calm",
                x=xs[i],
                arrival_time=0.0,
            )
            for i in range(4)
        ]
        return [
            ScheduledBatch(
                batch_id=0, requests=reqs[:2], flush_time=0.0,
                trigger="size", slots=2, shard_id=0,
            ),
            ScheduledBatch(
                batch_id=1, requests=reqs[2:], flush_time=0.0,
                trigger="size", slots=2, shard_id=0,
            ),
        ]

    # Probe run on identical shards: measure the failure frontier and the
    # per-batch service floor the real pool will have observed.
    probe_shards = [EnclaveShard.provision(i, _tiny_net(), dk) for i in range(2)]
    probe = InferenceWorkerPool(make_membership(probe_shards), slo=SloPolicy())
    probe_shards[0].fail_after(1)
    probed = probe.dispatch_window(_batches())
    assert all(o.ok for o in probed)
    floor = min(o.completion_time - o.dispatch_time for o in probed)
    assert math.isfinite(floor) and floor > 0
    frontier = probe_shards[0].timeline.free_at

    # Land the deadline strictly past the frontier but inside one floor:
    # not yet expired, physically unfinishable.
    slo = SloPolicy(
        classes={
            "tight": SloClass(name="tight", latency_budget=frontier + 0.5 * floor)
        },
        assignments={"hurried": "tight"},
    )
    shards = [EnclaveShard.provision(i, _tiny_net(), dk) for i in range(2)]
    pool = InferenceWorkerPool(make_membership(shards), slo=slo)
    shards[0].fail_after(1)
    outcomes = pool.dispatch_window(_batches())
    by_id = {o.request_id: o for o in outcomes}
    assert by_id[0].ok and by_id[1].ok
    assert by_id[2].status == STATUS_SHARD_FAILED
    assert "budget exhausted" in by_id[2].error
    assert pool.retries_skipped_floor == 1
    assert pool.retries_skipped_budget == 0
    # The co-batched infinite-budget request still failed over fine.
    assert by_id[3].ok
