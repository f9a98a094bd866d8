"""Elastic shard autoscaling: dynamic membership, drain, and the loop.

Covers the load-bearing properties of the elastic serving stack:

* membership mechanics — the router, mesh, scheduler, worker pool, and
  membership all grow and shrink without disturbing work they already
  own;
* drain-before-kill — a decommissioned shard flushes (and audit-commits)
  its queued windows, migrates its sessions over still-verified mesh
  links, and only then leaves — through the same exit a failover takes;
* correctness — logits are bit-identical under *any* membership history
  (per-sample normalization makes responses independent of routing);
* the control loop — hysteresis and cooldown produce rare, bounded
  membership changes that never cross the configured min/max.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AttestationError, ConfigurationError, ShardError
from repro.nn import Dense, PlainBackend, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import (
    AutoscaleConfig,
    PrivateInferenceServer,
    RequestQueue,
    ServingConfig,
    ShardAutoscaler,
    SloPolicy,
    phased_trace,
    synthetic_trace,
)
from repro.serving.autoscale import (
    ACTION_SCALE_IN,
    ACTION_SCALE_OUT,
    UTILIZATION_HIGH,
    UTILIZATION_LOW,
    shard_ledger,
)
from repro.serving.requests import PendingRequest
from repro.sharding import PartitionSpec, ShardRouter


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _server(num_shards=1, autoscale=None, **kwargs):
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=num_shards)
    config = ServingConfig(
        darknight=dk, queue_capacity=512, autoscale=autoscale, **kwargs
    )
    return PrivateInferenceServer(_tiny_net(), config)


# ----------------------------------------------------------------------
# router membership
# ----------------------------------------------------------------------
def test_router_add_shard_assigns_next_id_and_repins_boundedly():
    router = ShardRouter(2, SloPolicy())
    tenants = [f"t{i}" for i in range(20)]
    before = {t: router.shard_for(t) for t in tenants}
    new_id, remap = router.add_shard()
    assert new_id == 2
    assert router.n_shards == 3
    # Every re-pinned tenant landed on the new shard, and the move set is
    # bounded (consistent hashing moves ~1/n of the keys, not all).
    assert all(shard == new_id for shard in remap.values())
    assert 0 < len(remap) < len(tenants)
    for t in tenants:
        assert router.shard_for(t) == (remap.get(t, before[t]))


def test_router_drain_blocks_new_placements_but_keeps_existing_pins():
    router = ShardRouter(3, SloPolicy())
    pinned = {f"t{i}": router.shard_for(f"t{i}") for i in range(12)}
    router.begin_drain(1)
    assert 1 in router.healthy_shards() and 1 not in router.placeable_shards()
    # Existing pins survive the drain window...
    for t, shard in pinned.items():
        assert router.shard_for(t) == shard
    # ...but fresh tenants never land on the draining shard.
    for i in range(40):
        assert router.shard_for(f"fresh{i}") != 1


def test_router_drain_rejects_unknown_and_last_shard():
    router = ShardRouter(1, SloPolicy())
    with pytest.raises(ConfigurationError):
        router.begin_drain(7)
    with pytest.raises(ShardError):
        router.begin_drain(0)


def test_router_remove_shard_repins_tenants_and_retires_the_id():
    router = ShardRouter(3, SloPolicy())
    tenants = [f"t{i}" for i in range(24)]
    for t in tenants:
        router.shard_for(t)
    victims = [t for t in tenants if router.shard_for(t) == 1]
    remap = router.remove_shard(1)
    assert 1 not in router.healthy_shards()
    assert sorted(remap) == sorted(victims)
    for t in tenants:
        assert router.shard_for(t) != 1
    # The id is never reused: the next join gets a fresh id.
    new_id, _ = router.add_shard()
    assert new_id == 3
    # Removing again is an idempotent no-op.
    assert router.remove_shard(1) == {}


def test_router_remove_shard_refuses_last_and_failed_shards():
    """The router removes any known id (a failover may take out the last
    one); refusing a failed or the last live unit is scale-in's call."""
    router = ShardRouter(2, SloPolicy())
    with pytest.raises(ConfigurationError):
        router.remove_shard(9)
    server = _server(num_shards=2)
    server.shards[0].healthy = False
    server.membership.leave(server.units[0], 0.0, failed=True)
    with pytest.raises(ShardError):
        server.decommission_shard(shard_id=0)  # failure accounting, not a drain
    with pytest.raises(ShardError):
        server.decommission_shard(shard_id=1)  # would leave no serving shard


# ----------------------------------------------------------------------
# mesh membership
# ----------------------------------------------------------------------
def test_mesh_extend_attests_only_the_new_links():
    server = _server(num_shards=3)
    before = server.mesh.handshakes
    new_id = server.provision_shard(now=0.0)
    # Incremental join: two handshake directions per live peer — not a
    # full n*(n-1) re-establishment.
    assert server.mesh.handshakes - before == 2 * 3
    for peer in range(3):
        assert server.mesh.verified(new_id, peer)


def test_mesh_retire_keeps_links_so_drains_can_still_migrate():
    server = _server(num_shards=3)
    server.decommission_shard(shard_id=1, now=0.0)
    assert server.shards[1].retired
    # The retired shard's links survive: inclusion proofs and any
    # in-flight drain migration still verify.
    assert server.mesh.verified(0, 1)
    # A newcomer attests against the live shards only, so a hand-off
    # between it and the retired shard is refused.
    new_id = server.provision_shard(now=0.0)
    assert server.mesh.verified(new_id, 0) and server.mesh.verified(new_id, 2)
    assert not server.mesh.verified(new_id, 1)
    with pytest.raises(AttestationError):
        server.mesh.assert_verified(new_id, 1)


# ----------------------------------------------------------------------
# queue re-homing
# ----------------------------------------------------------------------
def test_queue_extract_and_absorb_move_admitted_work_without_shedding():
    src, dst = RequestQueue(SloPolicy()), RequestQueue(SloPolicy())
    for i in range(4):
        tenant = "a" if i % 2 == 0 else "b"
        src.push(PendingRequest(i, tenant, np.zeros(4), float(i)))
    moved = src.extract_tenant("a")
    assert [r.request_id for r in moved] == [0, 2]
    assert src.depth == 2
    dst.absorb(moved)
    assert dst.depth == 2
    assert [r.request_id for r in dst.pop_fair(4)] == [0, 2]
    # Re-homing is not admission: a queue already at capacity still absorbs.
    full = RequestQueue(SloPolicy())
    full.push(PendingRequest(9, "c", np.zeros(4), 9.0))
    rest = src.extract_tenant("b")
    assert [r.request_id for r in rest] == [1, 3] and src.depth == 0
    full.absorb(rest)
    assert full.depth == 3
    assert src.extract_tenant("ghost") == []


# ----------------------------------------------------------------------
# the control loop (pure decision logic)
# ----------------------------------------------------------------------
def _cfg(**kwargs):
    defaults = dict(
        eval_interval=1.0,
        scale_out_cooldown=0.0,
        scale_in_cooldown=0.0,
        breaches_to_scale_out=2,
        breaches_to_scale_in=2,
    )
    defaults.update(kwargs)
    return AutoscaleConfig(**defaults)


def test_autoscaler_scales_out_after_a_streak_not_one_spike():
    asc = ShardAutoscaler(_cfg())
    high = {0: 50}
    action, _ = asc.evaluate(0.0, high, {0: 0.0})
    assert action is None  # streak of 1 < breaches_to_scale_out
    action, reason = asc.evaluate(1.0, high, {0: 0.0})
    assert action == ACTION_SCALE_OUT
    assert "overloaded" in reason


def test_autoscaler_cooldown_blocks_consecutive_actions():
    asc = ShardAutoscaler(_cfg(scale_out_cooldown=10.0))
    high = {0: 50}
    asc.evaluate(0.0, high, {0: 0.0})
    action, _ = asc.evaluate(1.0, high, {0: 0.0})
    assert action == ACTION_SCALE_OUT
    asc.record(action, 1, 2, 1.0, "test")
    # Still overloaded, but inside the cooldown window.
    asc.evaluate(2.0, {0: 50, 1: 50}, {0: 0.0, 1: 0.0})
    action, _ = asc.evaluate(3.0, {0: 50, 1: 50}, {0: 0.0, 1: 0.0})
    assert action is None
    action, _ = asc.evaluate(12.0, {0: 50, 1: 50}, {0: 0.0, 1: 0.0})
    assert action == ACTION_SCALE_OUT


def test_autoscaler_single_shard_never_scales_below_min():
    asc = ShardAutoscaler(_cfg(min_shards=1))
    for t in range(20):  # idle forever: depth 0, utilization 0
        action, _ = asc.evaluate(float(t), {0: 0}, {0: 0.0})
        assert action is None


def test_utilization_alone_counts_as_overload():
    """Empty queues, but the enclave busy UTILIZATION_HIGH of the wall."""
    asc = ShardAutoscaler(_cfg())
    asc.evaluate(0.0, {0: 0}, {0: 0.0})
    busy = UTILIZATION_HIGH
    action, _ = asc.evaluate(1.0, {0: 0}, {0: busy})
    assert action is None  # a streak of one
    action, reason = asc.evaluate(2.0, {0: 0}, {0: 2 * busy})
    assert action == ACTION_SCALE_OUT
    assert f"utilization {busy:.2f} (high {UTILIZATION_HIGH})" in reason


def test_utilization_between_the_bounds_holds_the_membership():
    """Idle queues do not scale in while the enclaves stay busy."""
    asc = ShardAutoscaler(_cfg(min_shards=1))
    mid = (UTILIZATION_LOW + UTILIZATION_HIGH) / 2
    busy = {0: 0.0, 1: 0.0}
    for t in range(10):
        action, reason = asc.evaluate(float(t), {0: 0, 1: 0}, busy)
        assert action is None and reason == "steady"
        busy = {k: v + mid for k, v in busy.items()}
    # The same idle queues with idle enclaves do scale in.
    for t in range(10, 13):
        action, reason = asc.evaluate(float(t), {0: 0, 1: 0}, busy)
    assert action == ACTION_SCALE_IN
    assert f"(low {UTILIZATION_LOW})" in reason


def test_autoscaler_respects_max_shards():
    asc = ShardAutoscaler(_cfg(max_shards=2))
    depths = {0: 50, 1: 50}
    for t in range(10):
        action, _ = asc.evaluate(float(t), depths, {0: 0.0, 1: 0.0})
        assert action is None


def test_autoscaler_shard_seconds_and_peak_ledger():
    server = _server(num_shards=1)
    server.provision_shard(now=2.0)
    server.decommission_shard(shard_id=1, now=5.0)
    server.provision_shard(now=5.0)
    shards = server.shards
    assert [(s.provisioned_at, s.retired_at) for s in shards] == [
        (0.0, None), (2.0, 5.0), (5.0, None)
    ]
    ledger = shard_ledger(shards, 10.0)
    assert ledger["shard_seconds"] == pytest.approx(10.0 + 3.0 + 5.0)
    # A retire and a provision at the same instant overlap: the peak
    # counts the join before the leave (the conservative reading).
    assert ledger["peak_shards"] == 3
    assert ledger["live_shards"] == [0, 2]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(min_shards=0),
        dict(min_shards=3, max_shards=2),
        dict(eval_interval=0.0),
        dict(queue_low=5.0, queue_high=4.0),
        dict(breaches_to_scale_out=0),
    ],
)
def test_autoscale_config_rejects_invalid_combinations(kwargs):
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(**kwargs)


# ----------------------------------------------------------------------
# server-level membership changes
# ----------------------------------------------------------------------
def test_provision_shard_joins_every_subsystem():
    server = _server(num_shards=2)
    new_id = server.provision_shard(now=0.0)
    assert new_id == 2
    assert len(server.shards) == 3
    assert server.router.n_shards == 3
    # One collection, shared by reference: every collaborator sees it.
    assert [u.unit_id for u in server.units] == [0, 1, 2]
    assert server.scheduler.units is server.units
    assert server.pool.units is server.units
    assert server.membership.units is server.units
    assert server.units[new_id].sessions.shard_id == new_id


def test_scripted_membership_history_serves_bit_identical_logits():
    """grow -> shrink -> grow, then serve: logits must match static."""
    trace = synthetic_trace(40, (16,), n_tenants=8, mean_interarrival=1e-4, seed=7)
    _, static_report = (lambda s: (s, s.serve_trace(trace)))(_server(num_shards=1))
    static = {o.request_id: o.logits for o in static_report.completed}

    server = _server(num_shards=1)
    server.provision_shard(now=0.0)      # grow: 1 -> 2
    server.provision_shard(now=0.0)      # grow: 2 -> 3
    server.decommission_shard(now=0.0)   # shrink: 3 -> 2
    server.provision_shard(now=0.0)      # grow again: 2 -> 3
    report = server.serve_trace(trace)
    assert len(report.completed) == 40
    assert all(o.ok for o in report.outcomes)
    for rid, logits in static.items():
        assert np.array_equal(logits, {o.request_id: o.logits for o in report.completed}[rid])


def test_decommission_mid_flush_completes_queued_work_and_commits_audit():
    """Scale-in with requests still queued on the victim: every one of
    them completes through the victim's own drain flush, and the flush
    windows land on the victim's audit chain before it retires."""
    from repro.serving import AuditConfig

    server = _server(num_shards=2, audit=AuditConfig())
    events = synthetic_trace(16, (16,), n_tenants=6, mean_interarrival=1e-4, seed=9)
    for e in events:
        server._admit(e, e.time)
    victim = max(range(2), key=lambda sid: server.units[sid].queue.depth)
    queued = server.units[victim].queue.depth
    assert queued > 0
    windows_before = server.audit.windows_committed

    vid = server.decommission_shard(shard_id=victim, now=1.0)

    assert vid == victim
    assert server.shards[victim].retired
    assert victim not in server.router.healthy_shards()
    assert server.shards[victim].failed_at is None
    assert server.units[victim].queue.depth == 0
    assert server.units[victim].state == "retired"
    # Every request queued on the victim completed through the drain
    # flush; the survivor's own queue is untouched.
    completed = [o for o in server._outcomes if o.ok]
    assert len(completed) == queued
    survivor = 1 - victim
    assert server.units[survivor].queue.depth == 16 - queued
    assert server.audit.windows_committed > windows_before
    # The retired shard's chain head stays published.
    assert victim in server.audit.chain_roots()
    assert server.audit.verify() == server.audit.windows_committed


def test_decommission_refuses_the_last_live_shard():
    server = _server(num_shards=1)
    with pytest.raises(ShardError):
        server.decommission_shard(shard_id=0, now=0.0)


def test_a_victim_that_dies_in_its_own_drain_is_a_failover_not_a_scale_in():
    """Regression: the scale-in tick logged ``("scale_in", 1, 1)`` for a
    victim the drain flush failed over, while ``scale_ins`` read 0 and
    ``failovers`` 1.  The unit left by the failover exit, so the tick
    records nothing, and events and counts agree."""
    server = _server(
        num_shards=2, autoscale=AutoscaleConfig(min_shards=1, max_shards=2)
    )
    for e in synthetic_trace(16, (16,), n_tenants=6, mean_interarrival=1e-4, seed=9):
        server._admit(e, e.time)
    victim = server.units[1]
    assert 0 < victim.queue.depth < server.units[0].queue.depth  # the tick's pick
    victim.shards[0].fail_after(victim.shards[0].batches_run + 1)
    server.autoscaler.evaluate = lambda now, depths, busy: (ACTION_SCALE_IN, "forced")
    server._autoscale_tick(1.0)
    server._run_batches(server.scheduler.collect_expired(float("inf")), 1.0)
    report = server.report()

    assert [u.state for u in server.units] == ["active", "failed"]
    assert report.failovers == 1
    assert report.autoscale["scale_ins"] == 0
    assert report.autoscale["events"] == []
    assert len(report.completed) == 16


def test_construction_errors_fire_before_any_shard_is_provisioned(monkeypatch):
    """A configuration error must raise before the provisioning loop: a
    failed construction may never leak enclaves."""
    from repro.sharding.shard import EnclaveShard

    calls = []
    original = EnclaveShard.provision.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(EnclaveShard, "provision", classmethod(counting))
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=3)
    with pytest.raises(ConfigurationError, match="divisible by 2, got 3"):
        PrivateInferenceServer(
            _tiny_net(), ServingConfig(darknight=dk, partition="layered:2")
        )
    assert calls == []


# ----------------------------------------------------------------------
# the loop end to end
# ----------------------------------------------------------------------
def _elastic_autoscale(**kwargs):
    defaults = dict(
        min_shards=1,
        max_shards=4,
        eval_interval=5e-4,
        scale_out_cooldown=1e-3,
        scale_in_cooldown=5e-3,
        queue_high=3.0,
        queue_low=0.5,
        breaches_to_scale_out=2,
        breaches_to_scale_in=4,
    )
    defaults.update(kwargs)
    return AutoscaleConfig(**defaults)


def test_autoscaling_phased_trace_grows_shrinks_and_stays_bit_identical():
    trace = phased_trace(
        [(60, 2e-5), (30, 2e-2), (60, 2e-5)], (16,), n_tenants=8, seed=11
    )
    elastic = _server(num_shards=1, autoscale=_elastic_autoscale())
    report = elastic.serve_trace(trace)

    assert len(report.completed) == 150
    assert all(o.ok for o in report.outcomes)  # zero membership casualties
    assert report.autoscale is not None
    assert report.autoscale["scale_outs"] >= 1
    assert report.autoscale["scale_ins"] >= 1
    assert 1 <= report.autoscale["peak_shards"] <= 4
    assert report.autoscale["shard_seconds"] > 0

    # Bit-identical to any static membership.
    static = _server(num_shards=2).serve_trace(trace)
    static_logits = {o.request_id: o.logits for o in static.completed}
    for o in report.completed:
        assert np.array_equal(o.logits, static_logits[o.request_id])


def test_autoscaler_never_leaves_the_configured_band():
    trace = phased_trace([(50, 2e-5), (30, 5e-3)], (16,), n_tenants=6, seed=13)
    server = _server(
        num_shards=1, autoscale=_elastic_autoscale(min_shards=1, max_shards=2)
    )
    report = server.serve_trace(trace)
    assert all(o.ok for o in report.outcomes)
    for event in server.autoscaler.events:
        assert 1 <= event.n_live <= 2
    assert len(server._live_shards()) >= 1


def test_scale_out_while_failover_retry_is_in_flight():
    """A shard dies mid-window under load heavy enough to also trigger a
    scale-out: the failover retry and the membership change coexist
    without losing or corrupting a single response."""
    n = 80
    trace = synthetic_trace(n, (16,), n_tenants=8, mean_interarrival=2e-5, seed=5)
    server = _server(
        num_shards=2,
        autoscale=_elastic_autoscale(min_shards=1, max_shards=4),
    )
    server.shards[1].fail_after(2)
    report = server.serve_trace(trace)

    assert len(report.completed) == n
    assert all(o.ok for o in report.outcomes)
    assert report.failovers == 1
    assert report.autoscale["scale_outs"] >= 1

    reference = _tiny_net().forward(
        np.stack([e.x for e in sorted(trace, key=lambda r: r.time)]),
        PlainBackend(),
        training=False,
    )
    by_id = {o.request_id: o for o in report.completed}
    for i in range(n):
        assert np.max(np.abs(by_id[i].logits - reference[i])) < 0.1


@pytest.mark.parametrize("seed", range(8))
def test_a_failed_over_shard_stops_counting_as_live(seed):
    """A dead shard leaves the ledger at the failover that takes its unit
    out of rotation: it was once billed to the end of the run, counted
    live, and pushed the peak past ``max_shards``."""
    dk = DarKnightConfig(virtual_batch_size=4, seed=seed, num_shards=2)
    config = ServingConfig(
        darknight=dk,
        queue_capacity=512,
        autoscale=_elastic_autoscale(min_shards=1, max_shards=2),
    )
    server = PrivateInferenceServer(_tiny_net(), config)
    server.shards[0].fail_after(3)
    trace = phased_trace(
        [(80, 2e-5), (30, 2e-2), (80, 2e-5)], (16,), n_tenants=8, seed=seed
    )
    report = server.serve_trace(trace)
    assert report.failovers == 1
    assert report.autoscale["peak_shards"] <= 2
    assert report.autoscale["live_shards"] == [
        s.shard_id for s in server.shards if s.healthy
    ]
    dead = server.shards[0]
    assert server.units[0].state == "failed" and dead.failed_at is not None


# ----------------------------------------------------------------------
# membership schedules: one collection, one consistent view
# ----------------------------------------------------------------------
_MEMBERSHIP_TRACE = synthetic_trace(
    24, (16,), n_tenants=6, mean_interarrival=1e-4, seed=21
)


@functools.cache
def _static_logits():
    report = _server(num_shards=1).serve_trace(_MEMBERSHIP_TRACE)
    return {o.request_id: o.logits for o in report.completed}


def _assert_one_membership_view(server):
    """Every collaborator reads the same units, and agrees who is gone."""
    units = server.units
    assert server.scheduler.units is units
    assert server.membership.units is units
    assert server.pool.units is units
    ids = list(range(len(units)))
    assert [u.unit_id for u in units] == ids
    n = server.partition.n_stages
    shard_ids = list(range(n * len(units)))
    assert [s.shard_id for s in server.shards] == shard_ids
    assert all(
        [s.shard_id for s in u.shards] == shard_ids[u.unit_id * n : (u.unit_id + 1) * n]
        for u in units
    )
    assert server.router.n_shards == len(units)
    assert sorted(server.audit.logs) == shard_ids
    assert len(server.scheduler.policy_snapshots()) == len(units)
    retired = {u.unit_id for u in units if u.state == "retired"}
    failed = {u.unit_id for u in units if u.shards[0].failed_at is not None}
    assert not retired & failed
    # One way out: the router's out-of-rotation ids are exactly the units
    # stamped failed or retired, and the report counts the failed ones.
    out = set(ids) - set(server.router.healthy_shards())
    assert out == retired | failed
    assert server.report().failovers == len(failed)
    # No tenant holds a session on an out-of-rotation unit, nor two.
    assert not any(units[i].sessions.active_tenants for i in out)
    placed = server.membership.active_tenants
    assert len(placed) == len(set(placed))
    # Units leave whole: every member's own stamp and chain agree.
    def members(unit_ids):
        return {s.shard_id for u in units if u.unit_id in unit_ids for s in u.shards}

    assert {s.shard_id for s in server.shards if s.retired} == members(retired)
    assert {s.shard_id for s in server.shards if s.failed_at is not None} == members(
        failed
    )
    assert {
        sid
        for sid, log in server.audit.logs.items()
        if any(e["meta"]["status"] == "membership:retire" for e in log.entries)
    } == members(retired)
    # The router never routes to a unit out of rotation, and keeps every
    # unit the executor still reports healthy.
    assert {u.unit_id for u in units if u.executor.healthy} <= set(ids) - out
    assert set(server.router.pins().values()) <= set(ids) - out
    assert all(u.queue.depth == 0 for u in units if u.unit_id in retired)


def _run_membership_schedule(steps, partition="replicated"):
    """Interleave arrivals with provision / decommission / kill /
    fail_after steps."""
    from repro.serving import AuditConfig

    server = _server(
        num_shards=PartitionSpec.parse(partition).n_stages,
        audit=AuditConfig(),
        partition=partition,
    )
    arrivals = iter(sorted(_MEMBERSHIP_TRACE, key=lambda r: r.time))
    now = 0.0

    def admit(event):
        # One turn of serve_trace's loop body.
        nonlocal now
        now = max(now, event.time)
        server._run_batches(server.scheduler.collect_expired(now), now)
        server._admit(event, now)
        server._run_batches(server.scheduler.collect_ready(now), now)

    for n_arrivals, action, pick in steps:
        for event in itertools.islice(arrivals, n_arrivals):
            admit(event)
        if action == "provision" and len(server.units) < 5:
            server.provision_shard(now)
        elif action == "decommission":
            try:
                server.decommission_shard(now=now)
            except ShardError:
                pass  # the last serving shard refuses to leave
        elif action == "kill":
            live = [s for s in server.shards if s.healthy]
            if live:  # the last one too: a total outage is a legal schedule
                live[pick % len(live)].healthy = False
        elif action == "fail_after":
            live = [s for s in server.shards if s.healthy]
            if live:
                # Dies within its next few batches: the death lands
                # mid-window, mid-drain or mid-retry.
                shard = live[pick % len(live)]
                shard.fail_after(shard.batches_run + pick // len(live))
        _assert_one_membership_view(server)
    for event in arrivals:
        admit(event)
    server._run_batches(server.scheduler.collect_expired(float("inf")), now)
    _assert_one_membership_view(server)
    return server, server.report()


def _assert_contract(server, report, static):
    # Exactly one terminal outcome per admitted request id.
    ids = [o.request_id for o in report.outcomes]
    assert sorted(ids) == list(range(len(_MEMBERSHIP_TRACE)))
    for o in report.completed:
        assert np.array_equal(o.logits, static[o.request_id])
    for shard in server.shards:
        shard.backend.assert_encodings_released()
    assert server.audit.verify() == server.audit.windows_committed


_STEPS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(["none", "provision", "decommission", "kill", "fail_after"]),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(steps=_STEPS, partition=st.sampled_from(["replicated", "layered:2"]))
def test_property_membership_schedules_keep_one_consistent_deployment(
    steps, partition
):
    server, report = _run_membership_schedule(steps, partition)
    _assert_contract(server, report, _static_logits())


@pytest.mark.parametrize(
    "steps",
    [
        # Scale-out while a peer lies dead unnoticed: the newcomer never
        # attested against it, so migrating its re-pinned tenants is
        # refused — provision_shard used to crash half-joined on that.
        [(0, "provision", 0), (0, "kill", 1), (2, "provision", 0)],
        # Scale-in judged by the router's stale view retired the only
        # shard still alive; the next one then hit min() of nothing.
        [(0, "provision", 0), (0, "kill", 0), (0, "decommission", 0),
         (0, "decommission", 0)],
        # Total outage: fail_over found nowhere to re-pin and left the
        # dead shard's sessions behind, so recovery doubled them up.
        [(0, "kill", 0), (4, "provision", 0)],
        # The scale-in victim dies in its own drain flush: the failover
        # takes it out, and the scale-in's exit finds it already gone.
        [(0, "provision", 0), (2, "fail_after", 1), (0, "decommission", 0)],
        # Unit 1 dies unnoticed, the newcomer never attests against it,
        # and retiring the newcomer re-pins tenants onto unit 1: the
        # hand-over is refused and the newcomer's sessions are dropped.
        [(0, "provision", 0), (0, "kill", 1), (2, "provision", 0),
         (0, "decommission", 0)],
    ],
    ids=[
        "scale-out-past-dead-peer",
        "scale-in-to-nothing",
        "outage-then-recover",
        "victim-dies-in-its-drain",
        "scale-in-hand-over-refused",
    ],
)
def test_membership_schedules_the_property_test_shrank(steps):
    server, report = _run_membership_schedule(steps)
    _assert_contract(server, report, _static_logits())
