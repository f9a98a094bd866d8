"""End-to-end tests for layer-partitioned (``layered:N``) serving.

The server-level contract: partitioning is a pure placement decision —
``replicated`` and every ``layered:N`` deployment serve bit-identical
logits on the same trace, including under mid-window member failure with
group-granular failover — and the config surface round-trips, validates
its composition rules, and reports the active mode.  The audit trail
fans one chain out per *member* shard, so the verifiable record keeps
shard granularity even when routing happens at group granularity.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import Dense, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _serve(trace, num_shards, partition, **kwargs):
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=num_shards)
    config = ServingConfig(
        darknight=dk, partition=partition, queue_capacity=512, **kwargs
    )
    server = PrivateInferenceServer(_tiny_net(), config)
    return server, server.serve_trace(trace)


# ----------------------------------------------------------------------
# config surface
# ----------------------------------------------------------------------
def test_serving_config_round_trips_partition():
    config = ServingConfig(
        darknight=DarKnightConfig(num_shards=4), partition="layered:2"
    )
    data = config.to_dict()
    assert data["partition"] == "layered:2"
    assert ServingConfig.from_dict(data).partition == "layered:2"
    # Default stays replicated and survives the round trip too.
    assert ServingConfig.from_dict(ServingConfig().to_dict()).partition == "replicated"


def test_layered_requires_divisible_shard_count():
    with pytest.raises(ConfigurationError, match="divisible"):
        _serve([], 4, "layered:3")


@pytest.mark.parametrize(
    "bounds, culprit",
    [
        ({}, "autoscale.min_shards must be divisible by 2, got 1"),  # the default
        ({"min_shards": 2, "max_shards": 5}, "autoscale.max_shards"),
    ],
)
def test_autoscale_bounds_must_be_whole_units(bounds, culprit):
    """A scale step is one unit of ``N`` shards, so the shard bounds fall
    under the same divisibility rule as ``num_shards``."""
    from repro.serving import AutoscaleConfig

    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2)
    config = ServingConfig(
        darknight=dk, partition="layered:2", autoscale=AutoscaleConfig(**bounds)
    )
    with pytest.raises(ConfigurationError, match=culprit):
        PrivateInferenceServer(_tiny_net(), config)


# ----------------------------------------------------------------------
# bit-identity across partitionings
# ----------------------------------------------------------------------
def test_partitionings_serve_bit_identical_logits():
    """replicated, layered:2 and layered:3 agree to the last bit."""
    trace = synthetic_trace(24, (16,), n_tenants=6, mean_interarrival=1e-4, seed=7)
    runs = {
        "replicated": _serve(trace, 1, "replicated"),
        "layered:2": _serve(trace, 2, "layered:2"),
        "layered:3": _serve(trace, 3, "layered:3"),
    }
    baseline = {
        o.request_id: o.logits for o in runs["replicated"][1].completed
    }
    for mode, (_, report) in runs.items():
        assert len(report.completed) == 24, mode
        assert all(o.ok for o in report.outcomes), mode
        assert report.partition == mode
        for o in report.completed:
            assert np.array_equal(o.logits, baseline[o.request_id]), (
                f"request {o.request_id} differs under {mode}"
            )


def test_layered_builds_groups_as_routing_units():
    server, report = _serve(
        synthetic_trace(8, (16,), n_tenants=2, mean_interarrival=1e-4, seed=8),
        6,
        "layered:3",
    )
    assert len(server.units) == 2
    assert [s.shard_id for s in server.shards] == list(range(6))
    assert [[m.shard_id for m in u.executor.members] for u in server.units] == [
        [0, 1, 2], [3, 4, 5]
    ]
    assert len(report.completed) == 8
    assert "partition layered:3" in report.render()


@pytest.mark.parametrize("fail_after", [None, 2], ids=["healthy", "fail-mid-window"])
@pytest.mark.parametrize("num_shards", [1, 3])
def test_replicated_is_layered_1(num_shards, fail_after):
    """One executor type: ``replicated`` and ``layered:1`` are the same
    deployment down to the simulated clock and the audit chain bytes —
    with integrity, audit, precompute and a 2-deep pipeline all on, healthy
    or with a shard dying mid-window."""
    from repro.audit import AuditConfig

    trace = synthetic_trace(48, (16,), n_tenants=6, mean_interarrival=2e-5, seed=11)

    def run(partition):
        dk = DarKnightConfig(
            virtual_batch_size=4, seed=0, num_shards=num_shards,
            integrity=True, pipeline_depth=2,
        )
        config = ServingConfig(
            darknight=dk, partition=partition, queue_capacity=512,
            audit=AuditConfig(), precompute=True,
        )
        server = PrivateInferenceServer(_tiny_net(), config)
        if fail_after is not None:
            server.shards[-1].fail_after(fail_after)
        report = server.serve_trace(trace)
        return server, report

    (rep_server, rep), (lay_server, lay) = run("replicated"), run("layered:1")
    assert (rep.partition, lay.partition) == ("replicated", "layered:1")
    if fail_after is not None:
        assert rep.failovers == 1 or num_shards == 1  # the fault did land
        assert rep_server.units[-1].state == "failed"
    assert len(rep.outcomes) == len(lay.outcomes) == len(trace)
    for a, b in zip(rep.outcomes, lay.outcomes):
        assert (a.request_id, a.status, a.error) == (b.request_id, b.status, b.error)
        assert (a.dispatch_time, a.completion_time) == (b.dispatch_time, b.completion_time)
        assert (a.logits is None) == (b.logits is None)
        if a.logits is not None:
            assert np.array_equal(a.logits, b.logits)
    assert rep_server.pool.stage_totals() == lay_server.pool.stage_totals()
    assert (rep.handshakes, rep.link_bytes) == (lay.handshakes, lay.link_bytes)
    assert (rep.failovers, rep.migrations) == (lay.failovers, lay.migrations)
    assert rep.precompute == lay.precompute
    assert rep_server.mesh.handshakes == lay_server.mesh.handshakes
    # Byte-for-byte the same audit chains: same windows, same error text.
    assert rep.audit_roots == lay.audit_roots
    assert rep_server.audit.verify() == lay_server.audit.verify() > 0


# ----------------------------------------------------------------------
# layered x autoscale: membership moves whole units
# ----------------------------------------------------------------------
def test_layered_autoscale_grows_and_shrinks_by_whole_units():
    """``layered:2`` under the autoscaler: every scale step provisions or
    retires one two-shard pipeline, and the serving contract holds across
    the membership history."""
    from repro.audit import AuditConfig
    from repro.serving import AutoscaleConfig, phased_trace

    trace = phased_trace(
        [(60, 2e-5), (30, 2e-2), (60, 2e-5)], (16,), n_tenants=8, seed=11
    )
    autoscale = AutoscaleConfig(
        min_shards=2, max_shards=8, eval_interval=5e-4,
        scale_out_cooldown=1e-3, scale_in_cooldown=5e-3,
        queue_high=3.0, queue_low=0.5,
        breaches_to_scale_out=2, breaches_to_scale_in=4,
    )
    server, report = _serve(
        trace, 2, "layered:2", autoscale=autoscale, audit=AuditConfig()
    )
    assert report.partition == "layered:2"
    assert report.autoscale["scale_outs"] >= 1
    assert report.autoscale["scale_ins"] >= 1
    assert 2 <= report.autoscale["peak_shards"] <= 8
    for event in server.autoscaler.events:
        assert 2 <= event.n_live <= 8 and event.n_live % 2 == 0

    # Exactly one terminal outcome per admitted request, all of them OK,
    # bit-identical to a static replicated deployment.
    assert sorted(o.request_id for o in report.outcomes) == list(range(len(trace)))
    assert all(o.ok for o in report.outcomes)
    _, static = _serve(trace, 1, "replicated")
    static_logits = {o.request_id: o.logits for o in static.completed}
    for o in report.completed:
        assert np.array_equal(o.logits, static_logits[o.request_id])

    # Units are pairs of consecutive shards, attested pairwise on joining.
    assert len(server.shards) == 2 * len(server.units) > 2
    assert [s.shard_id for s in server.shards] == list(range(len(server.shards)))
    for unit in server.units:
        assert [s.shard_id for s in unit.shards] == [
            2 * unit.unit_id, 2 * unit.unit_id + 1
        ]
    retired = [u for u in server.units if u.state == "retired"]
    assert retired and all(s.retired for u in retired for s in u.shards)

    # Every member's chain verifies and tells its own membership story.
    audit = server.audit
    assert audit.verify() == audit.windows_committed
    assert sorted(audit.logs) == [s.shard_id for s in server.shards]

    def events(shard):
        return [
            e["meta"]["status"].split(":", 1)[1]
            for e in audit.logs[shard.shard_id].entries
            if e["meta"]["status"].startswith("membership:")
        ]

    for unit in server.units:
        joined = [] if unit.unit_id == 0 else ["provision"]
        left = ["drain", "retire"] if unit.state == "retired" else []
        for shard in unit.shards:
            assert events(shard) == joined + left
    # ... and the shard-seconds ledger closed every retired member's span.
    in_service = {s.shard_id for u in server.units if u.state != "retired" for s in u.shards}
    assert set(server.autoscaler.live_shards()) == in_service
    for shard in server.shards:
        shard.backend.assert_encodings_released()


# ----------------------------------------------------------------------
# failover at group granularity
# ----------------------------------------------------------------------
def test_member_death_fails_over_the_whole_group_bit_identically():
    """Killing one *member* mid-window moves its group's sessions to the
    surviving group; nothing is lost and logits match a healthy run."""
    trace = synthetic_trace(24, (16,), n_tenants=6, mean_interarrival=1e-4, seed=9)
    _, healthy = _serve(trace, 6, "layered:3")
    baseline = {o.request_id: o.logits for o in healthy.completed}

    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=6)
    config = ServingConfig(darknight=dk, partition="layered:3", queue_capacity=512)
    server = PrivateInferenceServer(_tiny_net(), config)
    # Middle stage of group 0 (shards 0-2) dies after one batch.
    server.shards[1].fail_after(1)
    report = server.serve_trace(trace)

    assert len(report.completed) == 24
    assert all(o.ok for o in report.outcomes)
    assert report.failovers >= 1
    for o in report.completed:
        assert np.array_equal(o.logits, baseline[o.request_id])
    # The failed unit is group 0; group 1's members are untouched.
    assert server.units[0].state == "failed"
    assert server.units[1].state == "active"


# ----------------------------------------------------------------------
# audit fan-out
# ----------------------------------------------------------------------
def test_audit_chains_stay_per_member_shard_under_layering(tmp_path):
    from repro.audit import AuditConfig

    trace = synthetic_trace(16, (16,), n_tenants=4, mean_interarrival=1e-4, seed=10)
    server, report = _serve(
        trace, 2, "layered:2", audit=AuditConfig(log_dir=str(tmp_path))
    )
    audit = server.audit
    assert audit is not None
    # Both members committed windows, and every chain verifies.
    assert audit.verify() == audit.windows_committed
    assert set(audit.logs) == {0, 1}
    for log in audit.logs.values():
        assert log.n_windows > 0
    assert report.audit_roots is not None and set(report.audit_roots) == {0, 1}
