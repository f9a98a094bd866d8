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


def test_layered_does_not_compose_with_autoscale():
    from repro.serving import AutoscaleConfig

    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2)
    config = ServingConfig(
        darknight=dk, partition="layered:2", autoscale=AutoscaleConfig()
    )
    with pytest.raises(ConfigurationError, match="autoscale"):
        PrivateInferenceServer(_tiny_net(), config)


def test_layered_refuses_dynamic_membership():
    server, _ = _serve([], 2, "layered:2")
    with pytest.raises(ConfigurationError, match="replicated"):
        server.provision_shard()
    with pytest.raises(ConfigurationError, match="replicated"):
        server.decommission_shard(0)


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
