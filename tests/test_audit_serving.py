"""Serving-path tests for the verifiable audit trail.

The contract under test: with ``ServingConfig.audit`` set, every flush
window — completed, aborted-and-isolated, failed-over, terminally failed
— lands on the owning shard's hash chain; every completed request yields
an inclusion proof that verifies offline against its shard's chained
head (and against nothing else); and with auditing *off* the served
logits are bit-identical to an audited run of the same trace.
"""

import json

import numpy as np
import pytest

from repro.audit import AuditLog, load_manifest, manifest_config, prove, verify_proof
from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper
from repro.nn import Dense, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import (
    STATUS_INTEGRITY_FAILED,
    AuditConfig,
    PrivateInferenceServer,
    ServingConfig,
    synthetic_trace,
)


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _serve(trace, *, audit=None, num_shards=1, **dk_kwargs):
    dk = DarKnightConfig(
        virtual_batch_size=4, seed=0, num_shards=num_shards, **dk_kwargs
    )
    config = ServingConfig(darknight=dk, queue_capacity=512, audit=audit)
    server = PrivateInferenceServer(_tiny_net(), config)
    return server, server.serve_trace(trace)


def test_audit_off_is_bit_identical_and_commits_nothing():
    trace = synthetic_trace(24, (16,), n_tenants=4, mean_interarrival=1e-4, seed=3)
    _, plain = _serve(trace, num_shards=2)
    server, audited = _serve(trace, audit=AuditConfig(), num_shards=2)
    assert plain.audit_roots is None and audited.audit_roots is not None
    a = {o.request_id: o.logits for o in audited.completed}
    for o in plain.completed:
        assert np.array_equal(o.logits, a[o.request_id])
    assert plain.metrics.audit_windows == 0
    assert server.metrics.audit_windows == server.audit.windows_committed > 0
    assert server.metrics.audit_leaves == 24
    assert server.metrics.audit_bytes > 0


def test_every_completed_request_proves_on_exactly_one_shard():
    trace = synthetic_trace(40, (16,), n_tenants=6, mean_interarrival=1e-4, seed=7)
    server, report = _serve(trace, audit=AuditConfig(), num_shards=3)
    from repro.audit import array_digest

    assert len(report.completed) == 40
    assert server.audit.verify() == server.audit.windows_committed
    roots = report.audit_roots
    for outcome in report.completed:
        holders = []
        for sid, log in server.audit.logs.items():
            try:
                proof = prove(log, outcome.request_id)
            except Exception:
                continue
            holders.append(sid)
            assert verify_proof(proof, roots[sid])
            for other_sid, other_root in roots.items():
                if other_sid != sid:
                    assert not verify_proof(proof, other_root)
            # The committed output digest is the served response's digest.
            assert proof.leaf["output_digest"] == array_digest(outcome.logits)
        assert len(holders) == 1, outcome.request_id


def test_audit_logs_persist_with_a_replayable_manifest(tmp_path):
    trace = synthetic_trace(16, (16,), n_tenants=3, mean_interarrival=1e-4, seed=9)
    audit = AuditConfig(log_dir=str(tmp_path), model="tiny")
    server, report = _serve(trace, audit=audit, num_shards=2)
    manifest = load_manifest(tmp_path)
    assert manifest["model"] == "tiny"
    assert manifest["num_shards"] == 2
    effective = manifest_config(manifest)
    assert effective == server.darknight  # the *effective* config, pinned
    assert effective.per_sample_normalization and not effective.fresh_coefficients
    for sid in (0, 1):
        loaded = AuditLog.load(tmp_path / f"shard{sid}.audit.jsonl")
        assert loaded.chain_root == report.audit_roots[sid]
        loaded.verify_chain()
    # A manifest written before ``field_backend`` left the config names a
    # key that no longer exists: a clean AuditError, not a bare TypeError.
    from repro.errors import AuditError

    stale = {**manifest, "darknight": {**manifest["darknight"], "field_backend": "limb"}}
    with pytest.raises(AuditError, match="field_backend"):
        manifest_config(stale)


def test_integrity_failure_commits_an_aborted_window():
    """A byzantine GPU's window must enter the log marked aborted, with
    integrity posture recorded and no output digests — evidence of the
    failure, not a forged success."""
    dk = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=3)
    cluster = GpuCluster(
        PrimeField(),
        dk.n_gpus_required,
        fault_injectors={0: RandomTamper(PrimeField(), probability=1.0, seed=4)},
    )
    trace = synthetic_trace(4, (16,), n_tenants=2, seed=5)
    server = PrivateInferenceServer(
        _tiny_net(),
        ServingConfig(darknight=dk, audit=AuditConfig()),
        cluster=cluster,
    )
    report = server.serve_trace(trace)
    assert report.metrics.integrity_failures == 4
    log = server.audit.logs[0]
    assert log.n_windows > 0
    log.verify_chain()
    for entry in log.entries:
        meta = entry["meta"]
        assert meta["integrity"] is True
        assert meta["aborted"] is True
        assert meta["status"] in (STATUS_INTEGRITY_FAILED, "retried")
        assert all(leaf["output_digest"] is None for leaf in entry["leaves"])
    # The failed requests are still provable (as failures, not successes).
    proof = prove(log, 0)
    assert verify_proof(proof, log.chain_root)
    assert proof.leaf["output_digest"] is None


def test_shared_window_abort_leaves_a_retried_marker_then_terminal_leaves():
    """A transient tamper aborts a shared window: the log must show the
    retried marker first, then the isolating single-batch windows whose
    terminal leaves prove() prefers."""
    from repro.runtime.darknight import DarKnightBackend
    from repro.runtime.inference import PrivateInferenceEngine
    from repro.serving import InferenceWorkerPool, PendingRequest, ScheduledBatch
    from repro.audit import AuditTrail
    from repro.sharding import EnclaveShard, ShardRouter
    from serving_units import make_units

    class _TransientTamper:
        def __init__(self, field, fail_calls=1):
            self._inner = RandomTamper(field, probability=1.0, seed=9)
            self._remaining = fail_calls

        def corrupt(self, tensor, device_id, op_name):
            if op_name == "dense_forward" and self._remaining > 0:
                self._remaining -= 1
                return self._inner.corrupt(tensor, device_id, op_name)
            return tensor

    net = _tiny_net()
    dk = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=12)
    field = PrimeField()
    cluster = GpuCluster(
        field, dk.n_gpus_required, fault_injectors={0: _TransientTamper(field)}
    )
    engine = PrivateInferenceEngine(net, backend=DarKnightBackend(dk, cluster=cluster))
    trail = AuditTrail(AuditConfig(), darknight=dk, num_shards=1)
    pool = InferenceWorkerPool(
        make_units([EnclaveShard(0, engine)]), ShardRouter(1), audit=trail
    )
    rng = np.random.default_rng(13)
    batches = [
        ScheduledBatch(
            batch_id=b,
            requests=[
                PendingRequest(
                    request_id=2 * b + i,
                    tenant=f"t{i}",
                    x=rng.normal(size=16),
                    arrival_time=0.0,
                    enqueue_time=0.0,
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
    assert sum(o.ok for o in outcomes) >= 2  # honest batches recovered
    log = trail.logs[0]
    log.verify_chain()
    statuses = [e["meta"]["status"] for e in log.entries]
    assert statuses[0] == "retried" and log.entries[0]["meta"]["aborted"]
    assert len(log.entries[0]["leaves"]) == 4  # the whole shared window
    # Terminal leaves exist for every request, and prove() finds them.
    for rid in range(4):
        proof = prove(log, rid)
        assert proof.leaf["status"] != "retried"
        assert verify_proof(proof, log.chain_root)


def test_failover_splits_history_across_the_two_shard_chains():
    """A shard death mid-window: the dead shard's chain holds its
    completed prefix plus a retried marker for the rerouted tail; the
    survivor's chain holds the terminal leaves.  Everything verifies."""
    n = 32
    trace = synthetic_trace(n, (16,), n_tenants=6, mean_interarrival=2e-5, seed=5)
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=512, audit=AuditConfig())
    )
    victim = server.shards[0]
    victim.fail_after(1)
    report = server.serve_trace(trace)
    assert len(report.completed) == n
    assert report.failovers == 1
    assert server.audit.verify() == server.audit.windows_committed
    dead_log = server.audit.logs[0]
    dead_statuses = [e["meta"]["status"] for e in dead_log.entries]
    assert "retried" in dead_statuses  # the rerouted tail left a marker
    marker = dead_log.entries[dead_statuses.index("retried")]
    assert marker["meta"]["aborted"] and marker["meta"]["error"]
    # Every completed request's terminal leaf verifies on some chain.
    for outcome in report.completed:
        proved = False
        for sid, log in server.audit.logs.items():
            try:
                proof = prove(log, outcome.request_id)
            except Exception:
                continue
            if proof.leaf["status"] == "ok":
                assert verify_proof(proof, report.audit_roots[sid])
                proved = True
        assert proved, outcome.request_id


def test_snapshot_and_render_carry_audit_counters():
    trace = synthetic_trace(8, (16,), n_tenants=2, seed=1)
    server, report = _serve(trace, audit=AuditConfig())
    snap = server.metrics.snapshot()
    assert snap["audit_windows"] == server.audit.windows_committed
    assert snap["audit_leaves"] == 8
    assert snap["audit_bytes"] == server.audit.bytes_written
    json.dumps(snap, allow_nan=False)  # strict-JSON-safe
    rendered = report.render()
    assert "audit windows" in rendered
    assert "audit chain heads" in rendered


def test_trail_refuses_unknown_shards():
    from repro.audit import AuditTrail
    from repro.errors import AuditError

    trail = AuditTrail(AuditConfig(), darknight=DarKnightConfig(seed=0), num_shards=1)
    with pytest.raises(AuditError):
        trail.commit_window(5, [], [], status="ok")
