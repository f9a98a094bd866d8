"""End-to-end tests for the multi-tenant private-inference server."""

import numpy as np

from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper
from repro.nn import Dense, PlainBackend, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import (
    STATUS_INTEGRITY_FAILED,
    STATUS_SHED,
    PrivateInferenceServer,
    ServingConfig,
    TraceRequest,
    synthetic_trace,
)


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _config(**kwargs):
    dk = kwargs.pop("darknight", None) or DarKnightConfig(
        virtual_batch_size=4, seed=0
    )
    return ServingConfig(darknight=dk, **kwargs)


def test_trace_completes_and_matches_plain_backend():
    net = _tiny_net()
    trace = synthetic_trace(20, (16,), n_tenants=3, seed=1)
    server = PrivateInferenceServer(net, _config())
    report = server.serve_trace(trace)

    assert len(report.completed) == 20
    assert report.metrics.decode_errors == 0
    assert report.metrics.integrity_failures == 0

    # Private predictions must agree with the float reference per request.
    events = sorted(trace, key=lambda r: r.time)
    reference = net.forward(
        np.stack([e.x for e in events]), PlainBackend(), training=False
    )
    by_id = {o.request_id: o for o in report.completed}
    for i, event in enumerate(events):
        outcome = by_id[i]
        assert outcome.tenant == event.tenant
        assert np.max(np.abs(outcome.logits - reference[i])) < 0.1
        assert outcome.prediction == int(np.argmax(reference[i]))


def test_sessions_are_cached_per_tenant():
    net = _tiny_net()
    trace = synthetic_trace(24, (16,), n_tenants=3, seed=2)
    server = PrivateInferenceServer(net, _config())
    report = server.serve_trace(trace)
    # 24 requests, but only one attestation handshake per tenant.
    assert report.handshakes == 3
    assert sorted(report.tenants) == ["tenant0", "tenant1", "tenant2"]


def test_deadline_flushes_partial_tail():
    """A trace that cannot fill the last batch still completes via deadline."""
    net = _tiny_net()
    trace = [
        TraceRequest(time=0.001 * i, tenant="tenant0", x=np.random.default_rng(i).normal(size=16))
        for i in range(6)  # K=4: one full batch + a 2-request tail
    ]
    server = PrivateInferenceServer(net, _config(max_batch_wait=0.02))
    report = server.serve_trace(trace)
    assert len(report.completed) == 6
    triggers = report.metrics.flush_triggers()
    assert triggers.get("size") == 1
    assert triggers.get("deadline") == 1
    # The padded tail still fits the latency budget: wait <= max_batch_wait.
    assert report.metrics.latency_percentile(100) <= 0.02 + 0.01


def test_backpressure_sheds_load_instead_of_queueing_forever():
    net = _tiny_net()
    # 10 simultaneous arrivals, room for 2, and no flush before the deadline.
    trace = [
        TraceRequest(time=0.0, tenant=f"tenant{i % 2}", x=np.zeros(16))
        for i in range(10)
    ]
    server = PrivateInferenceServer(
        net, _config(queue_capacity=2, max_batch_wait=1.0)
    )
    report = server.serve_trace(trace)
    assert report.metrics.shed == 8
    assert len(report.completed) == 2
    shed = [o for o in report.outcomes if o.status == STATUS_SHED]
    assert len(shed) == 8
    assert all(o.error for o in shed)


def test_sustained_overload_sheds_instead_of_growing_latency():
    """Worker saturation must feed back into admission, not just queue depth."""
    net = _tiny_net()
    n = 120
    trace = [
        TraceRequest(time=1e-6 * i, tenant=f"tenant{i % 2}", x=np.zeros(16))
        for i in range(n)
    ]
    server = PrivateInferenceServer(
        net, _config(queue_capacity=16, max_batch_wait=0.01)
    )
    report = server.serve_trace(trace)
    # Offered load far exceeds one worker's service rate: the bounded
    # queue sheds the excess and keeps the completed requests' latency
    # bounded by the backlog it admitted, not by the whole trace.
    assert report.metrics.shed > 0
    assert report.metrics.completed + report.metrics.shed == n
    backlog_bound = (16 / 4 + 1) * (2e-3 + 4 * 5e-4) + 0.01
    assert report.metrics.latency_percentile(99) <= backlog_bound


def test_byzantine_gpu_fails_requests_but_not_the_server():
    net = _tiny_net()
    dk = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=3)
    cluster = GpuCluster(
        PrimeField(),
        dk.n_gpus_required,
        fault_injectors={0: RandomTamper(PrimeField(), probability=1.0, seed=4)},
    )
    trace = synthetic_trace(8, (16,), n_tenants=2, seed=5)
    server = PrivateInferenceServer(net, _config(darknight=dk), cluster=cluster)
    report = server.serve_trace(trace)
    assert report.metrics.integrity_failures == 8
    assert len(report.completed) == 0
    assert all(o.status == STATUS_INTEGRITY_FAILED for o in report.outcomes)


def test_saturating_tenant_cannot_starve_others():
    net = _tiny_net()
    trace = synthetic_trace(
        40, (16,), n_tenants=4, seed=6, hot_tenant_share=0.7
    )
    server = PrivateInferenceServer(net, _config())
    report = server.serve_trace(trace)
    assert len(report.completed) == 40
    per_tenant = report.metrics.completed_by_tenant()
    issued = {}
    for event in trace:
        issued[event.tenant] = issued.get(event.tenant, 0) + 1
    assert per_tenant == issued


def test_serving_reuses_cached_coefficients():
    net = _tiny_net()
    trace = synthetic_trace(32, (16,), n_tenants=2, seed=7)
    server = PrivateInferenceServer(net, _config())
    server.serve_trace(trace)
    ledger = server.shards[0].enclave.ledger
    # Two Dense layers x 8 batches = 16 encodes, but only one generation.
    assert ledger.op_counts.get("generate_coefficients", 0) == 1
    assert ledger.op_counts.get("reuse_coefficients", 0) >= 15


def test_fresh_coefficients_escape_hatch_disables_the_cache():
    net = _tiny_net()
    dk = DarKnightConfig(virtual_batch_size=4, seed=8, fresh_coefficients=True)
    trace = synthetic_trace(8, (16,), n_tenants=1, seed=8)
    server = PrivateInferenceServer(
        net, _config(darknight=dk, reuse_coefficients=False)
    )
    server.serve_trace(trace)
    ledger = server.shards[0].enclave.ledger
    assert ledger.op_counts.get("generate_coefficients", 0) > 1
    assert ledger.op_counts.get("reuse_coefficients", 0) == 0


def test_pipelined_server_logits_bit_identical_to_synchronous():
    """Depth 4 serving must produce the exact logits of depth-1 serving."""
    trace = synthetic_trace(24, (16,), n_tenants=3, seed=11)
    by_depth = {}
    for depth in (1, 4):
        dk = DarKnightConfig(virtual_batch_size=4, seed=0, pipeline_depth=depth)
        server = PrivateInferenceServer(_tiny_net(), _config(darknight=dk))
        report = server.serve_trace(trace)
        assert len(report.completed) == 24
        by_depth[depth] = {o.request_id: o.logits for o in report.completed}
    for rid, logits in by_depth[1].items():
        assert np.array_equal(logits, by_depth[4][rid])


class _TransientTamper:
    """Corrupts the first ``fail_calls`` dense kernels, then goes honest."""

    def __init__(self, field, fail_calls=1):
        from repro.gpu import RandomTamper

        self._inner = RandomTamper(field, probability=1.0, seed=9)
        self._remaining = fail_calls

    def corrupt(self, tensor, device_id, op_name):
        if op_name == "dense_forward" and self._remaining > 0:
            self._remaining -= 1
            return self._inner.corrupt(tensor, device_id, op_name)
        return tensor


def test_window_abort_retries_batches_individually():
    """A transient fault aborting a shared window must not fail co-flushed
    batches: the pool re-dispatches per batch and all requests complete."""
    from repro.runtime.darknight import DarKnightBackend
    from repro.runtime.inference import PrivateInferenceEngine
    from repro.serving import InferenceWorkerPool, PendingRequest, ScheduledBatch
    from repro.sharding import EnclaveShard, ShardRouter
    from serving_units import make_units

    net = _tiny_net()
    dk = DarKnightConfig(
        virtual_batch_size=2, integrity=True, seed=12, pipeline_depth=2
    )
    field = PrimeField()
    cluster = GpuCluster(
        field, dk.n_gpus_required, fault_injectors={0: _TransientTamper(field)}
    )
    engine = PrivateInferenceEngine(
        net, backend=DarKnightBackend(dk, cluster=cluster)
    )
    pool = InferenceWorkerPool(make_units([EnclaveShard(0, engine)]), ShardRouter(1))
    rng = np.random.default_rng(13)
    batches = [
        ScheduledBatch(
            batch_id=b,
            requests=[
                PendingRequest(
                    request_id=2 * b + i,
                    tenant=f"tenant{i}",
                    x=rng.normal(size=16),
                    arrival_time=0.0,
                    enqueue_time=0.0,
                )
                for i in range(2)
            ],
            flush_time=0.0,
            trigger="drain",
            slots=2,
        )
        for b in range(3)
    ]
    outcomes = pool.dispatch_window(batches)
    # The tampered kernel aborted the shared window; each batch was then
    # retried alone, the fault had passed, and every request completed.
    assert len(outcomes) == 6
    assert all(o.ok for o in outcomes)
    engine.backend.assert_encodings_released()


def test_aborted_window_occupancy_is_charged_to_busy_time():
    """Regression: a multi-batch window aborted by an integrity fault
    used to drop the aborted attempt's enclave occupancy from
    ``busy_time`` — the pool's accounting must cover *all* timeline
    occupancy, aborted attempts included."""
    import pytest

    from repro.runtime.darknight import DarKnightBackend
    from repro.runtime.inference import PrivateInferenceEngine
    from repro.serving import InferenceWorkerPool, PendingRequest, ScheduledBatch
    from repro.sharding import EnclaveShard, ShardRouter
    from serving_units import make_units

    net = _tiny_net()
    dk = DarKnightConfig(
        virtual_batch_size=2, integrity=True, seed=12, pipeline_depth=2
    )
    field = PrimeField()
    cluster = GpuCluster(
        field, dk.n_gpus_required, fault_injectors={0: _TransientTamper(field)}
    )
    engine = PrivateInferenceEngine(
        net, backend=DarKnightBackend(dk, cluster=cluster)
    )
    pool = InferenceWorkerPool(make_units([EnclaveShard(0, engine)]), ShardRouter(1))
    rng = np.random.default_rng(13)
    batches = [
        ScheduledBatch(
            batch_id=b,
            requests=[
                PendingRequest(
                    request_id=2 * b + i,
                    tenant=f"tenant{i}",
                    x=rng.normal(size=16),
                    arrival_time=0.0,
                    enqueue_time=0.0,
                )
                for i in range(2)
            ],
            flush_time=0.0,
            trigger="drain",
            slots=2,
        )
        for b in range(3)
    ]
    outcomes = pool.dispatch_window(batches)
    assert all(o.ok for o in outcomes)
    (shard,) = pool.units[0].shards
    # Everything the enclave timeline was ever occupied with — the
    # aborted shared window plus the isolating re-runs — is accounted,
    # by the pool, the shard and the unit's executor alike.
    assert pool.busy_time == pytest.approx(shard.engine.timeline.busy_time)
    assert pool.busy_time == pytest.approx(shard.busy_time)
    assert pool.units[0].executor.busy_time == shard.busy_time


def test_report_renders_metrics_and_session_facts():
    net = _tiny_net()
    trace = synthetic_trace(8, (16,), n_tenants=2, seed=9)
    server = PrivateInferenceServer(net, _config())
    text = server.serve_trace(trace).render()
    assert "Serving metrics" in text
    assert "attestation handshakes" in text


def test_plaintext_mode_skips_channel_crypto():
    net = _tiny_net()
    trace = synthetic_trace(8, (16,), n_tenants=2, seed=10)
    encrypted = PrivateInferenceServer(net, _config())
    encrypted_report = encrypted.serve_trace(trace)
    plain = PrivateInferenceServer(_tiny_net(), _config(encrypt_requests=False))
    plain_report = plain.serve_trace(trace)
    assert len(plain_report.completed) == len(encrypted_report.completed) == 8
    assert plain_report.link_bytes < encrypted_report.link_bytes


def test_premium_arrival_evicts_best_effort_backlog_end_to_end():
    """A full deployment admits premium traffic by evicting the newest
    best-effort pending request, with both shed kinds accounted."""
    from repro.serving import SloClass, SloPolicy

    slo = SloPolicy(
        classes={"premium": SloClass(name="premium", latency_budget=0.005, priority=1)},
        assignments={"tenant0": "premium"},
    )
    net = _tiny_net()
    rng = np.random.default_rng(3)
    # A best-effort burst fills the whole capacity at t=0, then premium
    # and best-effort arrivals contend for the full queue.
    trace = [
        TraceRequest(time=0.0, tenant="tenant1", x=rng.normal(size=16))
        for _ in range(4)
    ]
    trace += [TraceRequest(time=1e-5, tenant="tenant1", x=rng.normal(size=16))]
    trace += [TraceRequest(time=2e-5, tenant="tenant0", x=rng.normal(size=16))]
    server = PrivateInferenceServer(
        net,
        _config(
            queue_capacity=4,
            max_batch_wait=0.01,
            slo=slo,
            darknight=DarKnightConfig(virtual_batch_size=8, seed=0),
        ),
    )
    report = server.serve_trace(trace)
    snap = report.metrics.snapshot()
    # The best-effort arrival at the full queue was refused; the premium
    # one evicted a pending best-effort request instead.
    assert snap["shed_at_admission"] == 1
    assert snap["shed_evicted"] == 1
    assert snap["shed"] == 2
    shed = [o for o in report.outcomes if o.status == STATUS_SHED]
    assert {o.tenant for o in shed} == {"tenant1"}
    # Premium completed; exactly 4 requests served (capacity held).
    premium = [o for o in report.completed if o.tenant == "tenant0"]
    assert len(premium) == 1
    assert len(report.completed) == 4
    assert sum(u.queue.evicted_count for u in server.units) == 1


def test_all_default_slo_policy_is_bit_identical_to_no_policy():
    """An SloPolicy whose every class is the default must not change a
    single bit, batch id, or completion time."""
    from repro.serving import SloPolicy

    net = _tiny_net()
    trace = synthetic_trace(24, (16,), n_tenants=3, seed=6)
    baseline = PrivateInferenceServer(net, _config()).serve_trace(trace)
    with_policy = PrivateInferenceServer(
        net, _config(slo=SloPolicy())
    ).serve_trace(trace)
    a = {o.request_id: o for o in baseline.completed}
    b = {o.request_id: o for o in with_policy.completed}
    assert sorted(a) == sorted(b)
    for rid in a:
        assert np.array_equal(a[rid].logits, b[rid].logits)
        assert a[rid].completion_time == b[rid].completion_time
        assert a[rid].batch_id == b[rid].batch_id


def test_quota_shed_surfaces_in_server_metrics():
    """An over-quota arrival is shed with the quota-specific counter, not
    lumped in with plain queue-full sheds."""
    from repro.serving import SloClass, SloPolicy

    net = _tiny_net()
    policy = SloPolicy(
        classes={"bulk": SloClass(name="bulk", admission_share=0.25)},
        assignments={"tenant0": "bulk"},
    )
    # capacity 8, share 0.25 -> 2 bulk slots; 6 simultaneous bulk arrivals.
    trace = [
        TraceRequest(time=0.0, tenant="tenant0", x=np.zeros(16)) for _ in range(6)
    ]
    server = PrivateInferenceServer(
        net, _config(queue_capacity=8, max_batch_wait=1.0, slo=policy)
    )
    report = server.serve_trace(trace)
    assert report.metrics.shed_quota == 4
    assert report.metrics.shed == 4
    assert len(report.completed) == 2
    shed = [o for o in report.outcomes if o.status == STATUS_SHED]
    assert len(shed) == 4 and all("quota" in o.error for o in shed)
