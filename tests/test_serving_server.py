"""End-to-end tests for the multi-tenant private-inference server."""

from collections import Counter
from types import SimpleNamespace

import numpy as np

from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper
from repro.nn import Dense, PlainBackend, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import (
    STATUS_EVICTED,
    STATUS_INTEGRITY_FAILED,
    STATUS_MALFORMED,
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
    trace = synthetic_trace(8, (16,), n_tenants=2, seed=5)
    server = PrivateInferenceServer(net, _config(darknight=dk))
    server.shards[0].cluster[0].faults = RandomTamper(PrimeField(), probability=1.0, seed=4)
    report = server.serve_trace(trace)
    assert report.metrics.integrity_failures == 8
    assert len(report.completed) == 0
    assert all(o.status == STATUS_INTEGRITY_FAILED for o in report.outcomes)


def test_saturating_tenant_cannot_starve_others():
    """``tenant0`` sends 70 % of the requests; every tenant is served."""
    net = _tiny_net()
    rng = np.random.default_rng(6)
    trace = [
        TraceRequest(
            time=1e-3 * i,
            tenant="tenant0" if i % 10 < 7 else f"tenant{i % 10 - 6}",
            x=rng.normal(size=16),
        )
        for i in range(40)
    ]
    assert Counter(event.tenant for event in trace)["tenant0"] == 28
    server = PrivateInferenceServer(net, _config())
    report = server.serve_trace(trace)
    assert len(report.completed) == 40
    completed = Counter(o.tenant for o in report.completed)
    assert completed == Counter(event.tenant for event in trace)


def test_serving_reuses_cached_coefficients():
    net = _tiny_net()
    trace = synthetic_trace(32, (16,), n_tenants=2, seed=7)
    server = PrivateInferenceServer(net, _config())
    server.serve_trace(trace)
    ledger = server.shards[0].enclave.ledger
    # Two Dense layers x 8 batches = 16 encodes, but only one generation.
    assert ledger.op_counts.get("generate_coefficients", 0) == 1
    assert ledger.op_counts.get("reuse_coefficients", 0) >= 15


def test_serving_always_reuses_coefficients():
    """Every shard's backend runs in the serving mode, and the server
    serves the config it was given: it rewrites no field of it."""
    net = _tiny_net()
    dk = DarKnightConfig(virtual_batch_size=4, seed=8)
    trace = synthetic_trace(8, (16,), n_tenants=1, seed=8)
    server = PrivateInferenceServer(net, _config(darknight=dk))
    assert server.darknight == dk
    assert all(shard.backend.serving for shard in server.shards)
    server.serve_trace(trace)
    ledger = server.shards[0].enclave.ledger
    assert ledger.op_counts.get("generate_coefficients", 0) == 1
    assert ledger.op_counts.get("reuse_coefficients", 0) > 0


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
    from repro.serving import InferenceWorkerPool, PendingRequest, ScheduledBatch, SloPolicy
    from repro.sharding import EnclaveShard
    from serving_units import make_membership

    net = _tiny_net()
    dk = DarKnightConfig(
        virtual_batch_size=2, integrity=True, seed=12, pipeline_depth=2
    )
    field = PrimeField()
    cluster = GpuCluster(
        field, dk.n_gpus_required, fault_injectors={0: _TransientTamper(field)}
    )
    shard = EnclaveShard.provision(0, net, dk, cluster=cluster)
    pool = InferenceWorkerPool(make_membership([shard]), slo=SloPolicy())
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
    shard.backend.assert_encodings_released()


def test_aborted_window_occupancy_is_charged_to_busy_time():
    """A multi-batch window aborted by an integrity fault still occupied
    the enclave: ``busy_time`` is the timeline's, so it covers the
    aborted attempt that no successful window's stats account for."""
    from repro.serving import InferenceWorkerPool, PendingRequest, ScheduledBatch, SloPolicy
    from repro.sharding import EnclaveShard
    from serving_units import make_membership

    net = _tiny_net()
    dk = DarKnightConfig(
        virtual_batch_size=2, integrity=True, seed=12, pipeline_depth=2
    )
    field = PrimeField()
    cluster = GpuCluster(
        field, dk.n_gpus_required, fault_injectors={0: _TransientTamper(field)}
    )
    shard = EnclaveShard.provision(0, net, dk, cluster=cluster)
    windows = []
    membership = make_membership([shard])
    # A flush policy that only records the window feedback it is fed.
    membership.units[0].scheduler.policy = SimpleNamespace(observe_window=windows.append)
    pool = InferenceWorkerPool(membership, slo=SloPolicy())
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
    assert len(windows) == 3  # the isolating re-runs; the aborted window reports none
    # Everything the enclave timeline was ever occupied with — the
    # aborted shared window plus the isolating re-runs — is busy time.
    executor = pool.units[0].executor
    assert executor.busy_time == shard.timeline.busy_time
    assert executor.busy_time > sum(w.enclave_busy for w in windows)


def test_report_renders_metrics_and_session_facts():
    net = _tiny_net()
    trace = synthetic_trace(8, (16,), n_tenants=2, seed=9)
    server = PrivateInferenceServer(net, _config())
    text = server.serve_trace(trace).render()
    assert "Serving metrics" in text
    assert "attestation handshakes" in text


def test_every_request_and_response_crosses_the_tenant_channel():
    net = _tiny_net()
    trace = synthetic_trace(12, (16,), n_tenants=3, seed=10)
    server = PrivateInferenceServer(net, _config())
    report = server.serve_trace(trace)
    assert len(report.completed) == 12
    ops = server.shards[0].enclave.ledger.op_counts
    assert ops["ecall:serve_request"] == ops["ocall:serve_response"] == 12
    assert sorted(server.units[0].sessions.active_tenants) == sorted(report.tenants)


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
    assert [o.tenant for o in report.outcomes if o.status == STATUS_EVICTED] == ["tenant1"]


def test_an_unassigned_slo_class_is_bit_identical_to_the_default():
    """Classes act only through assignments: a budgeted, higher-priority
    class no tenant is assigned to must not change a single bit, batch id,
    or completion time — at depth 1, and at depth 3 where the executor
    ranks each window's jobs."""
    from repro.serving import SloClass, SloPolicy

    net = _tiny_net()
    trace = synthetic_trace(24, (16,), n_tenants=3, seed=6)
    premium = SloClass(name="premium", latency_budget=0.005, priority=1)
    for depth in (1, 3):
        dk = DarKnightConfig(virtual_batch_size=4, seed=0, pipeline_depth=depth)
        reports = [
            PrivateInferenceServer(net, _config(darknight=dk, slo=slo)).serve_trace(trace)
            for slo in (SloPolicy(), SloPolicy(classes={"premium": premium}))
        ]
        a, b = ({o.request_id: o for o in r.completed} for r in reports)
        assert sorted(a) == sorted(b) == list(range(24))
        for rid in a:
            assert np.array_equal(a[rid].logits, b[rid].logits)
            assert a[rid].completion_time == b[rid].completion_time
            assert a[rid].batch_id == b[rid].batch_id


def test_malformed_samples_are_shed_and_the_rest_of_the_trace_is_untouched():
    """A NaN sample and a wrong-shape sample each end as one shed outcome
    at admission; every other request is served exactly as in the clean
    trace — the co-batched tenants included."""
    net = _tiny_net()
    clean = sorted(synthetic_trace(24, (16,), n_tenants=3, seed=8), key=lambda r: r.time)
    nan_sample = clean[5].x.copy()
    nan_sample[3] = np.nan
    dirty = list(clean)
    dirty[5] = TraceRequest(time=clean[5].time, tenant=clean[5].tenant, x=nan_sample)
    dirty[11] = TraceRequest(time=clean[11].time, tenant=clean[11].tenant, x=np.ones(15))
    reports = [
        PrivateInferenceServer(net, _config()).serve_trace(trace) for trace in (clean, dirty)
    ]
    reference = {o.request_id: o.logits for o in reports[0].completed}
    outcomes = {o.request_id: o for o in reports[1].outcomes}
    assert len(reports[1].outcomes) == len(outcomes) == 24
    for request_id, reason in ((5, "NaN or infinite"), (11, "shape (15,)")):
        outcome = outcomes.pop(request_id)
        assert outcome.status == STATUS_MALFORMED and "malformed request" in outcome.error
        assert reason in outcome.error
    assert all(outcome.ok for outcome in outcomes.values())
    for request_id, outcome in outcomes.items():
        assert np.array_equal(outcome.logits, reference[request_id])
    snap = reports[1].metrics.snapshot()
    assert (snap["shed"], snap["shed_malformed"], snap["completed"]) == (2, 2, 22)
    assert "refused malformed" in reports[1].metrics.render()


def test_unconvertible_sample_is_shed_not_raised():
    net = _tiny_net()
    trace = [
        TraceRequest(time=0.0, tenant="tenant0", x=[[1.0, 2.0], [3.0]]),
        TraceRequest(time=0.0, tenant="tenant0", x=np.full(16, np.inf)),
        TraceRequest(time=0.0, tenant="tenant0", x=np.full(16, 1e200)),  # finite: served
    ]
    report = PrivateInferenceServer(net, _config(max_batch_wait=0.01)).serve_trace(trace)
    by_id = {o.request_id: o for o in report.outcomes}
    assert "not a numeric array" in by_id[0].error
    assert "NaN or infinite" in by_id[1].error
    assert report.metrics.shed_malformed == 2
    assert 2 not in {o.request_id for o in report.outcomes if o.status == STATUS_MALFORMED}
