"""Tests for the serving metrics view over an outcome list."""

import math

from repro.serving import ServerMetrics, SloPolicy
from repro.serving.requests import (
    STATUS_EVICTED,
    STATUS_INTEGRITY_FAILED,
    STATUS_MALFORMED,
    STATUS_OK,
    STATUS_SHED,
    RequestOutcome,
    ScheduledBatch,
)


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


def _shed(request_id, tenant, status=STATUS_SHED):
    return RequestOutcome(
        request_id=request_id, tenant=tenant, status=status, arrival_time=0.0
    )


def test_latency_percentiles_and_throughput():
    metrics = ServerMetrics(
        [_ok(i, "t0", arrival=float(i), completion=i + 0.010) for i in range(100)],
        slo=SloPolicy(),
    )
    assert metrics.completed == 100
    assert math.isclose(metrics.latency_percentile(50), 0.010)
    assert math.isclose(metrics.latency_percentile(99), 0.010)
    assert math.isclose(metrics.mean_latency, 0.010)
    # 100 completions over the 99.01s arrival..last-completion span.
    assert math.isclose(metrics.throughput, 100 / 99.010, rel_tol=1e-9)


def test_batch_fill_and_trigger_accounting():
    metrics = ServerMetrics([], slo=SloPolicy())
    metrics.record_batch(ScheduledBatch(batch_id=0, requests=[1, 2, 3, 4], slots=4))
    metrics.record_batch(
        ScheduledBatch(batch_id=1, requests=[5], trigger="deadline", slots=4)
    )
    assert metrics.batches == 2
    assert math.isclose(metrics.batch_fill_ratio, (1.0 + 0.25) / 2)
    assert metrics.flush_triggers() == {"size": 1, "deadline": 1}


def test_failures_and_shed_are_counted_not_completed():
    metrics = ServerMetrics(
        [
            _ok(0, "a", 0.0, 0.01),
            RequestOutcome(
                request_id=1,
                tenant="b",
                status=STATUS_INTEGRITY_FAILED,
                arrival_time=0.0,
            ),
            _shed(2, "b"),
        ],
        slo=SloPolicy(),
    )
    snap = metrics.snapshot()
    assert snap["completed"] == 1
    assert snap["integrity_failures"] == 1
    assert snap["shed"] == 1


def test_render_is_a_table_with_headline_metrics():
    metrics = ServerMetrics([_ok(0, "a", 0.0, 0.02)], slo=SloPolicy())
    text = metrics.render()
    assert "latency p99" in text
    assert "throughput" in text
    assert "batch fill ratio" in text


def test_empty_metrics_do_not_crash():
    metrics = ServerMetrics([], slo=SloPolicy())
    assert metrics.throughput == 0.0
    assert math.isnan(metrics.latency_percentile(50))
    assert metrics.batch_fill_ratio == 0.0


def test_degenerate_span_reports_zero_not_infinity():
    """Regression: one instantaneous completion used to yield inf req/s."""
    metrics = ServerMetrics([_ok(0, "a", arrival=1.0, completion=1.0)], slo=SloPolicy())
    assert metrics.throughput == 0.0
    assert math.isfinite(metrics.snapshot()["throughput_rps"])


def test_shed_and_failed_arrivals_do_not_stretch_the_span():
    """Regression: a shed (or failed) arrival long before the first
    completed request used to move the span start, deflating throughput
    on mixed traces."""
    from repro.serving.requests import STATUS_SHARD_FAILED

    # Noise at t=0 that produced no served response...
    noise = [
        _shed(97, "noisy"),
        RequestOutcome(
            request_id=99,
            tenant="noisy",
            status=STATUS_INTEGRITY_FAILED,
            arrival_time=0.0,
        ),
        RequestOutcome(
            request_id=98,
            tenant="noisy",
            status=STATUS_SHARD_FAILED,
            arrival_time=0.0,
        ),
    ]
    # ...then identical completed traffic starting at t=100.
    served = [_ok(i, "a", arrival=100.0 + i, completion=100.5 + i) for i in range(10)]
    clean = ServerMetrics(list(served), slo=SloPolicy())
    mixed = ServerMetrics(noise + served, slo=SloPolicy())
    assert mixed.throughput == clean.throughput
    assert math.isclose(clean.throughput, 10 / 9.5)


def test_snapshot_is_strict_json_everywhere():
    """No Infinity/NaN may reach benchmark JSON artifacts, and an empty
    snapshot still renders."""
    import json

    def _reject(_):
        raise AssertionError("non-finite constant leaked into snapshot JSON")

    empty = ServerMetrics([], slo=SloPolicy())
    json.loads(json.dumps(empty.snapshot()), parse_constant=_reject)
    assert empty.snapshot()["latency_p99"] is None
    assert "n/a" in empty.render()

    busy = ServerMetrics([_ok(0, "a", arrival=2.0, completion=2.0)], slo=SloPolicy())  # zero span
    json.loads(json.dumps(busy.snapshot()), parse_constant=_reject)


def test_the_three_shed_kinds_sum_to_shed():
    metrics = ServerMetrics(
        [_shed(0, "a"), _shed(1, "b", STATUS_EVICTED), _shed(2, "b", STATUS_MALFORMED)],
        slo=SloPolicy(),
    )
    snap = metrics.snapshot()
    assert (snap["shed_at_admission"], snap["shed_evicted"], snap["shed_malformed"]) == (1, 1, 1)
    assert snap["shed"] == 3
    assert "refused malformed" in metrics.render()
