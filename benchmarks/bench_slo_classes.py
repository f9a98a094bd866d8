"""End-to-end SLO classes: premium p99 held under mixed-class load.

A premium tenant sharing a deployment with bursty best-effort traffic
used to inherit the global flush deadline and the priority-blind shed
policy: its tail latency was whatever the backlog allowed.  With
:mod:`repro.serving.slo` the premium class's budget drives the flush
deadline (minimum remaining budget among queued requests), admission
evicts best-effort work instead of shedding premium arrivals, and the
pipeline executor's rank order spends the enclave on premium windows
first (the policy alone turns it on: budget-less windows carry no
deadline).

Acceptance (asserted below):

* mixed premium/best-effort trace — premium p99 meets its budget under
  the SLO server while the SLO-free server misses it, at equal aggregate
  completions (no served request lost to the feature);
* under backpressure, premium arrivals evict best-effort backlog —
  premium sheds zero while the shed/evicted split is reported;
* a budgeted premium class no tenant is assigned to (at depth 1, and at
  depth 3 where the executor ranks each window's jobs) is bit-identical
  to the default policy — classes act only through assignments.
"""

import numpy as np
from conftest import show

from repro.cli import build_serving_model
from repro.reporting import render_table
from repro.runtime import DarKnightConfig
from repro.serving import (
    PrivateInferenceServer,
    ServingConfig,
    SloClass,
    SloPolicy,
    TraceRequest,
    bursty_trace,
    synthetic_trace,
)

INPUT_SHAPE = (16,)
K = 4
MAX_WAIT = 0.02
PREMIUM_BUDGET = 0.008  # 8 ms end-to-end


def _slo_policy() -> SloPolicy:
    return SloPolicy(
        classes={
            "premium": SloClass(
                name="premium", latency_budget=PREMIUM_BUDGET, priority=1
            )
        },
        assignments={"vip": "premium"},
    )


def _mixed_trace(n_best_effort: int, n_premium: int, seed: int = 0):
    """Bursty best-effort traffic with sparse premium arrivals woven in.

    Premium requests arrive alone between bursts — the regime where a
    global deadline parks them behind the full ``MAX_WAIT`` and a
    size-triggered flush never rescues them.
    """
    rng = np.random.default_rng(seed)
    best_effort = bursty_trace(
        n_best_effort,
        INPUT_SHAPE,
        n_tenants=3,
        burst_size=10,
        intra_gap=2e-4,
        burst_gap=4e-2,
        seed=seed,
    )
    span = best_effort[-1].time
    premium = [
        TraceRequest(
            time=float((i + 0.5) * span / n_premium),
            tenant="vip",
            x=rng.normal(size=INPUT_SHAPE),
        )
        for i in range(n_premium)
    ]
    return sorted(best_effort + premium, key=lambda r: r.time)


def _server(slo, n_requests: int, **dk_kwargs):
    dk = DarKnightConfig(virtual_batch_size=K, seed=0, **dk_kwargs)
    config = ServingConfig(
        darknight=dk,
        max_batch_wait=MAX_WAIT,
        queue_capacity=2 * n_requests,
        slo=slo,
    )
    network, input_shape = build_serving_model("tiny", seed=0)
    assert input_shape == INPUT_SHAPE
    return PrivateInferenceServer(network, config)


def test_premium_p99_meets_budget_under_mixed_load(benchmark, capsys, quick):
    """Premium p99 within budget at equal aggregate completions."""
    n_best, n_vip = (90, 9) if quick else (240, 24)
    n = n_best + n_vip
    trace = _mixed_trace(n_best, n_vip)

    def run_both():
        slo_free = _server(slo=SloPolicy(), n_requests=n).serve_trace(trace)
        slo_on = _server(slo=_slo_policy(), n_requests=n).serve_trace(trace)
        return slo_free, slo_on

    slo_free, slo_on = benchmark.pedantic(run_both, rounds=1, iterations=1)

    def vip_p99(report):
        latencies = [o.latency for o in report.completed if o.tenant == "vip"]
        return float(np.percentile(latencies, 99))

    rows = [
        [
            name,
            f"{vip_p99(report) * 1e3:.2f}",
            f"{report.metrics.latency_percentile(99) * 1e3:.2f}",
            len(report.completed),
            f"{report.metrics.throughput:.1f}",
            "n/a" if snap is None else f"{snap:.3f}",
        ]
        for name, report, snap in [
            ("slo-free", slo_free, None),
            ("slo classes", slo_on, slo_on.metrics.slo_attainment("premium")),
        ]
    ]
    show(
        capsys,
        render_table(
            [
                "server", "premium p99 ms", "overall p99 ms", "completed",
                "req/s", "premium attainment",
            ],
            rows,
            title=(
                "SLO classes — premium budget"
                f" {PREMIUM_BUDGET * 1e3:.0f}ms vs global deadline"
                f" {MAX_WAIT * 1e3:.0f}ms (K={K}, mixed bursty trace)"
            ),
        ),
    )

    # Equal aggregate service: every request completes on both servers.
    assert len(slo_free.completed) == len(slo_on.completed) == n
    assert slo_on.metrics.decode_errors == 0
    assert slo_on.metrics.integrity_failures == 0
    # The SLO server holds the premium tail inside its contract; the
    # SLO-free server (premium waits the global deadline) cannot.
    assert vip_p99(slo_on) <= PREMIUM_BUDGET, (
        f"premium p99 {vip_p99(slo_on) * 1e3:.2f}ms blew the"
        f" {PREMIUM_BUDGET * 1e3:.0f}ms budget"
    )
    assert vip_p99(slo_free) > PREMIUM_BUDGET
    assert slo_on.metrics.slo_attainment("premium") == 1.0
    # Aggregate throughput stays in the same neighbourhood: premium-
    # driven early flushes may split a few batches but serve everything.
    assert slo_on.metrics.throughput >= 0.8 * slo_free.metrics.throughput


def test_eviction_shields_premium_from_backpressure(capsys, quick):
    """At capacity, premium arrivals evict best-effort backlog: premium
    sheds zero, and the admission/eviction split is reported."""
    n_best, n_vip = (40, 8) if quick else (80, 16)
    rng = np.random.default_rng(7)
    # One dense best-effort wall at t~0 swamps a tiny queue, then premium
    # arrivals land while it is still full.
    trace = [
        TraceRequest(time=1e-5 * i, tenant=f"tenant{i % 3}", x=rng.normal(size=16))
        for i in range(n_best)
    ]
    trace += [
        TraceRequest(time=1e-5 * n_best + 1e-6 * i, tenant="vip", x=rng.normal(size=16))
        for i in range(n_vip)
    ]
    capacity = n_best // 2
    network, _ = build_serving_model("tiny", seed=0)
    server = PrivateInferenceServer(
        network,
        ServingConfig(
            # K > capacity: the wall cannot size-flush its way out of the
            # queue, so the premium arrivals contend with *queued* backlog
            # — the admission-eviction scenario, isolated.
            darknight=DarKnightConfig(virtual_batch_size=capacity + n_vip, seed=0),
            max_batch_wait=MAX_WAIT,
            queue_capacity=capacity,
            slo=_slo_policy(),
        ),
    )
    report = server.serve_trace(trace)
    snap = report.metrics.snapshot()
    vip_outcomes = [o for o in report.outcomes if o.tenant == "vip"]
    assert len(vip_outcomes) == n_vip
    assert all(o.ok for o in vip_outcomes), "premium must never shed"
    assert snap["shed_evicted"] >= n_vip // 2, snap
    assert snap["shed_at_admission"] > 0
    assert snap["shed"] == snap["shed_at_admission"] + snap["shed_evicted"]
    assert snap["shed"] + snap["completed"] == n_best + n_vip
    show(
        capsys,
        f"backpressure split at capacity {capacity}: "
        f"{snap['completed']} served, {snap['shed_at_admission']} shed at"
        f" admission, {snap['shed_evicted']} evicted by class"
        f" ({n_vip}/{n_vip} premium served)",
    )


def test_default_slo_and_deadline_ranker_are_bit_identical(quick):
    """Classes act only through assignments: a budgeted, higher-priority
    class no tenant is assigned to — at depth 1, and at depth 3 where the
    executor ranks each window's jobs — serves bit-identical outcomes to
    the default policy."""
    n = 48 if quick else 96
    trace = synthetic_trace(n, INPUT_SHAPE, n_tenants=4, seed=5)
    unassigned = SloPolicy(classes=_slo_policy().classes)

    def outcomes(slo, depth):
        report = _server(slo=slo, n_requests=n, pipeline_depth=depth).serve_trace(trace)
        return {o.request_id: o for o in report.completed}

    for depth in (1, 3):
        a, b = outcomes(SloPolicy(), depth), outcomes(unassigned, depth)
        assert sorted(a) == sorted(b) == list(range(n))
        for rid in a:
            assert np.array_equal(a[rid].logits, b[rid].logits)
            assert a[rid].completion_time == b[rid].completion_time
            assert a[rid].batch_id == b[rid].batch_id
