"""Tests for adaptive coalescing: learned deadlines + EPC-aware K.

Covers the policy in isolation (EWMA learning, probe-based controller,
EPC fit), its wiring through the scheduler/server, and the three
properties the ISSUE pins down: the deadline never leaves its
``[floor, ceiling]`` band, ``K`` never exceeds the EPC-fitting size, and
static mode stays bit-identical to a server that has never heard of the
feature.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import Dense, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import (
    AdaptiveBatchingConfig,
    AdaptiveFlushPolicy,
    PendingRequest,
    PrivateInferenceServer,
    RequestQueue,
    ServingConfig,
    VirtualBatchScheduler,
    WindowFeedback,
    bursty_trace,
    epc_fitting_batch_size,
    estimate_slot_bytes,
    synthetic_trace,
    working_set_bytes,
)


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _policy(**kwargs):
    defaults = dict(batch_size=4, max_wait=0.01)
    defaults.update(kwargs)
    return AdaptiveFlushPolicy(**defaults)


# ----------------------------------------------------------------------
# policy unit behaviour
# ----------------------------------------------------------------------
def test_static_deadline_until_warmup_completes():
    policy = _policy(config=AdaptiveBatchingConfig(warmup_arrivals=5))
    for i in range(4):
        policy.observe_arrival(i * 1e-4)
        assert policy.current_wait() == policy.ceiling
    policy.observe_arrival(5e-4)
    assert policy.current_wait() < policy.ceiling


def test_deadline_tracks_the_arrival_rate():
    fast = _policy(config=AdaptiveBatchingConfig(warmup_arrivals=0))
    slow = _policy(config=AdaptiveBatchingConfig(warmup_arrivals=0))
    for i in range(20):
        fast.observe_arrival(i * 1e-4)
        slow.observe_arrival(i * 3e-3)
    assert fast.current_wait() < slow.current_wait()


def test_gaps_are_winsorized_at_the_ceiling():
    """A burst boundary (gap >> ceiling) must not blind the EWMA."""
    policy = _policy(config=AdaptiveBatchingConfig(warmup_arrivals=0))
    t = 0.0
    for _ in range(20):
        t += 2e-4
        policy.observe_arrival(t)
    wait_before = policy.current_wait()
    policy.observe_arrival(t + 10.0)  # 10 *seconds* of silence
    # One folded, clamped gap moves the EWMA by at most alpha * ceiling.
    assert policy.current_wait() <= wait_before + policy.ceiling


def test_premature_flush_probe_relaxes_and_free_flush_tightens():
    cfg = AdaptiveBatchingConfig(warmup_arrivals=0)
    relax = _policy(config=cfg)
    for i in range(10):
        relax.observe_arrival(i * 1e-3)
    stretch_before = relax._stretch
    # Early partial flush at t=0.0095 that used 0.5ms of a 10ms budget...
    relax.observe_flush("deadline", 1, wait_used=5e-4, flush_time=9.5e-3)
    # ...and an arrival lands well inside the forfeited window: premature.
    relax.observe_arrival(10.5e-3)
    assert relax.premature_flushes == 1
    assert relax._stretch > stretch_before

    tighten = _policy(config=cfg)
    for i in range(10):
        tighten.observe_arrival(i * 1e-3)
    stretch_before = tighten._stretch
    tighten.observe_flush("deadline", 1, wait_used=5e-4, flush_time=9.5e-3)
    # Next arrival is far beyond the static deadline: the flush was free.
    tighten.observe_arrival(9.5e-3 + 0.5)
    assert tighten.premature_flushes == 0
    assert tighten._stretch < stretch_before


def test_ceiling_bound_partials_carry_no_relax_signal():
    policy = _policy(config=AdaptiveBatchingConfig(warmup_arrivals=0))
    for i in range(10):
        policy.observe_arrival(i * 1e-3)
    policy.observe_flush("deadline", 1, wait_used=policy.ceiling, flush_time=0.02)
    policy.observe_arrival(0.0201)
    assert policy.premature_flushes == 0


def test_service_feedback_raises_the_floor():
    policy = _policy(config=AdaptiveBatchingConfig(warmup_arrivals=0))
    for i in range(20):
        policy.observe_arrival(i * 1e-5)  # very fast arrivals -> tiny wait
    lean = policy.current_wait()
    policy.observe_window(
        WindowFeedback(
            shard_id=0,
            n_batches=1,
            enclave_busy=8e-3,
            makespan=8e-3,
            stage_totals={"encode": 8e-3},
        )
    )
    assert policy.current_wait() > lean


def test_invalid_adaptive_config_rejected():
    with pytest.raises(ConfigurationError):
        AdaptiveBatchingConfig(target_fill=0.0)
    with pytest.raises(ConfigurationError):
        AdaptiveBatchingConfig(min_wait=0.0)
    with pytest.raises(ConfigurationError):
        AdaptiveBatchingConfig(min_wait=1e-3, max_wait=1e-4)
    with pytest.raises(ConfigurationError):
        AdaptiveBatchingConfig(ewma_alpha=1.5)
    with pytest.raises(ConfigurationError):
        AdaptiveBatchingConfig(epc_headroom=0.0)
    with pytest.raises(ConfigurationError):
        AdaptiveBatchingConfig(warmup_arrivals=-1)
    with pytest.raises(ConfigurationError):
        AdaptiveFlushPolicy(batch_size=0, max_wait=0.01)
    with pytest.raises(ConfigurationError):
        AdaptiveFlushPolicy(batch_size=4, max_wait=0.0)
    with pytest.raises(ConfigurationError):
        epc_fitting_batch_size(4, 100, 0)
    with pytest.raises(ConfigurationError):
        working_set_bytes(0, 100)


# ----------------------------------------------------------------------
# property tests (the ISSUE's three invariants)
# ----------------------------------------------------------------------
def test_property_deadline_stays_within_floor_and_ceiling():
    """Whatever the policy observes, the wait stays in [floor, ceiling]."""
    rng = np.random.default_rng(7)
    for trial in range(20):
        policy = _policy(
            config=AdaptiveBatchingConfig(warmup_arrivals=int(rng.integers(0, 6)))
        )
        t = 0.0
        for _ in range(200):
            action = rng.integers(0, 4)
            if action == 0:
                t += float(rng.exponential(10.0 ** rng.uniform(-5, 1)))
                policy.observe_arrival(t)
            elif action == 1:
                policy.observe_flush(
                    "deadline",
                    int(rng.integers(0, 5)),
                    wait_used=float(rng.uniform(0, policy.ceiling)),
                    flush_time=t,
                )
            elif action == 2:
                policy.observe_flush("size", 4)
            else:
                policy.observe_window(
                    WindowFeedback(
                        shard_id=0,
                        n_batches=int(rng.integers(1, 4)),
                        enclave_busy=float(rng.exponential(1e-3)),
                        makespan=float(rng.exponential(1e-2)),
                        stage_totals={},
                    )
                )
            wait = policy.current_wait(pending=int(rng.integers(0, 8)))
            assert policy.floor <= wait <= policy.ceiling


def test_property_k_never_exceeds_the_epc_fitting_size():
    """For any (slot bytes, budget), the policy's K is at most the fit,
    and the fit's working set is within budget (or K hit the floor of 1)."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        base_k = int(rng.integers(1, 12))
        slot_bytes = int(rng.integers(1, 10**6))
        budget = int(rng.integers(1, 10**8))
        depth = int(rng.integers(1, 4))
        fit = epc_fitting_batch_size(base_k, slot_bytes, budget, pipeline_depth=depth)
        assert 1 <= fit <= base_k
        if fit > 1:
            assert (
                working_set_bytes(fit, slot_bytes, pipeline_depth=depth) <= budget
            )
        policy = AdaptiveFlushPolicy(
            base_k,
            0.01,
            config=AdaptiveBatchingConfig(epc_headroom=1.0),
            slot_bytes=slot_bytes,
            epc_budget_bytes=budget,
            pipeline_depth=depth,
        )
        assert policy.batch_size <= fit
        # Runtime observations can only tighten the cap, never widen it.
        policy.observe_window(
            WindowFeedback(
                shard_id=0,
                n_batches=1,
                enclave_busy=1e-3,
                makespan=1e-3,
                stage_totals={},
                slot_bytes_observed=slot_bytes * 2,
            )
        )
        assert policy.batch_size <= fit


def test_property_static_mode_is_bit_identical():
    """adaptive=None serves the same bits, times, and batch ids as a
    pre-feature server on the same trace."""
    trace = synthetic_trace(40, (16,), n_tenants=4, mean_interarrival=5e-4, seed=9)
    reports = []
    for _ in range(2):
        config = ServingConfig(
            darknight=DarKnightConfig(virtual_batch_size=4, seed=0),
            max_batch_wait=0.01,
            queue_capacity=128,
        )
        server = PrivateInferenceServer(_tiny_net(), config)
        assert all(s is None for s in server.scheduler.policy_snapshots())
        reports.append(server.serve_trace(trace))
    first, second = reports
    assert first.adaptive == second.adaptive == [None]
    a = {o.request_id: o for o in first.completed}
    b = {o.request_id: o for o in second.completed}
    assert sorted(a) == sorted(b)
    for rid in a:
        assert np.array_equal(a[rid].logits, b[rid].logits)
        assert a[rid].completion_time == b[rid].completion_time
        assert a[rid].batch_id == b[rid].batch_id


# ----------------------------------------------------------------------
# wiring through scheduler and server
# ----------------------------------------------------------------------
def _push(queue, request_id, tenant="t0", t=0.0):
    queue.push(
        PendingRequest(
            request_id=request_id,
            tenant=tenant,
            x=np.zeros(4),
            arrival_time=t,
            enqueue_time=t,
        )
    )


def test_scheduler_uses_the_learned_deadline():
    queue = RequestQueue(capacity=64)
    policy = _policy(config=AdaptiveBatchingConfig(warmup_arrivals=0))
    sched = VirtualBatchScheduler(queue, batch_size=4, max_wait=0.01, policy=policy)
    # Teach a ~0.1ms arrival process.
    for i in range(20):
        sched.observe_arrival(i * 1e-4)
    _push(queue, 0, t=0.002)
    learned = sched.current_wait()
    assert learned < sched.max_wait
    # The partial flushes at its *learned* deadline, long before 10ms.
    assert sched.collect_expired(now=0.002 + learned - 1e-6) == []
    batches = sched.collect_expired(now=0.01)
    assert len(batches) == 1
    assert batches[0].flush_time == pytest.approx(0.002 + learned)


def test_scheduler_caps_batch_size_at_the_epc_fit():
    queue = RequestQueue(capacity=64)
    policy = AdaptiveFlushPolicy(
        8,
        0.01,
        config=AdaptiveBatchingConfig(epc_headroom=1.0),
        slot_bytes=128,
        # Budget fits K=2: (2 + 2*(2+1)) * 128 = 1024.
        epc_budget_bytes=1024,
    )
    sched = VirtualBatchScheduler(queue, batch_size=8, max_wait=0.01, policy=policy)
    assert sched.effective_batch_size == 2
    for i in range(6):
        _push(queue, i)
    batches = sched.collect_ready(now=0.0)
    assert [b.n_requests for b in batches] == [2, 2, 2]


def test_server_threads_feedback_into_per_shard_policies():
    """End to end: policies learn arrivals *and* measured window timings,
    shards independently."""
    trace = bursty_trace(
        60, (16,), n_tenants=6, burst_size=10, intra_gap=2e-4, burst_gap=2e-2, seed=3
    )
    config = ServingConfig(
        darknight=DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2),
        adaptive=AdaptiveBatchingConfig(),
        max_batch_wait=0.01,
        queue_capacity=256,
    )
    server = PrivateInferenceServer(_tiny_net(), config)
    report = server.serve_trace(trace)
    assert len(report.completed) == 60
    snaps = report.adaptive
    assert len(snaps) == 2 and all(s is not None for s in snaps)
    # Every shard saw arrivals and real pipeline timings.
    assert sum(s["arrivals"] for s in snaps) == 60
    assert all(s["service_ewma"] is not None and s["service_ewma"] > 0 for s in snaps)
    assert all(s["gap_ewma"] is not None for s in snaps)
    # Shards learned independently (different tenant mixes -> state).
    assert snaps[0]["arrivals"] != snaps[1]["arrivals"] or (
        snaps[0]["gap_ewma"] != snaps[1]["gap_ewma"]
    )
    # Telemetry is strict-JSON-safe.
    import json

    def _reject(_):
        raise AssertionError("non-finite leaked into adaptive telemetry")

    json.loads(json.dumps(snaps), parse_constant=_reject)
    assert "adaptive: K=" in report.render()


def test_server_clamps_provisioned_k_to_the_epc_budget():
    net = _tiny_net()
    slot = estimate_slot_bytes(net)
    assert slot == 16 * 8  # widest activation of the tiny dense net
    budget = working_set_bytes(2, slot) + slot  # fits K=2, not K=3
    config = ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=4, seed=0, epc_budget_bytes=budget
        ),
        adaptive=AdaptiveBatchingConfig(epc_headroom=1.0),
        queue_capacity=64,
    )
    server = PrivateInferenceServer(net, config)
    assert server.darknight.virtual_batch_size == 2
    # The shard's enclave models the shrunken EPC too.
    assert server.shards[0].enclave.epc.usable_bytes == budget
    trace = synthetic_trace(12, (16,), n_tenants=2, mean_interarrival=1e-3, seed=1)
    report = server.serve_trace(trace)
    assert len(report.completed) == 12
    assert not server.shards[0].enclave.epc.is_overflowing


def test_cli_adaptive_flags():
    from repro.cli import main

    assert main(["serve", "--requests", "16", "--set", "adaptive={}"]) == 0
    assert (
        main(
            [
                "serve", "--requests", "16", "--set", "adaptive.target_fill=0.9",
                "--set", "darknight.epc_budget_bytes=4096",
            ]
        )
        == 0
    )
    # The EPC budget is the enclave's, with or without adaptive batching.
    assert main(["serve", "--requests", "8", "--set", "darknight.epc_budget_bytes=4096"]) == 0
    # Invalid values surface as a clean error, not a traceback.
    assert main(["serve", "--requests", "8", "--set", "darknight.epc_budget_bytes=-1"]) == 2
    assert main(["serve", "--requests", "8", "--set", "adaptive.target_fill=1.5"]) == 2
