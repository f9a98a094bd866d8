"""Tests for adaptive coalescing: learned deadlines + EPC-aware K.

Covers the policy in isolation (EWMA learning, probe-based controller,
EPC fit), its wiring through the scheduler/server, and the three
properties the ISSUE pins down: the deadline never leaves its
``[floor, ceiling]`` band, ``K`` never exceeds the EPC-fitting size, and
static mode stays bit-identical to a server that has never heard of the
feature.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.enclave import EPC_USABLE_BYTES
from repro.errors import ConfigurationError
from repro.nn import Dense, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import (
    AdaptiveFlushPolicy,
    PendingRequest,
    PrivateInferenceServer,
    RequestQueue,
    ServingConfig,
    SloPolicy,
    VirtualBatchScheduler,
    WindowFeedback,
    bursty_trace,
    epc_fitting_batch_size,
    estimate_slot_bytes,
    synthetic_trace,
    working_set_bytes,
)
from repro.serving.adaptive import (
    EPC_HEADROOM,
    EWMA_ALPHA,
    MIN_WAIT,
    TARGET_FILL,
    WARMUP_ARRIVALS,
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
    policy = _policy()
    for i in range(WARMUP_ARRIVALS - 1):
        policy.observe_arrival(i * 1e-4)
        assert policy.current_wait() == policy.ceiling
    policy.observe_arrival(WARMUP_ARRIVALS * 1e-4)
    assert policy.current_wait() < policy.ceiling


def test_deadline_tracks_the_arrival_rate():
    fast = _policy()
    slow = _policy()
    for i in range(20):
        fast.observe_arrival(i * 1e-4)
        slow.observe_arrival(i * 3e-3)
    assert fast.current_wait() < slow.current_wait()


def test_gaps_are_winsorized_at_the_ceiling():
    """A burst boundary (gap >> ceiling) must not blind the EWMA."""
    policy = _policy()
    t = 0.0
    for _ in range(20):
        t += 2e-4
        policy.observe_arrival(t)
    wait_before = policy.current_wait()
    policy.observe_arrival(t + 10.0)  # 10 *seconds* of silence
    # One folded, clamped gap moves the EWMA by at most alpha * ceiling.
    assert policy.current_wait() <= wait_before + policy.ceiling


def test_premature_flush_probe_relaxes_and_free_flush_tightens():
    relax = _policy()
    for i in range(10):
        relax.observe_arrival(i * 1e-3)
    stretch_before = relax._stretch
    # Early partial flush at t=0.0095 that used 0.5ms of a 10ms budget...
    relax.observe_flush("deadline", 1, wait_used=5e-4, flush_time=9.5e-3)
    # ...and an arrival lands well inside the forfeited window: premature.
    relax.observe_arrival(10.5e-3)
    assert relax.premature_flushes == 1
    assert relax._stretch > stretch_before

    tighten = _policy()
    for i in range(10):
        tighten.observe_arrival(i * 1e-3)
    stretch_before = tighten._stretch
    tighten.observe_flush("deadline", 1, wait_used=5e-4, flush_time=9.5e-3)
    # Next arrival is far beyond the static deadline: the flush was free.
    tighten.observe_arrival(9.5e-3 + 0.5)
    assert tighten.premature_flushes == 0
    assert tighten._stretch < stretch_before


def test_ceiling_bound_partials_carry_no_relax_signal():
    policy = _policy()
    for i in range(10):
        policy.observe_arrival(i * 1e-3)
    policy.observe_flush("deadline", 1, wait_used=policy.ceiling, flush_time=0.02)
    policy.observe_arrival(0.0201)
    assert policy.premature_flushes == 0


def test_service_feedback_raises_the_floor():
    policy = _policy()
    for i in range(20):
        policy.observe_arrival(i * 1e-5)  # very fast arrivals -> tiny wait
    lean = policy.current_wait()
    policy.observe_window(
        WindowFeedback(
            n_batches=1,
            enclave_busy=8e-3,
        )
    )
    assert policy.current_wait() > lean


def test_gap_ewma_folds_at_the_module_alpha():
    policy = _policy()
    for t in (0.0, 1e-3, 3e-3):
        policy.observe_arrival(t)
    snap = policy.snapshot()
    assert snap["gap_ewma"] == pytest.approx(EWMA_ALPHA * 2e-3 + (1 - EWMA_ALPHA) * 1e-3)
    assert snap["wait_floor"] == MIN_WAIT and snap["wait_ceiling"] == 0.01


def test_a_flush_at_the_target_fill_tightens_and_below_it_probes():
    policy = _policy()
    full = math.ceil(TARGET_FILL * policy.batch_size)
    stretch = policy._stretch
    policy.observe_flush("deadline", full, wait_used=1e-3, flush_time=0.01)
    assert policy._stretch < stretch and policy.partial_deadline_flushes == 0
    policy.observe_flush("deadline", full - 1, wait_used=1e-3, flush_time=0.02)
    assert policy.partial_deadline_flushes == 1
    assert list(policy._probes) == [(0.02, 0.02 - 1e-3 + policy.ceiling)]


def test_invalid_adaptive_config_rejected():
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
        policy = _policy()
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
                        n_batches=int(rng.integers(1, 4)),
                        enclave_busy=float(rng.exponential(1e-3)),
                    )
                )
            wait = policy.current_wait(pending=int(rng.integers(0, 8)))
            assert policy.floor <= wait <= policy.ceiling


def test_property_k_never_exceeds_the_epc_fitting_size():
    """For any K, M, integrity, depth and budget, the server provisions the
    fit — the largest K whose working set stays within the budget's
    headroom, or 1 — adaptive or not, and coalesces to it."""
    net = _tiny_net()
    slot = estimate_slot_bytes(net)
    rng = np.random.default_rng(11)
    trace = synthetic_trace(12, (16,), n_tenants=3, mean_interarrival=1e-4, seed=2)
    for _ in range(30):
        dk = DarKnightConfig(
            virtual_batch_size=int(rng.integers(1, 12)),
            collusion_tolerance=int(rng.integers(1, 4)),
            integrity=bool(rng.integers(2)),
            pipeline_depth=int(rng.integers(1, 4)),
            epc_budget_bytes=int(rng.integers(1, 20_000)),
            seed=0,
        )
        adaptive = bool(rng.integers(2))
        server = PrivateInferenceServer(net, ServingConfig(darknight=dk, adaptive=adaptive))
        k = server.darknight.virtual_batch_size
        kept = int(dk.epc_budget_bytes * EPC_HEADROOM)
        shape = (dk.collusion_tolerance, dk.extra_shares, dk.pipeline_depth)
        assert k == epc_fitting_batch_size(dk.virtual_batch_size, slot, kept, *shape)
        assert 1 <= k <= dk.virtual_batch_size
        if k > 1:
            assert working_set_bytes(k, slot, *shape) <= kept
        if k < dk.virtual_batch_size:
            assert working_set_bytes(k + 1, slot, *shape) > kept
        report = server.serve_trace(trace)
        batch_sizes = np.unique([o.batch_id for o in report.completed], return_counts=True)[1]
        assert len(report.completed) == 12 and max(batch_sizes) <= k
        assert report.adaptive == [None] or report.adaptive[0]["batch_size"] == k


def test_property_static_mode_is_bit_identical():
    """adaptive=False serves the same bits, times, and batch ids as a
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
        )
    )


def test_scheduler_uses_the_learned_deadline():
    queue = RequestQueue(SloPolicy())
    policy = _policy()
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
    """The scheduler a server provisions under a tight EPC budget coalesces
    at the fitted K, not the configured one — adaptive or static."""
    net = _tiny_net()
    slot = estimate_slot_bytes(net)
    # What the headroom keeps fits K=2: (2 + 2*(2+1)) * 128 = 1024.
    assert working_set_bytes(2, slot) == 1024
    budget = math.ceil(1024 / EPC_HEADROOM)
    for adaptive in (True, False):
        dk = DarKnightConfig(virtual_batch_size=8, seed=0, epc_budget_bytes=budget)
        server = PrivateInferenceServer(net, ServingConfig(darknight=dk, adaptive=adaptive))
        sched = server.units[0].scheduler
        assert sched.batch_size == sched.slots == 2
        for i in range(6):
            _push(sched.queue, i)
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
        adaptive=True,
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
    assert "adaptive: learned deadline(s)" in report.render()


def test_server_clamps_provisioned_k_to_the_epc_budget():
    net = _tiny_net()
    slot = estimate_slot_bytes(net)
    assert slot == 16 * 8  # widest activation of the tiny dense net
    # What the headroom keeps fits K=2, not K=3.
    budget = working_set_bytes(2, slot) + slot
    assert working_set_bytes(2, slot) <= int(budget * EPC_HEADROOM) < working_set_bytes(3, slot)
    config = ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=4, seed=0, epc_budget_bytes=budget
        ),
        adaptive=True,
        queue_capacity=64,
    )
    server = PrivateInferenceServer(net, config)
    k = server.darknight.virtual_batch_size
    assert k == 2
    trace = synthetic_trace(12, (16,), n_tenants=2, mean_interarrival=1e-3, seed=1)
    report = server.serve_trace(trace)
    assert len(report.completed) == 12
    # The provisioned K's working set fits what the headroom keeps.
    assert working_set_bytes(k, slot, 1, 0, 1) <= int(budget * EPC_HEADROOM)


def test_a_static_server_fits_k_to_the_epc_budget_too():
    """Regression: the budget used to size K only with adaptive batching on;
    a static deployment masked at the requested K however tight it was."""
    net = _tiny_net()
    slot = estimate_slot_bytes(net)
    budget = math.ceil(working_set_bytes(2, slot, 1, 1, 2) / EPC_HEADROOM)
    dk = DarKnightConfig(
        virtual_batch_size=4, seed=0, integrity=True, pipeline_depth=2, epc_budget_bytes=budget
    )
    server = PrivateInferenceServer(net, ServingConfig(darknight=dk))
    fit = epc_fitting_batch_size(4, slot, int(budget * EPC_HEADROOM), 1, 1, 2)
    assert server.darknight.virtual_batch_size == fit == 2
    assert server.shards[0].backend.config.virtual_batch_size == 2
    # With no budget set, K is fitted to usable EPC — 93 MB, which no
    # served model here comes near.
    assert EPC_USABLE_BYTES == 93 * 1024 * 1024
    unbounded = dataclasses.replace(dk, epc_budget_bytes=None)
    server = PrivateInferenceServer(net, ServingConfig(darknight=unbounded))
    assert server.darknight.virtual_batch_size == 4


def test_cli_adaptive_flags():
    from repro.cli import main

    assert main(["serve", "--requests", "16", "--set", "adaptive=true"]) == 0
    assert (
        main(
            [
                "serve", "--requests", "16", "--set", "adaptive=true",
                "--set", "darknight.epc_budget_bytes=4096",
            ]
        )
        == 0
    )
    # The EPC budget is the enclave's, with or without adaptive batching.
    assert main(["serve", "--requests", "8", "--set", "darknight.epc_budget_bytes=4096"]) == 0
    # Invalid values surface as a clean error, not a traceback.
    assert main(["serve", "--requests", "8", "--set", "darknight.epc_budget_bytes=-1"]) == 2
    assert main(["serve", "--requests", "8", "--set", "adaptive=1"]) == 2
