"""The offline/online split: mask streams, weight cache, scratch buffers.

The load-bearing property everywhere is **bit-identity**: precompute mode
may change *when* work happens (pregenerated masks, cached weight
encodings, recycled scratch buffers) but never the bits of any response.
These tests pin that across the pool's hit/miss/exhaustion paths, across
``pipeline_depth x num_shards x partition`` deployments, and across the
cache-invalidation edges (elastic membership change, pipeline-group
rebuild) — plus the steady-state acceptance bar: a warmed-up flush
window generates no inline masks and re-stages no weights.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fieldmath import PrimeField
from repro.nn import Dense, PlainBackend, ReLU, Sequential
from repro.pipeline import PipelineExecutor
from repro.precompute import pool as pool_module
from repro.precompute import (
    MaskStreamPool,
    ScratchPool,
    active_scratch,
    enable_scratch,
    scratch_scope,
)
from repro.quantization import QuantizationConfig
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace
from repro.serving.requests import PendingRequest, ScheduledBatch
from repro.serving.slo import build_slo_policy

FIELD = PrimeField()
SHAPE = (3, 8, 8)
BLOCK_DRAWS = pool_module.BLOCK_DRAWS


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _serve(precompute, trace, *, num_shards=1, partition="replicated",
           pipeline_depth=1, seed=7):
    dk = DarKnightConfig(
        virtual_batch_size=4,
        seed=seed,
        num_shards=num_shards,
        pipeline_depth=pipeline_depth,
    )
    config = ServingConfig(
        darknight=dk, partition=partition, queue_capacity=512, precompute=precompute
    )
    server = PrivateInferenceServer(_tiny_net(), config)
    return server, server.serve_trace(trace)


def _logits(report):
    return np.stack(
        [o.logits for o in sorted(report.completed, key=lambda o: o.request_id)]
    )


# ----------------------------------------------------------------------
# MaskStreamPool: counter-based bit-identity
# ----------------------------------------------------------------------
def test_pooled_and_inline_draws_are_bit_identical():
    """A pooled sequence equals an all-inline one, draw for draw."""
    pooled = MaskStreamPool(FIELD, base_key=123)
    inline = MaskStreamPool(FIELD, base_key=123)
    # Streams register on first draw; refills before that are no-ops.
    assert pooled.refill_one() == 0
    first, registered = pooled.draw(SHAPE, 4, 1)
    assert not registered
    assert np.array_equal(first, inline.draw(SHAPE, 4, 1)[0])
    for _ in range(6):
        assert pooled.refill_one() > 0
    for i in range(6):
        a, was_pooled = pooled.draw(SHAPE, 4, 1)
        b, was_inline = inline.draw(SHAPE, 4, 1)
        assert was_pooled and not was_inline
        assert np.array_equal(a, b), f"draw {i} diverged"
    assert pooled.hits == 6 and inline.misses == 7


def test_interleaved_refills_never_reorder_or_double_draw():
    """Refills landing between draws hand out exactly the counters an
    all-inline pool would have generated — no skip, no repeat."""
    mixed = MaskStreamPool(FIELD, base_key=9)
    reference = MaskStreamPool(FIELD, base_key=9)
    drawn = []
    for i in range(10):
        if i % 3 == 0:
            mixed.refill_one()
        drawn.append(mixed.draw(SHAPE, 4, 2)[0])
    for i, tensor in enumerate(drawn):
        assert np.array_equal(tensor, reference.draw(SHAPE, 4, 2)[0]), i
    assert mixed.hits + mixed.misses == 10


def test_pool_exhaustion_falls_back_inline_without_deadlock():
    """Draining the pool past its refills degrades to inline misses that
    still carry the right counters (and never blocks)."""
    pool = MaskStreamPool(FIELD, base_key=5, stream_capacity=2)
    reference = MaskStreamPool(FIELD, base_key=5)
    pool.draw(SHAPE, 4, 1)  # register the stream (inline miss)
    reference.draw(SHAPE, 4, 1)
    assert pool.refill_one() > 0 and pool.refill_one() > 0
    assert pool.refill_one() == 0  # capacity cap: refills stop, no deadlock
    flags = []
    for _ in range(5):
        tensor, was_pooled = pool.draw(SHAPE, 4, 1)
        flags.append(was_pooled)
        assert np.array_equal(tensor, reference.draw(SHAPE, 4, 1)[0])
    assert flags == [True, True, False, False, False]
    assert pool.hits == 2 and pool.misses == 4


def test_max_bytes_bounds_refill_but_never_draws():
    """A pool too small for even one tensor refuses refills (pending 0)
    yet serves every draw inline."""
    pool = MaskStreamPool(FIELD, base_key=5, max_bytes=1)
    reference = MaskStreamPool(FIELD, base_key=5)
    first, was_pooled = pool.draw(SHAPE, 4, 1)  # registers the stream
    assert not was_pooled
    assert np.array_equal(first, reference.draw(SHAPE, 4, 1)[0])
    assert pool.pending_bytes() == 0 and pool.refill_one() == 0
    assert np.array_equal(
        pool.draw(SHAPE, 4, 1)[0], reference.draw(SHAPE, 4, 1)[0]
    )


def test_distinct_keys_use_independent_streams():
    pool = MaskStreamPool(FIELD, base_key=1)
    a = pool.draw(SHAPE, 4, 1)[0]
    b = pool.draw(SHAPE, 4, 2)[0]
    assert a.shape == (1,) + SHAPE and b.shape == (2,) + SHAPE
    assert pool.snapshot()["streams"] == 2


# Draw ledger (ROADMAP's randomness item, the ``MaskStreamPool.draw`` slice):
# whatever the schedule, draw ``c`` of a stream is the tensor a pool that
# only ever misses returns for it, and no block slot leaves the pool twice.
LEDGER_KEYS = ((SHAPE, 4, 1), (SHAPE, 4, 2), ((5,), 2, 1))
_TENSOR_BYTES = 8 * int(np.prod(SHAPE))  # the (1,) + SHAPE stream's unit


def _scanned_refill(pool):
    """The refill target by a full scan in creation order (the oracle for
    the pool's open-stream mask)."""
    for stream in pool._streams.values():
        if len(stream.ready) < pool.stream_capacity and \
                pool._pooled_bytes + stream.nbytes <= pool.max_bytes:
            return stream
    return None


def _all_miss_draws(base_key, key, count):
    reference = MaskStreamPool(FIELD, base_key)
    return [reference.draw(*key)[0] for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(
    schedule=st.lists(st.integers(-1, len(LEDGER_KEYS) - 1), max_size=90),
    stream_capacity=st.sampled_from([1, BLOCK_DRAWS - 1, BLOCK_DRAWS, BLOCK_DRAWS + 1, 32]),
    max_bytes=st.sampled_from([1, _TENSOR_BYTES, 3 * _TENSOR_BYTES, 1 << 24]),
    base_key=st.integers(0, 2**64 - 1),
)
@example(  # refill to the brim, drain, draw on: every block edge both ways
    schedule=[0] + [-1] * (BLOCK_DRAWS + 1) + [0] * (2 * BLOCK_DRAWS + 2),
    stream_capacity=BLOCK_DRAWS + 1, max_bytes=1 << 24, base_key=0,
)
def test_draw_ledger_under_generated_schedules(
    schedule, stream_capacity, max_bytes, base_key
):
    """``schedule`` interleaves draws (a stream's index) with refill units (-1)."""
    pool = MaskStreamPool(
        FIELD, base_key, stream_capacity=stream_capacity, max_bytes=max_bytes
    )
    drawn = {key: [] for key in LEDGER_KEYS}
    draws = refills = 0
    for step in schedule:
        if step < 0:
            assert pool._next_refill() is _scanned_refill(pool)
            pending = pool.pending_bytes()
            assert pool.refill_one() == pending  # one tensor, or 0 when saturated
            refills += bool(pending)
        else:
            key = LEDGER_KEYS[step]
            tensor, _ = pool.draw(*key)
            assert tensor.shape == (key[2],) + key[0]
            drawn[key].append(tensor)
            draws += 1
        assert pool.snapshot()["pooled_bytes"] <= max_bytes
        assert all(len(s.ready) <= stream_capacity for s in pool._streams.values())
    assert (pool.hits + pool.misses, pool.refills) == (draws, refills)
    for key, tensors in drawn.items():
        for c, (got, want) in enumerate(zip(tensors, _all_miss_draws(base_key, key, len(tensors)))):
            assert np.array_equal(got, want), (key, c)
    # Every tensor is still alive here, so equal addresses would be one
    # block slot handed to two draws.
    handed_out = [t.__array_interface__["data"][0] for ts in drawn.values() for t in ts]
    assert len(set(handed_out)) == len(handed_out)


def test_block_edges_and_access_order_do_not_change_a_draw():
    """Counters ``B-1, B, B+1`` straddle a block whether they are missed,
    pooled, or generated out of order (a counter outside the kept block
    regenerates that block)."""
    edge = (BLOCK_DRAWS - 1, BLOCK_DRAWS, BLOCK_DRAWS + 1)
    want = _all_miss_draws(77, LEDGER_KEYS[0], BLOCK_DRAWS + 2)
    assert len({want[c].tobytes() for c in edge}) == 3
    pooled = MaskStreamPool(FIELD, 77)
    got = [pooled.draw(*LEDGER_KEYS[0])[0]]
    for _ in range(BLOCK_DRAWS + 1):
        assert pooled.refill_one()
    got += [pooled.draw(*LEDGER_KEYS[0])[0] for _ in range(BLOCK_DRAWS + 1)]
    assert pooled.hits == BLOCK_DRAWS + 1
    stream = pooled._stream_for(*LEDGER_KEYS[0])
    for c in edge + edge[::-1] + (0,):
        assert np.array_equal(got[c], want[c])
        assert np.array_equal(pooled._generate(stream, c), want[c])


def test_stream_is_a_function_of_its_key_not_of_registration_order():
    """A pool rebuilt under the same base key may meet its layers in
    another order (a ``layered:N`` regroup moves stage ranges)."""
    forward, backward = MaskStreamPool(FIELD, 11), MaskStreamPool(FIELD, 11)
    first = {key: forward.draw(*key)[0] for key in LEDGER_KEYS}
    for key in reversed(LEDGER_KEYS):
        assert np.array_equal(backward.draw(*key)[0], first[key]), key
    ids = [s.stream_id for s in forward._streams.values()]
    assert len(set(ids)) == len(ids) and all(0 <= i < 2**64 for i in ids)


def test_colliding_stream_ids_are_refused(monkeypatch):
    real = pool_module.hashlib.blake2b
    monkeypatch.setattr(
        pool_module.hashlib, "blake2b", lambda data, **kw: real(b"same", **kw)
    )
    pool = MaskStreamPool(FIELD, 3)
    pool.draw(*LEDGER_KEYS[0])
    pool.draw(*LEDGER_KEYS[0])  # the same stream again is not a collision
    with pytest.raises(ConfigurationError, match="share id"):
        pool.draw(*LEDGER_KEYS[1])


def test_handed_out_tensors_are_read_only():
    """A draw is a view of its block: a write through it would reach
    draws that have not been handed out yet."""
    pool = MaskStreamPool(FIELD, 4)
    missed, _ = pool.draw(*LEDGER_KEYS[0])
    assert pool.refill_one()
    hit, was_pooled = pool.draw(*LEDGER_KEYS[0])
    assert was_pooled
    for tensor in (missed, hit):
        with pytest.raises(ValueError, match="read-only"):
            tensor[0, 0, 0, 0] = 0


def test_one_bit_generator_per_block_of_refills(monkeypatch):
    """32 refills of one stream seat Philox once per block (4 blocks of 8),
    not once per tensor."""
    seats = []
    real = np.random.Philox
    monkeypatch.setattr(
        np.random, "Philox", lambda **kw: seats.append(kw["counter"][3]) or real(**kw)
    )
    pool = MaskStreamPool(FIELD, 6)
    pool.draw(*LEDGER_KEYS[0])  # registers the stream; seats block 0
    for _ in range(32):
        assert pool.refill_one()
    assert seats == list(range(32 // BLOCK_DRAWS + 1))


def test_pool_snapshot_is_strict_json_before_first_draw():
    pool = MaskStreamPool(FIELD, base_key=0)
    snap = pool.snapshot()
    assert snap["hit_rate"] is None and snap["occupancy"] is None
    json.dumps(snap, allow_nan=False)


# ----------------------------------------------------------------------
# ScratchPool: value transparency
# ----------------------------------------------------------------------
def test_scratch_pool_reuses_one_buffer_per_site():
    pool = ScratchPool()
    a = pool.get("t", (4, 4), np.float64)
    b = pool.get("t", (4, 4), np.float64)
    assert a is b
    assert pool.get("other", (4, 4), np.float64) is not a
    assert (len(pool._buffers), pool.pooled_bytes) == (2, 256)


def test_scratch_pool_resets_on_shape_churn():
    pool = ScratchPool(max_entries=2)
    pool.get("t", (1,), np.int64)
    pool.get("t", (2,), np.int64)
    pool.get("t", (3,), np.int64)  # churn past capacity: pool resets
    assert len(pool._buffers) == 1


def test_scratch_path_is_value_transparent_for_encode_decode():
    from repro.fieldmath import FieldRng
    from repro.masking import CoefficientSet, ForwardDecoder

    rng = FieldRng(FIELD, seed=3)
    coeffs = CoefficientSet.generate(rng, k=4, m=1, extra_shares=1)
    decoder = ForwardDecoder(coeffs)
    outputs = rng.uniform((6, 3, 16, 16))
    plain = decoder.decode(outputs)
    previous = enable_scratch(True)
    try:
        pooled = decoder.decode(outputs)
        again = decoder.decode(outputs)  # second pass hits warm buffers
    finally:
        enable_scratch(previous)
    assert np.array_equal(plain, pooled)
    assert np.array_equal(plain, again)


def test_precompute_work_borrows_the_scratch_pool_and_gives_it_back():
    """Regression: ``DarKnightBackend(precompute=True)`` used to flip the
    process-global scratch switch on in ``__init__`` and nothing ever
    flipped it back, so one precompute server moved every later backend
    in the process onto the pool."""
    from repro.runtime.darknight import DarKnightBackend

    assert active_scratch() is None
    DarKnightBackend(DarKnightConfig(seed=0), precompute=True)  # built, dropped
    assert active_scratch() is None
    trace = synthetic_trace(12, (16,), n_tenants=2, seed=2)
    _, report = _serve(True, trace)
    assert len(report.completed) == 12
    assert active_scratch() is None  # ... and a served trace leaves no mark


def test_scratch_scope_is_on_for_the_window_and_keeps_its_buffers(monkeypatch):
    seen = []
    real_get = ScratchPool.get

    def spy(self, tag, shape, dtype):
        seen.append(active_scratch() is self)
        return real_get(self, tag, shape, dtype)

    monkeypatch.setattr(ScratchPool, "get", spy)
    trace = synthetic_trace(12, (16,), n_tenants=2, seed=2)
    _serve(False, trace)
    assert not seen  # a plain server never touches the pool
    _serve(True, trace)
    assert seen and all(seen)  # a precompute window runs on it throughout
    # Scopes nest, restore what they found, and never drop pooled buffers:
    # the next window reuses what this one allocated.
    with scratch_scope(True):
        pool = active_scratch()
        buf = pool.get("t", (2,), np.int64)
        with scratch_scope(False):
            assert active_scratch() is pool
        with pytest.raises(RuntimeError), scratch_scope(True):
            raise RuntimeError("work failed mid-window")
        assert active_scratch() is pool
    assert active_scratch() is None
    with scratch_scope(True):
        assert active_scratch().get("t", (2,), np.int64) is buf


# ----------------------------------------------------------------------
# end-to-end bit-identity across deployments
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "pipeline_depth,num_shards,partition",
    [
        (1, 1, "replicated"),
        (2, 1, "replicated"),
        (1, 2, "replicated"),
        (2, 2, "replicated"),
        (1, 2, "layered:2"),
        (2, 2, "layered:2"),
    ],
)
def test_precompute_serves_bit_identical_logits(
    pipeline_depth, num_shards, partition
):
    trace = synthetic_trace(24, (16,), n_tenants=3, seed=2)
    _, off = _serve(False, trace, num_shards=num_shards,
                    partition=partition, pipeline_depth=pipeline_depth)
    _, on = _serve(True, trace, num_shards=num_shards,
                   partition=partition, pipeline_depth=pipeline_depth)
    assert len(off.completed) == len(on.completed) == 24
    assert np.array_equal(_logits(off), _logits(on))
    assert on.precompute is not None and off.precompute is None


# ----------------------------------------------------------------------
# weight-cache invalidation edges
# ----------------------------------------------------------------------
def _membership_churn(server):
    """Serve / provision / serve / decommission / serve; returns logits."""
    out = []
    for phase, trace_seed in enumerate((11, 12, 13)):
        trace = synthetic_trace(16, (16,), n_tenants=3, seed=trace_seed)
        out.append(_logits(server.serve_trace(trace)))
        if phase == 0:
            server.provision_shard(now=0.0)
        elif phase == 1:
            server.decommission_shard(shard_id=0, now=0.0)
    return out


def test_weight_cache_invalidates_on_membership_change():
    """Provision/retire clears every live backend's weight cache, and the
    post-churn deployment serves the same bits as one that never cached."""
    dk = DarKnightConfig(virtual_batch_size=4, seed=7, num_shards=2)
    on = PrivateInferenceServer(
        _tiny_net(),
        ServingConfig(darknight=dk, queue_capacity=512, precompute=True),
    )
    trace = synthetic_trace(16, (16,), n_tenants=3, seed=11)
    on.serve_trace(trace)
    warmed = [s.backend.precompute_snapshot()["cached_layers"]
              for s in on._live_shards()]
    assert any(layers > 0 for layers in warmed)
    on.provision_shard(now=0.0)
    assert all(
        s.backend.precompute_snapshot()["cached_layers"] == 0
        for s in on._live_shards()
    )

    # Full churn sequence, both modes, phase-for-phase identical bits.
    fresh = {
        precompute: PrivateInferenceServer(
            _tiny_net(),
            ServingConfig(darknight=dk, queue_capacity=512, precompute=precompute),
        )
        for precompute in (False, True)
    }
    phases_off = _membership_churn(fresh[False])
    phases_on = _membership_churn(fresh[True])
    for a, b in zip(phases_off, phases_on):
        assert np.array_equal(a, b)


def test_weight_cache_invalidates_on_group_rebuild():
    """Rebuilding a ``layered:N`` pipeline group clears member caches and
    the rebuilt deployment keeps serving bit-identical logits."""
    from repro.sharding.partition import PipelineGroup

    trace = synthetic_trace(16, (16,), n_tenants=3, seed=4)
    on, first_on = _serve(True, trace, num_shards=2, partition="layered:2")
    off, first_off = _serve(False, trace, num_shards=2, partition="layered:2")
    assert np.array_equal(_logits(first_on), _logits(first_off))
    assert any(
        s.backend.precompute_snapshot()["cached_layers"] > 0
        for s in on.shards
    )
    rebuilt = PipelineGroup(
        0, on.shards, on.stage_ranges, on.mesh, link=on.link, seed=7
    )
    assert rebuilt.healthy
    assert all(
        s.backend.precompute_snapshot()["cached_layers"] == 0
        for s in on.shards
    )
    # The rebuild changed *where* encodings live, not what gets served:
    # both servers (same history, rebuild a no-op without a cache) keep
    # serving the same bits afterwards.
    second_trace = synthetic_trace(16, (16,), n_tenants=3, seed=5)
    second_on = on.serve_trace(second_trace)
    second_off = off.serve_trace(second_trace)
    assert np.array_equal(_logits(second_on), _logits(second_off))


# ----------------------------------------------------------------------
# steady-state acceptance: zero inline masks, zero re-staging
# ----------------------------------------------------------------------
def test_steady_state_windows_do_no_offline_work():
    """After warmup every mask comes from the pool and every weight
    encoding from the cache — counted via backend ``record_compute``
    events, which fire once per mask draw / weight stage."""
    trace = synthetic_trace(40, (16,), n_tenants=3, seed=3)
    server, report = _serve(True, trace)
    assert len(report.completed) == 40
    counts = dict(server.shards[0].enclave.ledger.op_counts)
    n_linear_layers = 2  # the tiny net's two Dense layers
    assert counts.get("stage_weights") == n_linear_layers
    assert counts.get("reuse_weights", 0) > 0
    # Inline generation only ever happens before the refill engine has
    # seen a stream (the cold start); one miss per stream at most.
    streams = server.shards[0].backend.precompute_snapshot()["streams"]
    assert counts.get("mask_inline", 0) <= streams
    assert counts.get("mask_pool_hit", 0) > 0

    # A second trace on the warmed server does *zero* offline work inline.
    before_inline = counts.get("mask_inline", 0)
    before_staged = counts["stage_weights"]
    server.serve_trace(synthetic_trace(24, (16,), n_tenants=3, seed=6))
    counts = server.shards[0].enclave.ledger.op_counts
    assert counts.get("mask_inline", 0) == before_inline
    assert counts["stage_weights"] == before_staged


def test_precompute_counters_survive_a_scale_in():
    """Counters are cumulative over every shard ever provisioned: retiring
    one must not take ``hits``/``refills``/... backwards, and the draws
    the report counts are the draws the enclaves' ledgers booked."""
    dk = DarKnightConfig(seed=1, num_shards=2)
    server = PrivateInferenceServer(
        _tiny_net(seed=1), ServingConfig(darknight=dk, precompute=True)
    )
    server.serve_trace(
        synthetic_trace(80, (16,), n_tenants=4, mean_interarrival=1e-3, seed=1)
    )
    before = server.report().precompute
    server.decommission_shard()
    after = server.report().precompute
    counters = (
        "hits", "misses", "refills", "pooled_bytes_peak", "weights_staged", "weights_reused",
    )
    for key in counters:
        assert after[key] >= before[key] > 0, key
    assert after["hit_rate"] == before["hit_rate"]
    ledger_draws = sum(
        shard.enclave.ledger.op_counts.get(op, 0)
        for shard in server.shards
        for op in ("mask_pool_hit", "mask_inline")
    )
    assert after["hits"] + after["misses"] == ledger_draws == 46
    # What the pools hold now is the survivor's alone.
    (live,) = [s for s in server.shards if s.healthy]
    assert after["streams"] == live.backend.precompute_snapshot()["streams"]


@pytest.mark.parametrize("precompute", [False, True])
def test_gap_filler_only_polls_a_backend_that_has_a_pool(precompute, monkeypatch):
    """Without precompute there is no pool to refill: the executor must
    not ask for pending work on every scheduling decision."""
    polls = []
    real = DarKnightBackend.precompute_pending

    def counting(self):
        polls.append(self)
        return real(self)

    monkeypatch.setattr(DarKnightBackend, "precompute_pending", counting)
    _, report = _serve(precompute, synthetic_trace(12, (16,), n_tenants=2, seed=3))
    assert len(report.completed) == 12
    assert bool(polls) == precompute


# ----------------------------------------------------------------------
# kept weight encodings are validated by value (both modes, both paths)
# ----------------------------------------------------------------------
def _update_weights(net, how):
    """Double every parameter the way a caller might."""
    if how == "load_state_dict":
        net.load_state_dict({k: 2.0 * v for k, v in net.state_dict().items()})
        return
    for layer, name, param in list(net.parameters()):
        if how == "in_place":
            param *= 2.0
        else:  # a new array object under the same name
            layer.params[name] = param * 2.0


def _run(net, backend, x, path):
    """``sync``: ``Sequential.predict`` (the blocking forwards);
    ``staged``: a one-batch executor window (``stage_linear``)."""
    if path == "sync":
        logits = net.predict(x, backend)
        backend.end_batch()
        return logits
    return PipelineExecutor(net, backend).run(x).output


@pytest.mark.parametrize("how", ["in_place", "load_state_dict", "new_array"])
@pytest.mark.parametrize("path", ["sync", "staged"])
@pytest.mark.parametrize("precompute", [False, True])
def test_updated_weights_are_restaged_never_served_stale(precompute, path, how):
    """Weights changed under a warm backend — in place, through
    ``load_state_dict`` or by swapping the array — are re-staged once on
    the next batch; an unchanged model keeps reusing.  (An identity-keyed
    cache kept serving the old encodings: max |masked - plain| 3.7 on this
    net after doubling, against 0.03 of quantization error.)"""
    net = _tiny_net()
    backend = DarKnightBackend(
        DarKnightConfig(virtual_batch_size=4, seed=3), precompute=precompute
    )
    counts = backend.enclave.ledger.op_counts
    device = backend.cluster.devices[0]
    x = np.random.default_rng(1).normal(size=(8, 16))
    tolerance = 0.08
    n_layers = 2
    # Reuse is on for the staged path always, for the blocking forwards
    # only in precompute mode (training shares them and must pay nothing).
    reuses = precompute or path == "staged"

    def check(staged, reused):
        logits = _run(net, backend, x, path)
        assert np.max(np.abs(logits - net.predict(x, PlainBackend()))) < tolerance
        if precompute:
            assert counts.get("stage_weights", 0) == staged * n_layers
            assert counts.get("reuse_weights", 0) == reused * n_layers
        else:
            assert "stage_weights" not in counts and "reuse_weights" not in counts

    check(staged=1, reused=0)
    encodings = dict(device.weights)
    check(staged=1, reused=1)
    # An unchanged model's encodings are the kept arrays, re-installed.
    assert all((device.weights[k] is encodings[k]) == reuses for k in encodings)

    _update_weights(net, how)
    check(staged=2, reused=1)
    assert all(not np.array_equal(device.weights[k], encodings[k]) for k in encodings)
    check(staged=2, reused=2)

    backend.invalidate_precompute()
    encodings = dict(device.weights)
    check(staged=3, reused=2)
    assert all(device.weights[k] is not encodings[k] for k in encodings)
    assert all(np.array_equal(device.weights[k], encodings[k]) for k in encodings)


def _count_quantize_calls(monkeypatch):
    """Record the shape of every ``QuantizationConfig.quantize`` operand."""
    shapes = []
    quantize = QuantizationConfig.quantize

    def counted(self, values, **kwargs):
        shapes.append(np.shape(values))
        return quantize(self, values, **kwargs)

    monkeypatch.setattr(QuantizationConfig, "quantize", counted)
    return shapes


def test_serving_quantizes_weights_in_the_first_window_only(monkeypatch):
    """Plain-mode serving: every window still re-broadcasts and prices its
    weights, but normalises + quantizes them once per deployment."""
    shapes = _count_quantize_calls(monkeypatch)
    trace = synthetic_trace(40, (16,), n_tenants=3, seed=3)
    server, report = _serve(False, trace)
    assert len(report.completed) == 40
    windows = server.shards[0].batches_run
    weight_shapes = {(16, 12), (12, 4)}
    assert windows > 2
    assert sum(shape in weight_shapes for shape in shapes) == 2
    assert len(shapes) == 2 + 2 * windows  # one input quantize per layer per window
    received = server.shards[0].backend.cluster.devices[0].ledger.bytes_received
    # ... while the devices were sent both encodings in every window.
    assert received >= windows * 8 * (16 * 12 + 12 * 4)


def test_training_quantizes_weights_every_step_and_keeps_no_snapshot(monkeypatch):
    shapes = _count_quantize_calls(monkeypatch)
    net = _tiny_net()
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=4, seed=3))
    trainer = Trainer(net, backend)
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(8, 16)), rng.integers(0, 4, size=8)
    for _ in range(3):
        trainer.train_step(x, y)
    assert sum(shape in {(16, 12), (12, 4)} for shape in shapes) == 3 * 2
    assert backend._staged_weights == {}


# ----------------------------------------------------------------------
# failover retries inherit the remaining SLO budget (not the flush window)
# ----------------------------------------------------------------------
def _pending(request_id, tenant, arrival):
    return PendingRequest(
        request_id=request_id,
        tenant=tenant,
        x=np.zeros((16,)),
        arrival_time=arrival,
    )


def test_failover_retry_inherits_remaining_slo_budget():
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2)
    slo = build_slo_policy(
        {"premium": 0.050, "standard": 0.200},
        {"t0": "premium", "t1": "standard"},
    )
    config = ServingConfig(darknight=dk, queue_capacity=64, slo=slo)
    server = PrivateInferenceServer(_tiny_net(), config)
    batch = ScheduledBatch(
        batch_id=7,
        requests=[_pending(0, "t0", arrival=0.010), _pending(1, "t1", 0.012)],
        flush_time=0.020,
        slots=4,
        shard_id=0,
    )
    retries = server.pool._reroute(batch, not_before=0.030)
    assert retries  # at least one survivor batch
    deadlines = []
    for retry in retries:
        # Derived from the retry's own requests, never from the (stale)
        # flush window it first rode in.
        expected = min(
            req.arrival_time + slo.budget_for(req.tenant)
            for req in retry.requests
        )
        deadlines.append(server.pool._batch_deadline(retry))
        assert deadlines[-1] == pytest.approx(expected)
    assert min(deadlines) == pytest.approx(0.010 + 0.050)


def test_reroute_without_slo_leaves_deadline_unset():
    """Under the default policy no request has a budget: a retry's
    deadline is infinite, as every other batch's is."""
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=64)
    )
    batch = ScheduledBatch(
        batch_id=1, requests=[_pending(0, "t0", 0.0)], shard_id=0
    )
    (retry,) = server.pool._reroute(batch, not_before=0.01)
    assert server.pool._batch_deadline(retry) == math.inf


# ----------------------------------------------------------------------
# telemetry: strict JSON, config surface
# ----------------------------------------------------------------------
def test_metrics_snapshot_is_strict_json_when_pool_never_drawn():
    """A precompute server that served nothing must still snapshot to
    strict JSON — no ``inf``/``NaN`` from empty pool or cache stats."""
    dk = DarKnightConfig(virtual_batch_size=4, seed=0)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=16, precompute=True)
    )
    report = server.serve_trace([])
    json.dumps(report.metrics.snapshot(), allow_nan=False)
    parsed = json.loads(json.dumps(report.precompute, allow_nan=False))
    assert parsed["hit_rate"] is None
    assert parsed["weights_staged"] == 0


def test_precompute_report_line_renders_after_serving():
    trace = synthetic_trace(16, (16,), n_tenants=2, seed=1)
    _, report = _serve(True, trace)
    assert report.precompute is not None
    assert report.precompute["hit_rate"] is not None
    assert "precompute: pool hit rate" in report.render()
    json.dumps(report.metrics.snapshot(), allow_nan=False)


def test_the_serving_config_is_the_one_precompute_switch():
    """Every shard's backend gets the top-level ``precompute``; the
    ``darknight`` section has no precompute key to contradict it."""
    dk = DarKnightConfig(virtual_batch_size=4, seed=0)
    for precompute in (False, True):
        server = PrivateInferenceServer(
            _tiny_net(), ServingConfig(darknight=dk, precompute=precompute, queue_capacity=16)
        )
        assert [s.backend.precompute for s in server.shards] == [precompute]
    report = server.serve_trace(synthetic_trace(8, (16,), n_tenants=2, seed=1))
    assert len(report.completed) == 8
    assert report.precompute is not None
    with pytest.raises(ConfigurationError, match="precompute"):
        ServingConfig.from_dict({"darknight": {"precompute": True}})


def test_serving_config_round_trips_precompute():
    config = ServingConfig(precompute=True)
    data = config.to_dict()
    assert data["precompute"] is True
    assert ServingConfig.from_dict(data).precompute is True
    assert ServingConfig.from_dict(ServingConfig().to_dict()).precompute is False
