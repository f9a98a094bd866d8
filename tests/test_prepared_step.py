"""A served layer step is prepared once per deployment and kept on its op.

The kept :class:`~repro.pipeline.stages.PreparedStep` (the cached set's
encoder, verifier or decoder with their operand stacks, the line-up, the
launch) must change nothing a window computes: every output is the one a
freshly built backend returns, the refusals fire as they did, a tamper is
still caught, and the step is rebuilt whenever what it was prepared from
can have changed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, QuantizationError
from repro.fieldmath import PrimeField, linalg
from repro.gpu import FaultInjector, RandomTamper
from repro.masking import iter_virtual_batches
from repro.nn import Dense, ReLU, Sequential
from repro.runtime import DarKnightBackend, DarKnightConfig
from repro.serving import (
    STATUS_INTEGRITY_FAILED,
    STATUS_OK,
    PrivateInferenceServer,
    ServingConfig,
    synthetic_trace,
)

K = 4
SHAPES = {"dense": (6,), "conv": (2, 5, 5)}


def _weights(kind: str, rng) -> np.ndarray:
    if kind == "conv":
        return rng.normal(size=(3, 2, 3, 3)) * 0.4
    return rng.normal(size=(6, 3)) * 0.4


def _stage(backend, kind: str, w: np.ndarray):
    if kind == "conv":
        return backend.stage_linear("conv2d", w, None, "L", 1, 1)
    return backend.stage_linear("dense", w, None, "L")


def _serve_window(backend, kind: str, w: np.ndarray, x: np.ndarray):
    """One window as the executor runs it: stage, then one job per virtual batch."""
    op = _stage(backend, kind, w)
    out = [
        backend.decode(backend.dispatch(backend.encode(op, [vb], [i])))[0]
        for i, vb in enumerate(iter_virtual_batches(x, K))
    ]
    backend.end_batch()
    backend.assert_encodings_released()
    return op, np.concatenate(out)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(SHAPES)),
    integrity=st.booleans(),
    scales=st.lists(st.sampled_from((0.0, 0.6, 7.5)), min_size=3, max_size=3),
    n_rows=st.lists(st.integers(1, 2 * K), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_a_kept_step_serves_what_a_fresh_backend_serves(kind, integrity, scales, n_rows, seed):
    """Zero, sub-1 and above-1 magnitudes, padded windows (``n_real < K``):
    a deployment's third window, on the step its first prepared, returns
    the bytes a backend built for that window alone returns."""
    config = DarKnightConfig(virtual_batch_size=K, integrity=integrity, seed=seed)
    rng = np.random.default_rng(seed)
    w = _weights(kind, rng)
    w.setflags(write=False)  # staged weights are read-only; the lift is kept
    kept = DarKnightBackend(config, serving=True)
    prepared = None
    for scale, n in zip(scales, n_rows):
        x = rng.uniform(-1.0, 1.0, size=(n,) + SHAPES[kind]) * scale
        op, y = _serve_window(kept, kind, w, x)
        prepared = prepared or op.prepared
        assert op.prepared is prepared
        _, want = _serve_window(DarKnightBackend(config, serving=True), kind, w, x)
        assert y.dtype == want.dtype and np.array_equal(y, want)


def _first_window(backend, kind="dense", w=None):
    w = _weights(kind, np.random.default_rng(0)) if w is None else w
    x = np.random.default_rng(1).normal(size=(K,) + SHAPES[kind])
    op, _ = _serve_window(backend, kind, w, x)
    return op, w


def _served(**overrides):
    return DarKnightBackend(DarKnightConfig(virtual_batch_size=K, integrity=True, seed=0, **overrides), serving=True)


def test_the_step_is_rebuilt_after_an_in_place_weight_update():
    backend = _served()
    op, w = _first_window(backend)
    assert op.prepared is not None
    again, _ = _first_window(backend, w=w)
    assert again is op  # unchanged weights: the same op, the same step
    w *= 1.5
    rebuilt, _ = _first_window(backend, w=w)
    assert rebuilt is not op and rebuilt.prepared is not op.prepared


def test_the_step_is_rebuilt_after_load_state_dict():
    net = Sequential([Dense(6, 3, rng=np.random.default_rng(0))], (6,))
    layer = net.layers[0]
    backend = _served()
    op, _ = _first_window(backend, w=layer.params["w"])
    state = net.state_dict()
    state[f"{layer.name}/w"] = state[f"{layer.name}/w"] * -1.0
    net.load_state_dict(state)
    rebuilt, _ = _first_window(backend, w=layer.params["w"])
    assert rebuilt is not op and rebuilt.prepared is not op.prepared


def test_the_step_is_rebuilt_after_invalidate_precompute():
    backend = _served()
    op, w = _first_window(backend)
    backend.invalidate_precompute()
    rebuilt, _ = _first_window(backend, w=w)
    assert rebuilt is not op and rebuilt.prepared is not op.prepared


def test_training_prepares_every_fresh_set_and_keeps_none():
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=K, integrity=True, seed=0))
    w = _weights("dense", np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(2 * K, 6))
    seen = []
    for _ in range(3):
        op = backend.stage_linear("dense", w, None, "L", reuse=False)
        tickets = backend.encode(op, list(iter_virtual_batches(x, K)), range(2))
        step = tickets[0].prepared
        assert all(ticket.prepared is step for ticket in tickets)
        assert [ticket.slot for ticket in tickets] == list(range(len(step.sets)))
        assert op.prepared is None
        backend.decode(backend.dispatch(tickets))
        seen.append(step)
        backend.end_batch()
    assert len({id(step) for step in seen}) == 3
    assert len({id(step.sets[0]) for step in seen}) == 3  # fresh sets each time


@pytest.mark.parametrize("integrity", [True, False], ids=["integrity", "plain"])
@pytest.mark.parametrize("serving", [True, False], ids=["serving", "training"])
def test_part_or_a_reordering_of_one_encode_decodes_with_its_own_sets(serving, integrity):
    """An encode's step covers its whole stack, in order: a future of one
    of its tickets, or of its tickets reordered, is unmasked with those
    tickets' own sets, as the stack decoded whole unmasks them."""
    config = DarKnightConfig(virtual_batch_size=K, integrity=integrity, seed=0)
    backend = DarKnightBackend(config, serving=serving)
    w = _weights("dense", np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(2 * K, 6))
    op = backend.stage_linear("dense", w, None, "L", reuse=serving)
    t0, t1 = backend.encode(op, list(iter_virtual_batches(x, K)), range(2))
    assert (t0.prepared.sets[t0.slot] is t1.prepared.sets[t1.slot]) is serving
    whole = backend.decode(backend.dispatch([t0, t1]))
    for part, want in (([t1, t0], whole[::-1]), ([t1], whole[1:]), ([t0], whole[:1])):
        got = backend.decode(backend.dispatch(part))
        assert len(got) == len(want)
        assert all(np.array_equal(g, y) for g, y in zip(got, want))
    backend.end_batch()
    backend.assert_encodings_released()


@pytest.mark.parametrize(
    "bad, dynamic, message",
    [
        (np.nan, True, "input holds NaN or infinite values; refusing to quantize"),
        (np.inf, True, "a row holds NaN or infinite values; refusing to normalise"),
        (-np.inf, True, "a row holds NaN or infinite values; refusing to normalise"),
        (np.nan, False, "input holds NaN or infinite values; refusing to quantize"),
        (np.inf, False, "input holds NaN or infinite values; refusing to quantize"),
        (1e6, False, "input overflows the signed field range"),
    ],
    ids=["nan", "inf", "-inf", "nan-raw", "inf-raw", "range"],
)
def test_the_served_path_still_refuses_bad_activations(bad, dynamic, message):
    backend = _served(dynamic_normalization=dynamic)
    op, w = _first_window(backend)  # the kept step is in place
    x = np.full((K, 6), 0.25)
    x[2, 4] = bad
    (vb,) = iter_virtual_batches(x, K)
    before = backend.enclave.rng.generator.bit_generator.state
    op = _stage(backend, "dense", w)
    with pytest.raises(QuantizationError, match=message):
        backend.encode(op, [vb], [0])
    assert backend.open_encodings() == 0
    assert not any(device.stored_shares for device in backend.cluster.devices)
    assert backend.enclave.rng.generator.bit_generator.state == before


def test_a_tampered_share_is_caught_on_the_kept_step():
    backend = _served()
    op, w = _first_window(backend)
    backend.cluster[1].faults = RandomTamper(PrimeField(), probability=1.0, seed=4)
    op = _stage(backend, "dense", w)
    (vb,) = iter_virtual_batches(np.random.default_rng(2).normal(size=(K, 6)), K)
    tickets = backend.encode(op, [vb], [0])
    assert tickets[0].prepared is op.prepared
    with pytest.raises(IntegrityError, match="layer 'L', virtual batch 0"):
        backend.decode(backend.dispatch(tickets))
    backend.end_batch()
    backend.assert_encodings_released()


class _LateTamper(FaultInjector):
    """Honest for the first ``after`` outputs, then corrupts every one."""

    def __init__(self, after: int) -> None:
        self.after, self.calls = after, 0
        self.inner = RandomTamper(PrimeField(), probability=1.0, seed=4)

    def corrupt(self, tensor, device_id, op_name):
        self.calls += 1
        if self.calls <= self.after:
            return tensor
        return self.inner.corrupt(tensor, device_id, op_name)


def test_a_served_deployment_ends_tampered_requests_integrity_failed():
    rng = np.random.default_rng(0)
    net = Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))
    config = ServingConfig(
        darknight=DarKnightConfig(virtual_batch_size=2, integrity=True, seed=3)
    )
    server = PrivateInferenceServer(net, config)
    server.shards[0].cluster[0].faults = _LateTamper(after=6)
    report = server.serve_trace(synthetic_trace(16, (16,), n_tenants=2, seed=5))
    statuses = [o.status for o in report.outcomes]
    assert STATUS_OK in statuses and STATUS_INTEGRITY_FAILED in statuses
    assert report.metrics.integrity_failures == statuses.count(STATUS_INTEGRITY_FAILED)
    kept = server.shards[0].backend._staged_weights
    assert kept and all(entry.op.prepared is not None for entry in kept.values())


def test_no_prepared_state_views_the_threads_workspace():
    """Thread isolation: a kept step holds coefficient material only, never
    a view of the calling thread's product workspace."""
    backend = _served()
    op, _ = _first_window(backend, "conv", _weights("conv", np.random.default_rng(0)))
    step = op.prepared
    workspace = linalg._ENCLAVE.backend._workspace
    held = [*step.encoder._operands]
    for _subset, decode_t, decode_float, _run in step.sets._decode_operands.values():
        held += [decode_t, decode_float]
    assert len(held) > 2
    assert not any(np.shares_memory(array, workspace) for array in held)
