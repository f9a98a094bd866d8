"""Tests for the Slalom baseline: blinded inference, no-training, Freivalds."""

import numpy as np
import pytest

from repro.enclave import Enclave
from repro.errors import EncodingError, IntegrityError
from repro.fieldmath import field_matmul
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, PlainBackend, ReLU, Sequential
from repro.slalom import (
    BlindingStore,
    SlalomBackend,
    SlalomTrainingError,
    freivalds_check,
    freivalds_macs,
)


@pytest.fixture()
def net(nprng):
    return Sequential(
        [
            Conv2D(1, 3, 3, 1, 1, rng=nprng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(3 * 3 * 3, 4, rng=nprng),
        ],
        input_shape=(1, 6, 6),
    )


def test_inference_matches_float_within_quantization(net, nprng):
    backend = SlalomBackend()
    x = nprng.normal(size=(3, 1, 6, 6))
    out_s = net.forward(x, backend, training=False)
    out_p = net.forward(x, PlainBackend(), training=False)
    assert np.max(np.abs(out_s - out_p)) < 0.1


def test_blinded_share_differs_from_input(field, nprng):
    enclave = Enclave(seed=0)
    store = BlindingStore(enclave)
    q = np.abs(nprng.integers(0, field.p, size=(8,))).astype(np.int64)
    store.precompute("l", 1, (8,), lambda r: r)
    pair = store.next_pair("l")
    blinded = store.blind(q, pair)
    assert not np.array_equal(blinded, q)
    assert np.array_equal(store.unblind(blinded, pair), q)


def test_training_raises_with_explanation(net, nprng):
    backend = SlalomBackend()
    x = nprng.normal(size=(2, 1, 6, 6))
    net.forward(x, backend, training=True)
    with pytest.raises(SlalomTrainingError, match="Section 7.2"):
        net.backward(np.ones((2, 4)), backend)


def test_all_grad_ops_refused(nprng):
    backend = SlalomBackend()
    with pytest.raises(SlalomTrainingError):
        backend.conv2d_grad_w(None, None, 3, 3, 1, 1, "k")
    with pytest.raises(SlalomTrainingError):
        backend.conv2d_grad_x(None, None, None, 1, 1, "k")
    with pytest.raises(SlalomTrainingError):
        backend.dense_grad_w(None, None, "k")
    with pytest.raises(SlalomTrainingError):
        backend.dense_grad_x(None, None, "k")


def test_weight_change_invalidates_pool_and_reprecomputes(net, nprng):
    backend = SlalomBackend()
    x = nprng.normal(size=(2, 1, 6, 6))
    net.forward(x, backend, training=False)
    ops = backend.enclave.ledger.op_counts
    sealed_before = ops["seal"]
    net.layers[0].params["w"] += 0.05
    out = net.forward(x, backend, training=False)  # must re-run offline phase
    assert ops["seal"] > sealed_before
    out_ref = net.forward(x, PlainBackend(), training=False)
    assert np.max(np.abs(out - out_ref)) < 0.1


def test_stale_pool_refused_directly(nprng):
    enclave = Enclave(seed=0)
    store = BlindingStore(enclave)
    store.precompute("l", 1, (4,), lambda r: r, weight_version=0)
    with pytest.raises(EncodingError, match="cannot train"):
        store.next_pair("l", weight_version=1)


def test_pool_exhaustion(nprng):
    enclave = Enclave(seed=0)
    store = BlindingStore(enclave)
    store.precompute("l", 2, (4,), lambda r: r)
    store.next_pair("l")
    store.next_pair("l")
    with pytest.raises(EncodingError, match="exhausted"):
        store.next_pair("l")


def test_pairs_are_one_time(nprng):
    enclave = Enclave(seed=0)
    store = BlindingStore(enclave)
    store.precompute("l", 2, (4,), lambda r: r)
    p1 = store.next_pair("l")
    p2 = store.next_pair("l")
    assert not np.array_equal(p1.r, p2.r)


def test_blinding_pairs_sealed_in_untrusted_store(nprng):
    enclave = Enclave(seed=0)
    store = BlindingStore(enclave)
    store.precompute("l", 1, (4,), lambda r: r)
    assert len(enclave.untrusted_store._blobs) == 2  # r and u


def test_integrity_freivalds_passes_honest(net, nprng):
    backend = SlalomBackend(integrity=True)
    x = nprng.normal(size=(2, 1, 6, 6))
    out = net.forward(x, backend, training=False)
    assert out.shape == (2, 4)


def test_freivalds_detects_tamper(field, frng):
    w = frng.uniform((4, 6))
    x = frng.uniform((6, 5))
    y = field_matmul(field, w, x)
    assert freivalds_check(field, w, x, y, frng)
    bad = y.copy()
    bad[1, 2] = field.add(bad[1, 2], 3)
    # One trial misses with probability 1/p; run a few to be sure.
    assert not freivalds_check(field, w, x, bad, frng, trials=4)


def test_freivalds_shape_validation(field, frng):
    with pytest.raises(IntegrityError):
        freivalds_check(field, frng.uniform((2, 3)), frng.uniform((4, 5)),
                        frng.uniform((2, 5)), frng)


def test_freivalds_macs_formula():
    assert freivalds_macs(4, 6, 5) == 4 * 5 + 4 * 6 + 6 * 5
    assert freivalds_macs(4, 6, 5, trials=2) == 2 * (4 * 5 + 4 * 6 + 6 * 5)


def test_blinding_validation(nprng):
    enclave = Enclave(seed=0)
    store = BlindingStore(enclave)
    with pytest.raises(EncodingError):
        store.precompute("l", 0, (4,), lambda r: r)
    store.precompute("l", 1, (4,), lambda r: r)
    pair = store.next_pair("l")
    with pytest.raises(EncodingError):
        store.blind(np.zeros(5, dtype=np.int64), pair)
    with pytest.raises(EncodingError):
        store.unblind(np.zeros(5, dtype=np.int64), pair)


def test_pool_accounting_counts_down_as_pairs_are_used(nprng):
    enclave = Enclave(seed=0)
    store = BlindingStore(enclave)
    assert store.pairs_available("l") == 0
    assert store.pool_version("l") is None
    store.precompute("l", 3, (4,), lambda r: r, weight_version=2)
    assert store.pairs_available("l") == 3
    assert store.pool_version("l") == 2
    assert enclave.ledger.op_counts["seal"] == 6  # r and u per pair
    store.next_pair("l", weight_version=2)
    assert store.pairs_available("l") == 2


def test_invalidate_drops_the_unused_sealed_pairs(nprng):
    enclave = Enclave(seed=0)
    store = BlindingStore(enclave)
    store.precompute("l", 3, (4,), lambda r: r)
    store.precompute("m", 1, (4,), lambda r: r)
    store.next_pair("l")
    store.invalidate("l")
    assert store.pairs_available("l") == 0
    assert store.pool_version("l") is None
    keys = set(enclave.untrusted_store._blobs)
    assert not keys & {"slalom/l/r1", "slalom/l/u1", "slalom/l/r2", "slalom/l/u2"}
    assert {"slalom/m/r0", "slalom/m/u0"} <= keys  # other layers keep their pools
    store.precompute("l", 1, (4,), lambda r: r, weight_version=1)
    assert store.next_pair("l", weight_version=1).weight_version == 1
