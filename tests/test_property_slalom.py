"""Property tests for Slalom's blinding and Freivalds verification."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enclave import Enclave
from repro.fieldmath import FieldRng, PrimeField, field_matmul
from repro.slalom import BlindingStore, freivalds_check


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10_000),
)
def test_blind_unblind_identity_for_any_shape(shape, seed):
    """x -> blind -> unblind(f(blind)) recovers f(x) exactly, any shape."""
    enclave = Enclave(seed=seed)
    field = enclave.field
    store = BlindingStore(enclave)
    rng = FieldRng(field, seed)
    w = rng.uniform((shape[1], 3))

    def linear_op(v):
        return field_matmul(field, v, w)

    store.precompute("layer", 1, shape, linear_op)
    x = rng.uniform(shape)
    pair = store.next_pair("layer")
    blinded = store.blind(x, pair)
    recovered = store.unblind(linear_op(blinded), pair)
    assert np.array_equal(recovered, linear_op(x))


@settings(max_examples=20, deadline=None)
@given(
    f=st.integers(1, 6),
    d=st.integers(1, 6),
    p=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_freivalds_completeness(f, d, p, seed):
    """Honest products always verify (no false positives on correct work)."""
    field = PrimeField()
    rng = FieldRng(field, seed)
    w = rng.uniform((f, d))
    x = rng.uniform((d, p))
    y = field_matmul(field, w, x)
    assert freivalds_check(field, w, x, y, rng, trials=2)


@settings(max_examples=20, deadline=None)
@given(
    f=st.integers(2, 6),
    d=st.integers(2, 6),
    p=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_freivalds_soundness_on_random_forgeries(f, d, p, seed):
    """A uniformly random 'result' is rejected with overwhelming probability."""
    field = PrimeField()
    rng = FieldRng(field, seed)
    w = rng.uniform((f, d))
    x = rng.uniform((d, p))
    forged = rng.uniform((f, p))
    honest = field_matmul(field, w, x)
    if np.array_equal(forged, honest):  # astronomically unlikely
        return
    assert not freivalds_check(field, w, x, forged, rng, trials=3)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_pairs=st.integers(1, 4))
def test_blinding_pairs_never_repeat(seed, n_pairs):
    """One-time pads are one-time: every pair in a pool is distinct."""
    enclave = Enclave(seed=seed)
    store = BlindingStore(enclave)
    store.precompute("l", n_pairs, (8,), lambda r: r)
    pairs = [store.next_pair("l") for _ in range(n_pairs)]
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            assert not np.array_equal(pairs[i].r, pairs[j].r)
