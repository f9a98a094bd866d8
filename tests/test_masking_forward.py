"""Property tests: forward masking decodes exactly (Section 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, EncodingError
from repro.fieldmath import FieldRng, PrimeField, field_matmul
from repro.masking import CoefficientSet, ForwardDecoder, ForwardEncoder


def _roundtrip(k, m, extra, features, out_features, seed):
    field = PrimeField()
    rng = FieldRng(field, seed)
    coeffs = CoefficientSet.generate(rng, k=k, m=m, extra_shares=extra)
    encoder = ForwardEncoder(coeffs, rng)
    x = rng.uniform((k, features))
    batch = encoder.encode(x)
    w = rng.uniform((out_features, features))
    outputs = np.stack(
        [field_matmul(field, w, batch.shares[j].reshape(-1, 1)).ravel()
         for j in range(coeffs.n_shares)]
    )
    decoded = ForwardDecoder(coeffs).decode(outputs)
    expected = np.stack(
        [field_matmul(field, w, xi.reshape(-1, 1)).ravel() for xi in x]
    )
    return decoded, expected, batch, coeffs, outputs


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(1, 4),
    m=st.integers(1, 2),
    extra=st.integers(0, 1),
    seed=st.integers(0, 5000),
)
def test_decode_recovers_exact_linear_results(k, m, extra, seed):
    decoded, expected, *_ = _roundtrip(k, m, extra, features=6, out_features=3, seed=seed)
    assert np.array_equal(decoded, expected)


def test_every_share_subset_decodes_identically(frng, field):
    decoded, expected, batch, coeffs, outputs = _roundtrip(2, 1, 1, 5, 4, seed=3)
    decoder = ForwardDecoder(coeffs)
    for subset in coeffs.iter_decoding_subsets():
        assert np.array_equal(decoder.decode(outputs, subset=subset), expected)


def test_noise_product_returned_consistently(frng):
    _, _, batch, coeffs, outputs = _roundtrip(2, 1, 1, 5, 4, seed=4)
    decoder = ForwardDecoder(coeffs)
    results, noise_products = decoder.decode(outputs, return_noise_product=True)
    assert noise_products.shape[0] == coeffs.m


def test_multidimensional_feature_shapes(frng, field):
    coeffs = CoefficientSet.generate(frng, k=2, m=1)
    encoder = ForwardEncoder(coeffs, frng)
    x = frng.uniform((2, 3, 4, 4))  # conv-shaped inputs
    batch = encoder.encode(x)
    assert batch.shares.shape == (3, 3, 4, 4)


def test_encode_accepts_predrawn_noise(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1)
    encoder = ForwardEncoder(coeffs, frng)
    x = frng.uniform((2, 5))
    noise = frng.uniform((1, 5))
    b1 = encoder.encode(x, noise=noise)
    b2 = encoder.encode(x, noise=noise)
    assert np.array_equal(b1.shares, b2.shares)


def test_encode_input_validation(frng, field):
    coeffs = CoefficientSet.generate(frng, k=2, m=1)
    encoder = ForwardEncoder(coeffs, frng)
    with pytest.raises(EncodingError):
        encoder.encode(frng.uniform((3, 5)))  # wrong K
    with pytest.raises(EncodingError):
        encoder.encode(np.array([[0.5, 1.5]]))  # not field elements
    with pytest.raises(EncodingError):
        encoder.encode(frng.uniform((2, 5)), noise=frng.uniform((2, 5)))  # wrong M


def test_decode_requires_all_share_rows(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    decoder = ForwardDecoder(coeffs)
    with pytest.raises(DecodingError):
        decoder.decode(frng.uniform((2, 5)))


def test_shares_differ_from_inputs(frng):
    """Masked shares never equal the raw inputs (they are blinded)."""
    coeffs = CoefficientSet.generate(frng, k=2, m=1)
    x = frng.uniform((2, 64))
    batch = ForwardEncoder(coeffs, frng).encode(x)
    for share in batch.shares:
        for xi in x:
            assert not np.array_equal(share, xi)


# ----------------------------------------------------------------------
# the stacked-product helpers every masking product runs on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("v", [1, 3])
def test_stack_matmul_is_one_product_per_slice(field, frng, v):
    from repro.masking.forward import stack_matmul

    a, b = frng.uniform((v, 3, 4)), frng.uniform((v, 4, 5))
    out = stack_matmul(field, a, b, a_float=a.astype(np.float64))
    assert out.shape == (v, 3, 5)
    for i in range(v):
        assert np.array_equal(out[i], field_matmul(field, a[i], b[i]))


def test_a_one_slice_stack_is_a_view_not_a_copy(frng):
    from repro.masking.coefficients import CoefficientStack
    from repro.masking.forward import stack_arrays

    a = frng.uniform((2, 3))
    one = stack_arrays([a])
    assert one.shape == (1, 2, 3) and np.shares_memory(one, a)
    two = stack_arrays([a, a])
    assert two.shape == (2, 2, 3) and not np.shares_memory(two, a)
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    a_t, a_float = CoefficientStack.of([coeffs]).encode_operands
    assert a_t.shape == (1, 4, 3) and np.shares_memory(a_t, coeffs.a)
    assert a_float.dtype == np.float64 and np.array_equal(a_float[0], coeffs.a.T)


def test_a_named_decode_leaves_a_mixed_stack_without_a_primary(frng):
    """Sets with different primary subsets decode only under a named one,
    before a named decode of either primary and after it."""
    from dataclasses import replace

    first = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    drawn = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    other = next(s for s in drawn.iter_decoding_subsets() if s != drawn.primary_subset)
    second = replace(drawn, primary_subset=other)
    decoder = ForwardDecoder([first, second])
    outputs = frng.uniform((2, first.n_shares, 5))
    with pytest.raises(DecodingError, match="different primary subsets"):
        decoder.decode(outputs)
    for subset in (first.primary_subset, other):
        named = decoder.decode(outputs, subset=subset)
        for v, coeffs in enumerate((first, second)):
            assert np.array_equal(named[v], ForwardDecoder(coeffs).decode(outputs[v], subset=subset))
        with pytest.raises(DecodingError, match="different primary subsets"):
            decoder.decode(outputs)
