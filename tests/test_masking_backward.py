"""Property tests: backward masking recovers the aggregate update exactly
(Sections 4.2-4.3, the trace-identity proof)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, EncodingError
from repro.fieldmath import FieldRng, PrimeField, field_matmul
from repro.masking import (
    BackwardDecoder,
    CoefficientSet,
    ForwardEncoder,
    reference_aggregate,
)


def _grad_op(field):
    """The dense-layer bilinear <delta, x> -> delta ⊗ x^T."""
    return lambda d, x: field_matmul(field, d.reshape(-1, 1), x.reshape(1, -1))


def _combine(coeffs, deltas):
    """``δ̄(j) = Σ_i B[j, i]·δ(i)`` for every share ``j`` at once."""
    flat = deltas.reshape(coeffs.k, -1)
    combined = field_matmul(coeffs.field, coeffs.b, flat)
    return combined.reshape((coeffs.n_shares,) + deltas.shape[1:])


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(1, 4),
    m=st.integers(1, 2),
    extra=st.integers(0, 1),
    seed=st.integers(0, 5000),
)
def test_aggregate_gradient_decodes_exactly(k, m, extra, seed):
    field = PrimeField()
    rng = FieldRng(field, seed)
    coeffs = CoefficientSet.generate(rng, k=k, m=m, extra_shares=extra)
    x = rng.uniform((k, 6))
    batch = ForwardEncoder(coeffs, rng).encode(x)
    deltas = rng.uniform((k, 3))
    op = _grad_op(field)
    combined = _combine(coeffs, deltas)
    equations = np.stack([op(combined[j], batch.shares[j]) for j in range(coeffs.n_shares)])
    aggregate = BackwardDecoder(coeffs).decode(equations)
    expected = reference_aggregate(field, deltas, x, op)
    assert np.array_equal(aggregate, expected)


def test_alternate_b_matrix_decode(frng, field):
    """Decoding under a B supported on a different subset gives the same sum."""
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    x = frng.uniform((2, 5))
    batch = ForwardEncoder(coeffs, frng).encode(x)
    deltas = frng.uniform((2, 3))
    op = _grad_op(field)
    expected = reference_aggregate(field, deltas, x, op)

    alt = next(s for s in coeffs.iter_decoding_subsets() if s != coeffs.primary_subset)
    b_alt, gamma = coeffs.backward_matrices_for_subset(alt)
    equations = np.stack(
        [
            op(
                field_matmul(field, b_alt[j].reshape(1, -1), deltas).ravel(),
                batch.shares[j],
            )
            for j in range(coeffs.n_shares)
        ]
    )
    aggregate = BackwardDecoder(coeffs).decode_with_matrices(equations, b_alt, gamma)
    assert np.array_equal(aggregate, expected)


def test_decode_validation(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1)
    decoder = BackwardDecoder(coeffs)
    with pytest.raises(DecodingError):
        decoder.decode(frng.uniform((1, 4)))
    with pytest.raises(DecodingError):
        decoder.decode_with_matrices(frng.uniform((1, 4)), None, coeffs.gamma)


def test_reference_aggregate_validation(field, frng):
    op = _grad_op(field)
    with pytest.raises(EncodingError):
        reference_aggregate(field, frng.uniform((2, 3)), frng.uniform((3, 4)), op)
    with pytest.raises(EncodingError):
        reference_aggregate(
            field, frng.uniform((0, 3)), frng.uniform((0, 4)), op
        )


def test_conv_shaped_bilinear_aggregate(frng, field):
    """The protocol is operator-agnostic: works for conv grad_w too."""
    from repro.nn import functional as F

    coeffs = CoefficientSet.generate(frng, k=2, m=1)
    x = frng.uniform((2, 2, 5, 5))  # (K, C, H, W)
    batch = ForwardEncoder(coeffs, frng).encode(x)
    deltas = frng.uniform((2, 3, 3, 3))  # (K, F, OH, OW)
    matmul = lambda a, b: field_matmul(field, a, b)

    def op(d, xi):
        return field.element(
            F.conv2d_grad_w(xi[None], d[None], 3, 3, matmul, stride=1, pad=0)
        )

    combined = _combine(coeffs, deltas)
    equations = np.stack([op(combined[j], batch.shares[j]) for j in range(coeffs.n_shares)])
    aggregate = BackwardDecoder(coeffs).decode(equations)
    expected = reference_aggregate(field, deltas, x, op)
    assert np.array_equal(aggregate, expected)
