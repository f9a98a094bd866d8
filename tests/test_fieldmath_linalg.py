"""Unit + property tests for field linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import invertible_matrix, oracle_inverse, oracle_vandermonde
from repro.errors import EncodingError, FieldError, SingularMatrixError
from repro.fieldmath import (
    FieldRng,
    GenericBackend,
    PrimeField,
    all_column_subsets_full_rank,
    determinant,
    field_matmul,
    inverse,
    is_invertible,
    rank,
    solve,
)
from repro.fieldmath.kernels import int64_sum_limit
from repro.masking import CoefficientSet


def _bigint_matmul(a, b, p):
    """Exact reference via Python big ints."""
    a_obj = a.astype(object)
    b_obj = b.astype(object)
    return np.mod(a_obj @ b_obj, p).astype(np.int64)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 6),
    m=st.integers(2, 6),
    k=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_field_matmul_matches_bigint_reference(n, m, k, seed):
    field = PrimeField()
    rng = FieldRng(field, seed)
    a = rng.uniform((n, m))
    b = rng.uniform((m, k))
    assert np.array_equal(field_matmul(field, a, b), _bigint_matmul(a, b, field.p))


def test_field_matmul_chunking_handles_long_contractions(field, frng):
    # Contraction far beyond the safe accumulation bound must stay exact,
    # on the oracle's chunks as on the limb tiers.
    n = 20_000
    a = frng.uniform((1, n))
    b = frng.uniform((n, 1))
    expected = _bigint_matmul(a, b, field.p)
    assert n > 2 * int64_sum_limit(field.p)
    assert np.array_equal(field_matmul(field, a, b, backend=GenericBackend()), expected)
    assert np.array_equal(field_matmul(field, a, b), expected)


def test_field_matmul_rejects_bad_shapes(field, frng):
    with pytest.raises(FieldError):
        field_matmul(field, frng.uniform((2, 3)), frng.uniform((4, 2)))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_inverse_roundtrip(n, seed):
    field = PrimeField()
    rng = FieldRng(field, seed)
    m = invertible_matrix(rng, n)
    m_inv = inverse(field, m)
    assert np.array_equal(field_matmul(field, m, m_inv), field.eye(n))
    assert np.array_equal(field_matmul(field, m_inv, m), field.eye(n))


def test_inverse_of_singular_raises(field):
    singular = field.element([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        inverse(field, singular)
    with pytest.raises(SingularMatrixError):
        inverse(field, np.ones((2, 3), dtype=np.int64))


_ORACLE_PRIMES = (5, 7, 11, 2**25 - 39, 2**31 - 1)


@st.composite
def _matrix_stacks(draw):
    """``(p, (S, n, n) stack)`` mixing invertible, singular, swap-forcing
    and all-``(p-1)`` slices."""
    p = draw(st.sampled_from(_ORACLE_PRIMES))
    n = draw(st.integers(1, 6))
    n_slices = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, p, size=(n_slices, n, n), dtype=np.int64)
    for s, kind in enumerate(
        draw(st.lists(st.sampled_from("rrdzlm"), min_size=n_slices, max_size=n_slices))
    ):
        if kind == "d" and n > 1:  # dependent rows: singular at any p
            stack[s, -1] = stack[s, 0]
        elif kind == "z":  # zero column: singular, no pivot to swap up
            stack[s, :, rng.integers(n)] = 0
        elif kind == "l":  # zero leading pivots: every column swaps
            stack[s] = np.roll(np.triu(stack[s]) + np.eye(n, dtype=np.int64), 1, axis=0)
        elif kind == "m":  # the largest products the kernel can form
            stack[s] = p - 1
    return p, stack


@settings(max_examples=150, deadline=None)
@given(_matrix_stacks())
def test_stacked_inverse_matches_per_slice_bigint_oracle(case):
    p, stack = case
    field = PrimeField(p)
    expected = [oracle_inverse(p, m.tolist()) for m in stack]
    singular = [inv is None for inv in expected]
    if any(singular):
        with pytest.raises(SingularMatrixError) as err:
            inverse(field, stack)
        assert err.value.singular.tolist() == singular
        # The rest of the stack is not lost with the singular slice.
        assert err.value.inverses.shape == stack.shape
        assert [
            inv.tolist() for inv, lost in zip(err.value.inverses, singular) if not lost
        ] == [inv for inv in expected if inv is not None]
        stack = stack[~np.array(singular)]
        expected = [inv for inv in expected if inv is not None]
    result = inverse(field, stack)
    assert result.dtype == np.int64 and result.shape == stack.shape
    assert result.tolist() == expected
    # The 2-D call is the one-slice stack.
    for m, inv in zip(stack, expected):
        assert inverse(field, m).tolist() == inv


def test_inverse_broadcasts_over_leading_axes(field, frng):
    stack = np.stack([invertible_matrix(frng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
    result = inverse(field, stack)
    assert result.shape == stack.shape
    for index in np.ndindex(2, 3):
        assert np.array_equal(result[index], inverse(field, stack[index]))
    stack[1, 2] = 0
    with pytest.raises(SingularMatrixError) as err:
        inverse(field, stack)
    assert err.value.singular.shape == (2, 3)
    assert np.argwhere(err.value.singular).tolist() == [[1, 2]]
    assert err.value.inverses.shape == stack.shape
    assert np.array_equal(err.value.inverses[0], result[0])
    assert inverse(field, np.zeros((0, 3, 3), dtype=np.int64)).shape == (0, 3, 3)
    with pytest.raises(FieldError):
        inverse(field, np.arange(3))


def test_inverse_reduces_non_canonical_entries(field, frng):
    m = invertible_matrix(frng, 4)
    assert np.array_equal(inverse(field, m - field.p), inverse(field, m))


def test_solve_matches_inverse(field, frng):
    a = invertible_matrix(frng, 4)
    b = frng.uniform((4, 2))
    x = solve(field, a, b)
    assert np.array_equal(field_matmul(field, a, x), b)
    # 1-D right-hand side round-trips as a vector.
    v = frng.uniform((4,))
    xv = solve(field, a, v)
    assert xv.shape == (4,)
    assert np.array_equal(field_matmul(field, a, xv.reshape(-1, 1)).ravel(), v)


def test_rank_and_invertibility(field, frng):
    m = invertible_matrix(frng, 5)
    assert rank(field, m) == 5
    assert is_invertible(field, m)
    deficient = m.copy()
    deficient[4] = deficient[3]
    assert rank(field, deficient) == 4
    assert not is_invertible(field, deficient)
    assert not is_invertible(field, frng.uniform((3, 4)))


def test_determinant_properties(field, frng):
    m = invertible_matrix(frng, 4)
    d = determinant(field, m)
    assert d != 0
    singular = m.copy()
    singular[0] = singular[1]
    assert determinant(field, singular) == 0
    assert determinant(field, field.eye(3)) == 1
    with pytest.raises(FieldError):
        determinant(field, frng.uniform((2, 3)))


def test_determinant_multiplicative(field, frng):
    a = invertible_matrix(frng, 3)
    b = invertible_matrix(frng, 3)
    lhs = determinant(field, field_matmul(field, a, b))
    rhs = field.mul(determinant(field, a), determinant(field, b))
    assert lhs == int(rhs)


def test_vandermonde_mds_property(field, frng):
    # The MDS noise block is the Vandermonde block over its second row's
    # points, and every M-column subset of it is full rank.
    a2 = CoefficientSet.generate(frng, k=1, m=3, extra_shares=3, mds_noise=True).a2
    assert a2.shape == (3, 7)
    assert a2.tolist() == oracle_vandermonde(field.p, a2[1], 3)
    assert all_column_subsets_full_rank(field, a2, 3, max_checks=None)


def test_vandermonde_rejects_duplicates(field, frng):
    # The MDS property needs distinct points: generation draws them distinct
    # and non-zero, a repeated point fails the subset certificate, and a
    # block of no rows is refused.
    points = CoefficientSet.generate(frng, k=2, m=2, extra_shares=2, mds_noise=True).a2[1]
    assert all(points.tolist()) and len(set(points.tolist())) == points.size
    repeated = field.element(oracle_vandermonde(field.p, [1, 2, 2], 2))
    assert not all_column_subsets_full_rank(field, repeated, 2, max_checks=None)
    with pytest.raises(EncodingError):
        CoefficientSet.generate(frng, k=2, m=0, mds_noise=True)


def test_all_column_subsets_detects_deficiency(field):
    # A matrix with a zero column fails the subset-rank certificate.
    m = field.element([[1, 0, 2], [3, 0, 4]])
    assert not all_column_subsets_full_rank(field, m, 2, max_checks=None)
    with pytest.raises(FieldError):
        all_column_subsets_full_rank(field, m, 3)


def test_random_matrix_usually_not_mds_counterexample(field, frng):
    # The MDS construction must produce subset-full-rank noise blocks.
    mds = CoefficientSet.generate(frng, k=2, m=2, extra_shares=2, mds_noise=True).a2
    assert mds.shape == (2, 6)
    assert all_column_subsets_full_rank(field, mds, 2, max_checks=None)
