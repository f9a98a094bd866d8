"""Unit + property tests for prime-field element arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import to_signed
from repro.errors import FieldError
from repro.fieldmath import DEFAULT_PRIME, PrimeField

elements = st.integers(min_value=0, max_value=DEFAULT_PRIME - 1)


def test_default_prime_value(field):
    assert field.p == 2**25 - 39 == 33554393


def test_rejects_composite_modulus():
    with pytest.raises(FieldError):
        PrimeField(p=2**25 - 40)


def test_rejects_oversized_modulus():
    with pytest.raises(FieldError):
        PrimeField(p=2**31 + 11)


def test_element_reduces_into_range(field):
    arr = field.element([-1, 0, field.p, field.p + 5, -field.p - 3])
    assert arr.tolist() == [field.p - 1, 0, 0, 5, field.p - 3]


@settings(max_examples=50, deadline=None)
@given(a=elements, b=elements)
def test_add_sub_inverse_ops(a, b):
    field = PrimeField()
    s = field.add(a, b)
    assert int(field.sub(s, b)) == a
    assert int(field.add(field.sub(0, a), a)) == 0


@settings(max_examples=50, deadline=None)
@given(a=elements, b=elements, c=elements)
def test_mul_distributes_over_add(a, b, c):
    field = PrimeField()
    left = field.mul(a, field.add(b, c))
    right = field.add(field.mul(a, b), field.mul(a, c))
    assert int(left) == int(right)


@settings(max_examples=50, deadline=None)
@given(a=elements.filter(lambda x: x != 0))
def test_inverse_is_multiplicative_inverse(a):
    field = PrimeField()
    assert int(field.mul(a, field.scalar_inv(a))) == 1
    assert field.batch_inv([a]) == [field.scalar_inv(a)]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5, 7, 11, 65_537, DEFAULT_PRIME, 2**31 - 1]))
def test_batch_inverse_is_the_per_element_pow(data, p):
    """One ``pow`` for the whole list gives every element's own inverse,
    and a zero among them maps to 0 without disturbing the rest."""
    values = data.draw(st.lists(
        st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1)), max_size=24
    ))
    assert PrimeField(p).batch_inv(values) == [pow(v, -1, p) if v else 0 for v in values]


def test_inverse_of_zero_raises(field):
    with pytest.raises(FieldError):
        field.scalar_inv(0)


@settings(max_examples=50, deadline=None)
@given(v=st.integers(min_value=-(DEFAULT_PRIME // 2), max_value=DEFAULT_PRIME // 2))
def test_signed_lift_roundtrip(v):
    field = PrimeField()
    assert int(to_signed(field, field.element(v))) == v


def test_signed_constants(field):
    assert field.half == field.p // 2


def test_uniform_in_range(field, nprng):
    sample = field.uniform((1000,), nprng)
    assert sample.dtype == np.int64 and sample.min() >= 0 and sample.max() < field.p
    nz = field.nonzero_uniform((1000,), nprng)
    assert np.all(nz > 0)


def test_zeros_ones_eye(field):
    assert field.zeros((2, 2)).sum() == 0
    assert np.array_equal(field.eye(2), np.eye(2, dtype=np.int64))
