"""Tests for the seeded field sampler."""

import numpy as np
import pytest

from repro.errors import FieldError
from repro.fieldmath import FieldRng


def test_determinism_with_same_seed(field):
    a = FieldRng(field, seed=7).uniform((4, 4))
    b = FieldRng(field, seed=7).uniform((4, 4))
    assert np.array_equal(a, b)


def test_different_seeds_differ(field):
    a = FieldRng(field, seed=7).uniform((64,))
    b = FieldRng(field, seed=8).uniform((64,))
    assert not np.array_equal(a, b)


def test_nonzero_never_zero(frng):
    assert np.all(frng.nonzero((500,)) > 0)


def test_distinct_nonzero(frng):
    pts = frng.distinct_nonzero(100)
    assert len(set(pts.tolist())) == 100
    assert np.all(pts > 0)


def test_distinct_nonzero_exhaustion(small_field):
    rng = FieldRng(small_field, seed=1)
    with pytest.raises(FieldError):
        rng.distinct_nonzero(small_field.p)


def test_generator_exposed(frng):
    assert isinstance(frng.generator, np.random.Generator)
