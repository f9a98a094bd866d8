"""Tests for the seeded field sampler."""

import numpy as np
import pytest

from repro.errors import FieldError
from repro.fieldmath import FieldRng, is_invertible


def test_determinism_with_same_seed(field):
    a = FieldRng(field, seed=7).uniform((4, 4))
    b = FieldRng(field, seed=7).uniform((4, 4))
    assert np.array_equal(a, b)


def test_different_seeds_differ(field):
    a = FieldRng(field, seed=7).uniform((64,))
    b = FieldRng(field, seed=8).uniform((64,))
    assert not np.array_equal(a, b)


def test_spawn_creates_independent_stream(field):
    parent = FieldRng(field, seed=7)
    child = parent.spawn()
    assert not np.array_equal(parent.uniform((32,)), child.uniform((32,)))


def test_nonzero_never_zero(frng):
    assert np.all(frng.nonzero((500,)) > 0)


def test_noise_matrix_shape_and_validation(frng):
    r = frng.noise_matrix(10, 3)
    assert r.shape == (10, 3)
    with pytest.raises(FieldError):
        frng.noise_matrix(0, 3)
    with pytest.raises(FieldError):
        frng.noise_matrix(5, -1)


def test_distinct_nonzero(frng):
    pts = frng.distinct_nonzero(100)
    assert len(set(pts.tolist())) == 100
    assert np.all(pts > 0)


def test_distinct_nonzero_exhaustion(small_field):
    rng = FieldRng(small_field, seed=1)
    with pytest.raises(FieldError):
        rng.distinct_nonzero(small_field.p)


def test_invertible_matrix(frng, field):
    m = frng.invertible_matrix(6)
    assert is_invertible(field, m)


def test_invertible_diagonal(frng):
    d = frng.invertible_diagonal(5)
    assert np.all(np.diag(d) > 0)
    assert np.count_nonzero(d - np.diag(np.diag(d))) == 0


def test_generator_exposed(frng):
    assert isinstance(frng.generator, np.random.Generator)
