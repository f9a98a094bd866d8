"""Tests certifying the collusion-privacy boundary (Sections 4.5 / 5)."""

import numpy as np
import pytest

from repro.analysis import chi_square_uniformity
from repro.errors import EncodingError
from repro.gpu import CollusionPool
from repro.masking import CoefficientSet, ForwardEncoder


def _encode(frng, k, m, extra=0, features=32):
    coeffs = CoefficientSet.generate(frng, k=k, m=m, extra_shares=extra)
    x = frng.uniform((k, features))
    batch = ForwardEncoder(coeffs, frng).encode(x)
    return coeffs, x, batch


def test_at_most_m_colluders_learn_nothing(frng, field):
    """<= M pooled shares: attack fails even with leaked coefficients."""
    coeffs, _, batch = _encode(frng, k=3, m=2)
    for coalition in [(0,), (1,), (0, 1), (2, 4), (3, 1)]:
        if len(coalition) > 2:
            continue
        pool = CollusionPool(field, coalition, batch.shares[list(coalition)])
        result = pool.attack_with_known_coefficients(coeffs)
        assert not result.success, coalition
        assert "uniform" in result.reason or "underdetermined" in result.reason


def test_m_plus_one_still_underdetermined(frng, field):
    """M < |coalition| < K+M: noise rank deficiency exists but the system
    is still underdetermined — no full reconstruction."""
    coeffs, _, batch = _encode(frng, k=3, m=2)
    coalition = (0, 1, 2)  # 3 > M=2, but < K+M=5
    pool = CollusionPool(field, coalition, batch.shares[list(coalition)])
    result = pool.attack_with_known_coefficients(coeffs)
    assert not result.success


def test_full_subset_with_known_coefficients_reconstructs(frng, field):
    """The theorem is tight: K+M shares + leaked A = full recovery."""
    coeffs, x, batch = _encode(frng, k=3, m=2)
    coalition = tuple(range(5))
    pool = CollusionPool(field, coalition, batch.shares[list(coalition)])
    result = pool.attack_with_known_coefficients(coeffs)
    assert result.success
    assert np.array_equal(result.recovered, x)


def test_pooled_shares_look_uniform(frng, field):
    """Chi-square of pooled shares stays near its dof (uniformity)."""
    coeffs, _, batch = _encode(frng, k=2, m=1, features=4096)
    pool = CollusionPool(field, (0,), batch.shares[:1])
    stat, dof = chi_square_uniformity(pool.shares, field.p)
    assert dof == 63
    # dof = 63; a catastrophically non-uniform stream would be >> 200.
    assert stat < 150.0


def test_pool_validation(field, frng):
    with pytest.raises(EncodingError):
        CollusionPool(field, (0, 1), frng.uniform((1, 4)))


def test_pool_size(field, frng):
    pool = CollusionPool(field, (0, 2), frng.uniform((2, 4)))
    assert pool.size == 2
