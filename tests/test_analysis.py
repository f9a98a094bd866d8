"""Tests for the empirical privacy analysis (Section 5's claims, measured)."""

import numpy as np
import pytest

from repro.analysis import (
    chi_square_uniformity,
    empirical_mutual_information,
    max_abs_correlation,
    run_collusion_attack,
    share_input_dependence,
)
from repro.errors import ConfigurationError


def test_mi_positive_for_dependent_streams(nprng):
    a = nprng.normal(size=4000)
    b = a + 0.1 * nprng.normal(size=4000)
    mi = empirical_mutual_information(a, b)
    floor = empirical_mutual_information(a, nprng.permutation(b))
    assert mi > floor + 0.5


def test_mi_validation(nprng):
    with pytest.raises(ConfigurationError):
        empirical_mutual_information(np.zeros(10), np.zeros(11))
    with pytest.raises(ConfigurationError):
        empirical_mutual_information(np.zeros(10), np.zeros(10), bins=16)


def test_chi_square_uniform_near_dof(field, nprng):
    values = nprng.integers(0, field.p, size=20000)
    stat, dof = chi_square_uniformity(values, field.p, bins=64)
    assert dof == 63
    assert stat < 120  # comfortably near dof for uniform data


def test_chi_square_flags_nonuniform(field, nprng):
    values = nprng.integers(0, field.p // 8, size=20000)  # concentrated
    stat, _ = chi_square_uniformity(values, field.p, bins=64)
    assert stat > 1000


def test_chi_square_needs_samples(field):
    with pytest.raises(ConfigurationError):
        chi_square_uniformity(np.zeros(10), field.p, bins=64)


def test_max_abs_correlation_bounds(nprng):
    a = nprng.normal(size=(64, 8))
    assert max_abs_correlation(a, a) == pytest.approx(1.0, abs=1e-9)
    b = nprng.normal(size=(64, 8))
    assert max_abs_correlation(a, b) < 0.6
    with pytest.raises(ConfigurationError):
        max_abs_correlation(a, b[:32])
    with pytest.raises(ConfigurationError):
        max_abs_correlation(a[:4], b[:4])


# ----------------------------------------------------------------------
# the privacy boundary, measured
# ----------------------------------------------------------------------
def test_attack_fails_at_tolerance(field, frng):
    inputs = frng.uniform((2, 16))
    result = run_collusion_attack(field, inputs, coalition=(0,), k=2, m=1, seed=0)
    assert not result.success


def test_attack_succeeds_beyond_tolerance(field, frng):
    inputs = frng.uniform((2, 16))
    result = run_collusion_attack(field, inputs, coalition=(0, 1, 2), k=2, m=1, seed=0)
    assert result.success
    assert np.array_equal(result.recovered, inputs)


def test_masked_shares_carry_no_dependence(field):
    report = share_input_dependence(field, k=2, m=1, n_trials=128, seed=0)
    assert report.mi_excess < 0.05
    assert report.max_correlation < 0.35


def test_unmasked_combination_leaks(field):
    """Positive control: a noiseless linear combination is detectably
    input-dependent — the estimator would catch a broken encoder."""
    masked = share_input_dependence(field, mask=True, n_trials=128, seed=1)
    leaky = share_input_dependence(field, mask=False, n_trials=128, seed=1)
    assert leaky.mi_excess > masked.mi_excess + 0.1
