"""Empirical verification of the privacy theorem (Section 5, Lemma 1).

The paper's guarantee is information-theoretic: each masked share is
marginally uniform over ``F_p``, so ``I(x̄ : x) = 0``.  These estimators let
tests and examples *measure* that on simulated data:

* histogram mutual information between inputs and shares (≈ the estimator
  bias for masked data, visibly positive for unmasked combinations);
* chi-square uniformity of share values over the field;
* Pearson correlation screening between share and input coordinates.

Estimators are biased upward on finite samples; callers compare against a
same-size *independent* baseline rather than absolute zero.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def empirical_mutual_information(
    a: np.ndarray, b: np.ndarray, bins: int = 16
) -> float:
    """Histogram MI estimate (nats) between two equal-length value streams."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ConfigurationError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < bins * bins:
        raise ConfigurationError(
            f"need at least bins^2 = {bins * bins} samples for a stable"
            f" estimate, got {a.size}"
        )
    joint, _, _ = np.histogram2d(a, b, bins=bins)
    joint = joint / joint.sum()
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    return float(np.sum(joint[mask] * np.log(joint[mask] / (pa @ pb)[mask])))


def chi_square_uniformity(values: np.ndarray, p: int, bins: int = 64) -> tuple[float, int]:
    """Chi-square statistic and dof of ``values`` against Uniform([0, p))."""
    values = np.asarray(values).ravel()
    if values.size < bins * 5:
        raise ConfigurationError(
            f"need >= {bins * 5} samples for {bins} bins, got {values.size}"
        )
    counts, _ = np.histogram(values, bins=bins, range=(0, p))
    expected = values.size / bins
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return stat, bins - 1


def max_abs_correlation(inputs: np.ndarray, shares: np.ndarray) -> float:
    """Largest |Pearson correlation| between any input and share coordinate.

    ``inputs`` is ``(n_samples, d_in)``, ``shares`` ``(n_samples, d_share)``;
    coordinates are screened pairwise on a common subset for tractability.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    shares = np.asarray(shares, dtype=np.float64)
    if inputs.shape[0] != shares.shape[0]:
        raise ConfigurationError("sample count mismatch")
    if inputs.shape[0] < 8:
        raise ConfigurationError("need at least 8 samples for correlations")
    d = min(inputs.shape[1], shares.shape[1], 64)
    a = inputs[:, :d] - inputs[:, :d].mean(axis=0)
    b = shares[:, :d] - shares[:, :d].mean(axis=0)
    a_std = a.std(axis=0)
    b_std = b.std(axis=0)
    a_std[a_std == 0] = 1.0
    b_std[b_std == 0] = 1.0
    corr = (a / a_std).T @ (b / b_std) / inputs.shape[0]
    return float(np.max(np.abs(corr)))
