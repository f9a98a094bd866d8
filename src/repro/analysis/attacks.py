"""Adversarial reconstruction experiments against the masking scheme.

These wrap :class:`repro.gpu.collusion.CollusionPool` into experiment-shaped
helpers that certify the privacy boundary from both sides:

* at or below the collusion tolerance ``M`` — reconstruction must fail and
  shares must carry no measurable dependence on the inputs;
* above ``M`` with leaked coefficients — reconstruction must succeed
  (the theorem is tight, not conservative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.mutual_information import (
    empirical_mutual_information,
    max_abs_correlation,
)
from repro.fieldmath import FieldRng, PrimeField
from repro.gpu.collusion import CollusionPool, ReconstructionResult
from repro.masking import CoefficientSet, ForwardEncoder

#: Features per input row in each trial of :func:`share_input_dependence`.
TRIAL_FEATURES = 16


def run_collusion_attack(
    field: PrimeField,
    inputs: np.ndarray,
    coalition: tuple[int, ...],
    k: int,
    m: int,
    seed: int = 0,
) -> ReconstructionResult:
    """Mask ``inputs`` (shape ``(k, features)``) and attack with a coalition.

    The worst case is assumed: the coalition has somehow obtained the
    enclave-secret coefficients ``A``.  With ``len(coalition) <= m`` the
    attack must still fail; with a full ``k + m`` invertible column set it
    succeeds and returns the recovered inputs.
    """
    rng = FieldRng(field, seed)
    coeffs = CoefficientSet.generate(rng, k=k, m=m, extra_shares=0)
    encoded = ForwardEncoder(coeffs, rng).encode(inputs)
    pool = CollusionPool(field, coalition, encoded.shares[list(coalition)])
    return pool.attack_with_known_coefficients(coeffs)


@dataclass(frozen=True)
class DependenceReport:
    """Statistical dependence between inputs and one GPU's share stream."""

    mi_estimate: float
    mi_floor: float
    max_correlation: float
    n_trials: int

    @property
    def mi_excess(self) -> float:
        """MI above the same-size independent baseline (≈0 when private)."""
        return self.mi_estimate - self.mi_floor


def share_input_dependence(
    field: PrimeField,
    k: int = 2,
    m: int = 1,
    n_trials: int = 256,
    seed: int = 0,
    mask: bool = True,
) -> DependenceReport:
    """Measure dependence between input and share across fresh encodings.

    The adversary watches the first GPU's share.  Every trial draws new
    :data:`TRIAL_FEATURES`-feature inputs and (when ``mask=True``) fresh
    coefficients and noise — exactly the adversary's view over a training
    run.  With masking the MI excess and correlation stay at the estimator
    floor; with ``mask=False`` the "share" is the raw input itself (a
    scheme with no masking at all), and both statistics blow up — the
    positive control proving the estimators have teeth.
    """
    rng = FieldRng(field, seed)
    input_stream = []
    share_stream = []
    for _ in range(n_trials):
        inputs = rng.uniform((k, TRIAL_FEATURES))
        if mask:
            coeffs = CoefficientSet.generate(rng, k=k, m=m, extra_shares=0)
            share = ForwardEncoder(coeffs, rng).encode(inputs).shares[0]
        else:
            share = inputs[0]
        input_stream.append(inputs[0])
        share_stream.append(share)
    inputs_flat = np.concatenate(input_stream).astype(np.float64)
    shares_flat = np.concatenate(share_stream).astype(np.float64)
    mi = empirical_mutual_information(inputs_flat, shares_flat, bins=16)
    shuffle_rng = np.random.default_rng(seed + 1)
    mi_floor = empirical_mutual_information(
        inputs_flat, shuffle_rng.permutation(shares_flat), bins=16
    )
    corr = max_abs_correlation(
        np.stack(input_stream).astype(np.float64),
        np.stack(share_stream).astype(np.float64),
    )
    return DependenceReport(
        mi_estimate=mi, mi_floor=mi_floor, max_correlation=corr, n_trials=n_trials
    )
