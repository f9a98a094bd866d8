"""Seeded randomness helpers for field-valued masks and coefficients.

DarKnight regenerates fresh coefficient matrices (``A``, ``B``, ``Gamma``)
and noise vectors ``R`` for *every* virtual batch (Section 4: "dynamically
generated for each virtual batch and securely stored inside SGX").  This
module centralises that sampling behind a single seeded generator so
experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError
from repro.fieldmath import linalg
from repro.fieldmath.prime import PrimeField


class FieldRng:
    """Seeded sampler of field elements, vectors and structured matrices.

    Parameters
    ----------
    field:
        The prime field to sample in.
    seed:
        Anything acceptable to :func:`numpy.random.default_rng`; ``None``
        draws OS entropy (fine for applications, avoid in tests).
    """

    #: Give up on rejection sampling of invertible matrices after this many
    #: draws; for a large prime a single draw succeeds with probability
    #: > 1 - n/p, so hitting the cap indicates a logic error.
    MAX_REJECTIONS = 64

    def __init__(self, field: PrimeField, seed=None) -> None:
        self.field = field
        self._rng = np.random.default_rng(seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for interop with other samplers)."""
        return self._rng

    def spawn(self) -> "FieldRng":
        """Independent child stream (deterministic given the parent's state)."""
        return FieldRng(self.field, self._rng.spawn(1)[0])

    # ------------------------------------------------------------------
    # elements and vectors
    # ------------------------------------------------------------------
    def uniform(self, shape=()) -> np.ndarray:
        """Uniform field elements — the one-time-pad noise source."""
        return self.field.uniform(shape, self._rng)

    def nonzero(self, shape=()) -> np.ndarray:
        """Uniform non-zero field elements (for diagonals like ``Gamma``)."""
        return self.field.nonzero_uniform(shape, self._rng)

    def noise_matrix(self, n_features: int, n_vectors: int) -> np.ndarray:
        """The ``R`` block of Section 4.5: ``n_vectors`` uniform noise columns."""
        if n_features < 1 or n_vectors < 0:
            raise FieldError(
                f"invalid noise shape ({n_features}, {n_vectors}); features must be"
                " positive and vector count non-negative"
            )
        return self.uniform((n_features, n_vectors))

    def distinct_nonzero(self, count: int) -> np.ndarray:
        """``count`` distinct non-zero elements (Vandermonde evaluation points)."""
        if count >= self.field.p:
            raise FieldError(f"cannot draw {count} distinct elements from F_{self.field.p}")
        chosen = self._rng.choice(self.field.p - 1, size=count, replace=False)
        return np.asarray(chosen + 1, dtype=np.int64)

    # ------------------------------------------------------------------
    # structured matrices
    # ------------------------------------------------------------------
    def invertible_matrix(self, n: int) -> np.ndarray:
        """Uniformly-ish random invertible ``n x n`` matrix (rejection sampling)."""
        for _ in range(self.MAX_REJECTIONS):
            candidate = self.uniform((n, n))
            if linalg.is_invertible(self.field, candidate):
                return candidate
        raise FieldError(f"failed to sample an invertible {n}x{n} matrix")

    def invertible_diagonal(self, n: int) -> np.ndarray:
        """Random diagonal matrix with non-zero entries (the ``Gamma`` shape)."""
        return np.diag(self.nonzero((n,)))

    def mds_matrix(self, n_rows: int, n_cols: int) -> np.ndarray:
        """Vandermonde MDS matrix: every ``<= n_rows``-column subset full rank."""
        points = self.distinct_nonzero(n_cols)
        return linalg.vandermonde(self.field, points, n_rows)
