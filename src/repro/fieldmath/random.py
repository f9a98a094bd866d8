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
from repro.fieldmath.prime import PrimeField


class FieldRng:
    """Seeded sampler of field elements and vectors.

    Parameters
    ----------
    field:
        The prime field to sample in.
    seed:
        Anything acceptable to :func:`numpy.random.default_rng`; ``None``
        draws OS entropy (fine for applications, avoid in tests).
    """

    #: Give up on rejection sampling of an invertible coefficient block
    #: after this many draws; for a large prime a single draw succeeds with
    #: probability > 1 - n/p, so hitting the cap indicates a logic error.
    MAX_REJECTIONS = 64

    def __init__(self, field: PrimeField, seed=None) -> None:
        self.field = field
        self._rng = np.random.default_rng(seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for interop with other samplers)."""
        return self._rng

    # ------------------------------------------------------------------
    # elements and vectors
    # ------------------------------------------------------------------
    def uniform(self, shape=()) -> np.ndarray:
        """Uniform field elements — the one-time-pad noise source."""
        return self.field.uniform(shape, self._rng)

    def nonzero(self, shape=()) -> np.ndarray:
        """Uniform non-zero field elements (for diagonals like ``Gamma``)."""
        return self.field.nonzero_uniform(shape, self._rng)

    def distinct_nonzero(self, count: int) -> np.ndarray:
        """``count`` distinct non-zero elements (Vandermonde evaluation points)."""
        if count >= self.field.p:
            raise FieldError(f"cannot draw {count} distinct elements from F_{self.field.p}")
        chosen = self._rng.choice(self.field.p - 1, size=count, replace=False)
        return np.asarray(chosen + 1, dtype=np.int64)
