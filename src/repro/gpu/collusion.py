"""Colluding-GPU adversary: pooled shares and reconstruction attempts.

Section 4.5 / Section 5 of the paper: with ``M`` noise vectors, *any* subset
of at most ``M`` GPUs pooling their shares sees only uniformly random data
(no linear combination cancels the noise because every ``<= M``-column subset
of ``A2`` is full rank).  Conversely, if an adversary corrals *more* than
``M`` shares **and** learns the secret coefficients, the system degrades to
solvable linear algebra.

:class:`CollusionPool` implements both sides so tests can certify the privacy
boundary exactly where the theorem puts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EncodingError
from repro.fieldmath import PrimeField, field_matmul, inverse, rank
from repro.masking.coefficients import CoefficientSet


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of a collusion attack attempt."""

    success: bool
    reason: str
    recovered: np.ndarray | None = None


class CollusionPool:
    """Shares gathered by a coalition of malicious GPUs.

    Parameters
    ----------
    field:
        The masking field.
    share_indices:
        Which GPUs collude (share ids).
    shares:
        The masked tensors those GPUs received, shape ``(len(indices), ...)``.
    """

    def __init__(
        self, field: PrimeField, share_indices: tuple[int, ...], shares: np.ndarray
    ) -> None:
        shares = np.asarray(shares, dtype=np.int64)
        if shares.shape[0] != len(share_indices):
            raise EncodingError(
                f"{len(share_indices)} colluders but {shares.shape[0]} share tensors"
            )
        self.field = field
        self.share_indices = tuple(share_indices)
        self.shares = shares

    @property
    def size(self) -> int:
        """Coalition size ``M'``."""
        return len(self.share_indices)

    # ------------------------------------------------------------------
    # information-theoretic attack with known coefficients
    # ------------------------------------------------------------------
    def attack_with_known_coefficients(
        self, coefficients: CoefficientSet
    ) -> ReconstructionResult:
        """Worst-case attack: coalition somehow learned the secret ``A``.

        The colluders hold the columns ``A[:, J]`` of the encoding and the
        shares ``X̄_J = [X R]·A_J``.  They can eliminate the ``M`` unknown
        noise vectors only if the noise block ``A2[:, J]`` has rank < its
        column count *plus* enough input columns remain solvable — in
        matrix terms, recovery of any input coordinate requires
        ``rank([A1_J; A2_J]) > rank(A2_J)`` with a pivot in the input rows.

        With an MDS ``A2`` and ``|J| <= M`` the noise rank equals ``|J|``,
        every linear combination of shares keeps a full-entropy noise
        component, and the attack provably fails.  With ``|J| = K + M``
        invertible columns the coalition decodes everything — the theorem's
        boundary, which tests assert from both sides.
        """
        a_j = coefficients.a[:, list(self.share_indices)]
        a2_j = a_j[coefficients.k :, :]
        noise_rank = rank(self.field, a2_j)
        if noise_rank >= self.size:
            return ReconstructionResult(
                success=False,
                reason=(
                    f"noise block spans all {self.size} pooled shares"
                    " (every linear combination keeps a uniform pad)"
                ),
            )
        if self.size < coefficients.n_sources:
            return ReconstructionResult(
                success=False,
                reason=(
                    f"only {self.size} shares for {coefficients.n_sources} unknowns;"
                    " system underdetermined even though noise is rank-deficient"
                ),
            )
        # Shares are stored row-wise: shares = A_Jᵀ · [X R]ᵀ, so recovery
        # needs (A_Jᵀ)^{-1}.
        try:
            decode = inverse(self.field, a_j[:, : coefficients.n_sources].T)
        except Exception:  # SingularMatrixError
            return ReconstructionResult(
                success=False, reason="pooled columns not invertible"
            )
        flat = self.shares[: coefficients.n_sources].reshape(
            coefficients.n_sources, -1
        )
        recovered = field_matmul(self.field, decode, flat)
        inputs = recovered[: coefficients.k].reshape(
            (coefficients.k,) + self.shares.shape[1:]
        )
        return ReconstructionResult(
            success=True,
            reason="coalition exceeded the collusion tolerance with known coefficients",
            recovered=inputs,
        )
