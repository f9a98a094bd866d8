"""Computational-integrity verification via redundant shares (Section 4.4).

With ``K + M + 1`` shares there are ``K + M + 1`` linear equations for
``K + M`` unknowns, so every result is recoverable from at least two distinct
share subsets.  An honest system decodes identically from all of them; any
disagreement proves at least one GPU returned a tampered result.  This gives
the paper's ``(K'-1)``-security: *detection* succeeds even if all but one GPU
lies (the decodes cannot all agree unless the lies are consistent with the
secret ``A``, which the adversary cannot know).

Detection costs what the paper says it costs — one redundant equation and a
comparison: the verifier decodes from the coefficient set's cached
:attr:`~repro.masking.coefficients.CoefficientSet.verification_plan` (the
primary subset plus the alternate(s) that cover the remaining shares — two
decodes with one redundant share) and the primary decode *is* the result
handed back to the caller.  Decodes that agree on a cover of all shares lie
in the row space of ``A``, so every other subset would agree too.

Beyond detection, with enough redundancy the verifier can *localise* faults:
a share whose exclusion restores consistency across every remaining subset is
the culprit.  That enumeration runs only after a mismatch.  The paper leaves
corrective action out of scope; we expose the suspect list so callers can
re-dispatch work.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.errors import IntegrityError
from repro.masking.coefficients import CoefficientSet
from repro.masking.forward import ForwardDecoder


@dataclass(frozen=True)
class IntegrityReport:
    """Outcome of a redundant-decode verification.

    ``decoded`` is the verified primary decode (the ``K`` true results) of
    a consistent forward check — callers serve it instead of decoding
    again; ``None`` on failure and for backward checks.
    """

    consistent: bool
    subsets_checked: int
    suspected_shares: tuple[int, ...] = dataclass_field(default=())
    decoded: np.ndarray | None = dataclass_field(default=None, compare=False, repr=False)

    def raise_on_failure(self) -> None:
        """Raise :class:`IntegrityError` when verification failed."""
        if not self.consistent:
            raise IntegrityError(
                "GPU results are inconsistent across decode subsets; suspected"
                f" shares: {list(self.suspected_shares) or 'undetermined'}"
            )


def _agree(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> bool:
    """Two ``(Y, W·r)`` decodes are identical."""
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class IntegrityVerifier:
    """Cross-checks GPU results by decoding from covering share subsets.

    Parameters
    ----------
    coefficients:
        Must carry at least one extra share (``extra_shares >= 1``);
        otherwise only a single decode subset may exist and tampering on the
        unique subset is undetectable.
    max_subsets:
        Localisation budget: how many invertible subsets to enumerate and
        decode *after a mismatch* to name suspects (more subsets, better
        localisation).  Detection does not depend on it — the verification
        plan covers every share regardless.
    """

    def __init__(self, coefficients: CoefficientSet, max_subsets: int = 8) -> None:
        if coefficients.extra_shares < 1:
            raise IntegrityError(
                "integrity verification requires at least one redundant share"
                f" (K+M+1 GPUs); got {coefficients.n_shares} shares for"
                f" {coefficients.n_sources} sources"
            )
        if max_subsets < 2:
            raise IntegrityError(f"need at least 2 subsets to compare, got {max_subsets}")
        self.coefficients = coefficients
        self.max_subsets = max_subsets
        self._decoder = ForwardDecoder(coefficients)

    def verification_plan(self) -> tuple[tuple[int, ...], ...]:
        """The coefficient set's plan (primary subset first, alternates after).

        Fails closed: a set whose alternates are all singular has nothing
        to cross-check against and cannot be verified, forward or backward.
        """
        plan = self.coefficients.verification_plan
        if len(plan) < 2:
            raise IntegrityError(
                "coefficient set admits fewer than two decode subsets;"
                " cannot verify"
            )
        return plan

    # ------------------------------------------------------------------
    # forward-pass verification
    # ------------------------------------------------------------------
    def verify_forward(self, gpu_outputs: np.ndarray) -> IntegrityReport:
        """Decode ``gpu_outputs`` from the plan's subsets and compare everything.

        Comparison covers the recovered ``Y`` *and* the ``W·r`` noise
        products — a tamper that only perturbs the noise coordinate of one
        subset would otherwise slip through.  A consistent report carries
        the primary decode as ``decoded``.
        """
        plan = self.verification_plan()
        decoded = {subset: self._decode(gpu_outputs, subset) for subset in plan}
        primary = decoded[plan[0]]
        if all(_agree(decoded[subset], primary) for subset in plan[1:]):
            return IntegrityReport(
                consistent=True, subsets_checked=len(plan), decoded=primary[0]
            )
        return self._localise_mismatch(gpu_outputs, decoded)

    def _decode(self, gpu_outputs: np.ndarray, subset: tuple[int, ...]):
        # Each decode is a fresh array (the field GEMM's result never
        # aliases scratch memory), so decodes can be held side by side.
        return self._decoder.decode(gpu_outputs, subset=subset, return_noise_product=True)

    def _localise_mismatch(self, gpu_outputs: np.ndarray, plan_decodes: dict) -> IntegrityReport:
        """Name suspects after the plan's decodes disagreed.

        Enumerates up to ``max_subsets`` invertible subsets, decodes from
        each (reusing the plan's decodes) and asks :meth:`_localise`.  When
        that budget happens not to reach the tampered share the decodes it
        sees all agree, and the culprit stays undetermined.
        """
        decoded = {
            subset: plan_decodes.get(subset) or self._decode(gpu_outputs, subset)
            for subset in self.coefficients.iter_decoding_subsets(limit=self.max_subsets)
        }
        reference, *others = decoded.values()
        localisable = not all(_agree(other, reference) for other in others)
        return IntegrityReport(
            consistent=False,
            subsets_checked=len(decoded),
            suspected_shares=self._localise(decoded) if localisable else (),
        )

    def _localise(self, decoded: dict) -> tuple[int, ...]:
        """Find shares whose exclusion restores cross-subset consistency.

        For each candidate share, consider only decode subsets that avoid
        it; if all those agree (and at least two exist), the candidate
        explains the corruption.
        """
        suspects: list[int] = []
        for share in range(self.coefficients.n_shares):
            excluding = [s for s in decoded if share not in s]
            if len(excluding) < 2:
                continue
            reference = decoded[excluding[0]]
            if all(_agree(decoded[s], reference) for s in excluding[1:]):
                suspects.append(share)
        return tuple(suspects)

    # ------------------------------------------------------------------
    # backward-pass verification
    # ------------------------------------------------------------------
    def verify_backward(
        self, equations_by_bset: dict[tuple[int, ...], np.ndarray]
    ) -> IntegrityReport:
        """Compare aggregate-gradient decodes computed under different ``B``s.

        The trainer asks the GPUs to evaluate ``Eq_j`` under two (or more)
        ``B`` matrices supported on different share subsets; each decode must
        yield the same ``Σ_i <δ(i), x(i)>``.

        Parameters
        ----------
        equations_by_bset:
            Maps the share subset that defined each ``B`` to the decoded
            aggregate (field array).  Values must already be decoded — this
            method only cross-compares.
        """
        if len(equations_by_bset) < 2:
            raise IntegrityError(
                "backward verification needs decodes under >= 2 B-matrices"
            )
        items = list(equations_by_bset.items())
        _, reference = items[0]
        mismatch = [
            subset for subset, agg in items[1:] if not np.array_equal(agg, reference)
        ]
        if not mismatch:
            return IntegrityReport(consistent=True, subsets_checked=len(items))
        all_subsets = [s for s, _ in items]
        shared = set(all_subsets[0])
        for s in all_subsets[1:]:
            shared &= set(s)
        # Shares in every subset cannot be exonerated; shares in only the
        # mismatching subsets are prime suspects.
        suspects = sorted(
            set().union(*[set(s) for s in mismatch]) - shared
            if mismatch and shared != set(mismatch[0])
            else set().union(*[set(s) for s in mismatch])
        )
        return IntegrityReport(
            consistent=False,
            subsets_checked=len(items),
            suspected_shares=tuple(suspects),
        )
