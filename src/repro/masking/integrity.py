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
a share whose exclusion leaves every remaining subset consistent is the
culprit.  That enumeration runs only after a mismatch.  The paper leaves
corrective action out of scope; we expose the suspect list so callers can
re-dispatch work.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.errors import IntegrityError
from repro.masking.coefficients import as_stack
from repro.masking.forward import ForwardDecoder, as_float


@dataclass(slots=True)
class IntegrityReport:
    """Outcome of a redundant-decode verification.

    ``decoded`` is the verified primary decode (the ``K`` true results) of
    a consistent forward check — callers serve it instead of decoding
    again; ``None`` on failure and for backward checks.
    """

    consistent: bool
    suspected_shares: tuple[int, ...] = dataclass_field(default=())
    decoded: np.ndarray | None = dataclass_field(default=None, compare=False, repr=False)

    def raise_on_failure(self, where: str = "") -> None:
        """Raise :class:`IntegrityError` when verification failed; ``where``
        (e.g. the layer and virtual batch) leads the message."""
        if not self.consistent:
            raise IntegrityError(
                (f"{where}: " if where else "")
                + "GPU results are inconsistent across decode subsets; suspected"
                f" shares: {list(self.suspected_shares) or 'undetermined'}"
            )


def _agree(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> bool:
    """Two same-shaped ``(Y, W·r)`` decodes are identical: no element
    differs (``np.array_equal``'s own checks cost more than the comparison
    at a served step's size)."""
    return not np.count_nonzero(a[0] != b[0]) and not np.count_nonzero(a[1] != b[1])


class IntegrityVerifier:
    """Cross-checks GPU results by decoding from covering share subsets.

    Parameters
    ----------
    coefficients:
        Must carry at least one extra share (``extra_shares >= 1``);
        otherwise only a single decode subset may exist and tampering on the
        unique subset is undetectable.  A sequence of ``V`` sets verifies a
        stack: tensors carry a leading ``V`` axis, each plan subset is
        decoded once for the whole stack, and the verdict is one
        :class:`IntegrityReport` per virtual batch.
    max_subsets:
        Localisation budget: how many invertible subsets to enumerate and
        decode *after a mismatch* to name suspects (more subsets, better
        localisation).  Detection does not depend on it — the verification
        plan covers every share regardless.
    """

    def __init__(self, coefficients, max_subsets: int = 8) -> None:
        self._stack, self._stacked = as_stack(coefficients)
        stack = self._stack
        if stack.extra_shares < 1:
            raise IntegrityError(
                "integrity verification requires at least one redundant share"
                f" (K+M+1 GPUs); got {stack.n_shares} shares for"
                f" {stack.n_sources} sources"
            )
        if max_subsets < 2:
            raise IntegrityError(f"need at least 2 subsets to compare, got {max_subsets}")
        self.coefficients = coefficients
        self.max_subsets = max_subsets
        #: The stack's decoder, kept with its operand stacks for every check.
        self._decoder = ForwardDecoder(stack)

    def verification_plans(self) -> list[tuple[tuple[int, ...], ...]]:
        """Each set's plan (primary subset first, alternates after), read
        off the stack, which keeps them: the sets are frozen.

        Fails closed: a set whose alternates are all singular has nothing
        to cross-check against and cannot be verified, forward or backward.
        """
        plans = self._stack.plans
        if any(len(plan) < 2 for plan in plans):
            raise IntegrityError(
                "coefficient set admits fewer than two decode subsets;"
                " cannot verify"
            )
        return plans

    # ------------------------------------------------------------------
    # forward-pass verification
    # ------------------------------------------------------------------
    def verify_forward(self, gpu_outputs: np.ndarray):
        """Decode ``gpu_outputs`` from the plan's subsets and compare everything.

        Comparison covers the recovered ``Y`` *and* the ``W·r`` noise
        products — a tamper that only perturbs the noise coordinate of one
        subset would otherwise slip through.  A consistent report carries
        the primary decode as ``decoded``.  A stack returns one report per
        virtual batch, each from that batch's own slices.
        """
        plan = self._stack.plan
        if plan is None or len(plan) < 2:
            self.verification_plans()  # fails closed
            # A singular alternate candidate (probability ~ (K+M)/p per
            # set) sent some set to another plan: no subset is shared, so
            # each set is verified as its own one-slice stack.
            return [
                IntegrityVerifier(coeffs, self.max_subsets).verify_forward(outputs)
                for coeffs, outputs in zip(self._stack, gpu_outputs)
            ]
        outputs = np.asarray(gpu_outputs)
        reports = self._verify_stack(outputs if self._stacked else outputs[None], plan)
        return reports if self._stacked else reports[0]

    def _verify_stack(self, gpu_outputs: np.ndarray, plan) -> list[IntegrityReport]:
        # The devices' int64 outputs are cast to float64 once for every
        # decode of the plan.  Each decode is a fresh float64 array (the
        # field GEMM's result never aliases scratch or kernel-workspace
        # memory), so decodes can be held side by side and compared as
        # they are: exact integers compare as the elements they hold.
        gpu_outputs = as_float(gpu_outputs, "dec_outputs")
        decoder = self._decoder
        decoded = {}
        for subset in plan:
            decoded[subset] = decoder.decode(gpu_outputs, subset=subset, return_noise_product=True)
        primary = decoded[plan[0]]
        for subset in plan[1:]:
            if not _agree(decoded[subset], primary):
                break
        else:
            return [IntegrityReport(consistent=True, decoded=y) for y in primary[0]]
        reports = []  # somewhere in the stack: find which virtual batches
        for v, coeffs in enumerate(self._stack):
            mine = {subset: (y[v], wr[v]) for subset, (y, wr) in decoded.items()}
            if not all(_agree(mine[subset], mine[plan[0]]) for subset in plan[1:]):
                reports.append(self._localise_mismatch(coeffs, gpu_outputs[v], mine))
            else:
                reports.append(IntegrityReport(consistent=True, decoded=primary[0][v]))
        return reports

    def _localise_mismatch(
        self, coeffs, gpu_outputs: np.ndarray, plan_decodes: dict
    ) -> IntegrityReport:
        """Name suspects after one virtual batch's plan decodes disagreed.

        Enumerates up to ``max_subsets`` invertible subsets, decodes from
        each (reusing the plan's decodes) and asks :meth:`_localise`.  When
        that budget happens not to reach the tampered share the decodes it
        sees all agree, and the culprit stays undetermined.
        """
        decoder = ForwardDecoder(coeffs)
        decoded = {
            subset: plan_decodes.get(subset)
            or decoder.decode(gpu_outputs, subset=subset, return_noise_product=True)
            for subset in coeffs.iter_decoding_subsets(limit=self.max_subsets)
        }
        reference, *others = decoded.values()
        localisable = not all(_agree(other, reference) for other in others)
        return IntegrityReport(
            consistent=False,
            suspected_shares=self._localise(decoded) if localisable else (),
        )

    def _localise(self, decoded: dict) -> tuple[int, ...]:
        """Find shares whose exclusion makes the remaining subsets consistent.

        For each candidate share, consider only decode subsets that avoid
        it; if all those agree (and at least two exist), the candidate
        explains the corruption.
        """
        suspects: list[int] = []
        for share in range(self._stack.n_shares):
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
    def verify_backward(self, equations_by_bset):
        """Compare aggregate-gradient decodes computed under different ``B``s.

        The trainer asks the GPUs to evaluate ``Eq_j`` under two (or more)
        ``B`` matrices supported on different share subsets; each decode must
        yield the same ``Σ_i <δ(i), x(i)>``.

        Parameters
        ----------
        equations_by_bset:
            Maps the share subset that defined each ``B`` to the decoded
            aggregate (field array).  Values must already be decoded — this
            method only cross-compares.  A stack takes one such mapping per
            virtual batch (each set may follow its own alternate subset)
            and returns one report per virtual batch.
        """
        if self._stacked:
            return [self._compare_aggregates(by_bset) for by_bset in equations_by_bset]
        return self._compare_aggregates(equations_by_bset)

    @staticmethod
    def _compare_aggregates(
        equations_by_bset: dict[tuple[int, ...], np.ndarray]
    ) -> IntegrityReport:
        if len(equations_by_bset) < 2:
            raise IntegrityError(
                "backward verification needs decodes under >= 2 B-matrices"
            )
        subsets = list(equations_by_bset)
        reference = equations_by_bset[subsets[0]]
        mismatch = [
            s for s in subsets[1:] if not np.array_equal(equations_by_bset[s], reference)
        ]
        if not mismatch:
            return IntegrityReport(consistent=True)
        # Shares in every subset cannot be exonerated; shares in only the
        # mismatching subsets are prime suspects.
        shared = set(subsets[0]).intersection(*subsets[1:])
        suspects = set().union(*mismatch)
        if shared != set(mismatch[0]):
            suspects -= shared
        return IntegrityReport(consistent=False, suspected_shares=tuple(sorted(suspects)))
