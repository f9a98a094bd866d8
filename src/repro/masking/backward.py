"""Backward-pass masking: gradient combination and aggregate-update decode.

Section 4.2 of the paper.  Weight updates need ``Σ_i <δ(i), x(i)>`` but the
``x(i)`` live on the GPUs only in masked form.  DarKnight's insight: training
only needs the *batch-aggregate* update, so each GPU ``j`` computes

    Eq_j = < Σ_i B[j, i]·δ(i),  x̄(j) >                    (Equation 4/11)

on its single share, and — because ``Bᵀ·Γ·Aᵀ = [I | 0]`` — the enclave
decodes the aggregate exactly as ``Σ_j γ_j·Eq_j`` (Equation 6, proved via the
trace identity in Section 4.3).  Individual per-input gradients are never
materialised anywhere, which doubles as secure aggregation.

``B`` is public: combining public gradients ``δ(i)`` with public scalars has
no privacy implication (the sensitive factor is ``x̄(j)``, already masked).

Every product here funnels through :func:`repro.fieldmath.field_matmul` (a
stack of virtual batches through
:func:`~repro.masking.forward.stack_matmul`), so the combine/decode GEMMs
run on the enclave-side limb backend, which executes them as float64 BLAS
GEMMs, bit-identical to the generic chunked path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import DecodingError, EncodingError
from repro.masking.coefficients import as_stack
from repro.masking.forward import stack_matmul

#: A bilinear operator ``(delta, x) -> grad_w`` in the field, e.g. the
#: outer product for dense layers or a correlation for convolutions.
BilinearOp = Callable[[np.ndarray, np.ndarray], np.ndarray]


class BackwardDecoder:
    """Recovers the aggregate weight update from the GPUs' ``Eq_j`` values.

    Built over a stack of ``V`` coefficient sets it decodes a stack:
    equations carry a leading ``V`` axis and virtual batch ``v``'s share
    axis is contracted against set ``v``'s own ``γ``, all in one stacked
    field GEMM.
    """

    def __init__(self, coefficients) -> None:
        self._stack, self._stacked = as_stack(coefficients)
        self.coefficients = coefficients

    def decode(self, equations: np.ndarray) -> np.ndarray:
        """``Σ_j γ_j·Eq_j`` over the field — the (un-averaged) batch update.

        Parameters
        ----------
        equations:
            Field array ``([V,] n_shares, *grad_shape)`` of per-GPU ``Eq_j``
            results, indexed by share id.  Shares outside the coefficient
            set's primary subset have zero ``B`` rows, so they contribute
            nothing (their ``Eq_j`` is redundancy for integrity).

        Returns
        -------
        The field-encoded ``Σ_i <δ(i), x(i)>``; divide by ``K`` *after*
        dequantization (the ``1/K`` average lives outside the field).
        """
        return self._weighted_sum(equations, self._stack.gamma)

    def decode_many(self, equations: np.ndarray) -> np.ndarray:
        """Decode ``R`` independent equation sets under this one set.

        Parameters
        ----------
        equations:
            Field array ``(R, n_shares, *grad_shape)`` — one ``Eq_j`` set
            per virtual batch (or per layer, when shapes match) encoded
            under the *same* coefficients.  The stack of ``R`` copies of
            this set's ``γ``: each slice of the result is bit-identical to
            :meth:`decode` of the matching set.

        Returns
        -------
        Field array ``(R, *grad_shape)`` of aggregates, one per set.
        """
        if self._stacked:
            raise DecodingError("decode_many repeats one set; a stack has its own sets")
        (coeffs,) = self._stack
        equations = np.asarray(equations, dtype=np.int64)
        if equations.ndim < 2 or equations.shape[1] != coeffs.n_shares:
            raise DecodingError(
                f"expected (R, {coeffs.n_shares}, *grad_shape) equations,"
                f" got shape {equations.shape}"
            )
        if equations.shape[0] == 0:
            return np.zeros((0,) + equations.shape[2:], dtype=np.int64)
        return BackwardDecoder([coeffs] * equations.shape[0]).decode(equations)

    def decode_with_matrices(
        self, equations: np.ndarray, b: np.ndarray, gamma: np.ndarray
    ) -> np.ndarray:
        """Decode using an alternative ``(B, Gamma)`` pair (integrity path).

        The ``B`` argument is accepted for interface symmetry with
        :meth:`CoefficientSet.backward_matrices_for_subset`; only ``gamma``
        (``([V,] n_shares)``) weights enter the decode (``B`` acted
        GPU-side).
        """
        del b  # combination already happened GPU-side under this B
        gamma = np.asarray(gamma, dtype=np.int64)
        return self._weighted_sum(equations, gamma if self._stacked else gamma[None])

    def _weighted_sum(self, equations: np.ndarray, gammas: np.ndarray) -> np.ndarray:
        """``out[v] = Σ_j gammas[v, j]·equations[v, j]``, one stacked GEMM."""
        stack = self._stack
        n_sets, n_shares = len(stack), stack.n_shares
        equations = np.asarray(equations, dtype=np.int64)
        if not self._stacked:
            equations = equations[None]
        if equations.ndim < 2 or equations.shape[:2] != (n_sets, n_shares):
            raise DecodingError(
                f"expected {n_shares} equations for each of {n_sets}"
                f" virtual batches, got shape {equations.shape}"
            )
        aggregate = stack_matmul(
            stack.field,
            gammas.reshape(n_sets, 1, n_shares),
            equations.reshape(n_sets, n_shares, -1),
        ).reshape((n_sets,) + equations.shape[2:])
        return aggregate if self._stacked else aggregate[0]


def reference_aggregate(
    field, deltas: np.ndarray, inputs: np.ndarray, op: BilinearOp
) -> np.ndarray:
    """Unmasked ``Σ_i <δ(i), x(i)>`` — the ground truth the decode must equal.

    Used by tests and by the SGX-only baseline.  ``op`` is the same bilinear
    operator the GPUs apply to masked operands.
    """
    deltas = np.asarray(deltas, dtype=np.int64)
    inputs = np.asarray(inputs, dtype=np.int64)
    if deltas.shape[0] != inputs.shape[0]:
        raise EncodingError(
            f"gradient count {deltas.shape[0]} != input count {inputs.shape[0]}"
        )
    if deltas.shape[0] == 0:
        raise EncodingError("cannot aggregate an empty batch")
    # The bilinear op stays per-sample (its signature is pairwise), but the
    # reduction is one stacked sum + one modular pass instead of a chained
    # field.add per sample: each term is canonical (< p < 2**25), so even
    # millions of terms sum exactly inside int64 before the reduction.
    terms = np.stack([op(delta, x) for delta, x in zip(deltas, inputs)])
    return field.element(terms.sum(axis=0, dtype=np.int64))
