"""Forward-pass masking: encode a virtual batch, decode GPU results.

Section 4.1 of the paper.  Given ``K`` quantized inputs ``x(1)..x(K)`` (field
elements) the enclave computes ``n_shares`` masked shares

    x̄(j) = Σ_i A[i, j]·x(i) + Σ_m A[K+m, j]·r(m)          (Equation 1/10)

and sends exactly one share to each GPU.  Because the offloaded operator
``<W, ·>`` is bilinear, the stacked GPU outputs satisfy
``Ȳ = <W, [X R]>·A``, so the enclave recovers ``[Y | W·R] = Ȳ_J · A_J^{-1}``
from any invertible ``(K+M)``-column subset ``J`` and simply drops the
``W·R`` columns (the paper: "we extract W·r, but that value is just
dropped" — the 1/K extra compute that buys perfect privacy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodingError, EncodingError
from repro.fieldmath import FieldRng, PrimeField, field_matmul, field_matmul_stacked
from repro.masking.coefficients import CoefficientSet, as_stack
from repro.precompute.scratch import active_scratch


def stack_matmul(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[v] = (a[v] @ b[v]) mod p`` for a stack of virtual batches.

    Every masking product — encode, decode, ``γ``-decode — is this
    ``(V, m, n) @ (V, n, q)``; the one-slice stack (a staged op's single
    virtual batch) *is* the plain 2-D product and runs as one.
    """
    if a.shape[0] == 1:
        return field_matmul(field, a[0], b[0])[None]
    return field_matmul_stacked(field, a, b)


def stack_arrays(arrays) -> np.ndarray:
    """``np.stack`` whose one-slice stack is a view, not a copy — what a
    staged op's single virtual batch pays for riding the stacked code."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


@dataclass(frozen=True)
class EncodedBatch:
    """The masked shares for one virtual batch (or a stack of them).

    Attributes
    ----------
    shares:
        Field array of shape ``(n_shares, *feature_shape)``; ``shares[j]``
        goes to GPU ``j`` and — per the privacy theorem — is marginally
        uniform over the field.
    noise:
        The ``M`` noise vectors (shape ``(m, *feature_shape)``).  Kept only
        inside the enclave; exposed here for tests and analysis.
    coefficients:
        The secret coefficient set that produced the shares.

    An encoder built over a sequence of ``V`` sets returns the stack:
    ``shares`` and ``noise`` carry a leading ``V`` axis and
    ``coefficients`` is that sequence.
    """

    shares: np.ndarray
    noise: np.ndarray
    coefficients: CoefficientSet | tuple[CoefficientSet, ...]

    @property
    def feature_shape(self) -> tuple[int, ...]:
        """Per-sample tensor shape (whatever the layer consumes)."""
        lead = 1 if isinstance(self.coefficients, CoefficientSet) else 2
        return tuple(self.shares.shape[lead:])

    def share_for_gpu(self, gpu_index: int) -> np.ndarray:
        """The single share GPU ``gpu_index`` is allowed to see."""
        return self.shares[gpu_index]


class ForwardEncoder:
    """Encodes virtual batches under a given coefficient set.

    ``coefficients`` is one :class:`CoefficientSet`, or a sequence of ``V``
    of them — one per virtual batch of a layer step, each with its own
    secret ``A`` — in which case :meth:`encode` takes inputs with a leading
    ``V`` axis and masks every virtual batch in one stacked field GEMM.
    """

    def __init__(self, coefficients, rng: FieldRng) -> None:
        self._sets, self._stacked = as_stack(coefficients)
        field = self._sets[0].field
        if field is not rng.field and field.p != rng.field.p:
            raise EncodingError("coefficient set and RNG use different fields")
        self.coefficients = coefficients
        self._rng = rng

    def encode(self, inputs: np.ndarray, noise: np.ndarray | None = None) -> EncodedBatch:
        """Mask ``inputs`` of shape ``([V,] K, *feature_shape)``.

        Parameters
        ----------
        inputs:
            Canonical field elements, one row per real input.
        noise:
            Optional pre-drawn noise ``([V,] M, *feature_shape)`` — the
            runtime draws it between coefficient sets, the precompute pool
            ahead of time, tests for determinism; otherwise drawn fresh
            here, one draw per set in order, as the paper requires.
        """
        first = self._sets[0]
        field = first.field
        inputs = np.asarray(inputs, dtype=np.int64)
        if noise is not None:
            noise = np.asarray(noise, dtype=np.int64)
        if not self._stacked:
            inputs = inputs[None]
            noise = None if noise is None else noise[None]
        n_sets = len(self._sets)
        if inputs.ndim < 2 or inputs.shape[:2] != (n_sets, first.k):
            raise EncodingError(
                f"expected {first.k} inputs per virtual batch"
                f" ({n_sets} virtual batches), got shape {inputs.shape}"
            )
        feature_shape = inputs.shape[2:]
        noise_shape = (n_sets, first.m) + feature_shape
        if noise is None:
            noise = stack_arrays(
                [self._rng.uniform(noise_shape[1:]) for _ in self._sets]
            )
        elif noise.shape != noise_shape:
            raise EncodingError(
                f"noise shape {noise.shape} does not match"
                f" ({n_sets}, {first.m}, *{feature_shape})"
            )

        # One stacked GEMM in the transposed form shares = A^T @ [X R]: the
        # (n_sources, features) source block stays contiguous and no
        # (features, n_shares) intermediate needs re-transposing — same
        # exact field sums as (flat^T @ A)^T, so bit-identical shares.
        # The stacked source block never escapes this call, so it may live
        # in a recycled scratch buffer (precompute mode's zero-allocation
        # steady state); the shares themselves are always fresh.
        scratch = active_scratch()
        if scratch is not None:
            sources = scratch.get(
                "fwd_sources", (n_sets, first.n_sources) + feature_shape, np.int64
            )
            np.concatenate([inputs, noise], axis=1, out=sources)
        else:
            sources = np.concatenate([inputs, noise], axis=1)
        # One canonical check covers the whole source block of the stack.
        if not field.is_canonical(sources):
            raise EncodingError(
                "inputs and noise must be canonical field elements; quantize first"
            )
        a_t = stack_arrays([coeffs.a.T for coeffs in self._sets])  # (V, n_shares, k+m)
        shares = stack_matmul(
            field, a_t, sources.reshape(n_sets, first.n_sources, -1)
        ).reshape((n_sets, first.n_shares) + feature_shape)
        if not self._stacked:
            shares, noise = shares[0], noise[0]
        return EncodedBatch(shares=shares, noise=noise, coefficients=self.coefficients)


class ForwardDecoder:
    """Recovers true linear-op outputs from masked GPU results.

    Built over a sequence of ``V`` coefficient sets it decodes a stack:
    ``gpu_outputs`` carries a leading ``V`` axis and virtual batch ``v`` is
    unmasked with set ``v``'s own ``A_J⁻¹``, all in one stacked field GEMM.
    """

    def __init__(self, coefficients) -> None:
        self._sets, self._stacked = as_stack(coefficients)
        self.coefficients = coefficients

    def decode(
        self,
        gpu_outputs: np.ndarray,
        subset: tuple[int, ...] | None = None,
        return_noise_product: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Decode stacked GPU outputs back to the ``K`` true results.

        Parameters
        ----------
        gpu_outputs:
            Field array ``([V,] n_shares, *out_shape)`` — ``gpu_outputs[j]``
            is GPU ``j``'s result on share ``j``.  When a subset is given,
            rows must still be indexed by absolute share id (the decoder
            picks the subset's rows itself).
        subset:
            Which ``k+m`` shares to decode from (default: the primary
            subset, which every set of a stack must then share).
        return_noise_product:
            Also return the recovered ``<W, r>`` columns; integrity checks
            compare these across subsets too.
        """
        first = self._sets[0]
        outputs = np.asarray(gpu_outputs, dtype=np.int64)
        if not self._stacked:
            outputs = outputs[None]
        n_sets = len(self._sets)
        if outputs.ndim < 2 or outputs.shape[:2] != (n_sets, first.n_shares):
            raise DecodingError(
                f"expected outputs from all {first.n_shares} shares (indexed by"
                f" share id) of {n_sets} virtual batches, got shape {outputs.shape}"
            )
        if subset is None:
            subset = first.primary_subset
            if any(coeffs.primary_subset != subset for coeffs in self._sets[1:]):
                raise DecodingError(
                    "stacked sets have different primary subsets; name one"
                )
        subset = tuple(subset)
        out_shape = outputs.shape[2:]
        # Transposed decode [Y | WR] = D^T @ Ȳ_J: one stacked GEMM on
        # contiguous rows, no feature-major intermediate (bit-identical
        # sums).  The gathered subset rows are kernel-local, so they may
        # reuse scratch.
        decode_t = stack_arrays(
            [coeffs.decoding_matrix(subset).T for coeffs in self._sets]
        )
        flat_outputs = outputs.reshape(n_sets, first.n_shares, -1)
        scratch = active_scratch()
        selected = None
        if scratch is not None:
            selected = scratch.get(
                "dec_selected", (n_sets, len(subset), flat_outputs.shape[2]), np.int64
            )
        selected = np.take(flat_outputs, subset, axis=1, out=selected)
        recovered = stack_matmul(first.field, decode_t, selected)
        recovered = recovered.reshape((n_sets, first.n_sources) + out_shape)
        results, noise_product = recovered[:, : first.k], recovered[:, first.k :]
        if not self._stacked:
            results, noise_product = results[0], noise_product[0]
        if return_noise_product:
            return results, noise_product
        return results
