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
from repro.masking.coefficients import CoefficientSet, CoefficientStack, as_stack, stack_arrays
from repro.precompute.scratch import active_scratch


def stack_matmul(
    field: PrimeField,
    a: np.ndarray,
    b: np.ndarray,
    a_float: np.ndarray | None = None,
    into: np.ndarray | None = None,
) -> np.ndarray:
    """``out[v] = (a[v] @ b[v]) mod p`` for a stack of virtual batches.

    Every masking product — encode, decode, ``γ``-decode — is this
    ``(V, m, n) @ (V, n, q)``; the one-slice stack (a staged op's single
    virtual batch) *is* the plain 2-D product and runs as one.  ``a_float``
    is ``a`` as float64 — the coefficient stack's kept operands — so the
    GEMM does not convert the same coefficients again.  The result has
    ``b``'s kind: a float64 ``b`` (exact integers: the encode's source
    block, gathered GPU outputs) is multiplied as it stands and the
    product comes back as float64 (see :func:`~repro.fieldmath.field_matmul`),
    unless ``into`` (an array of the product's shape) takes it, cast.
    """
    if a.shape[0] > 1:
        return field_matmul_stacked(field, a, b, a_float=a_float, into=into)
    slice_float = None if a_float is None else a_float[0]
    into = None if into is None else into[0]
    return field_matmul(field, a[0], b[0], a_float=slice_float, into=into)[None]


def source_block(n_sets: int, n_sources: int, feature_shape: tuple[int, ...]) -> np.ndarray:
    """The float64 ``(V, K + M, *feature_shape)`` source block ``[X; R]``
    of a stack's encode GEMM, contents undefined: rows ``[:K]`` take the
    quantized inputs (:meth:`~repro.quantization.QuantizationConfig.quantize`
    writes them in place), rows ``[K:]`` the noise.  It never outlives the
    encode it feeds, so in precompute mode it is a recycled scratch buffer.
    """
    shape = (n_sets, n_sources) + tuple(feature_shape)
    scratch = active_scratch()
    if scratch is None:
        return np.empty(shape)
    return scratch.get("fwd_sources", shape, np.float64)


def as_float(values: np.ndarray, tag: str) -> np.ndarray:
    """Field elements as float64 exact integers: ``values`` itself when
    already float64, else one cast — into the scratch buffer ``tag`` in
    precompute mode, so the copy must not outlive the call that made it."""
    if values.dtype == np.float64:
        return values
    scratch = active_scratch()
    if scratch is None:
        return values.astype(np.float64)
    return scratch.cast(tag, values, np.float64)


@dataclass(slots=True)
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
        What the encoder was built over: the secret set, or a stack of
        ``V`` sets, and then ``shares`` and ``noise`` carry a ``V`` axis.
    """

    shares: np.ndarray
    noise: np.ndarray
    coefficients: CoefficientSet | CoefficientStack


class ForwardEncoder:
    """Encodes virtual batches under a given coefficient set.

    ``coefficients`` is one :class:`CoefficientSet`, or a
    :class:`CoefficientStack` (or sequence) of ``V`` of them — one per
    virtual batch of a layer step, each with its own secret ``A`` — in
    which case :meth:`encode` takes inputs with a leading ``V`` axis and
    masks every virtual batch in one stacked field GEMM against the
    stack's ``Aᵀ``, so each encode pays only for its own numbers.
    """

    def __init__(self, coefficients, rng: FieldRng) -> None:
        stack, self._stacked = as_stack(coefficients)
        if stack.field is not rng.field and stack.field.p != rng.field.p:
            raise EncodingError("coefficient set and RNG use different fields")
        self.coefficients = coefficients
        self._rng = rng
        self._operands = stack.encode_operands
        self._field = stack.field
        self._sizes = (len(stack), stack.k, stack.m, stack.n_sources, stack.n_shares)

    def encode(
        self, inputs: np.ndarray, noise: np.ndarray | None = None, *, canonical: bool = False
    ) -> EncodedBatch:
        """Mask ``inputs`` of shape ``([V,] K, *feature_shape)``.

        Parameters
        ----------
        inputs:
            Canonical field elements, one row per real input — or a
            :func:`source_block` ``([V,] K + M, *feature_shape)`` whose
            first ``K`` rows already hold them as float64 (the runtime
            quantizes straight into it): its noise rows are written here
            and it is the GEMM's operand as it stands.
        noise:
            Optional pre-drawn noise ``([V,] M, *feature_shape)`` — the
            runtime draws it between coefficient sets, the precompute pool
            ahead of time, tests for determinism; otherwise drawn fresh
            here, one draw per set in order, as the paper requires.
        canonical:
            The caller vouches that the input rows are canonical — the
            runtime's quantizer wrote them, range-checked — so only noise
            handed in from outside is checked.  Otherwise the whole source
            block is.
        """
        field = self._field
        n_sets, k, m, n_sources, n_shares = self._sizes
        inputs = np.asarray(inputs)
        if noise is not None:
            noise = np.asarray(noise, dtype=np.int64)
        if not self._stacked:
            inputs = inputs[None]
            noise = None if noise is None else noise[None]
        rows = inputs.shape[1] if inputs.ndim >= 2 else None
        block = rows == n_sources and inputs.dtype == np.float64
        if rows is None or inputs.shape[0] != n_sets or not (block or rows == k):
            raise EncodingError(
                f"expected {k} inputs per virtual batch"
                f" ({n_sets} virtual batches), got shape {inputs.shape}"
            )
        feature_shape = inputs.shape[2:]
        noise_shape = (n_sets, m) + feature_shape
        drawn = noise is None
        if drawn:
            noise = stack_arrays([self._rng.uniform(noise_shape[1:]) for _ in range(n_sets)])
        elif noise.shape != noise_shape:
            raise EncodingError(
                f"noise shape {noise.shape} does not match"
                f" ({n_sets}, {m}, *{feature_shape})"
            )
        if block:
            sources = inputs
        else:
            sources = source_block(n_sets, n_sources, feature_shape)
            np.copyto(sources[:, :k], inputs.astype(np.int64, copy=False))
        np.copyto(sources[:, k:], noise)
        # One canonical check covers whatever neither this encoder drew nor
        # the caller vouches for: the whole block, or noise handed in.
        checked = sources if not canonical else None if drawn else noise
        if checked is not None and not (
            0 <= np.minimum.reduce(checked, axis=None, initial=0)
            and np.maximum.reduce(checked, axis=None, initial=0) < field.p
        ):
            raise EncodingError(
                "inputs and noise must be canonical field elements; quantize first"
            )
        # One stacked GEMM in the transposed form shares = A^T @ [X R]: the
        # (n_sources, features) source block stays contiguous and no
        # (features, n_shares) intermediate needs re-transposing — same
        # exact field sums as (flat^T @ A)^T, so bit-identical shares.  The
        # block is float64 already, so the GEMM reads it as it stands; only
        # the shares, which the devices hold, become int64, cast straight
        # out of the GEMM's reduced product.
        a_t, a_float = self._operands
        shares = np.empty((n_sets, n_shares) + feature_shape, dtype=np.int64)
        stack_matmul(  # a_t: (V, n_shares, k+m)
            field, a_t, sources.reshape(n_sets, n_sources, -1), a_float,
            into=shares.reshape(n_sets, n_shares, -1),
        )
        if not self._stacked:
            shares, noise = shares[0], noise[0]
        return EncodedBatch(shares=shares, noise=noise, coefficients=self.coefficients)


class ForwardDecoder:
    """Recovers true linear-op outputs from masked GPU results.

    Built over a stack of ``V`` coefficient sets it decodes a stack:
    ``gpu_outputs`` carries a leading ``V`` axis and virtual batch ``v`` is
    unmasked with set ``v``'s own ``A_J⁻¹``, all in one stacked field GEMM
    against the stack's decode operands for ``J``.
    """

    def __init__(self, coefficients) -> None:
        self._stack, self._stacked = as_stack(coefficients)
        self.coefficients = coefficients
        stack = self._stack
        self._sizes = (stack.k, stack.n_sources, stack.n_shares, len(stack))

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
            is GPU ``j``'s result on share ``j``: int64 as the devices hand
            it back, or already cast to float64 (the verifier casts once
            for all its decodes).  When a subset is given, rows must still
            be indexed by absolute share id (the decoder picks the subset's
            rows itself).
        subset:
            Which ``k+m`` shares to decode from (default: the primary
            subset, which every set of a stack must then share).
        return_noise_product:
            Also return the recovered ``<W, r>`` columns; integrity checks
            compare these across subsets too.

        The decode is float64 — canonical elements as exact integers, a
        fresh array the caller may round in place
        (:meth:`~repro.quantization.QuantizationConfig.dequantize_product`).
        """
        k, n_sources, n_shares, n_sets = self._sizes
        outputs = np.asarray(gpu_outputs)
        if not self._stacked:
            outputs = outputs[None]
        if outputs.ndim < 2 or outputs.shape[:2] != (n_sets, n_shares):
            raise DecodingError(
                f"expected outputs from all {n_shares} shares (indexed by"
                f" share id) of {n_sets} virtual batches, got shape {outputs.shape}"
            )
        if subset is not None and type(subset) is not tuple:
            subset = tuple(subset)
        subset, decode_t, decode_float, run = self._stack.decode_operands(subset)
        out_shape = outputs.shape[2:]
        # Transposed decode [Y | WR] = D^T @ Ȳ_J: one stacked GEMM on
        # contiguous rows, no feature-major intermediate (bit-identical
        # sums), read in float64 and left there.  A run of consecutive
        # shares (the primary subset) is a view of the outputs; any other
        # subset's rows are gathered, into scratch: they are kernel-local.
        flat_outputs = outputs.reshape(n_sets, n_shares, -1)
        if flat_outputs.dtype != np.float64:
            flat_outputs = as_float(flat_outputs, "dec_outputs")
        if run:
            selected = flat_outputs[:, subset[0] : subset[0] + len(subset)]
        else:
            scratch = active_scratch()
            selected = None
            if scratch is not None:
                selected = scratch.get(
                    "dec_selected", (n_sets, len(subset), flat_outputs.shape[2]), np.float64
                )
            selected = flat_outputs.take(subset, axis=1, out=selected)
        recovered = stack_matmul(self._stack.field, decode_t, selected, decode_float)
        recovered = recovered.reshape((n_sets, n_sources) + out_shape)
        results, noise_product = recovered[:, :k], recovered[:, k:]
        if not self._stacked:
            results, noise_product = results[0], noise_product[0]
        if return_noise_product:
            return results, noise_product
        return results
