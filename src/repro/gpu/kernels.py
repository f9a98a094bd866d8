"""Linear-operator kernels executed by the simulated accelerators.

Two kernel sets share all shape logic with :mod:`repro.nn.functional`:

* :class:`FieldKernels` — the masked path: every op is a bilinear form over
  ``F_p`` computed with overflow-safe chunked reduction.  These are the only
  operations DarKnight ever offloads on private data.  A forward op's
  weights are public and small once centre-lifted, so it runs as one
  float64 GEMM against that lift whenever the exactness bound allows
  (:func:`repro.fieldmath.field_matmul_public`), and on the limb tiers
  otherwise.  A kernel set owns its field-op backend — each
  :class:`~repro.gpu.GpuCluster` builds one, so its workspace is never
  the enclave's or another cluster's.
* :class:`FloatKernels` — the raw float path used by the non-private GPU
  baseline and by gradient-of-loss ops that the paper offloads unencoded
  (``δ`` back-propagation carries no input information).

Field share tensors carry a leading share axis ``S``: slice ``j`` is the one
masked share device ``j`` holds, and every kernel computes all ``S`` slices
with a single (stacked or batched) field GEMM.  ``S = 1`` is the
single-device case; slices never mix, so the stack is a property of the
simulator, not of the protocol.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.fieldmath import (
    LimbBackend,
    PrimeField,
    PublicOperand,
    field_matmul,
    field_matmul_public,
    field_matmul_stacked,
)
from repro.nn import functional as F


class FieldKernels:
    """Bilinear ops over ``F_p`` on stacks of shares.

    Every method takes share tensors with a leading share axis and returns
    a result with the same leading axis; slice ``j`` of the output depends
    only on slice ``j`` of the share operands (and the public operands).

    Parameters
    ----------
    field:
        The prime field shares live in.
    backend:
        The field-op backend object every op runs on
        (:mod:`repro.fieldmath.kernels`); ``None`` builds this kernel set
        its own :class:`~repro.fieldmath.LimbBackend`.  Pass
        ``GenericBackend()`` for the oracle.
    """

    def __init__(self, field: PrimeField, backend=None) -> None:
        backend = LimbBackend() if backend is None else backend
        self.field = field
        self.backend = backend
        self._matmul = lambda a, b: field_matmul(field, a, b, backend=backend)
        self._matmul_stacked = lambda a, b: field_matmul_stacked(
            field, a, b, backend=backend
        )

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Plain field matrix product."""
        return self._matmul(a, b)

    def dense(
        self, x: np.ndarray, w: np.ndarray, public: PublicOperand | None = None
    ) -> np.ndarray:
        """``x @ w`` for share rows ``x`` of shape ``(S, in_features)``.

        ``public`` is ``PublicOperand.lift`` of ``w``, for a caller that
        keeps it across launches; the share rows are converted straight
        into the GEMM's float64 operand when its bound allows one GEMM.
        """
        public = PublicOperand.lift(self.field, w) if public is None else public
        out = field_matmul_public(
            self.field, public, x.shape, lambda rows: np.copyto(rows, x),
            public_left=False, backend=self.backend,
        )
        return self._matmul(x, w) if out is None else out

    def dense_grad_w(self, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Outer products ``x[j] ⊗ delta[j]`` — the dense ``<δ, x>`` bilinear.

        ``(S, in) , (S, out) -> (S, in, out)`` as one batched GEMM.
        """
        return self._matmul_stacked(x[:, :, None], delta[:, None, :])

    def conv2d(
        self,
        x: np.ndarray,
        w: np.ndarray,
        stride: int = 1,
        pad: int = 0,
        public: PublicOperand | None = None,
    ) -> np.ndarray:
        """Convolution of shares ``(S, C, H, W)`` with weights ``(F, C, KH, KW)``.

        Within the bound, one GEMM of the weights' centred lift (``public``
        as in :meth:`dense`) per block of shares
        (:func:`~repro.nn.functional.unfold_blocks`: every share while
        their unfold fits ``UNFOLD_BLOCK_BYTES``) against the block's
        patches, padded and unfolded straight into float64 with the share
        axis innermost (the layout in which the unfold moves long runs),
        the product cast into the block's rows of one ``(S, F, OH, OW)``
        output; otherwise ``W_flat @ [cols_0|…|cols_{B-1}]`` limb-tier
        GEMMs, blocked the same way.  Either way the public weights are
        prepared once for the whole stack, not once per share or block.
        """
        public = PublicOperand.lift(self.field, w) if public is None else public
        n, c, h, width = x.shape
        f, _, kh, kw = w.shape
        if w.shape[1] != c:
            raise ConfigurationError(f"channel mismatch: input {c}, weight {w.shape[1]}")
        oh = F.conv_output_size(h, kh, stride, pad)
        ow = F.conv_output_size(width, kw, stride, pad)
        out = np.empty((n, f, oh, ow), dtype=np.int64)
        for rows in F.unfold_blocks(n, c * kh * kw * oh * ow * 8):  # float64 unfold
            block = x[rows]
            b = len(block)
            done = field_matmul_public(
                self.field,
                public,
                (c * kh * kw, oh * ow * b),
                lambda cols, staging: F.im2col_batch_last_into(
                    block, kh, kw, stride, pad, cols, staging
                ),
                scratch_shapes=((c, h + 2 * pad, width + 2 * pad, b),),
                into=out[rows].reshape(b, f, oh * ow).transpose(1, 2, 0),
                backend=self.backend,
            )
            if done is None:  # the bound reads k, p and W alone: the first block decides
                return F.conv2d_via_matmul(x, w, self._matmul, stride, pad)
        return out

    def conv2d_grad_w(
        self,
        x: np.ndarray,
        delta: np.ndarray,
        kh: int,
        kw: int,
        stride: int = 1,
        pad: int = 0,
    ) -> np.ndarray:
        """``<δ[j], x[j]>`` for conv weights per share; ``(S, F, C, KH, KW)``,
        unfolded by the block of shares
        (:func:`~repro.nn.functional.conv2d_grad_w_per_sample`)."""
        return F.conv2d_grad_w_per_sample(
            x, delta, kh, kw, self._matmul_stacked, stride, pad
        )

    def scale_accumulate(self, tensors: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``out[j] = Σ_i rows[j, i]·tensors[i]`` (the ``Σ β·δ`` combine).

        ``rows`` is ``(S, K)`` — one row of ``B`` per share — against
        ``tensors`` of shape ``(K, ...)``; one ``rows @ tensors_flat`` GEMM.
        Both may carry a leading stack axis (``(V, S, K)`` against
        ``(V, K, ...)``): virtual batch ``v`` combines its own gradients
        under its own rows, all in one stacked GEMM.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lead, (n_rows, k) = rows.shape[:-2], rows.shape[-2:]
        feature_shape = tensors.shape[len(lead) + 1 :]
        combined = self._matmul_stacked(
            rows.reshape(-1, n_rows, k),
            np.asarray(tensors, dtype=np.int64).reshape(rows.size // (n_rows * k), k, -1),
        )
        return combined.reshape(lead + (n_rows,) + feature_shape)


class FloatKernels:
    """Float64 versions of the same operators (non-private path)."""

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Plain float matrix product."""
        return np.matmul(a, b)

    @staticmethod
    def conv2d_grad_x(w, delta, x_shape, stride: int = 1, pad: int = 0) -> np.ndarray:
        """Batched input-gradient (the unencoded ``δ`` propagation offload)."""
        return F.conv2d_grad_x(w, delta, x_shape, np.matmul, stride, pad)
