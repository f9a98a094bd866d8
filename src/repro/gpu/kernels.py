"""Linear-operator kernels executed by the simulated accelerators.

Two kernel sets share all shape logic with :mod:`repro.nn.functional`:

* :class:`FieldKernels` — the masked path: every op is a bilinear form over
  ``F_p`` computed with overflow-safe chunked reduction.  These are the only
  operations DarKnight ever offloads on private data.
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

from repro.fieldmath import PrimeField, field_matmul, field_matmul_stacked
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
        Field-op backend name (:mod:`repro.fieldmath.kernels`): ``None``
        follows the process default (normally ``"limb"`` — float64 BLAS
        GEMMs over 13-bit limbs, bit-identical to ``"generic"``), a name
        pins this kernel set regardless of the global default.
    """

    def __init__(self, field: PrimeField, backend: str | None = None) -> None:
        self.field = field
        self.backend = backend
        self._matmul = lambda a, b: field_matmul(field, a, b, backend=backend)
        self._matmul_stacked = lambda a, b: field_matmul_stacked(
            field, a, b, backend=backend
        )

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Plain field matrix product."""
        return self._matmul(a, b)

    def dense(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``x @ w`` for share rows ``x`` of shape ``(S, in_features)``."""
        return self._matmul(x, w)

    def dense_grad_w(self, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Outer products ``x[j] ⊗ delta[j]`` — the dense ``<δ, x>`` bilinear.

        ``(S, in) , (S, out) -> (S, in, out)`` as one batched GEMM.
        """
        return self._matmul_stacked(x[:, :, None], delta[:, None, :])

    def conv2d(
        self, x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0
    ) -> np.ndarray:
        """Convolution of shares ``(S, C, H, W)`` with weights ``(F, C, KH, KW)``.

        One ``W_flat @ [cols_0|…|cols_{S-1}]`` GEMM: the public weights are
        prepared once for the whole stack, not once per share.
        """
        return F.conv2d_via_matmul(x, w, self._matmul, stride, pad)

    def conv2d_grad_w(
        self,
        x: np.ndarray,
        delta: np.ndarray,
        kh: int,
        kw: int,
        stride: int = 1,
        pad: int = 0,
    ) -> np.ndarray:
        """``<δ[j], x[j]>`` for conv weights per share; ``(S, F, C, KH, KW)``."""
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
    def dense(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Row-vector times weight matrix."""
        return x.reshape(1, -1) @ w

    @staticmethod
    def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
        """Batched float convolution."""
        return F.conv2d_via_matmul(x, w, np.matmul, stride, pad)

    @staticmethod
    def conv2d_grad_x(w, delta, x_shape, stride: int = 1, pad: int = 0) -> np.ndarray:
        """Batched input-gradient (the unencoded ``δ`` propagation offload)."""
        return F.conv2d_grad_x(w, delta, x_shape, np.matmul, stride, pad)
