"""The linear-operation seam between layers and execution substrates.

DarKnight's whole design is a statement about *where* each operator runs:
bilinear ops (conv/dense forward, weight gradients) go to untrusted GPUs on
masked data, ``δ``-propagation goes to GPUs unmasked, everything non-linear
stays in the TEE.  Layers therefore never call numpy directly for these ops —
they call a :class:`LinearBackend`, and swapping the backend swaps the
execution model without touching model code:

* :class:`PlainBackend` — float numpy, used for raw training and as the
  numerical reference;
* :class:`repro.runtime.darknight.DarKnightBackend` — the masked TEE+GPU
  path;
* :class:`repro.slalom.runtime.SlalomBackend` — additive-blinding inference.

The ``key`` argument identifies the layer invocation so stateful backends
can pair a forward encoding with its backward reuse (Section 6's "Encoded
Data Storage During Forward Pass").
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.nn import functional as F


class LinearBackend(Protocol):
    """What a layer needs from its execution substrate."""

    def conv2d_forward(
        self, x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
        stride: int, pad: int, key: str,
    ) -> np.ndarray:
        """Batched convolution ``(N,C,H,W) -> (N,F,OH,OW)`` plus bias."""
        ...

    def conv2d_grad_w(
        self, x: np.ndarray, delta: np.ndarray, kh: int, kw: int,
        stride: int, pad: int, key: str,
    ) -> np.ndarray:
        """Batch-aggregated conv weight gradient ``Σ_i <δ(i), x(i)>``."""
        ...

    def conv2d_grad_x(
        self, w: np.ndarray, delta: np.ndarray, x_shape: tuple,
        stride: int, pad: int, key: str,
    ) -> np.ndarray:
        """Input gradient (unmasked offload: carries no private data)."""
        ...

    def dense_forward(
        self, x: np.ndarray, w: np.ndarray, b: np.ndarray | None, key: str
    ) -> np.ndarray:
        """Batched dense layer ``(N, in) @ (in, out) + b``."""
        ...

    def dense_grad_w(self, x: np.ndarray, delta: np.ndarray, key: str) -> np.ndarray:
        """Batch-aggregated dense weight gradient ``x^T @ δ``."""
        ...

    def dense_grad_x(self, w: np.ndarray, delta: np.ndarray, key: str) -> np.ndarray:
        """Input gradient ``δ @ w^T``."""
        ...

    def end_batch(self) -> None:
        """Forget per-batch state (stored encodings); call between steps."""
        ...


class StagedLinearBackend(LinearBackend, Protocol):
    """A backend whose forward linear ops are explicitly schedulable.

    The blocking :class:`LinearBackend` calls hide DarKnight's three-phase
    structure; a staged backend exposes each phase as a first-class op so a
    pipeline scheduler (:class:`repro.pipeline.PipelineExecutor`) can
    interleave them across virtual batches — encode batch ``n+1`` in the
    enclave while batch ``n``'s shares run on the GPUs.  The blocking calls
    remain available and MUST be bit-identical to driving the stages
    back-to-back (``pipeline_depth=1``).

    The ``vb``/ticket/future types are duck-typed here to keep the layer
    package free of pipeline imports; the canonical implementations live in
    :mod:`repro.pipeline.stages`.
    """

    def stage_linear(
        self, kind: str, w: np.ndarray, b: np.ndarray | None, key: str,
        stride: int = 1, pad: int = 0,
    ):
        """Per-layer, per-window preparation: weights quantized (an
        implementation may keep the encoding while the weights read the
        same) and broadcast, kernel picked.  Inference only."""
        ...

    def encode(self, op, vb, vb_index: int):
        """Mask one virtual batch and scatter shares; returns a ticket."""
        ...

    def dispatch(self, ticket):
        """Run the bilinear kernel per share; returns a GPU future."""
        ...

    def decode(self, future) -> np.ndarray:
        """Gather/verify/unmask a completed future; real rows only."""
        ...


class PlainBackend:
    """Reference float backend: everything runs locally in float64."""

    def conv2d_forward(self, x, w, b, stride, pad, key):
        out = F.conv2d_via_matmul(x, w, np.matmul, stride, pad)
        if b is not None:
            out = out + b.reshape(1, -1, 1, 1)
        return out

    def conv2d_grad_w(self, x, delta, kh, kw, stride, pad, key):
        return F.conv2d_grad_w(x, delta, kh, kw, np.matmul, stride, pad)

    def conv2d_grad_x(self, w, delta, x_shape, stride, pad, key):
        return F.conv2d_grad_x(w, delta, x_shape, np.matmul, stride, pad)

    def dense_forward(self, x, w, b, key):
        out = x @ w
        if b is not None:
            out = out + b
        return out

    def dense_grad_w(self, x, delta, key):
        return x.T @ delta

    def dense_grad_x(self, w, delta, key):
        return delta @ w.T

    def end_batch(self) -> None:
        """Stateless backend: nothing to clear."""
