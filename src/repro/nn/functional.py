"""Dtype-agnostic tensor kernels shared by the float and field paths.

Every linear operator DarKnight offloads (conv, dense, and their gradients)
is expressed here through an injected ``matmul`` callable so the exact same
shape logic backs:

* the float reference path (``np.matmul``) used by plain training and the
  SGX-only baseline, and
* the field path (:func:`repro.fieldmath.field_matmul`) executed by the
  simulated GPUs on masked shares.

Layout conventions: activations are ``(N, C, H, W)``, conv weights are
``(F, C, KH, KW)``, dense weights are ``(in_features, out_features)``.

A convolution's unfolded patches are the largest temporary it makes —
``C*KH*KW`` times its input — so every per-sample convolution kernel walks
its sample (or share) axis in blocks of whole samples whose unfold fits
:data:`UNFOLD_BLOCK_BYTES` (:func:`unfold_blocks`), each block's product
written into its rows of one output (:func:`by_blocks`).  A batch that fits
is one block.  An inference-mode :meth:`~repro.nn.network.Sequential.forward`
walks its whole plan by the same blocks and budget.
Samples never mix, so a field kernel is exact block by block and a float
one computes each element from the same terms.  Not bounded: the
batch-summing weight gradients (:func:`conv2d_grad_w`,
:func:`depthwise_conv2d_grad_w`), whose one contraction over every sample
a split would reorder; the input and output themselves; and the weights.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Largest unfold, in bytes, one block of a per-sample convolution kernel
#: makes (a single sample larger than this is a block of its own).
UNFOLD_BLOCK_BYTES = 4 << 20

#: Added to a picked probability before its log, so a zero costs a finite loss.
LOG_EPS = 1e-12

# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ConfigurationError(
            f"convolution collapses: input {size}, kernel {kernel}, stride"
            f" {stride}, pad {pad}"
        )
    return out


def unfold_blocks(n: int, sample_bytes: int) -> list[slice]:
    """``range(n)`` in consecutive blocks of whole samples, each as many as
    fit :data:`UNFOLD_BLOCK_BYTES` at ``sample_bytes`` of unfold per sample
    (at least one; the last block takes what is left; an empty batch is one
    empty block)."""
    per_block = max(1, UNFOLD_BLOCK_BYTES // max(1, sample_bytes))
    return [slice(start, min(start + per_block, n)) for start in range(0, max(n, 1), per_block)]


def by_blocks(blocks: list[slice], block_result):
    """``block_result(rows)`` for every block of ``blocks`` (consecutive,
    from 0), stacked along the sample axis: one block's result is returned
    as it is; several are written into their rows of one output."""
    if len(blocks) == 1:
        return block_result(blocks[0])
    out = None
    for rows in blocks:
        part = block_result(rows)
        if out is None:
            out = np.empty((blocks[-1].stop,) + part.shape[1:], dtype=part.dtype)
        out[rows] = part
    return out


def _patch_windows(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Every receptive field of ``(N, C, H, W)`` as a read-only strided
    ``(N, C, KH, KW, OH, OW)`` view (of a zero-padded copy when ``pad > 0``).

    Preserves dtype, so it serves int64 field tensors and float tensors
    alike.  Padding uses zeros, which is the field's zero too.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        # One zero buffer + one slice assignment: np.pad's generic
        # machinery costs more than the copy on these small tensors.
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x = padded
    strides = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(
            strides[0],
            strides[1],
            strides[2],
            strides[3],
            strides[2] * stride,
            strides[3] * stride,
        ),
        writeable=False,
    )


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into ``(N, C*KH*KW, OH*OW)`` patches (dtype
    preserved; one copy out of the strided window view)."""
    windows = _patch_windows(x, kh, kw, stride, pad)
    n, c, _, _, oh, ow = windows.shape
    return windows.reshape(n, c * kh * kw, oh * ow)


def im2col_batch_last_into(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out: np.ndarray,
    staging: np.ndarray,
) -> np.ndarray:
    """The patches of ``(N, C, H, W)`` laid out batch-innermost —
    ``out[(c, i, j), (oh, ow, n)] = x[n, c, oh*stride + i - pad, ...]`` — in
    a ``(C*KH*KW, OH*OW*N)`` array of any dtype (the copy converts).

    ``x`` is first staged, zero-padded, in ``staging`` — C-contiguous
    ``(C, H + 2*pad, W + 2*pad, N)`` of ``out``'s dtype — where one window
    row of every sample is a single run of ``OW*N`` elements at stride 1,
    so the unfolding copy moves runs that long instead of ``OW``-element
    ones: the unfold costs what it costs to move the bytes, not a loop
    iteration per window row.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        staging.fill(0)
    staging[:, pad : pad + h, pad : pad + w, :] = x.transpose(1, 2, 3, 0)
    s_c, s_h, s_w, s_n = staging.strides
    windows = np.ndarray(  # cheaper than as_strided; ``staging`` is contiguous
        (c, kh, kw, oh, ow, n),
        staging.dtype,
        staging,
        strides=(s_c, s_h, s_w, s_h * stride, s_w * stride, s_n),
    )
    np.copyto(out.reshape(windows.shape), windows)
    return out


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold ``(N, C*KH*KW, OH*OW)`` patches back, summing overlaps.

    The adjoint of :func:`im2col`; used for input gradients.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    reshaped = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += reshaped[:, :, i, j]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


# ----------------------------------------------------------------------
# convolution through an injected matmul
# ----------------------------------------------------------------------


def conv2d_via_matmul(x, w, matmul, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Forward convolution: ``(N,C,H,W) * (F,C,KH,KW) -> (N,F,OH,OW)``.

    Each block of samples (:func:`unfold_blocks`; the whole batch when its
    unfold fits :data:`UNFOLD_BLOCK_BYTES`) runs as *one* stacked GEMM: the
    per-sample patch matrices are laid side by side into
    ``(C*KH*KW, B*OH*OW)`` so the injected ``matmul`` (float BLAS or the
    field's limb kernels) sees a single large product instead of ``B``
    small ones.  Each output element is the same patch-dot-filter
    contraction as the per-sample form.
    """
    n, _, h, width = x.shape
    f, c, kh, kw = w.shape
    if x.shape[1] != c:
        raise ConfigurationError(f"channel mismatch: input {x.shape[1]}, weight {c}")
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(width, kw, stride, pad)
    w_flat = w.reshape(f, c * kh * kw)

    def block(rows):
        windows = _patch_windows(x[rows], kh, kw, stride, pad)
        b = windows.shape[0]
        # Patch-major straight out of the window view: one copy, not a
        # (B, P, Q) unfold followed by a transposing second one.
        stacked = windows.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, b * oh * ow)
        out = matmul(w_flat, stacked)  # (F, B*OH*OW)
        return out.reshape(f, b, oh, ow).transpose(1, 0, 2, 3)

    sample_bytes = c * kh * kw * oh * ow * x.itemsize
    return np.ascontiguousarray(by_blocks(unfold_blocks(n, sample_bytes), block))


def conv2d_grad_w(
    x, grad_out, kh: int, kw: int, matmul, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Weight gradient ``(F, C, KH, KW)`` of conv2d, summed over the batch.

    Batched: the per-sample ``g @ cols[i].T`` products *and* the batch sum
    collapse into one ``(F, N*Q) @ (N*Q, P)`` GEMM — the contraction axis
    runs over samples and positions at once.  Over the field this is
    bit-identical (exact integer arithmetic is order-independent); on
    floats it only reorders the accumulation.  Unfolds the whole batch at
    once — not bounded by :data:`UNFOLD_BLOCK_BYTES`: splitting the one
    contraction would reorder its float sums.
    """
    n, c = x.shape[0], x.shape[1]
    f = grad_out.shape[1]
    cols = im2col(x, kh, kw, stride, pad)  # (N, C*KH*KW, OH*OW)
    g = grad_out.reshape(n, f, -1).transpose(1, 0, 2).reshape(f, -1)  # (F, N*Q)
    stacked = cols.transpose(0, 2, 1).reshape(-1, c * kh * kw)  # (N*Q, C*KH*KW)
    total = matmul(g, stacked)  # (F, C*KH*KW), summed over batch and positions
    return total.reshape(f, c, kh, kw)


def conv2d_grad_w_per_sample(
    x, grad_out, kh: int, kw: int, stacked_matmul, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Weight gradients ``(N, F, C, KH, KW)`` of conv2d, one per sample.

    :func:`conv2d_grad_w` without the batch sum: sample ``i``'s
    ``g[i] @ cols[i].T`` stays its own product, and a block of ``B`` of
    them (:func:`unfold_blocks`; all ``N`` when their unfold fits) runs as
    one ``(B, F, Q) @ (B, Q, P)`` call of the injected ``stacked_matmul``.
    This is DarKnight's ``Eq_j`` for every share of a virtual batch at
    once — the shares must not be summed before decoding.
    """
    n, c = x.shape[0], x.shape[1]
    f = grad_out.shape[1]
    q = grad_out.shape[2] * grad_out.shape[3]

    def block(rows):
        cols = im2col(x[rows], kh, kw, stride, pad)  # (B, C*KH*KW, OH*OW)
        out = stacked_matmul(grad_out[rows].reshape(-1, f, q), cols.transpose(0, 2, 1))
        return out.reshape(-1, f, c, kh, kw)

    return by_blocks(unfold_blocks(n, c * kh * kw * q * x.itemsize), block)


def conv2d_grad_x(
    w, grad_out, x_shape, matmul, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Input gradient of conv2d: ``W^T``-correlation of the output gradient.

    Blocked like the forward pass: one ``(P, F) @ (F, B*Q)`` GEMM produces
    a block's patch gradients, which ``col2im`` scatters back.
    """
    n = grad_out.shape[0]
    f, c, kh, kw = w.shape
    q = grad_out.shape[2] * grad_out.shape[3]
    w_flat_t = w.reshape(f, c * kh * kw).T

    def block(rows):
        b = rows.stop - rows.start
        g = grad_out[rows].reshape(b, f, q).transpose(1, 0, 2).reshape(f, b * q)
        cols = matmul(w_flat_t, g)  # (C*KH*KW, B*Q)
        cols = cols.reshape(c * kh * kw, b, q).transpose(1, 0, 2)  # (B, C*KH*KW, Q)
        return col2im(np.ascontiguousarray(cols), (b,) + tuple(x_shape[1:]), kh, kw, stride, pad)

    sample_bytes = c * kh * kw * q * np.result_type(w, grad_out).itemsize
    return by_blocks(unfold_blocks(n, sample_bytes), block)


def depthwise_conv2d(x, w, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Depthwise convolution: ``(N,C,H,W) * (C,KH,KW) -> (N,C,OH,OW)``.

    Float-only (MobileNet's depthwise stage); kernel fan-in ``KH*KW`` is tiny
    so einsum accumulation is numerically trivial.  Unfolds by the block
    (:func:`unfold_blocks`).
    """
    n, c, h, w_in = x.shape
    cw, kh, kw = w.shape
    if cw != c:
        raise ConfigurationError(f"depthwise channel mismatch: {c} vs {cw}")
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w_in, kw, stride, pad)
    w_flat = w.reshape(c, kh * kw)

    def block(rows):
        cols = im2col(x[rows], kh, kw, stride, pad).reshape(-1, c, kh * kw, oh * ow)
        return np.einsum("nckp,ck->ncp", cols, w_flat).reshape(-1, c, oh, ow)

    return by_blocks(unfold_blocks(n, c * kh * kw * oh * ow * x.itemsize), block)


def depthwise_conv2d_grad_w(x, grad_out, kh: int, kw: int, stride: int = 1, pad: int = 0):
    """Weight gradient ``(C, KH, KW)`` of depthwise conv, summed over batch
    (whole-batch unfold, like :func:`conv2d_grad_w`)."""
    n, c = x.shape[:2]
    cols = im2col(x, kh, kw, stride, pad).reshape(n, c, kh * kw, -1)
    g = grad_out.reshape(n, c, 1, -1)
    return np.einsum("nckp,ncjp->ck", cols, g).reshape(c, kh, kw)


def depthwise_conv2d_grad_x(w, grad_out, x_shape, stride: int = 1, pad: int = 0):
    """Input gradient of depthwise conv, by the block (:func:`unfold_blocks`)."""
    n = grad_out.shape[0]
    c, kh, kw = w.shape
    q = grad_out.shape[2] * grad_out.shape[3]
    w_flat = w.reshape(c, kh * kw)

    def block(rows):
        b = rows.stop - rows.start
        cols = np.einsum("ck,ncjp->nckp", w_flat, grad_out[rows].reshape(b, c, 1, q))
        cols = cols.reshape(b, c * kh * kw, q)
        return col2im(cols, (b,) + tuple(x_shape[1:]), kh, kw, stride, pad)

    sample_bytes = c * kh * kw * q * np.result_type(w, grad_out).itemsize
    return by_blocks(unfold_blocks(n, sample_bytes), block)


# ----------------------------------------------------------------------
# non-linear operators (enclave-side in DarKnight)
# ----------------------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise max(0, x)."""
    return np.maximum(x, 0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of ReLU given the pre-activation input."""
    return grad_out * (x > 0)


def maxpool2d(x: np.ndarray, size: int = 2, stride: int | None = None):
    """Max pooling; returns ``(output, argmax_indices)`` for the backward pass."""
    stride = size if stride is None else stride
    n, c, h, w = x.shape
    oh = conv_output_size(h, size, stride, 0)
    ow = conv_output_size(w, size, stride, 0)
    cols = im2col(x.reshape(n * c, 1, h, w), size, size, stride, 0)
    cols = cols.reshape(n * c, size * size, oh * ow)
    arg = np.argmax(cols, axis=1)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    return out.reshape(n, c, oh, ow), arg.reshape(n, c, oh * ow)


def maxpool2d_grad(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape,
    size: int = 2,
    stride: int | None = None,
) -> np.ndarray:
    """Scatter pooled gradients back to the argmax positions."""
    stride = size if stride is None else stride
    n, c, h, w = x_shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    cols = np.zeros((n * c, size * size, oh * ow), dtype=grad_out.dtype)
    flat_grad = grad_out.reshape(n * c, 1, oh * ow)
    np.put_along_axis(cols, argmax.reshape(n * c, 1, oh * ow), flat_grad, axis=1)
    return col2im(
        cols.reshape(n * c, 1 * size * size, oh * ow),
        (n * c, 1, h, w),
        size,
        size,
        stride,
        0,
    ).reshape(n, c, h, w)


def avgpool2d(x: np.ndarray, size: int = 2, stride: int | None = None) -> np.ndarray:
    """Average pooling."""
    stride = size if stride is None else stride
    n, c, h, w = x.shape
    oh = conv_output_size(h, size, stride, 0)
    ow = conv_output_size(w, size, stride, 0)
    cols = im2col(x.reshape(n * c, 1, h, w), size, size, stride, 0)
    out = cols.reshape(n * c, size * size, oh * ow).mean(axis=1)
    return out.reshape(n, c, oh, ow)


def avgpool2d_grad(grad_out, x_shape, size: int = 2, stride: int | None = None):
    """Gradient of average pooling (uniform scatter)."""
    stride = size if stride is None else stride
    n, c, h, w = x_shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    cols = np.repeat(
        grad_out.reshape(n * c, 1, oh * ow) / (size * size), size * size, axis=1
    )
    return col2im(
        cols, (n * c, 1, h, w), size, size, stride, 0
    ).reshape(n, c, h, w)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilisation."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``labels`` under ``probs``."""
    n = probs.shape[0]
    picked = probs[np.arange(n), labels]
    return float(-np.mean(np.log(picked + LOG_EPS)))
