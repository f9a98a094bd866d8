"""Tests for the tensor kernels: conv/pool/activations vs naive references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.nn import functional as F


def _naive_conv2d(x, w, stride, pad):
    """Direct quadruple-loop convolution reference."""
    n, c, h, win = x.shape
    f, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (win + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, f, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.einsum("nchw,fchw->nf", patch, w)
    return out


@settings(max_examples=10, deadline=None)
@given(
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
    kh=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_conv2d_matches_naive(stride, pad, kh, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 7, 7))
    w = rng.normal(size=(4, 3, kh, kh))
    if (7 + 2 * pad - kh) // stride + 1 < 1:
        return
    ours = F.conv2d_via_matmul(x, w, np.matmul, stride, pad)
    naive = _naive_conv2d(x, w, stride, pad)
    assert np.allclose(ours, naive)


def test_conv_output_size_validation():
    assert F.conv_output_size(8, 3, 1, 1) == 8
    assert F.conv_output_size(8, 2, 2, 0) == 4
    with pytest.raises(ConfigurationError):
        F.conv_output_size(2, 5, 1, 0)


def test_im2col_col2im_adjoint(nprng):
    """<im2col(x), y> == <x, col2im(y)> — the adjoint property grad code relies on."""
    x = nprng.normal(size=(2, 3, 6, 6))
    cols = F.im2col(x, 3, 3, stride=1, pad=1)
    y = nprng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * F.col2im(y, x.shape, 3, 3, stride=1, pad=1)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_im2col_preserves_dtype(nprng):
    x = nprng.integers(0, 100, size=(1, 2, 5, 5)).astype(np.int64)
    cols = F.im2col(x, 3, 3)
    assert cols.dtype == np.int64


def _im2col_via_np_pad(x, kh, kw, stride, pad):
    """The np.pad form im2col used before padding by slice assignment."""
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = padded.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = padded[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ]
    return cols.reshape(n, c * kh * kw, oh * ow)


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.float32])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_padding_is_bit_identical_to_np_pad(dtype, pad, stride, nprng):
    x = nprng.integers(-50, 50, size=(2, 3, 7, 5)).astype(dtype)  # odd H != W
    cols = F.im2col(x, 3, 2, stride, pad)
    assert cols.dtype == dtype
    assert np.array_equal(cols, _im2col_via_np_pad(x, 3, 2, stride, pad))


def test_conv2d_grad_w_per_sample_is_the_unsummed_grad_w(nprng):
    """Each sample's slice equals conv2d_grad_w of that sample alone, and
    the slices sum to the batch gradient."""
    x = nprng.integers(-9, 9, size=(3, 2, 6, 5)).astype(np.int64)
    delta = nprng.integers(-9, 9, size=(3, 4, 3, 3)).astype(np.int64)
    per = F.conv2d_grad_w_per_sample(x, delta, 3, 2, np.matmul, 2, 1)
    assert per.shape == (3, 4, 2, 3, 2)
    for i in range(3):
        alone = F.conv2d_grad_w(x[i : i + 1], delta[i : i + 1], 3, 2, np.matmul, 2, 1)
        assert np.array_equal(per[i], alone)
    assert np.array_equal(per.sum(axis=0), F.conv2d_grad_w(x, delta, 3, 2, np.matmul, 2, 1))


def test_conv2d_grad_w_matches_numeric(nprng):
    x = nprng.normal(size=(2, 2, 5, 5))
    w = nprng.normal(size=(3, 2, 3, 3))
    delta = nprng.normal(size=(2, 3, 5, 5))
    grad = F.conv2d_grad_w(x, delta, 3, 3, np.matmul, 1, 1)
    eps = 1e-6
    idx = (1, 0, 2, 1)
    w_plus = w.copy(); w_plus[idx] += eps
    w_minus = w.copy(); w_minus[idx] -= eps
    num = (
        np.sum(F.conv2d_via_matmul(x, w_plus, np.matmul, 1, 1) * delta)
        - np.sum(F.conv2d_via_matmul(x, w_minus, np.matmul, 1, 1) * delta)
    ) / (2 * eps)
    assert grad[idx] == pytest.approx(num, rel=1e-5)


def test_conv2d_grad_x_matches_numeric(nprng):
    x = nprng.normal(size=(1, 2, 5, 5))
    w = nprng.normal(size=(3, 2, 3, 3))
    delta = nprng.normal(size=(1, 3, 5, 5))
    grad = F.conv2d_grad_x(w, delta, x.shape, np.matmul, 1, 1)
    eps = 1e-6
    idx = (0, 1, 2, 3)
    x_plus = x.copy(); x_plus[idx] += eps
    x_minus = x.copy(); x_minus[idx] -= eps
    num = (
        np.sum(F.conv2d_via_matmul(x_plus, w, np.matmul, 1, 1) * delta)
        - np.sum(F.conv2d_via_matmul(x_minus, w, np.matmul, 1, 1) * delta)
    ) / (2 * eps)
    assert grad[idx] == pytest.approx(num, rel=1e-5)


def test_conv_channel_mismatch(nprng):
    with pytest.raises(ConfigurationError):
        F.conv2d_via_matmul(
            nprng.normal(size=(1, 2, 5, 5)), nprng.normal(size=(3, 4, 3, 3)), np.matmul
        )


def test_depthwise_conv_matches_grouped_naive(nprng):
    x = nprng.normal(size=(2, 3, 6, 6))
    w = nprng.normal(size=(3, 3, 3))
    out = F.depthwise_conv2d(x, w, stride=1, pad=1)
    for c in range(3):
        ref = _naive_conv2d(x[:, c : c + 1], w[c][None, None], 1, 1)
        assert np.allclose(out[:, c : c + 1], ref)


def test_depthwise_grads_numeric(nprng):
    x = nprng.normal(size=(1, 2, 5, 5))
    w = nprng.normal(size=(2, 3, 3))
    delta = nprng.normal(size=(1, 2, 5, 5))
    gw = F.depthwise_conv2d_grad_w(x, delta, 3, 3, 1, 1)
    gx = F.depthwise_conv2d_grad_x(w, delta, x.shape, 1, 1)
    eps = 1e-6
    wi = (1, 0, 2)
    wp = w.copy(); wp[wi] += eps
    wm = w.copy(); wm[wi] -= eps
    num_w = (np.sum(F.depthwise_conv2d(x, wp, 1, 1) * delta)
             - np.sum(F.depthwise_conv2d(x, wm, 1, 1) * delta)) / (2 * eps)
    assert gw[wi] == pytest.approx(num_w, rel=1e-5)
    xi = (0, 1, 3, 2)
    xp = x.copy(); xp[xi] += eps
    xm = x.copy(); xm[xi] -= eps
    num_x = (np.sum(F.depthwise_conv2d(xp, w, 1, 1) * delta)
             - np.sum(F.depthwise_conv2d(xm, w, 1, 1) * delta)) / (2 * eps)
    assert gx[xi] == pytest.approx(num_x, rel=1e-5)


def test_depthwise_channel_mismatch(nprng):
    with pytest.raises(ConfigurationError):
        F.depthwise_conv2d(nprng.normal(size=(1, 2, 5, 5)), nprng.normal(size=(3, 3, 3)))


def test_relu_and_grad(nprng):
    x = np.array([-2.0, 0.0, 3.0])
    assert F.relu(x).tolist() == [0.0, 0.0, 3.0]
    g = F.relu_grad(x, np.ones(3))
    assert g.tolist() == [0.0, 0.0, 1.0]


def test_maxpool_and_grad(nprng):
    x = nprng.normal(size=(2, 3, 6, 6))
    out, argmax = F.maxpool2d(x, 2)
    assert out.shape == (2, 3, 3, 3)
    # Every pooled value is the max of its window.
    for n in range(2):
        for c in range(3):
            for i in range(3):
                for j in range(3):
                    window = x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    assert out[n, c, i, j] == window.max()
    # Gradient scatters exactly to the argmax positions.
    grad = F.maxpool2d_grad(np.ones_like(out), argmax, x.shape, 2)
    assert grad.sum() == pytest.approx(out.size)
    assert set(np.unique(grad)).issubset({0.0, 1.0})


def test_avgpool_and_grad(nprng):
    x = nprng.normal(size=(1, 2, 4, 4))
    out = F.avgpool2d(x, 2)
    assert out[0, 0, 0, 0] == pytest.approx(x[0, 0, :2, :2].mean())
    grad = F.avgpool2d_grad(np.ones_like(out), x.shape, 2)
    assert np.allclose(grad, 0.25)


def test_softmax_and_cross_entropy(nprng):
    logits = nprng.normal(size=(4, 10))
    probs = F.softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs > 0)
    labels = np.array([0, 1, 2, 3])
    ce = F.cross_entropy(probs, labels)
    assert ce > 0
    # Perfectly confident predictions give ~0 loss.
    perfect = np.eye(10)[labels]
    assert F.cross_entropy(perfect, labels) == pytest.approx(0.0, abs=1e-9)


def test_softmax_numerically_stable():
    probs = F.softmax(np.array([[1000.0, 1000.0]]))
    assert np.allclose(probs, 0.5)
