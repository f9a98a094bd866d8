"""Baseline execution models the paper compares against.

* :class:`SgxOnlyBackend` — everything (linear + non-linear) inside the
  enclave.  Functionally identical to plain float; the value is the
  *accounting*: every op and activation is charged to the enclave ledger
  and EPC model, which is where the paper's two-orders-of-magnitude
  slowdown comes from (Table 4, Fig. 7).
* :class:`GpuOnlyBackend` — the non-private PyTorch-style baseline: floats
  on simulated GPUs, no masking, no privacy (Table 4's upper bound).
"""

from __future__ import annotations

import numpy as np

from repro.enclave import Enclave
from repro.gpu import GpuCluster
from repro.nn.backends import PlainBackend


class SgxOnlyBackend(PlainBackend):
    """Float execution with full enclave accounting (the paper's baseline).

    Parameters
    ----------
    enclave:
        Where ops/bytes are charged; EPC pressure from activations is
        tracked per call so the perf model can price paging.

    An inference-mode ``Sequential.forward`` calls once per block of samples
    (``nn.functional.UNFOLD_BLOCK_BYTES``), so for a batch over one block
    the EPC working set charged is one block's, not the whole batch's.
    """

    def __init__(self, enclave: Enclave | None = None) -> None:
        self.enclave = enclave or Enclave(code_identity="sgx-only-baseline")

    def _charge(self, op: str, *arrays: np.ndarray) -> None:
        nbytes = sum(int(np.asarray(a).nbytes) for a in arrays if a is not None)
        self.enclave.record_compute(op, nbytes)
        # Activations stream through protected memory; charge paging when
        # the instantaneous working set exceeds EPC.
        paged = self.enclave.epc.working_set_paging_bytes(nbytes)
        if paged:
            self.enclave.epc.stats.paged_out_bytes += paged // 2
            self.enclave.epc.stats.paged_in_bytes += paged - paged // 2
            self.enclave.epc.stats.page_faults += 1

    def conv2d_forward(self, x, w, b, stride, pad, key):
        out = super().conv2d_forward(x, w, b, stride, pad, key)
        self._charge("sgx_conv2d_forward", x, w, out)
        return out

    def conv2d_grad_w(self, x, delta, kh, kw, stride, pad, key):
        out = super().conv2d_grad_w(x, delta, kh, kw, stride, pad, key)
        self._charge("sgx_conv2d_grad_w", x, delta, out)
        return out

    def conv2d_grad_x(self, w, delta, x_shape, stride, pad, key):
        out = super().conv2d_grad_x(w, delta, x_shape, stride, pad, key)
        self._charge("sgx_conv2d_grad_x", w, delta, out)
        return out

    def dense_forward(self, x, w, b, key):
        out = super().dense_forward(x, w, b, key)
        self._charge("sgx_dense_forward", x, w, out)
        return out

    def dense_grad_w(self, x, delta, key):
        out = super().dense_grad_w(x, delta, key)
        self._charge("sgx_dense_grad_w", x, delta, out)
        return out

    def dense_grad_x(self, w, delta, key):
        out = super().dense_grad_x(w, delta, key)
        self._charge("sgx_dense_grad_x", w, delta, out)
        return out


class GpuOnlyBackend(PlainBackend):
    """Non-private floats on simulated GPUs (data-parallel over devices).

    Numerically identical to :class:`PlainBackend`; GPU ledgers record the
    work for Table 4's "unprotected 3-GPU PyTorch" comparison.
    """

    def __init__(self, cluster: GpuCluster | None = None) -> None:
        from repro.fieldmath import PrimeField

        self.cluster = cluster or GpuCluster(PrimeField(), 3)

    def _charge(self, op: str, macs: int, out: np.ndarray) -> None:
        # Work splits evenly across devices in data-parallel training.
        per_device = macs // len(self.cluster)
        for device in self.cluster.devices:
            device.ledger.record(op, per_device, int(out.nbytes) // len(self.cluster))

    def conv2d_forward(self, x, w, b, stride, pad, key):
        out = super().conv2d_forward(x, w, b, stride, pad, key)
        macs = int(out.size) * int(w.shape[1] * w.shape[2] * w.shape[3])
        self._charge("gpu_conv2d_forward", macs, out)
        return out

    def conv2d_grad_w(self, x, delta, kh, kw, stride, pad, key):
        out = super().conv2d_grad_w(x, delta, kh, kw, stride, pad, key)
        self._charge("gpu_conv2d_grad_w", int(delta.size) * kh * kw * x.shape[1], out)
        return out

    def conv2d_grad_x(self, w, delta, x_shape, stride, pad, key):
        out = super().conv2d_grad_x(w, delta, x_shape, stride, pad, key)
        self._charge("gpu_conv2d_grad_x", int(delta.size) * int(w.shape[1]), out)
        return out

    def dense_forward(self, x, w, b, key):
        out = super().dense_forward(x, w, b, key)
        self._charge("gpu_dense_forward", int(x.shape[0]) * int(w.size), out)
        return out

    def dense_grad_w(self, x, delta, key):
        out = super().dense_grad_w(x, delta, key)
        self._charge("gpu_dense_grad_w", int(x.shape[0]) * int(out.size), out)
        return out

    def dense_grad_x(self, w, delta, key):
        out = super().dense_grad_x(w, delta, key)
        self._charge("gpu_dense_grad_x", int(delta.shape[0]) * int(w.size), out)
        return out
