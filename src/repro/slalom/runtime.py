"""Slalom inference backend: blinded offload with optional Freivalds checks.

Implements the :class:`~repro.nn.backends.LinearBackend` forward surface so
the same model code that runs under DarKnight runs under Slalom — and the
backward surface raises, reproducing the paper's Section 7.2 argument that
precomputed blinding cannot follow weight updates.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.comm import LinkModel
from repro.enclave import Enclave
from repro.errors import IntegrityError
from repro.gpu import GpuCluster
from repro.nn import functional as F
from repro.quantization import DynamicNormalizer, QuantizationConfig
from repro.slalom.blinding import BlindingStore
from repro.slalom.freivalds import freivalds_check


class SlalomTrainingError(NotImplementedError):
    """Raised when a training op hits the Slalom backend."""

    def __init__(self, op: str) -> None:
        super().__init__(
            f"Slalom cannot compute {op}: its unblinding factors W·r are"
            " precomputed offline, and training updates W after every batch"
            " (paper Section 7.2). Use DarKnightBackend for training."
        )


class SlalomBackend:
    """Blinded-inference backend (one GPU, per-sample one-time pads).

    Parameters
    ----------
    enclave / cluster / link:
        Simulation substrates (created on demand).
    integrity:
        Verify every GPU result with Freivalds' algorithm
        (the Slalom+Integrity bars of Fig. 6a).
    fractional_bits:
        Fixed-point precision (Slalom also uses ~8-bit fixed point).
    pool_size:
        Blinding pairs precomputed per layer whenever the pool runs dry.
    """

    def __init__(
        self,
        enclave: Enclave | None = None,
        cluster: GpuCluster | None = None,
        link: LinkModel | None = None,
        integrity: bool = False,
        fractional_bits: int = 8,
        pool_size: int = 32,
    ) -> None:
        self.enclave = enclave or Enclave(code_identity="slalom-enclave-v1", seed=0)
        self.field = self.enclave.field
        self.cluster = cluster or GpuCluster(self.field, 2)
        self.link = link or LinkModel()
        self.integrity = integrity
        self.pool_size = pool_size
        self.quantizer = QuantizationConfig(fractional_bits=fractional_bits, field=self.field)
        self.store = BlindingStore(self.enclave)
        self._normalizer = DynamicNormalizer()
        self._weight_versions: dict[str, int] = {}
        self._weight_prints: dict[str, bytes] = {}

    # ------------------------------------------------------------------
    # weight versioning — the mechanism that forbids training
    # ------------------------------------------------------------------
    def _weight_version(self, key: str, w: np.ndarray) -> int:
        print_ = hashlib.blake2b(np.ascontiguousarray(w).tobytes(), digest_size=16).digest()
        if self._weight_prints.get(key) != print_:
            self._weight_prints[key] = print_
            self._weight_versions[key] = self._weight_versions.get(key, -1) + 1
        return self._weight_versions[key]

    # ------------------------------------------------------------------
    # forward ops
    # ------------------------------------------------------------------
    def _blinded_linear(
        self,
        x: np.ndarray,
        w: np.ndarray,
        key: str,
        field_op,
        macs_per_sample: int,
        verify,
    ) -> np.ndarray:
        """Shared blinded path: per-sample blind -> GPU -> unblind."""
        x_scaled, x_norm = self._normalizer.normalize(x)
        w_scaled, w_norm = self._normalizer.normalize(w)
        w_q = self.quantizer.quantize(w_scaled)
        version = self._weight_version(key, w)
        if self.store.pool_version(key) not in (None, version):
            # Weights changed since the pool was built: every precomputed
            # W·r is stale. A fresh *offline* phase can rebuild it — which
            # is exactly what a training loop cannot afford per step.
            self.store.invalidate(key)
        sample_shape = tuple(x.shape[1:])
        needed = x.shape[0] - self.store.pairs_available(key)
        if needed > 0:
            self.store.precompute(
                key,
                max(needed, self.pool_size),
                sample_shape,
                lambda r: field_op(r, w_q),
                macs_per_op=macs_per_sample,
                weight_version=version,
            )
        outputs = []
        device = self.cluster[0]
        for i in range(x.shape[0]):
            x_q = self.quantizer.quantize(x_scaled[i])
            pair = self.store.next_pair(key, weight_version=version)
            blinded = self.store.blind(x_q, pair)
            self.link.transfer("enclave", "gpu0", int(blinded.nbytes))
            y_blinded = field_op(blinded, w_q)
            device.ledger.record(f"slalom:{key}", macs_per_sample, int(y_blinded.nbytes))
            self.link.transfer("gpu0", "enclave", int(y_blinded.nbytes))
            if self.integrity and not verify(w_q, blinded, y_blinded):
                raise IntegrityError(
                    f"Freivalds check failed for layer {key!r} sample {i}"
                )
            y_q = self.store.unblind(y_blinded, pair)
            outputs.append(self.quantizer.dequantize_product(y_q))
        out = np.stack(outputs) * (x_norm.factor * w_norm.factor)
        return out

    def conv2d_forward(self, x, w, b, stride, pad, key):
        """Blinded convolution, one sample per blinding pair."""
        kh, kw = w.shape[2], w.shape[3]
        out_c = w.shape[0]

        def field_op(sample, w_q):
            return self.cluster.kernels.conv2d(sample[None], w_q, stride, pad)[0]

        def verify(w_q, blinded, y_blinded):
            cols = F.im2col(blinded[None], kh, kw, stride, pad)[0]
            w_flat = w_q.reshape(out_c, -1)
            y_flat = y_blinded.reshape(out_c, -1)
            return freivalds_check(self.field, w_flat, cols, y_flat, self.enclave.rng)

        macs = None
        oh = F.conv_output_size(x.shape[2], kh, stride, pad)
        ow = F.conv_output_size(x.shape[3], kw, stride, pad)
        macs = oh * ow * out_c * x.shape[1] * kh * kw
        out = self._blinded_linear(x, w, key, field_op, macs, verify)
        if b is not None:
            out = out + b.reshape(1, -1, 1, 1)
        return out

    def dense_forward(self, x, w, b, key):
        """Blinded dense layer."""

        def field_op(sample, w_q):
            return self.cluster.kernels.dense(sample[None], w_q)[0]

        def verify(w_q, blinded, y_blinded):
            return freivalds_check(
                self.field,
                w_q.T,
                blinded.reshape(-1, 1),
                y_blinded.reshape(-1, 1),
                self.enclave.rng,
            )

        macs = int(w.shape[0]) * int(w.shape[1])
        out = self._blinded_linear(x, w, key, field_op, macs, verify)
        if b is not None:
            out = out + b
        return out

    # ------------------------------------------------------------------
    # training ops — impossible by design
    # ------------------------------------------------------------------
    def conv2d_grad_w(self, x, delta, kh, kw, stride, pad, key):
        raise SlalomTrainingError("conv2d_grad_w")

    def conv2d_grad_x(self, w, delta, x_shape, stride, pad, key):
        raise SlalomTrainingError("conv2d_grad_x")

    def dense_grad_w(self, x, delta, key):
        raise SlalomTrainingError("dense_grad_w")

    def dense_grad_x(self, w, delta, key):
        raise SlalomTrainingError("dense_grad_x")

    def end_batch(self) -> None:
        """Blinding pairs are one-time; nothing else to clear."""
