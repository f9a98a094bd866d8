"""A single simulated accelerator holding exactly one masked share.

The device owns what is *per device*: it keeps whatever share the enclave
sends it — the encoded forward activations stay resident for the backward
pass (the paper's "Encoded Data Storage During Forward Pass" optimisation
in Section 6) — counts bytes and multiply-accumulate operations for the
performance model, and routes every masked-kernel output through its fault
injector so a malicious device can be simulated without touching honest
code paths.  The masked kernels themselves run once per line-up in
:meth:`repro.gpu.GpuCluster.map_shares`, which hands a device with an
injector its slices one by one and books an honest device's in one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.errors import GpuError
from repro.fieldmath import PrimeField
from repro.gpu.faults import HONEST, FaultInjector
from repro.gpu.kernels import FloatKernels


@dataclass
class GpuLedger:
    """Operation/traffic counters for one device."""

    mac_ops: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    kernel_calls: int = 0
    ops_by_name: dict = dataclass_field(default_factory=dict)

    def record(self, op_name: str, macs: int, bytes_out: int, count: int = 1) -> None:
        """Account ``count`` kernel invocations of ``macs`` and ``bytes_out`` each."""
        self.kernel_calls += count
        self.mac_ops += count * macs
        self.bytes_sent += count * bytes_out
        self.ops_by_name[op_name] = self.ops_by_name.get(op_name, 0) + count


class SimulatedGpu:
    """One untrusted accelerator in the DarKnight cluster.

    Parameters
    ----------
    device_id:
        Index in the cluster == the share index this GPU receives.
    field:
        Prime field for masked kernels.
    fault_injector:
        Adversarial behaviour; default honest.
    """

    def __init__(
        self,
        device_id: int,
        field: PrimeField,
        fault_injector: FaultInjector = HONEST,
    ) -> None:
        self.device_id = device_id
        self.field = field
        self.float_kernels = FloatKernels()
        self.faults = fault_injector
        self.ledger = GpuLedger()
        #: Simulated clock: when this device finishes its current share.
        self.free_at = 0.0
        #: Simulated seconds this device has spent computing shares.
        self.busy_time = 0.0
        #: Weights are public in DarKnight's threat model and live on-device.
        self.weights: dict[str, np.ndarray] = {}
        #: Encoded activations kept for backward (Section 6 storage optimisation).
        self.stored_shares: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def load_weights(self, name: str, w: np.ndarray) -> None:
        """Install (public, quantized) model weights under ``name``."""
        self.weights[name] = np.asarray(w)
        self.ledger.bytes_received += self.weights[name].nbytes

    def receive_share(self, key: str, share: np.ndarray) -> None:
        """Accept one masked share from the enclave and keep it resident."""
        arr = np.asarray(share, dtype=np.int64)
        self.stored_shares[key] = arr
        self.ledger.bytes_received += arr.nbytes

    def stored_share(self, key: str) -> np.ndarray:
        """Look up a share stored during the forward pass."""
        try:
            return self.stored_shares[key]
        except KeyError as exc:
            raise GpuError(
                f"GPU {self.device_id} holds no share under key {key!r}"
            ) from exc

    def drop_share(self, key: str) -> None:
        """Free a stored share (end of a virtual batch)."""
        self.stored_shares.pop(key, None)

    # ------------------------------------------------------------------
    # simulated completion model
    # ------------------------------------------------------------------
    def reserve(self, not_before: float, duration: float) -> tuple[float, float]:
        """Occupy this device for ``duration`` simulated seconds.

        A device runs one share's kernel at a time: the reservation starts
        when both the dispatch (``not_before``) and the device's previous
        kernel allow, serializing virtual batches that land on the same GPU.
        Returns ``(start, end)``.
        """
        if duration < 0:
            raise GpuError(f"kernel duration must be >= 0, got {duration}")
        start = max(self.free_at, not_before)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        return start, end

    # ------------------------------------------------------------------
    # masked kernel outputs
    # ------------------------------------------------------------------
    @property
    def honest(self) -> bool:
        """Whether this device's injector is the honest base class itself,
        which hands every output back untouched: the launch then books the
        device's slices in one ledger entry instead of walking them through
        :meth:`emit`.  Any subclass, however it behaves, is walked."""
        return type(self.faults) is FaultInjector

    def emit(self, op_name: str, result: np.ndarray, macs: int) -> np.ndarray:
        """Release this device's result of one masked kernel.

        The math itself runs in the cluster's launch
        (:meth:`repro.gpu.GpuCluster.map_shares`) for the whole line-up at
        once; everything that makes the result *this device's* happens
        here: the fault injector sees it under ``op_name`` and the ledger
        is charged ``macs`` and the emitted bytes.
        """
        result = self.faults.corrupt(result, self.device_id, op_name)
        self.ledger.record(op_name, macs, int(np.asarray(result).nbytes))
        return result

    # ------------------------------------------------------------------
    # non-private kernels (δ propagation / GPU-only baseline)
    # ------------------------------------------------------------------
    def float_conv2d_grad_x(self, w, delta, x_shape, stride=1, pad=0) -> np.ndarray:
        """Unencoded ``δ`` propagation (carries no input data; Section 4.2)."""
        out = self.float_kernels.conv2d_grad_x(w, delta, x_shape, stride, pad)
        self.ledger.record("float_conv2d_grad_x", int(delta.size) * int(w.shape[1]), out.nbytes)
        return out

    def float_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Raw float matmul for the non-private baseline."""
        out = self.float_kernels.matmul(a, b)
        self.ledger.record("float_matmul", int(a.size) * int(b.shape[-1]), out.nbytes)
        return out
