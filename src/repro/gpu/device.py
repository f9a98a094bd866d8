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
        self.record_lineup((self,), op_name, macs, bytes_out, count)

    @staticmethod
    def record_lineup(
        ledgers, op_name: str, macs: int, bytes_out: int, count: int = 1
    ) -> None:
        """:meth:`record` into every ledger of a launch's line-up, in one pass."""
        for ledger in ledgers:
            ledger.kernel_calls += count
            ledger.mac_ops += count * macs
            ledger.bytes_sent += count * bytes_out
            ledger.ops_by_name[op_name] = ledger.ops_by_name.get(op_name, 0) + count


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
    @staticmethod
    def reserve_lineup(devices, not_before: float, duration: float) -> tuple[float, float]:
        """Occupy every device of a launch's line-up for ``duration``
        simulated seconds, booked in one pass.

        A device runs one share's kernel at a time: its reservation starts
        when both the dispatch (``not_before``) and the device's previous
        kernel allow, serializing virtual batches that land on the same GPU.
        Returns ``(first start, last end)`` over the line-up (a device's own
        ``(start, end)`` for a line-up of one).
        """
        if duration < 0:
            raise GpuError(f"kernel duration must be >= 0, got {duration}")
        first, last = float("inf"), float("-inf")
        for device in devices:
            start = device.free_at if device.free_at > not_before else not_before
            end = device.free_at = start + duration
            device.busy_time += duration
            if start < first:
                first = start
            if end > last:
                last = end
        return first, last

    # ------------------------------------------------------------------
    # masked kernel outputs
    # ------------------------------------------------------------------
    @property
    def faults(self) -> FaultInjector:
        """This device's adversarial behaviour.  Assigning an injector also
        settles :attr:`honest`: whether it is the honest base class itself,
        which hands every output back untouched, so a launch books the
        device's slices in one ledger entry instead of walking them through
        :meth:`emit`.  Any subclass, however it behaves, is walked."""
        return self._faults

    @faults.setter
    def faults(self, injector: FaultInjector) -> None:
        self._faults = injector
        self.honest = type(injector) is FaultInjector

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
