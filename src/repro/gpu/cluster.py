"""Multi-GPU dispatch: one share per device, one launch per op.

The cluster is deliberately thin — DarKnight's orchestration logic lives in
:mod:`repro.runtime`.  Devices own storage, fault injectors and ledgers;
the cluster owns the device pool, enforces the "each GPU receives at most
one encoded data" rule, and owns the *launch*: the ``K'`` GPUs run the same
bilinear kernel on their own share in parallel (paper §3.1), and a training
batch's ``V`` virtual batches are independent of one another, so the
simulator executes one op of a layer step as one stacked field GEMM over
all ``V·K'`` resident shares and then accounts it device by device: an
honest device's slices as one ledger entry, a fault-injecting device's one
by one through its injector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, GpuError
from repro.fieldmath import PrimeField, PublicOperand
from repro.gpu.device import GpuLedger, SimulatedGpu
from repro.gpu.faults import HONEST, FaultInjector
from repro.gpu.kernels import FieldKernels


@dataclass(slots=True)
class ShareLaunch:
    """One bilinear op on the share every line-up device holds under ``share_key``.

    A *forward* launch names the public weights (``weight_name``): device
    ``j`` returns ``x̄(j) · W``.  A *backward* launch carries the quantized
    gradients instead (``deltas`` of shape ``(K, ...)`` plus ``b_rows``, the
    public ``B`` row for each line-up position): device ``j`` first combines
    ``δ̄(j) = Σ_i b_rows[j, i]·δ(i)`` and then returns ``Eq_j = <δ̄(j), x̄(j)>``.

    A tuple of ``V`` share keys launches a layer step's whole stack of
    virtual batches at once: every tensor then carries a leading ``V`` axis
    (outputs too), and ``b_rows`` is ``(V, S, R, K)`` — for each virtual
    batch and line-up position the ``R`` public ``B`` rows that device
    combines under (its primary row, then any verification alternates),
    which share the one pass over its resident share; equations come back
    as ``(V, S, R, ...)``.  A single key is the ``V = 1``, ``R = 1`` stack
    without those axes.
    """

    kind: str  #: ``"dense"`` or ``"conv2d"``.
    share_key: str | tuple[str, ...]
    weight_name: str | None = None
    deltas: np.ndarray | None = None
    b_rows: np.ndarray | None = None
    #: Conv kernel height/width — backward only; forward reads them off the weights.
    kh: int = 0
    kw: int = 0
    stride: int = 1
    pad: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("dense", "conv2d"):
            raise GpuError(f"unknown launch kind {self.kind!r}")
        forward = self.weight_name is not None
        backward = self.deltas is not None and self.b_rows is not None
        if forward == backward:
            raise GpuError(
                "a launch is either forward (weight_name) or backward"
                " (deltas and b_rows)"
            )
        if not self.share_key:
            raise GpuError("a launch needs at least one share key")

    @property
    def stacked(self) -> bool:
        """Whether tensors carry the leading virtual-batch axis."""
        return not isinstance(self.share_key, str)


class GpuCluster:
    """A pool of ``K'`` simulated accelerators and the one way to run them.

    :meth:`scatter_shares` / :meth:`broadcast_weights` move data onto the
    devices; :meth:`map_shares` launches one op over a line-up's resident
    shares — of one virtual batch or of a layer step's whole stack (one
    stacked kernel, then per-device faults and accounting).
    ``kernels`` is the field kernel set every launch uses; it owns this
    cluster's field-op backend, shared with no other owner.

    Parameters
    ----------
    field:
        Field shared by every device's masked kernels.
    n_devices:
        ``K'`` in the paper; must cover ``K + M (+1 for integrity)``.
    fault_injectors:
        Optional per-device adversaries (maps device id -> injector).
    """

    def __init__(
        self,
        field: PrimeField,
        n_devices: int,
        fault_injectors: dict[int, FaultInjector] | None = None,
    ) -> None:
        if n_devices < 2:
            raise ConfigurationError(
                f"DarKnight needs K' > 1 accelerators, got {n_devices}"
            )
        injectors = fault_injectors or {}
        unknown = set(injectors) - set(range(n_devices))
        if unknown:
            raise ConfigurationError(f"fault injectors for unknown devices: {unknown}")
        self.field = field
        self.kernels = FieldKernels(field)
        #: Centred lifts of read-only weights, by name (see :meth:`_lifted`).
        self._lifts: dict[str, PublicOperand] = {}
        self.devices = [
            SimulatedGpu(i, field, injectors.get(i, HONEST)) for i in range(n_devices)
        ]

    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, device_id: int) -> SimulatedGpu:
        return self.devices[device_id]

    # ------------------------------------------------------------------
    # broadcast / scatter
    # ------------------------------------------------------------------
    def broadcast_weights(self, name: str, w: np.ndarray) -> None:
        """Install public quantized weights on every device, booked for the
        whole pool in one pass."""
        w = np.asarray(w)
        for device in self.devices:
            device.weights[name] = w
            device.ledger.bytes_received += w.nbytes

    def scatter_shares(self, key: str, shares: np.ndarray) -> None:
        """Send share ``j`` to device ``j`` (one share per GPU, Section 3.1),
        booked for the whole line-up in one pass."""
        shares = np.asarray(shares, dtype=np.int64)
        if shares.shape[0] > len(self.devices):
            raise GpuError(
                f"{shares.shape[0]} shares but only {len(self.devices)} devices;"
                " raise K' or lower K/M"
            )
        nbytes = int(shares[0].nbytes) if len(shares) else 0
        for device, share in zip(self.devices, shares):
            device.stored_shares[key] = share
            device.ledger.bytes_received += nbytes

    def drop_shares(self, key: str) -> None:
        """Free a stored share key on all devices."""
        for device in self.devices:
            device.stored_shares.pop(key, None)

    # ------------------------------------------------------------------
    # fan-out execution
    # ------------------------------------------------------------------
    def map_shares(
        self, launch: ShareLaunch, lineup: Sequence[int]
    ) -> tuple[np.ndarray, int]:
        """Run ``launch`` on the ``lineup`` devices.

        Returns ``(outputs, macs_per_share)``: the results stacked in
        line-up order (under the virtual-batch axis when the launch is
        stacked), and the multiply-accumulates each device was charged for
        one share of the launch.

        The only fan-out entry point.  The line-up's resident shares — of
        every virtual batch the launch names — are stacked and the kernel
        runs once for all of them; slice ``(v, j)`` is then device
        ``lineup[j]``'s: a device with a fault injector sees it through
        :meth:`SimulatedGpu.emit`, and every device's ledger totals and op
        order are those of a device that ran its own shares alone, one
        virtual batch after another.  A line-up may skip devices (recovery
        benches suspects).
        """
        devices = self._lineup(lineup)
        if not devices:
            raise GpuError("a launch needs at least one device")
        stacked = launch.stacked
        keys = launch.share_key if stacked else (launch.share_key,)
        # ``np.array`` stacks equal-shape shares as ``np.stack`` does, without
        # its per-call checks (several microseconds on a request-sized stack).
        shares = np.array([dev.stored_share(key) for key in keys for dev in devices])
        if launch.weight_name is not None:
            flat, macs = self._forward(launch, devices, shares)  # (V·S, ...)
            if stacked:
                flat = flat.reshape((len(keys), len(devices)) + flat.shape[1:])
            return flat, macs
        equations, macs = self._backward(launch, devices, shares, stacked)
        return (equations if stacked else equations[0, :, 0]), macs

    def _lineup(self, lineup: Sequence[int]) -> list[SimulatedGpu]:
        """The line-up's devices; a plain ``range`` of them is one slice."""
        if (
            isinstance(lineup, range) and lineup.step == 1
            and 0 <= lineup.start and lineup.stop <= len(self.devices)
        ):
            return self.devices[lineup.start : lineup.stop]
        return [self._device(device_id) for device_id in lineup]

    def _device(self, device_id: int) -> SimulatedGpu:
        if not 0 <= device_id < len(self.devices):
            raise GpuError(
                f"line-up names device {device_id}, cluster has {len(self.devices)}"
            )
        return self.devices[device_id]

    @staticmethod
    def _shared_weights(devices: list[SimulatedGpu], name: str) -> np.ndarray:
        """The one weight array every line-up device holds under ``name``.

        One GEMM can only use one ``W``: a line-up whose devices disagree
        is refused rather than silently computed with the first device's.
        """
        try:
            held = [dev.weights[name] for dev in devices]
        except KeyError as exc:
            raise GpuError(f"a line-up device holds no weights {name!r}") from exc
        w = held[0]
        for other in held:
            if other is not w and not np.array_equal(other, w):
                raise GpuError(
                    f"line-up devices hold different weights under {name!r};"
                    " broadcast_weights installs one array on every device"
                )
        return w

    def _lifted(self, name: str, w: np.ndarray) -> PublicOperand:
        """The centred lift of the weights a forward launch runs against.

        Kept per name while the array stays the same read-only one — a
        deployment's staged weights are, and are re-broadcast window after
        window — so it is lifted once; a writable array could have changed
        since its last launch and is lifted on every one.
        """
        kept = self._lifts.get(name)
        if kept is not None and kept.values is w:
            return kept
        public = PublicOperand.lift(self.field, w)
        base = w.base
        if not w.flags.writeable and (
            base is None or (isinstance(base, np.ndarray) and not base.flags.writeable)
        ):
            self._lifts[name] = public
        return public

    @staticmethod
    def _emit_each(
        devices: list[SimulatedGpu],
        op_name: str,
        flat: np.ndarray,
        macs: int,
        n_rows: int = 1,
    ) -> np.ndarray:
        """Account every slice of a kernel's output to its device; keep
        whatever a device with a fault injector emits instead.  ``flat`` is
        ``(V·S·R, ...)``: virtual batch outermost, then line-up position,
        then that device's ``R`` rows.

        An honest device takes its ``V·R`` slices as one ledger entry.  The
        others are walked through :meth:`SimulatedGpu.emit` slice by slice,
        in ``flat`` order (so injectors shared between devices see the
        order of the per-slice walk).
        """
        n_devices = len(devices)
        n_batches = len(flat) // (n_devices * n_rows)
        booked, walked = [], []
        for position, device in enumerate(devices):
            if device.honest:
                booked.append(device.ledger)
            else:
                walked.append(position)
        GpuLedger.record_lineup(booked, op_name, macs, int(flat[0].nbytes), n_batches * n_rows)
        for v in range(n_batches):
            for position in walked:
                first = (v * n_devices + position) * n_rows
                for i in range(first, first + n_rows):
                    honest = flat[i]
                    emitted = devices[position].emit(op_name, honest, macs)
                    if emitted is not honest:
                        flat[i] = emitted
        return flat

    def _forward(self, launch, devices, shares) -> tuple[np.ndarray, int]:
        """``(V·S, ...)`` forward outputs of the ``(V·S, ...)`` share stack."""
        w = self._shared_weights(devices, launch.weight_name)
        public = self._lifted(launch.weight_name, w)
        if launch.kind == "conv2d":
            out = self.kernels.conv2d(shares, w, launch.stride, launch.pad, public)
            macs = int(out[0].size) * int(w.shape[1] * w.shape[2] * w.shape[3])
        else:
            out = self.kernels.dense(shares, w, public)
            macs = int(shares[0].size) * int(w.shape[1])
        return self._emit_each(devices, f"{launch.kind}_forward", out, macs), macs

    def _backward(self, launch, devices, shares, stacked) -> tuple[np.ndarray, int]:
        """``(V, S, R, ...)`` equations of the ``(V·S, ...)`` share stack.

        The ``R`` rows a device combines under ride through its conv ``Eq``
        kernel as extra left-operand rows (more "output channels"), so the
        unfolded share — the expensive operand — is built and read once.
        """
        deltas = np.asarray(launch.deltas)
        b_rows = np.asarray(launch.b_rows)
        if not stacked:
            deltas, b_rows = deltas[None], b_rows[None, :, None, :]
        n_batches, n_devices = deltas.shape[0], len(devices)
        if b_rows.shape[1] < n_devices:
            raise GpuError(f"need {n_devices} B rows, got {b_rows.shape[1]}")
        n_rows = b_rows.shape[2]
        grad_shape = deltas.shape[2:]
        combined = self.kernels.scale_accumulate(
            deltas, b_rows[:, :n_devices].reshape(n_batches, n_devices * n_rows, -1)
        ).reshape((-1,) + grad_shape)  # (V·S·R, ...)
        # What a device feeds its Eq kernel is what it *emitted* as δ̄(j):
        # a tampered combine propagates, exactly as on a lone device.
        combine_macs = int(deltas[0].size)
        combined = self._emit_each(devices, "combine_deltas", combined, combine_macs, n_rows)
        if launch.kind == "conv2d":
            out = self.kernels.conv2d_grad_w(
                shares,
                combined.reshape((len(shares), n_rows * grad_shape[0]) + grad_shape[1:]),
                launch.kh, launch.kw, launch.stride, launch.pad,
            )
            out = out.reshape((-1, grad_shape[0]) + out.shape[2:])  # (V·S·R, F, C, KH, KW)
            macs = int(combined[0].size) * int(launch.kh * launch.kw * shares.shape[1])
            op_name = "backward_equation_conv"
        else:
            # A dense share is one row, cheap to repeat; its outer products
            # then come out row by row, already in (V·S·R, in, out) order.
            out = self.kernels.dense_grad_w(np.repeat(shares, n_rows, axis=0), combined)
            macs = int(shares[0].size) * int(combined[0].size)
            op_name = "backward_equation_dense"
        out = self._emit_each(devices, op_name, out, macs, n_rows)
        return (
            out.reshape((n_batches, n_devices, n_rows) + out.shape[1:]),
            combine_macs + macs,
        )

    # ------------------------------------------------------------------
    # simulated completion model
    # ------------------------------------------------------------------
    def reserve_shares(
        self, n_shares: int, duration: float, not_before: float = 0.0
    ) -> tuple[float, float]:
        """Occupy devices ``0..n_shares-1`` for one dispatched virtual batch.

        Share ``j`` runs on device ``j`` for ``duration`` simulated seconds;
        a device still busy with an earlier batch's share delays its start.
        Returns ``(first_start, ready_at)`` where ``ready_at`` is when the
        *last* share completes — the gather/decode stage waits for it.
        """
        if n_shares > len(self.devices):
            raise GpuError(
                f"need {n_shares} devices, cluster has {len(self.devices)}"
            )
        return SimulatedGpu.reserve_lineup(self.devices[:n_shares], not_before, duration)

    def max_busy_time(self) -> float:
        """Busiest single device's simulated compute seconds."""
        return max(d.busy_time for d in self.devices)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def total_mac_ops(self) -> int:
        """Sum of multiply-accumulate ops across devices."""
        return sum(d.ledger.mac_ops for d in self.devices)

    def total_bytes_moved(self) -> int:
        """Bytes received + sent across all devices."""
        return sum(d.ledger.bytes_received + d.ledger.bytes_sent for d in self.devices)
