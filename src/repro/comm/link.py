"""TEE <-> GPU interconnect model.

The paper emulates communication over a 40 Gbps Infiniband switch and finds
~20% of DarKnight's training time goes to moving encoded data (Table 3).
This model converts byte counts into transfer times with a simple
``latency + bytes/bandwidth`` law and keeps running totals of what crossed
the link.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: 40 Gbps Infiniband (the paper's Section 7 setting).
INFINIBAND_40G_BYTES_PER_S = 40e9 / 8
#: Typical small-message switch latency.
INFINIBAND_LATENCY_S = 2e-6


@dataclass
class LinkModel:
    """Point-to-point link with fixed latency and bandwidth.

    Parameters
    ----------
    bandwidth_bytes_per_s:
        Sustained throughput.
    latency_s:
        Per-message latency added to every transfer.
    """

    bandwidth_bytes_per_s: float = INFINIBAND_40G_BYTES_PER_S
    latency_s: float = INFINIBAND_LATENCY_S
    #: All bytes that crossed this link.
    total_bytes: int = 0
    #: Serialised total transfer time (no overlap assumed).
    total_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ConfigurationError("latency cannot be negative")

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` across the link."""
        if nbytes < 0:
            raise ConfigurationError(f"cannot transfer {nbytes} bytes")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def transfer(self, src: str, dst: str, nbytes: int) -> float:
        """Charge one ``src -> dst`` transfer and return its modeled duration.

        The endpoints document the call site; they are not recorded (the
        model keeps totals, no log).
        """
        seconds = self.transfer_time(nbytes)
        self.total_bytes += nbytes
        self.total_seconds += seconds
        return seconds

    def transfer_many(self, count: int, nbytes: int) -> None:
        """Charge ``count`` transfers of ``nbytes`` each — a launch's shares,
        one message per device.  The totals are those of ``count``
        :meth:`transfer` calls, the float one by the same repeated addition,
        bit for bit."""
        seconds = self.transfer_time(nbytes)
        self.total_bytes += count * nbytes
        total = self.total_seconds
        for _ in range(count):
            total += seconds
        self.total_seconds = total

    def reset(self) -> None:
        """Zero the running totals."""
        self.total_bytes = 0
        self.total_seconds = 0.0
