"""TEE <-> GPU interconnect byte counter.

The paper emulates communication over a 40 Gbps Infiniband switch and finds
~20% of DarKnight's training time goes to moving encoded data (Table 3).
This model keeps the running total of bytes that crossed the link; it
prices nothing.  A run's simulated clock prices hops with
:meth:`repro.pipeline.StageCostModel.transfer_time`, and the analytical
model prices links with :class:`repro.perf.devices.LinkProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class LinkModel:
    """Point-to-point link that counts what crosses it."""

    #: All bytes that crossed this link.
    total_bytes: int = 0

    def transfer(self, src: str, dst: str, nbytes: int) -> None:
        """Count one ``src -> dst`` transfer.

        The endpoints document the call site; they are not recorded (the
        model keeps a total, no log).
        """
        self.total_bytes += _checked(nbytes)

    def transfer_many(self, count: int, nbytes: int) -> None:
        """Count ``count`` transfers of ``nbytes`` each — a launch's shares,
        one message per device."""
        self.total_bytes += count * _checked(nbytes)


def _checked(nbytes: int) -> int:
    if nbytes < 0:
        raise ConfigurationError(f"cannot transfer {nbytes} bytes")
    return nbytes
