"""Communication substrate: link cost model and encrypted channels."""

from repro.comm.link import (
    INFINIBAND_40G_BYTES_PER_S,
    INFINIBAND_LATENCY_S,
    LinkModel,
)
from repro.comm.secure_channel import Envelope, SecureChannel

__all__ = [
    "LinkModel",
    "SecureChannel",
    "Envelope",
    "INFINIBAND_40G_BYTES_PER_S",
    "INFINIBAND_LATENCY_S",
]
