"""Communication substrate: link byte counter and encrypted channels."""

from repro.comm.link import LinkModel
from repro.comm.secure_channel import Envelope, SecureChannel

__all__ = [
    "LinkModel",
    "SecureChannel",
    "Envelope",
]
