"""Local/remote attestation simulation.

Before a client uploads private data, SGX lets it verify *which code* runs
inside the enclave: the hardware measures the enclave (MRENCLAVE), signs a
quote with a platform key, and the client checks both.  The simulator keeps
the same three moving parts — measurement, quote, verification — so the
runtime can refuse to serve un-attested sessions and tests can exercise
measurement mismatches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import AttestationError

#: The enclave code identity data holders are expected to have audited.
DEFAULT_CODE_IDENTITY = "darknight-enclave-v1"


def measure_enclave(code_identity: bytes | str) -> bytes:
    """MRENCLAVE analogue: hash of the enclave's code identity."""
    if isinstance(code_identity, str):
        code_identity = code_identity.encode()
    return hashlib.blake2b(code_identity, digest_size=32, person=b"repro-msr").digest()


@dataclass(frozen=True)
class Quote:
    """A signed attestation statement."""

    measurement: bytes
    report_data: bytes
    signature: bytes


class AttestationService:
    """The platform's quoting enclave + the client's verification logic.

    Parameters
    ----------
    platform_key:
        Secret signing key fused into the (simulated) CPU.
    """

    def __init__(self, platform_key: bytes) -> None:
        if len(platform_key) < 16:
            raise AttestationError("platform key must be at least 16 bytes")
        self._platform_key = platform_key

    def _sign(self, measurement: bytes, report_data: bytes) -> bytes:
        h = hashlib.blake2b(key=self._platform_key, digest_size=32, person=b"repro-qte")
        h.update(measurement)
        h.update(report_data)
        return h.digest()

    def quote(self, measurement: bytes, report_data: bytes = b"") -> Quote:
        """Produce a quote over the enclave measurement."""
        return Quote(
            measurement=measurement,
            report_data=report_data,
            signature=self._sign(measurement, report_data),
        )

    def verify(self, quote: Quote, expected_measurement: bytes) -> bool:
        """Client-side check: correct platform signature *and* expected code.

        Raises
        ------
        AttestationError
            When the signature is invalid or the measurement differs from
            what the client audited.
        """
        if self._sign(quote.measurement, quote.report_data) != quote.signature:
            raise AttestationError("quote signature invalid (not this platform)")
        if quote.measurement != expected_measurement:
            raise AttestationError(
                "enclave measurement mismatch: refusing to provision data"
            )
        return True
