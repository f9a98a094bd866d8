"""The simulated SGX enclave: identity, sealing, ledgers.

The :class:`Enclave` is the trust anchor the DarKnight runtime builds on.
It owns:

* an identity (measurement) and a sealing facility bound to it;
* an operation ledger that records what ran inside the TEE (encode, decode,
  non-linear ops, crypto) with byte counts for the performance model;
* the field RNG whose coefficients/noise never leave protected memory.

It deliberately does *not* know about neural networks; the runtime composes
enclave facilities with the masking and nn packages.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.enclave.attestation import (
    DEFAULT_CODE_IDENTITY,
    AttestationService,
    Quote,
    measure_enclave,
)
from repro.enclave.crypto import ByteStream, Envelope
from repro.enclave.sealing import Sealer, UntrustedStore
from repro.fieldmath import FieldRng, PrimeField


@dataclass
class EnclaveLedger:
    """What happened inside the TEE, for the cost model.

    One entry per operation name: boundary crossings book as
    ``ecall:<name>`` / ``ocall:<name>``, sealing as ``seal`` / ``unseal``.
    """

    op_counts: dict = dataclass_field(default_factory=dict)
    op_bytes: dict = dataclass_field(default_factory=dict)

    def record_op(self, name: str, nbytes: int = 0, count: int = 1) -> None:
        """Count ``count`` enclave-internal operations touching ``nbytes`` each."""
        self.op_counts[name] = self.op_counts.get(name, 0) + count
        self.op_bytes[name] = self.op_bytes.get(name, 0) + count * nbytes


class Enclave:
    """A provisioned enclave instance.

    Parameters
    ----------
    code_identity:
        The code being measured (string or bytes); clients attest against it.
    field:
        Prime field for masking material.
    seed:
        Seed for the in-enclave RNG (coefficients + noise).
    platform_key:
        The simulated CPU's fused secret (shared by sealing + quoting).
    """

    def __init__(
        self,
        code_identity: bytes | str = DEFAULT_CODE_IDENTITY,
        field: PrimeField | None = None,
        seed=None,
        platform_key: bytes = b"repro-platform-fuse-key",
    ) -> None:
        self.field = field or PrimeField()
        self.measurement = measure_enclave(code_identity)
        self.ledger = EnclaveLedger()
        self.rng = FieldRng(self.field, seed)
        self._attestation = AttestationService(platform_key)
        # Sealing nonces interleave with coefficient and noise draws on the
        # one enclave generator, so this stream must not read ahead.
        self._sealer = Sealer(
            platform_key, self.measurement, ByteStream(self.rng.generator, block_bytes=0)
        )
        self.untrusted_store = UntrustedStore()

    # ------------------------------------------------------------------
    # attestation
    # ------------------------------------------------------------------
    def quote(self, report_data: bytes = b"") -> Quote:
        """Produce an attestation quote for a client."""
        self.ledger.record_op("quote")
        return self._attestation.quote(self.measurement, report_data)

    def verify_peer_quote(self, quote: Quote, expected_measurement: bytes) -> bool:
        """Verify another enclave's quote (local attestation path)."""
        return self._attestation.verify(quote, expected_measurement)

    # ------------------------------------------------------------------
    # boundary crossings
    # ------------------------------------------------------------------
    def ecall(self, name: str, nbytes_in: int = 0, count: int = 1) -> None:
        """Record ``count`` enclave entries carrying ``nbytes_in`` of data each."""
        self.ledger.record_op(f"ecall:{name}", nbytes_in, count)

    def ocall(self, name: str, nbytes_out: int = 0, count: int = 1) -> None:
        """Record ``count`` enclave exits carrying ``nbytes_out`` of data each."""
        self.ledger.record_op(f"ocall:{name}", nbytes_out, count)

    # ------------------------------------------------------------------
    # sealing / eviction
    # ------------------------------------------------------------------
    def seal_and_evict(self, key: str, array: np.ndarray, label: bytes = b"") -> Envelope:
        """Encrypt an array and push it to untrusted memory."""
        blob = self._sealer.seal(array, label)
        self.untrusted_store.evict(key, blob)
        self.ledger.record_op("seal", blob.nbytes)
        self.ocall("evict", blob.nbytes)
        return blob

    def reload_and_unseal(self, key: str) -> np.ndarray:
        """Fetch a sealed blob back and decrypt it inside the enclave."""
        blob = self.untrusted_store.reload(key)
        self.ecall("reload", blob.nbytes)
        array = self._sealer.unseal(blob)
        self.ledger.record_op("unseal", blob.nbytes)
        return array

    def drop_evicted(self, key: str) -> None:
        """Discard an evicted blob that is no longer needed."""
        self.untrusted_store.drop(key)

    # ------------------------------------------------------------------
    # in-enclave compute accounting
    # ------------------------------------------------------------------
    def record_compute(self, op_name: str, nbytes: int, count: int = 1) -> None:
        """Account ``count`` TEE-internal computations (encode/decode/non-linear)
        of ``nbytes`` each — a layer step's virtual batches in one entry."""
        self.ledger.record_op(op_name, nbytes, count)
