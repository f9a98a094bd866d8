"""The simulated SGX enclave: identity, protected memory, ledgers.

The :class:`Enclave` is the trust anchor the DarKnight runtime builds on.
It owns:

* an identity (measurement) and a sealing facility bound to it;
* the EPC model that makes memory pressure — the paper's recurring villain —
  observable;
* an operation ledger that records what ran inside the TEE (encode, decode,
  non-linear ops, crypto) with byte counts for the performance model;
* the field RNG whose coefficients/noise never leave protected memory.

It deliberately does *not* know about neural networks; the runtime composes
enclave facilities with the masking and nn packages.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.enclave.attestation import AttestationService, Quote, measure_enclave
from repro.enclave.crypto import ByteStream
from repro.enclave.epc import EpcModel
from repro.enclave.sealing import SealedBlob, Sealer, UntrustedStore
from repro.errors import EnclaveError
from repro.fieldmath import FieldRng, PrimeField


@dataclass
class EnclaveLedger:
    """What happened inside the TEE, for the cost model."""

    ecalls: int = 0
    ocalls: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    sealed_bytes: int = 0
    unsealed_bytes: int = 0
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
    epc:
        EPC model; defaults to the paper's 128 MB-generation limits.
    platform_key:
        The simulated CPU's fused secret (shared by sealing + quoting).
    """

    def __init__(
        self,
        code_identity: bytes | str = "darknight-enclave-v1",
        field: PrimeField | None = None,
        seed=None,
        epc: EpcModel | None = None,
        platform_key: bytes = b"repro-platform-fuse-key",
    ) -> None:
        self.field = field or PrimeField()
        self.measurement = measure_enclave(code_identity)
        self.epc = epc or EpcModel()
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
    # protected memory
    # ------------------------------------------------------------------
    @contextmanager
    def allocated(self, tag: str, nbytes: int):
        """Scope an EPC allocation to a ``with`` block."""
        self.epc.allocate(tag, nbytes)
        try:
            yield
        finally:
            self.epc.free(tag)

    def track_array(self, tag: str, array: np.ndarray) -> None:
        """Register an array as resident enclave state."""
        self.epc.allocate(tag, int(np.asarray(array).nbytes))

    def release(self, tag: str) -> None:
        """Release a tracked array."""
        self.epc.free(tag)

    # ------------------------------------------------------------------
    # boundary crossings
    # ------------------------------------------------------------------
    def ecall(self, name: str, nbytes_in: int = 0, count: int = 1) -> None:
        """Record ``count`` enclave entries carrying ``nbytes_in`` of data each."""
        self.ledger.ecalls += count
        self.ledger.bytes_in += count * nbytes_in
        self.ledger.record_op(f"ecall:{name}", nbytes_in, count)

    def ocall(self, name: str, nbytes_out: int = 0, count: int = 1) -> None:
        """Record ``count`` enclave exits carrying ``nbytes_out`` of data each."""
        self.ledger.ocalls += count
        self.ledger.bytes_out += count * nbytes_out
        self.ledger.record_op(f"ocall:{name}", nbytes_out, count)

    # ------------------------------------------------------------------
    # sealing / eviction (Algorithm 2 building blocks)
    # ------------------------------------------------------------------
    def seal_and_evict(self, key: str, array: np.ndarray, label: bytes = b"") -> SealedBlob:
        """Encrypt an array and push it to untrusted memory."""
        blob = self._sealer.seal(array, label)
        self.untrusted_store.evict(key, blob)
        self.ledger.sealed_bytes += blob.nbytes
        self.ledger.record_op("seal", blob.nbytes)
        self.ocall("evict", blob.nbytes)
        return blob

    def reload_and_unseal(self, key: str) -> np.ndarray:
        """Fetch a sealed blob back and decrypt it inside the enclave."""
        blob = self.untrusted_store.reload(key)
        self.ecall("reload", blob.nbytes)
        array = self._sealer.unseal(blob)
        self.ledger.unsealed_bytes += blob.nbytes
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

    def require_fits(self, nbytes: int, what: str) -> None:
        """Fail fast when a single object cannot even fit in usable EPC.

        Real SGX would thrash rather than fail; the simulator treats a
        single allocation larger than the whole EPC as a configuration
        error because the paper sizes virtual batches to avoid it.
        """
        if nbytes > self.epc.usable_bytes:
            raise EnclaveError(
                f"{what} needs {nbytes} bytes, exceeding usable EPC"
                f" ({self.epc.usable_bytes}); shrink the virtual batch"
            )
