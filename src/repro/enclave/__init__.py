"""SGX enclave simulator: the EPC limit, sealing, attestation, toy crypto."""

from repro.enclave.attestation import (
    DEFAULT_CODE_IDENTITY,
    AttestationService,
    Quote,
    measure_enclave,
)
from repro.enclave.crypto import (
    ByteStream,
    Ciphertext,
    DiffieHellman,
    Envelope,
    StreamAead,
    array_to_bytes,
    bytes_to_array,
    derive_key,
)
from repro.enclave.enclave import Enclave, EnclaveLedger
from repro.enclave.epc import EPC_USABLE_BYTES
from repro.enclave.sealing import Sealer, UntrustedStore

__all__ = [
    "Enclave",
    "EnclaveLedger",
    "EPC_USABLE_BYTES",
    "Sealer",
    "UntrustedStore",
    "AttestationService",
    "Quote",
    "measure_enclave",
    "DEFAULT_CODE_IDENTITY",
    "StreamAead",
    "ByteStream",
    "Ciphertext",
    "Envelope",
    "DiffieHellman",
    "derive_key",
    "array_to_bytes",
    "bytes_to_array",
]
