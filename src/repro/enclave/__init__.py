"""SGX enclave simulator: EPC model, sealing, attestation, toy crypto."""

from repro.enclave.attestation import AttestationService, Quote, measure_enclave
from repro.enclave.crypto import (
    ByteStream,
    Ciphertext,
    DiffieHellman,
    StreamAead,
    array_to_bytes,
    bytes_to_array,
    derive_key,
)
from repro.enclave.enclave import Enclave, EnclaveLedger
from repro.enclave.epc import EPC_TOTAL_BYTES, EPC_USABLE_BYTES, EpcModel, PagingStats
from repro.enclave.sealing import SealedBlob, Sealer, UntrustedStore

__all__ = [
    "Enclave",
    "EnclaveLedger",
    "EpcModel",
    "PagingStats",
    "EPC_TOTAL_BYTES",
    "EPC_USABLE_BYTES",
    "Sealer",
    "SealedBlob",
    "UntrustedStore",
    "AttestationService",
    "Quote",
    "measure_enclave",
    "StreamAead",
    "ByteStream",
    "Ciphertext",
    "DiffieHellman",
    "derive_key",
    "array_to_bytes",
    "bytes_to_array",
]
