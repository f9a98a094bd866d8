"""DarKnight's core: matrix-masking encode/decode, integrity, virtual batches."""

from repro.masking.backward import BackwardDecoder, reference_aggregate
from repro.masking.coefficients import CoefficientSet
from repro.masking.forward import EncodedBatch, ForwardDecoder, ForwardEncoder
from repro.masking.integrity import IntegrityReport, IntegrityVerifier
from repro.masking.virtual_batch import VirtualBatch, iter_virtual_batches

__all__ = [
    "CoefficientSet",
    "ForwardEncoder",
    "ForwardDecoder",
    "EncodedBatch",
    "BackwardDecoder",
    "reference_aggregate",
    "IntegrityVerifier",
    "IntegrityReport",
    "VirtualBatch",
    "iter_virtual_batches",
]
