"""DarKnight reproduction: privacy/integrity-preserving DNN training via TEE-GPU masking.

Reproduces Hashemi, Wang & Annavaram, *DarKnight* (MICRO 2021).  The public
API re-exports the pieces a downstream user needs most:

>>> from repro import DarKnightConfig, Trainer, build_mini_vgg
>>> from repro.runtime import DarKnightBackend
>>> net = build_mini_vgg()
>>> trainer = Trainer(net, DarKnightBackend(DarKnightConfig(virtual_batch_size=2)))

See README.md for the architecture overview (its package map names every
subpackage) and ``python -m repro`` for the paper's tables and figures.
"""

from repro.errors import (
    ConfigurationError,
    DecodingError,
    EncodingError,
    EnclaveError,
    FieldError,
    IntegrityError,
    QuantizationError,
    ReproError,
)
from repro.fieldmath import DEFAULT_PRIME, FieldRng, PrimeField
from repro.masking import CoefficientSet, ForwardDecoder, ForwardEncoder, IntegrityVerifier
from repro.models import build_mini_mobilenet, build_mini_resnet, build_mini_vgg
from repro.nn import PlainBackend, Sequential
from repro.quantization import QuantizationConfig
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace
from repro.slalom import SlalomBackend

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "ReproError",
    "FieldError",
    "QuantizationError",
    "EncodingError",
    "DecodingError",
    "IntegrityError",
    "EnclaveError",
    "ConfigurationError",
    "PrimeField",
    "FieldRng",
    "DEFAULT_PRIME",
    "QuantizationConfig",
    "CoefficientSet",
    "ForwardEncoder",
    "ForwardDecoder",
    "IntegrityVerifier",
    "Sequential",
    "PlainBackend",
    "DarKnightConfig",
    "DarKnightBackend",
    "Trainer",
    "PrivateInferenceServer",
    "ServingConfig",
    "synthetic_trace",
    "SlalomBackend",
    "build_mini_vgg",
    "build_mini_resnet",
    "build_mini_mobilenet",
]
