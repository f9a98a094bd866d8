"""Fixed-point quantization into the field (Algorithm 1) + dynamic scaling."""

from repro.quantization.dynamic import IDENTITY, DynamicNormalizer, Normalization
from repro.quantization.fixed_point import QuantizationConfig

__all__ = [
    "QuantizationConfig",
    "DynamicNormalizer",
    "Normalization",
    "IDENTITY",
]
