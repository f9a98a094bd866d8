"""Dynamic max-abs normalisation for models without batch-norm (VGG).

Section 5 of the paper: "for VGG models a slightly different quantization is
used to dynamically normalize the values of inputs and weights if they pass
the limits ... by dividing them to the maximum absolute entry of the vector."
ResNet/MobileNet keep activations in range via normalisation layers and use
the static scheme.

The normaliser divides a tensor by its max-abs (when that exceeds a target
ceiling), remembers the factor, and multiplies the factor back into decoded
bilinear results.  Because the masked computation is linear, scaling an input
by ``1/c`` scales every decoded product by ``1/c`` exactly, so the round trip
is lossless apart from the usual fixed-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError


@dataclass(frozen=True)
class Normalization:
    """The scale applied to one tensor (1.0 means untouched).

    ``factor`` is a scalar for whole-tensor normalisation, or a broadcast
    array of shape ``(n, 1, ...)`` for per-sample normalisation (one factor
    per leading row; see :meth:`DynamicNormalizer.normalize_rows`).
    """

    factor: float | np.ndarray

    @property
    def is_identity(self) -> bool:
        """True when applying this normalisation is a no-op."""
        return np.isscalar(self.factor) and self.factor == 1.0

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Scale values down by the stored factor."""
        if self.is_identity:
            return np.asarray(values, dtype=np.float64)
        return np.asarray(values, dtype=np.float64) / self.factor

    def unapply_product(self, values: np.ndarray, other: "Normalization") -> np.ndarray:
        """Restore a bilinear product of two normalised operands."""
        if self.is_identity and other.is_identity:
            return np.asarray(values, dtype=np.float64)
        scale = self.factor * other.factor
        return np.asarray(values, dtype=np.float64) * scale


IDENTITY = Normalization(1.0)


class DynamicNormalizer:
    """Per-tensor max-abs normalisation with a configurable ceiling.

    Parameters
    ----------
    ceiling:
        Tensors whose max-abs exceeds this are divided down to it.  The
        default 1.0 reproduces the paper's "divide by the maximum absolute
        entry" rule; larger ceilings trade headroom for resolution.
    """

    def __init__(self, ceiling: float = 1.0) -> None:
        if ceiling <= 0:
            raise QuantizationError(f"ceiling must be positive, got {ceiling}")
        self.ceiling = float(ceiling)

    def normalize(self, values: np.ndarray) -> tuple[np.ndarray, Normalization]:
        """Return ``(scaled_values, normalization)``.

        Only scales when needed so well-behaved tensors keep full
        fixed-point resolution.
        """
        arr = np.asarray(values, dtype=np.float64)
        max_abs = float(np.abs(arr).max()) if arr.size else 0.0
        if max_abs <= self.ceiling or max_abs == 0.0:
            return arr, IDENTITY
        norm = Normalization(max_abs / self.ceiling)
        return norm.apply(arr), norm

    def normalize_rows(
        self, values: np.ndarray, lead: int = 1
    ) -> tuple[np.ndarray, Normalization]:
        """Per-sample variant: one independent factor per leading row.

        Each row (sample slot) is scaled by *its own* max-abs, so a sample's
        quantization — and therefore its decoded result — never depends on
        what else happens to share its virtual batch.  That makes served
        logits invariant to batch composition (the property multi-shard
        routing relies on for bit-identical outputs) and closes the
        cross-tenant side channel where one tenant's data range perturbs a
        co-batched tenant's low-order logit bits.  Inference-only: the
        backward pass needs a scalar batch factor to unscale aggregated
        gradients.

        ``lead`` is how many leading axes index the rows: a stack of
        virtual batches ``(V, K, ...)`` is normalised per virtual batch
        with ``lead=1`` (each slice exactly as :meth:`normalize` would
        treat it alone) and per sample slot with ``lead=2``.  The factors
        keep those axes and broadcast over the rest.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim <= lead or arr.size == 0:
            # A sample with no feature axes has no meaningful per-row
            # factor shape; fall back to the scalar whole-tensor rule.
            return self.normalize(arr)
        axes = tuple(range(lead, arr.ndim))
        max_abs = np.abs(arr).max(axis=axes, keepdims=True)
        factors = np.where(max_abs > self.ceiling, max_abs / self.ceiling, 1.0)
        if (factors == 1.0).all():
            return arr, IDENTITY
        norm = Normalization(factors)
        return arr / factors, norm
