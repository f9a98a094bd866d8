"""Dynamic max-abs normalisation for models without batch-norm (VGG).

Section 5 of the paper: "for VGG models a slightly different quantization is
used to dynamically normalize the values of inputs and weights if they pass
the limits ... by dividing them to the maximum absolute entry of the vector."
ResNet/MobileNet keep activations in range via normalisation layers and use
the static scheme.

The normaliser divides a tensor by its max-abs (when that exceeds 1.0),
remembers the factor, and multiplies the factor back into decoded
bilinear results.  Because the masked computation is linear, scaling an input
by ``1/c`` scales every decoded product by ``1/c`` exactly, so the round trip
is lossless apart from the usual fixed-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError

_NON_FINITE = "holds NaN or infinite values; refusing to normalise"


@dataclass(frozen=True)
class Normalization:
    """The scale applied to one tensor (1.0 means untouched).

    ``factor`` is a scalar for whole-tensor normalisation, or a broadcast
    array of shape ``(n, 1, ...)`` for per-sample normalisation (one factor
    per leading row; see :meth:`DynamicNormalizer.normalize_rows`).
    Frozen, unlike the other request-path records: :data:`IDENTITY` is one
    instance every caller shares.
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


IDENTITY = Normalization(1.0)


class DynamicNormalizer:
    """Per-tensor max-abs normalisation to a ceiling of 1.0: the paper's
    "divide by the maximum absolute entry" rule."""

    def normalize(self, values: np.ndarray) -> tuple[np.ndarray, Normalization]:
        """Return ``(scaled_values, normalization)``.

        Only scales when needed so well-behaved tensors keep full
        fixed-point resolution.  A NaN or infinite entry raises
        :class:`~repro.errors.QuantizationError` before anything is divided.
        """
        arr = np.asarray(values, dtype=np.float64)
        max_abs = float(np.abs(arr).max()) if arr.size else 0.0
        if max_abs <= 1.0:
            return arr, IDENTITY
        if not max_abs < np.inf:  # inf, or NaN (which fails every comparison)
            raise QuantizationError(f"tensor {_NON_FINITE}")
        norm = Normalization(max_abs)
        return norm.apply(arr), norm

    def normalize_rows(
        self, values: np.ndarray, lead: int = 1
    ) -> tuple[np.ndarray, float | np.ndarray | None, float | None]:
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
        treat it alone) and per sample slot with ``lead=2``.

        Returns the scaled values, the raw factors — not a
        :class:`Normalization`: they keep the ``lead`` axes and broadcast
        over the rest, so a caller builds one record per slice it hands
        out; ``None`` means no row needed scaling, a scalar is the
        whole-tensor rule's factor, applied when the rows have no feature
        axes — and ``bound``, the scaled values' largest magnitude as far
        as the max-abs pass knows it: at most ``1.0``, NaN when a row holds
        NaN, ``None`` from the whole-tensor rule.  It is the range the
        quantizer may take on trust (:meth:`QuantizationConfig.quantize`'s
        ``bound``), so each value's range is read once.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim <= lead or arr.size == 0:
            # A sample with no feature axes has no meaningful per-row
            # factor shape; fall back to the scalar whole-tensor rule.
            scaled, norm = self.normalize(arr)
            return scaled, None if norm is IDENTITY else norm.factor, None
        mags = np.abs(arr)
        # maximum, not fmax: a NaN reaches ``top`` and so the bound, and the
        # quantizer then refuses the row by name.
        factors = np.maximum.reduce(mags, axis=tuple(range(lead, arr.ndim)), keepdims=True)
        top = float(np.maximum.reduce(factors, axis=None))
        if top <= 1.0:
            return arr, None, top
        if top == np.inf or (top != top and np.isinf(factors).any()):
            raise QuantizationError(f"a row {_NON_FINITE}")  # before ``inf / inf`` warns
        bound = 1.0
        if top != top:  # a NaN row keeps factor 1.0; the quantizer refuses it
            np.fmax(factors, 1.0, out=factors)
            if np.maximum.reduce(factors, axis=None) == 1.0:
                return arr, None, top
            bound = top
        else:
            np.maximum(factors, 1.0, out=factors)
        return np.divide(arr, factors, out=mags), factors, bound
