"""Fixed-point quantization into ``F_p`` (the paper's Algorithm 1).

The enclave cannot mask floating-point data — a one-time pad only exists over
a finite group — so DarKnight first maps floats to fixed point and then lifts
them into ``F_p``:

* inputs and weights are scaled by ``2**l`` and rounded (``l = 8`` in the
  paper),
* biases are scaled by ``2**(2l)`` so they line up with the product scale
  after one bilinear operation,
* negatives are lifted by adding ``p`` ("Field" procedure),
* after the GPUs return, entries above ``p/2`` are re-interpreted as
  negatives and the ``2**(2l)`` scale is divided back out in two rounding
  steps (Algorithm 1, line 9).

Range discipline
----------------
Decoding is exact only while the *true* (unmasked) result stays inside
``(-p/2, p/2)``.  With ``l = 8`` this bounds the valid inner-product
magnitude at ``~2**24/2**16 = 256`` in real terms, which deep convolution
fan-ins can exceed; the paper handles VGG with dynamic max-abs normalisation
(see :mod:`repro.quantization.dynamic`).  This module raises
:class:`~repro.errors.QuantizationError` (or optionally saturates) instead of
silently wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from repro.errors import QuantizationError
from repro.fieldmath import PrimeField


def _signs_lift(mask: np.ndarray, p: int) -> np.ndarray:
    """``p`` where ``mask`` holds, ``0.0`` elsewhere: the lift between signed
    and canonical elements as one product.  A ``where=``-masked ufunc
    costs several times as much once the mask's pattern is irregular, as
    the signs of activations and decoded products are."""
    return np.multiply(mask, float(p))


@dataclass(frozen=True)
class QuantizationConfig:
    """Parameters of the fixed-point <-> field mapping.

    Parameters
    ----------
    fractional_bits:
        ``l`` in the paper; inputs/weights use scale ``2**l``, biases and
        bilinear products ``2**(2l)``.
    field:
        Target prime field (defaults to ``p = 2**25 - 39``).
    saturate:
        When ``True`` finite values that exceed the signed field range are
        clipped to the boundary of their own sign instead of raising (NaN
        and infinities are refused either way).  The paper's implementation
        relies on normalisation keeping values in range; we default to the
        stricter fail-fast behaviour so silent wraparound can't corrupt an
        experiment.
    """

    fractional_bits: int = 8
    field: PrimeField = dataclass_field(default_factory=PrimeField)
    saturate: bool = False

    def __post_init__(self) -> None:
        if self.fractional_bits < 1:
            raise QuantizationError(
                f"fractional_bits must be >= 1, got {self.fractional_bits}"
            )
        if 2 ** (2 * self.fractional_bits) >= self.field.half:
            raise QuantizationError(
                f"2*l = {2 * self.fractional_bits} bits of scale leave no headroom in"
                f" a field with p = {self.field.p}"
            )

    @cached_property
    def scale(self) -> int:
        """``2**l`` — the scale of quantized inputs and weights."""
        return 2**self.fractional_bits

    @cached_property
    def product_scale(self) -> int:
        """``2**(2l)`` — the scale of one bilinear product (and of biases)."""
        return 2 ** (2 * self.fractional_bits)

    @cached_property
    def resolution(self) -> float:
        """Smallest representable increment, ``2**-l`` (every dequantize
        scales by it twice, so it is computed once, as the scales are)."""
        return 1.0 / self.scale

    # ------------------------------------------------------------------
    # float -> field
    # ------------------------------------------------------------------
    def _check_range(self, scaled: np.ndarray, values, what: str) -> float:
        """Range-guard scaled, rounded floats *before* the int64 cast;
        returns their smallest value (after clipping), at most 0.

        Two scalar reductions (max and min) replace an
        ``abs -> compare -> any`` chain, so the fail-fast check allocates
        no temporaries on the hot path; ``scaled`` must be a buffer this
        module owns (saturation clips it in place).  Checking the floats
        is what keeps the check honest: NaN propagates through both
        reductions and fails every comparison, and nothing has yet been
        cast — an int64 cast of NaN, ``inf`` or ``1e30`` is ``-2**63``,
        which would saturate to the *negative* boundary.  Non-finite
        input (``values``, looked at only once the check has failed) is
        refused in either mode.  The reductions are the ufuncs' own:
        ``np.max`` and even ``ndarray.max`` are Python wrappers that double
        the cost of each on the small tensors a request carries.
        """
        limit = self.field.half
        hi = float(np.maximum.reduce(scaled, axis=None, initial=0.0))
        lo = float(np.minimum.reduce(scaled, axis=None, initial=0.0))
        if hi <= limit and -lo <= limit:
            return lo
        if not np.isfinite(values).all():
            raise QuantizationError(f"{what} holds NaN or infinite values; refusing to quantize")
        if self.saturate:
            np.clip(scaled, -limit, limit, out=scaled)
            return max(lo, -limit)
        raise QuantizationError(
            f"{what} overflows the signed field range: |value| up to {max(hi, -lo):.0f}"
            f" exceeds p/2 = {limit}; lower fractional_bits or enable dynamic"
            " normalisation"
        )

    def quantize(
        self,
        values: np.ndarray,
        *,
        bias: bool = False,
        out: np.ndarray | None = None,
        bound: float | None = None,
    ) -> np.ndarray:
        """Floats -> canonical field elements at input scale (or bias scale).

        Single-pass ufunc chain over one float64 buffer — ``multiply``,
        ``add``, ``floor``, the range check (or clip), then the signed
        lift (``+ p`` where negative, skipped when the check saw no
        negative value) — and one int64 cast at the end.
        The lift is bit-identical to a reduction mod ``p``
        (:meth:`~repro.fieldmath.PrimeField.element`) because every value
        is bounded to ``[-p/2, p/2]`` by then.

        ``bound``, a largest magnitude of ``values`` their producer already
        read (the normaliser's max-abs,
        :meth:`~repro.quantization.DynamicNormalizer.normalize_rows`), takes
        the place of the range check when it proves every scaled value in
        range; the lift then runs unconditionally.  ``None`` or NaN proves
        nothing and the check runs, refusing NaN and ``inf`` by name.

        ``out``, a float64 array of ``values``' shape, is that buffer, and
        the elements stay in it uncast, as float64 exact integers (every
        one is below ``p < 2**31``): the enclave quantizes a step's
        activations straight into the rows of its encode GEMM's source
        block.  Without ``out`` the result is int64 — what a device holds
        (weights, quantized gradients).
        """
        scale = self.product_scale if bias else self.scale
        values = np.asarray(values, dtype=np.float64)
        scaled = np.multiply(values, scale, out=out)
        scaled += 0.5
        np.floor(scaled, out=scaled)
        # floor(v * scale + 0.5) lies within bound * scale + 1 of zero.
        trusted = bound is not None and bound * scale + 1.0 <= self.field.half
        if trusted or self._check_range(scaled, values, "bias" if bias else "input") < 0:
            scaled += _signs_lift(scaled < 0, self.field.p)
        return scaled if out is not None else scaled.astype(np.int64)

    def quantize_weights(self, values: np.ndarray) -> np.ndarray:
        """Alias of :meth:`quantize` for readability at call sites."""
        return self.quantize(values)

    # ------------------------------------------------------------------
    # field -> float
    # ------------------------------------------------------------------
    def _signed_float(self, elements: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """Centre-lift canonical elements into ``out`` (a fresh float64
        buffer when ``None``; ``out`` may be ``elements`` itself).

        One copy (the cast, unless in place) and a subtract of ``p`` above
        ``p/2`` — the paper's post-GPU "subtract p" step, exact on
        canonical input since ``p < 2**31`` keeps every value exact in
        float64.  Nothing is reduced mod ``p`` first: every caller already
        holds canonical elements (decode output, ``γ``-decode aggregates,
        an unblind, :meth:`quantize` output).
        """
        if out is None:
            out = np.asarray(elements).astype(np.float64)
        elif out is not elements:
            np.copyto(out, elements)
        out -= _signs_lift(out > self.field.half, self.field.p)
        return out

    def dequantize(self, elements: np.ndarray) -> np.ndarray:
        """Canonical field elements (``[0, p)``) at input scale back to
        floats (in-place chain); non-canonical input is not reduced first."""
        out = self._signed_float(elements, None)
        out *= self.resolution
        return out

    def dequantize_product(
        self, elements: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Canonical field elements (``[0, p)``) at product scale
        (``2**2l``) back to floats; non-canonical input is not reduced first.

        Implements Algorithm 1 line 9: ``Round(Y_q * 2**-l) * 2**-l`` — one
        rounding division by ``2**l`` followed by a float division, which
        matches the reference implementation bit for bit.  The whole pass
        is one ufunc chain over a single float64 buffer: scale, add 0.5,
        floor, scale.  Each division by ``2**l`` is a multiplication by
        the exact ``2**-l`` — the same correctly rounded quotient, so the
        in-place form changes no bits.

        ``out`` is that buffer (``elements`` itself rounds a float64
        decode in place, as the enclave does with the primary decode);
        without it the chain runs on a fresh copy and ``elements`` is
        never written.
        """
        out = self._signed_float(elements, out)
        out *= self.resolution
        np.add(out, 0.5, out=out)
        np.floor(out, out=out)
        out *= self.resolution
        return out

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def max_safe_product(self) -> float:
        """Largest real-valued bilinear result that decodes unambiguously."""
        return self.field.half / self.product_scale
