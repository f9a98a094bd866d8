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

import numpy as np

from repro.errors import QuantizationError
from repro.fieldmath import PrimeField


def round_half_up(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The paper's Round procedure: fractional part < 0.5 floors, else ceils.

    Note this differs from numpy's banker's rounding (``np.rint``); ties go
    *up* exactly as in Algorithm 1 lines 12-17.  The whole pass is one
    fused ``add``/``floor`` ufunc chain over a single float64 buffer
    (``out`` when given), never a per-element Python loop.
    """
    if out is None:
        out = np.array(values, dtype=np.float64)
    else:
        np.copyto(out, values, casting="unsafe")
    out += 0.5
    return np.floor(out, out=out)


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
        When ``True`` values that exceed the signed field range are clipped
        to the boundary instead of raising.  The paper's implementation
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

    @property
    def scale(self) -> int:
        """``2**l`` — the scale of quantized inputs and weights."""
        return 2**self.fractional_bits

    @property
    def product_scale(self) -> int:
        """``2**(2l)`` — the scale of one bilinear product (and of biases)."""
        return 2 ** (2 * self.fractional_bits)

    @property
    def resolution(self) -> float:
        """Smallest representable increment, ``2**-l``."""
        return 1.0 / self.scale

    # ------------------------------------------------------------------
    # float -> field
    # ------------------------------------------------------------------
    def _check_range(self, ints: np.ndarray, what: str) -> np.ndarray:
        """Range-guard quantized integers without materialising ``|ints|``.

        Two scalar reductions (max and min) replace the old
        ``abs -> compare -> any`` chain, so the fail-fast check allocates
        no temporaries on the hot path; ``ints`` must be a buffer this
        module owns (saturation clips it in place).  The reductions are
        the ndarray's own methods: ``np.max``/``np.min`` are Python
        wrappers that double the cost of each on the small tensors a
        request carries (3.7 vs 1.9 us).
        """
        limit = self.field.half
        if self.saturate:
            return np.clip(ints, -limit, limit, out=ints)
        hi = int(ints.max(initial=0))
        lo = int(ints.min(initial=0))
        if hi > limit or -lo > limit:
            worst = float(max(hi, -lo))
            raise QuantizationError(
                f"{what} overflows the signed field range: |value| up to {worst:.0f}"
                f" exceeds p/2 = {limit}; lower fractional_bits or enable dynamic"
                " normalisation"
            )
        return ints

    def quantize(self, values: np.ndarray, *, bias: bool = False) -> np.ndarray:
        """Floats -> canonical field elements at input scale (or bias scale).

        Single-pass ufunc chain over one float64 buffer — fused
        ``multiply``/``add``/``floor``, one int64 cast, then an in-place
        signed lift (``+= p`` where negative).  The lift is bit-identical
        to :meth:`~repro.fieldmath.PrimeField.from_signed`'s modulus
        because :meth:`_check_range` has already bounded every value to
        ``[-p/2, p/2]``.
        """
        scale = self.product_scale if bias else self.scale
        scaled = np.array(values, dtype=np.float64)
        scaled *= scale
        scaled += 0.5
        np.floor(scaled, out=scaled)
        ints = scaled.astype(np.int64)
        ints = self._check_range(ints, "bias" if bias else "input")
        np.add(ints, self.field.p, out=ints, where=ints < 0)
        return ints

    def quantize_weights(self, values: np.ndarray) -> np.ndarray:
        """Alias of :meth:`quantize` for readability at call sites."""
        return self.quantize(values)

    # ------------------------------------------------------------------
    # field -> float
    # ------------------------------------------------------------------
    def _signed_inplace(self, elements: np.ndarray) -> np.ndarray:
        """Centre-lift into a fresh int64 buffer, then fix it up in place.

        Equivalent to :meth:`~repro.fieldmath.PrimeField.to_signed` bit
        for bit, but the ``arr - p`` branch writes into the modulus
        result instead of materialising a ``np.where`` triple.
        """
        signed = np.asarray(self.field.element(elements))
        np.subtract(signed, self.field.p, out=signed, where=signed > self.field.half)
        return signed

    def dequantize(self, elements: np.ndarray) -> np.ndarray:
        """Field elements at input scale back to floats (in-place chain)."""
        out = self._signed_inplace(elements).astype(np.float64)
        out /= self.scale
        return out

    def dequantize_product(self, elements: np.ndarray) -> np.ndarray:
        """Field elements at product scale (``2**2l``) back to floats.

        Implements Algorithm 1 line 9: ``Round(Y_q * 2**-l) * 2**-l`` — one
        rounding division by ``2**l`` followed by a float division, which
        matches the reference implementation bit for bit.  The whole pass
        is one ufunc chain over a single float64 buffer: divide, add 0.5,
        floor, divide — ``2**l`` divisions are exact in float64, so the
        in-place form changes no bits.
        """
        out = self._signed_inplace(elements).astype(np.float64)
        out /= self.scale
        np.add(out, 0.5, out=out)
        np.floor(out, out=out)
        out /= self.scale
        return out

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def headroom(self, max_abs_product: float) -> float:
        """How much of the signed range a worst-case product magnitude uses.

        ``max_abs_product`` is in *real* units (pre-quantization); values
        ``> 1.0`` mean a decode of that magnitude would be ambiguous.
        """
        return (max_abs_product * self.product_scale) / self.field.half

    def max_safe_product(self) -> float:
        """Largest real-valued bilinear result that decodes unambiguously."""
        return self.field.half / self.product_scale

    def quantization_error_bound(self) -> float:
        """Worst-case absolute rounding error for a single quantized value."""
        return 0.5 * self.resolution
