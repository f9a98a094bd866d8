"""Prime-field arithmetic over ``F_p`` vectorised with numpy.

DarKnight performs all masking, GPU linear algebra and decoding over the
finite field ``F_p`` with ``p = 2**25 - 39`` (the largest 25-bit prime; see
Section 5 of the paper).  This module provides a :class:`PrimeField` value
object exposing element-wise field operations on ``int64`` numpy arrays.

Overflow discipline
-------------------
Field elements live in ``[0, p)`` so a single product is below ``p**2 < 2**50``
and fits comfortably in ``int64``.  Accumulating more than ``2**13`` products
before reduction can overflow, which is why matrix products must go through
:func:`repro.fieldmath.linalg.field_matmul` (chunked reduction) rather than a
raw ``np.dot`` on field elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import FieldError

#: Largest 25-bit prime, the modulus used throughout the paper.
DEFAULT_PRIME: int = 2**25 - 39

#: Maximum number of p^2-bounded products that can be summed in int64
#: without overflow: floor(2**63 / p**2) with a 2x safety margin.
SAFE_ACCUMULATION = 4096


@lru_cache(maxsize=64)
def _reducer(p: int):
    """Cached Barrett reducer for ``p`` (import deferred to avoid a cycle)."""
    from repro.fieldmath.kernels import barrett

    return barrett(p)


#: Element-count band where the float64 Barrett product reduction beats
#: numpy's libdivide-backed scalar modulus (measured: below it, per-call
#: ufunc overhead dominates; above it, the int64<->float64 conversions
#: turn memory-bound).  Feature-sized masking/quantization tensors land
#: squarely inside the band.
_F64_MUL_BAND = (1024, 1 << 17)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for sp in small_primes:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Element-wise arithmetic in the prime field ``F_p``.

    Arrays handled by this class are ``int64`` numpy arrays whose entries lie
    in ``[0, p)``.  The class is stateless apart from the modulus, so a single
    instance can be shared freely across threads and components.

    Parameters
    ----------
    p:
        Field modulus.  Must be an odd prime small enough that ``p**2`` fits
        in ``int64`` (i.e. ``p < 2**31``), which every 25-bit prime satisfies.
    """

    p: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if self.p < 3 or self.p >= 2**31:
            raise FieldError(f"modulus must be an odd prime < 2**31, got {self.p}")
        if not _is_prime(self.p):
            raise FieldError(f"modulus {self.p} is not prime")

    # ------------------------------------------------------------------
    # element construction
    # ------------------------------------------------------------------
    def element(self, values) -> np.ndarray:
        """Reduce arbitrary integers (array-like) into canonical ``[0, p)``.

        Uses numpy's scalar-modulus kernel, which already lowers to a
        libdivide multiply+shift (Barrett) — the full ``int64`` range it
        must accept exceeds the float64 reducer's ``2**53`` exactness
        domain, and (measured) no multi-pass reimplementation beats it.
        """
        arr = np.asarray(values, dtype=np.int64)
        return np.mod(arr, self.p)

    def zeros(self, shape) -> np.ndarray:
        """All-zero field array."""
        return np.zeros(shape, dtype=np.int64)

    def ones(self, shape) -> np.ndarray:
        """All-one field array."""
        return np.ones(shape, dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        """Identity matrix over the field."""
        return np.eye(n, dtype=np.int64)

    def is_canonical(self, values: np.ndarray) -> bool:
        """True when every entry already lies in ``[0, p)``."""
        arr = np.asarray(values)
        if arr.dtype.kind not in "iu":
            return False
        # Two reductions, no boolean temporaries.
        return arr.size == 0 or bool(arr.min() >= 0 and arr.max() < self.p)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def add(self, a, b) -> np.ndarray:
        """Element-wise ``(a + b) mod p`` — division-free.

        Canonical inputs sum into ``[0, 2p)``, so a single conditional
        subtract canonicalises the result without any modulus at all.
        Non-canonical inputs fall back to the generic reduction.
        """
        total = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
        if total.ndim == 0 or np.any(total < 0) or np.any(total >= 2 * self.p):
            return np.mod(total, self.p)
        np.subtract(total, self.p, out=total, where=total >= self.p)
        return total

    def sub(self, a, b) -> np.ndarray:
        """Element-wise ``(a - b) mod p`` — division-free.

        Canonical inputs difference into ``(-p, p)``; one conditional add
        of ``p`` canonicalises it.
        """
        diff = np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)
        if diff.ndim == 0 or np.any(diff <= -self.p) or np.any(diff >= self.p):
            return np.mod(diff, self.p)
        np.add(diff, self.p, out=diff, where=diff < 0)
        return diff

    def neg(self, a) -> np.ndarray:
        """Element-wise additive inverse (conditional correction, no modulus)."""
        flipped = -np.asarray(a, dtype=np.int64)
        if flipped.ndim == 0 or np.any(flipped > 0) or np.any(flipped <= -self.p):
            return np.mod(flipped, self.p)
        np.add(flipped, self.p, out=flipped, where=flipped < 0)
        return flipped

    def mul(self, a, b) -> np.ndarray:
        """Element-wise ``(a * b) mod p``.

        Inputs must be canonical (``< p``) so the product stays below
        ``p**2 < 2**50`` and cannot overflow ``int64``.  In the measured
        sweet spot (see :data:`_F64_MUL_BAND`) the product is reduced by
        the float64 Barrett multiply+shift — products below ``2**52`` are
        exact in float64, so the result is bit-identical; outside the
        band numpy's own libdivide multiply+shift kernel wins and is kept.
        """
        prod = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
        if (
            self.p < (1 << 26)
            and _F64_MUL_BAND[0] <= prod.size <= _F64_MUL_BAND[1]
        ):
            reduced = _reducer(self.p).reduce_f64(prod.astype(np.float64))
            return reduced.astype(np.int64)
        return np.mod(prod, self.p)

    def square(self, a) -> np.ndarray:
        """Element-wise ``a**2 mod p``."""
        return self.mul(a, a)

    def power(self, base, exponent: int) -> np.ndarray:
        """Element-wise modular exponentiation by a non-negative integer.

        Uses square-and-multiply with reduction after every step, so any
        array shape is supported.
        """
        if exponent < 0:
            return self.power(self.inv(base), -exponent)
        result = self.ones(np.shape(base))
        acc = self.element(base)
        e = exponent
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.square(acc)
            e >>= 1
        return result

    def inv(self, a) -> np.ndarray:
        """Element-wise multiplicative inverse via Fermat's little theorem.

        Raises
        ------
        FieldError
            If any entry is zero (zero has no inverse).
        """
        arr = self.element(a)
        if np.any(arr == 0):
            raise FieldError("zero has no multiplicative inverse in F_p")
        return self.power(arr, self.p - 2)

    def scalar_inv(self, a: int) -> int:
        """Inverse of a single scalar, returned as a Python int."""
        a = int(a) % self.p
        if a == 0:
            raise FieldError("zero has no multiplicative inverse in F_p")
        return pow(a, -1, self.p)

    # ------------------------------------------------------------------
    # signed lift (two's-complement-style centering)
    # ------------------------------------------------------------------
    @property
    def half(self) -> int:
        """Threshold separating 'positive' from 'negative' representatives."""
        return self.p // 2

    @property
    def signed_min(self) -> int:
        """Most negative integer representable by the signed lift."""
        return -(self.p // 2)

    @property
    def signed_max(self) -> int:
        """Most positive integer representable by the signed lift."""
        return self.p // 2

    def from_signed(self, values) -> np.ndarray:
        """Map signed integers into ``[0, p)`` (negatives get ``+p``).

        This is the ``Field`` procedure of the paper's Algorithm 1.  Values
        outside ``[-p/2, p/2]`` wrap and become ambiguous on the way back,
        which callers guard against via :mod:`repro.quantization`.
        """
        return self.element(values)

    def to_signed(self, values) -> np.ndarray:
        """Centre-lift canonical elements back to signed integers.

        Entries above ``p/2`` are interpreted as negatives (the paper's
        post-GPU "subtract p" step).
        """
        arr = self.element(values)
        return np.where(arr > self.half, arr - self.p, arr)

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def uniform(self, shape, rng: np.random.Generator) -> np.ndarray:
        """Uniformly random canonical field elements (the one-time-pad source)."""
        return rng.integers(0, self.p, size=shape, dtype=np.int64)

    def nonzero_uniform(self, shape, rng: np.random.Generator) -> np.ndarray:
        """Uniformly random *non-zero* field elements."""
        return rng.integers(1, self.p, size=shape, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrimeField(p={self.p})"
