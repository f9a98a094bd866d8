"""Pluggable field-op backends: BLAS-backed limb GEMM + Barrett reduction.

``np.matmul`` on ``int64`` never dispatches to BLAS — numpy runs a generic
C loop — so the chunked reduction in :func:`repro.fieldmath.linalg.field_matmul`
pays a 10-50x tax over hardware-speed float64 GEMM.  This module closes that
gap behind a bit-identical API:

**Limb decomposition.**  For a modulus ``p < 2**26`` every canonical element
``b`` splits into two 13-bit limbs ``b = b1 * 8192 + b0``.  The fast path
computes ``(a @ b) mod p`` from float64 GEMMs over the limbs; float64 holds
every integer below ``2**53`` exactly, so as long as the contraction stays
under that bound the BLAS result is the *exact* integer product — order of
accumulation (and therefore BLAS blocking) cannot change a single bit.

* ``K <= two_gemm_limit(p)`` (32 770 for the paper's ``p = 2**25 - 39``):
  split only ``b``.  ``a @ b0`` and ``a @ b1`` are two GEMMs with products
  ``<= (p-1) * 8191 < 2**39``; recombine as ``low + 8192 * high  (mod p)``.
* ``K <= karatsuba_limit(p)`` (~3.4e7): split both operands and use the
  Karatsuba identity ``a1b0 + a0b1 = (a0+a1)(b0+b1) - a0b0 - a1b1`` — three
  GEMMs whose products stay ``<= 16382**2 < 2**28``.
* beyond that (or ``p >= 2**26``): fall back to the generic chunked path.

**Barrett reduction.**  The reductions between GEMMs run entirely in
float64: ``q = floor(x * invp); r = x - q * p`` with a deliberately
*undershooting* inverse ``invp = (1 - 2**-50) / p`` so ``q`` never exceeds
the true quotient — ``r`` lands in ``[0, 2p)`` and one conditional subtract
canonicalises it.  No integer division anywhere on the fast path.  (For
element-wise ``int64 mod p`` numpy's own scalar-modulus kernel already
lowers to a libdivide multiply+shift, i.e. Barrett; the explicit int64
``BarrettReducer.reduce_int64`` here is the property-tested reference, and
:class:`repro.fieldmath.prime.PrimeField` uses the division-free
conditional-correction forms for add/sub/mul instead.)

The generic backend is kept as the oracle: every fast kernel is
property-tested bit-identical against it (``tests/test_fieldmath_kernels``).
Select a backend per call (``field_matmul(..., backend=...)``) or
lexically (:func:`use_backend`); nothing in the runtime moves the process
default (:func:`set_default_backend`) off ``"limb"``.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.errors import FieldError
from repro.precompute.scratch import active_scratch

#: Limb geometry: 13-bit limbs cover any modulus below 2**26.
LIMB_BITS = 13
LIMB_BASE = 1 << LIMB_BITS
LIMB_MASK = LIMB_BASE - 1

#: Loss of precision floor: every integer below this is exact in float64.
_F64_EXACT = 2**53


def two_gemm_limit(p: int) -> int:
    """Longest contraction the 2-GEMM split-B path computes exactly.

    ``a @ b0`` accumulates ``K`` products ``<= (p-1) * LIMB_MASK``; the
    recombination adds ``LIMB_BASE * high`` with ``high < 2p`` (lazy
    reduction), so exactness needs
    ``K * (p-1) * LIMB_MASK + 2 * LIMB_BASE * p < 2**53``.
    """
    return (_F64_EXACT - 2 * LIMB_BASE * p) // ((p - 1) * LIMB_MASK)


def karatsuba_limit(p: int) -> int:
    """Longest contraction the 3-GEMM Karatsuba path computes exactly.

    The binding term is the middle GEMM ``(a0+a1) @ (b0+b1)`` whose
    products reach ``(2 * LIMB_MASK)**2``; its ``K``-term accumulation
    must stay below ``2**53``.
    """
    return _F64_EXACT // ((2 * LIMB_MASK) ** 2)


class BarrettReducer:
    """Division-free reduction mod ``p`` in float64 and int64.

    The float64 form is the hot path: between limb GEMMs every value is an
    exactly-represented integer below ``2**53``, and ``floor(x * invp)``
    with the undershooting inverse is at most the true quotient and at most
    one short of it — so ``x - q*p`` lands in ``[0, 2p)`` ("lazy") and a
    single conditional subtract finishes the job.

    The int64 form is the classic ``q = ((x >> (n-1)) * m) >> (n+1)``
    multiply+shift with ``m = floor(2**(2n) / p)``; exact for
    ``0 <= x < 2**(2n)``.  It exists as the property-tested reference —
    numpy's own ``np.remainder(array, scalar)`` kernel already lowers to
    the same multiply+shift via libdivide, and (measured) beats any
    multi-pass reimplementation, which is why :class:`PrimeField` keeps it
    for the arbitrary-range ``element`` reduction.
    """

    def __init__(self, p: int) -> None:
        if p < 3:
            raise FieldError(f"modulus must be >= 3, got {p}")
        self.p = int(p)
        self.pf = float(p)
        #: Undershooting inverse: (1 - 2**-50)/p rounds q down, never up.
        self.invp = (1.0 - 2.0**-50) / p
        self.shift_bits = p.bit_length()
        if self.shift_bits <= 30:
            self.multiplier = (1 << (2 * self.shift_bits)) // p
        else:  # (x >> (n-1)) * m would overflow int64
            self.multiplier = None

    # -- float64 ------------------------------------------------------
    def reduce_f64_lazy(self, x: np.ndarray) -> np.ndarray:
        """In-place Barrett step on exact-integer float64: result in [0, 2p)."""
        q = np.floor(x * self.invp)
        q *= self.pf
        x -= q
        return x

    def reduce_f64(self, x: np.ndarray) -> np.ndarray:
        """In-place full reduction of exact-integer float64 into [0, p)."""
        self.reduce_f64_lazy(x)
        np.subtract(x, self.pf, out=x, where=x >= self.pf)
        return x

    # -- int64 (reference) --------------------------------------------
    def reduce_int64(self, x: np.ndarray) -> np.ndarray:
        """Multiply+shift reduction of ``0 <= x < 2**(2n)`` into [0, p)."""
        if self.multiplier is None:
            raise FieldError(
                f"int64 Barrett needs p < 2**30, got bit length {self.shift_bits}"
            )
        x = np.asarray(x, dtype=np.int64)
        q = ((x >> (self.shift_bits - 1)) * self.multiplier) >> (self.shift_bits + 1)
        r = x - q * self.p
        np.subtract(r, self.p, out=r, where=r >= self.p)
        np.subtract(r, self.p, out=r, where=r >= self.p)
        return r


@lru_cache(maxsize=64)
def barrett(p: int) -> BarrettReducer:
    """Cached per-modulus reducer (the constants are pure functions of p)."""
    return BarrettReducer(p)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------


class GenericBackend:
    """The oracle: chunked int64 products, reduced with numpy's modulus.

    A single field product is below ``p**2 < 2**62``; summing more than
    ``floor(2**63 / p**2)`` of them can overflow int64, so the contraction
    axis is split into ``chunk``-sized blocks, each partial reduced mod
    ``p`` and the (now ``< p``) partials accumulated and reduced again.
    Exact for any ``p < 2**31``, any shape — and therefore the reference
    every fast path is property-tested against.
    """

    name = "generic"

    def matmul(self, field, a: np.ndarray, b: np.ndarray, chunk: int) -> np.ndarray:
        n = a.shape[-1]
        out_shape = a.shape[:-1] + b.shape[1:]
        result = np.zeros(out_shape, dtype=np.int64)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            partial = np.matmul(a[..., start:stop], b[start:stop])
            result += np.mod(partial, field.p)
        return np.mod(result, field.p)

    def matmul_stacked(
        self, field, a: np.ndarray, b: np.ndarray, chunk: int
    ) -> np.ndarray:
        """Per-slice oracle: ``out[s] = (a[s] @ b[s]) mod p``."""
        out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
        for s in range(a.shape[0]):
            out[s] = self.matmul(field, a[s], b[s], chunk)
        return out


class LimbBackend:
    """13-bit-limb float64 GEMMs: exact ``(a @ b) mod p`` at BLAS speed.

    Dispatch by contraction length ``K`` (bounds proven in the module
    docstring; overridable caps exist purely so tests can force each
    branch on small operands):

    * ``K <= two_gemm_limit(p)`` — split-B, 2 GEMMs;
    * ``K <= karatsuba_limit(p)`` — both operands split, 3 GEMMs;
    * otherwise, or ``p >= 2**26``, or a >2-D ``b`` in :meth:`matmul` —
      generic.

    :meth:`matmul_stacked` runs ``S`` independent products as one batched
    GEMM per limb plane (``np.matmul`` over a leading axis) through the
    same two kernels, so the bounds — which depend only on ``K`` and
    ``p`` — and the exactness argument are unchanged.
    """

    name = "limb"

    def __init__(
        self,
        two_gemm_cap: int | None = None,
        karatsuba_cap: int | None = None,
    ) -> None:
        self._two_gemm_cap = two_gemm_cap
        self._karatsuba_cap = karatsuba_cap
        self._generic = GenericBackend()

    def _kernel_for(self, p: int, k: int):
        """The exact limb kernel for contraction length ``k``, or ``None``
        when only the oracle is exact (limbs no longer fit 13 bits, empty
        contraction, or ``k`` beyond the Karatsuba bound)."""
        if p >= 1 << (2 * LIMB_BITS) or k == 0:
            return None
        two_gemm_max = (
            self._two_gemm_cap if self._two_gemm_cap is not None else two_gemm_limit(p)
        )
        kara_max = (
            self._karatsuba_cap
            if self._karatsuba_cap is not None
            else karatsuba_limit(p)
        )
        if k <= two_gemm_max:
            return self._two_gemm
        if k <= kara_max:
            return self._karatsuba
        return None

    def matmul(self, field, a: np.ndarray, b: np.ndarray, chunk: int) -> np.ndarray:
        k = a.shape[-1]
        kernel = None if b.ndim > 2 else self._kernel_for(field.p, k)
        if kernel is None:
            return self._generic.matmul(field, a, b, chunk)
        out_shape = a.shape[:-1] + b.shape[1:]
        flat = kernel(barrett(field.p), a.reshape(-1, k), b.reshape(k, -1))
        return flat.astype(np.int64).reshape(out_shape)

    def matmul_stacked(
        self, field, a: np.ndarray, b: np.ndarray, chunk: int
    ) -> np.ndarray:
        """``out[s] = (a[s] @ b[s]) mod p`` for ``(S,m,k) @ (S,k,n)``."""
        kernel = self._kernel_for(field.p, a.shape[-1])
        if kernel is None:
            return self._generic.matmul_stacked(field, a, b, chunk)
        return kernel(barrett(field.p), a, b).astype(np.int64)

    @staticmethod
    def _two_gemm(red: BarrettReducer, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Split-B path: products <= (p-1)*LIMB_MASK, 2 GEMMs, 2 reductions.

        ``a``/``b`` are ``(m,k)``/``(k,n)`` or the same with one leading
        stack axis; every step is element-wise or ``np.matmul``, which
        batches over it.

        With the precompute scratch pool enabled every intermediate —
        limb planes and both GEMM outputs — lives in recycled per-shape
        buffers (``out=`` GEMM variants); the ``beta=0`` BLAS call and
        in-place ufuncs make the result bit-identical either way.  The
        returned array may alias pool memory: both callers copy it out
        via ``astype(np.int64)`` immediately.
        """
        scratch = active_scratch()
        if scratch is None:
            af = a.astype(np.float64)
            low = np.matmul(af, (b & LIMB_MASK).astype(np.float64))
            high = np.matmul(af, (b >> LIMB_BITS).astype(np.float64))
        else:
            af = scratch.cast("2g_a", a, np.float64)
            b_int = scratch.get("2g_bi", b.shape, np.int64)
            b_f = scratch.get("2g_bf", b.shape, np.float64)
            out_shape = a.shape[:-1] + b.shape[-1:]
            low = scratch.get("2g_lo", out_shape, np.float64)
            high = scratch.get("2g_hi", out_shape, np.float64)
            np.bitwise_and(b, LIMB_MASK, out=b_int)
            np.copyto(b_f, b_int, casting="unsafe")
            np.matmul(af, b_f, out=low)
            np.right_shift(b, LIMB_BITS, out=b_int)
            np.copyto(b_f, b_int, casting="unsafe")
            np.matmul(af, b_f, out=high)
        red.reduce_f64_lazy(high)  # [0, 2p): keeps the recombination < 2**53
        high *= float(LIMB_BASE)
        low += high
        return red.reduce_f64(low)

    @staticmethod
    def _karatsuba(red: BarrettReducer, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Both operands split; 3 GEMMs via the Karatsuba middle term."""
        a0 = (a & LIMB_MASK).astype(np.float64)
        a1 = (a >> LIMB_BITS).astype(np.float64)
        b0 = (b & LIMB_MASK).astype(np.float64)
        b1 = (b >> LIMB_BITS).astype(np.float64)
        c00 = np.matmul(a0, b0)
        c11 = np.matmul(a1, b1)
        a0 += a1
        b0 += b1
        mid = np.matmul(a0, b0)
        mid -= c00
        mid -= c11  # exact: a0b1 + a1b0, still an integer < 2**53
        # x = c00 + 2**13 * mid + 2**26 * c11 (mod p), recombined in two
        # lazy steps so every float64 intermediate stays an exact integer:
        # c00, mid reduced to [0, 2p) keep c00 + 2**13*mid < 2**15 * p,
        # and (2**26 mod p) * c11_r < 2p**2 < 2**53 for p < 2**26.
        red.reduce_f64_lazy(mid)
        mid *= float(LIMB_BASE)
        red.reduce_f64_lazy(c00)
        c00 += mid
        red.reduce_f64_lazy(c00)
        red.reduce_f64_lazy(c11)
        c11 *= float((1 << (2 * LIMB_BITS)) % red.p)
        red.reduce_f64_lazy(c11)
        c00 += c11
        return red.reduce_f64(c00)


#: Registry consulted by name lookups (config validation imports this).
BACKENDS: dict[str, object] = {
    "generic": GenericBackend(),
    "limb": LimbBackend(),
}

_default_name = "limb"


def get_backend(name: str):
    """Backend instance by registry name."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise FieldError(
            f"unknown field backend {name!r} (available: {sorted(BACKENDS)})"
        ) from None


def default_backend():
    """The backend ``field_matmul`` uses when none is passed explicitly."""
    return BACKENDS[_default_name]


def default_backend_name() -> str:
    """Registry name of the current default backend."""
    return _default_name


def set_default_backend(name: str) -> str:
    """Switch the process-wide default backend; returns the previous name."""
    global _default_name
    get_backend(name)  # validate before committing
    previous = _default_name
    _default_name = name
    return previous


@contextmanager
def use_backend(name: str):
    """Lexically scoped default-backend override (tests and benchmarks)."""
    previous = set_default_backend(name)
    try:
        yield get_backend(name)
    finally:
        set_default_backend(previous)
