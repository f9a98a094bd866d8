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

* ``K <= one_gemm_limit(p)`` (8 for the paper's ``p = 2**25 - 39``): no
  split at all.  ``K`` products ``<= (p-1)**2`` already sum below ``2**53``,
  so ``a @ b`` is one float64 GEMM and one Barrett reduction.  Every
  contraction over a virtual batch's ``K + M (+1)`` sources or shares —
  encode, decode, the ``Σβ·δ`` combine, the γ-decode, a dense outer
  product — lands here.
* ``K <= two_gemm_limit(p)`` (32 770): split the *smaller* operand only
  (the exactness argument is symmetric).  Its low and high limb planes
  ride on a leading axis that ``np.matmul`` broadcasts over, so both
  partial products — each with products ``<= (p-1) * 8191 < 2**39`` — come
  out of one call, and the larger operand is converted to float64 once;
  recombine as ``low + 8192 * high  (mod p)``.
* beyond that (or ``p >= 2**26``): fall back to the generic chunked path.
  Nothing in ``models/`` contracts over more than 25 088 (VGG16's fc6).

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

**Allocation.**  The limb backend's float64 temporaries live in one
grow-only workspace it owns, so a product allocates nothing but its int64
result (see :class:`LimbBackend` for why that matters at stacked sizes).

The generic backend is kept as the oracle: every fast kernel is
property-tested bit-identical against it (``tests/test_fieldmath_kernels``).
Select a backend per call (``field_matmul(..., backend=...)``) or
lexically (:func:`use_backend`); nothing in the runtime moves the process
default (:func:`set_default_backend`) off ``"limb"``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.errors import FieldError

#: Limb geometry: 13-bit limbs cover any modulus below 2**26.
LIMB_BITS = 13
LIMB_BASE = 1 << LIMB_BITS
LIMB_MASK = LIMB_BASE - 1

#: Loss of precision floor: every integer below this is exact in float64.
_F64_EXACT = 2**53


def one_gemm_limit(p: int) -> int:
    """Longest contraction a single unsplit float64 GEMM computes exactly:
    ``K`` products ``<= (p-1)**2`` must sum below ``2**53``."""
    return (_F64_EXACT - 1) // ((p - 1) ** 2)


def two_gemm_limit(p: int) -> int:
    """Longest contraction the one-operand-split path computes exactly.

    A limb plane's GEMM accumulates ``K`` products ``<= (p-1) * LIMB_MASK``;
    the recombination adds ``LIMB_BASE * high`` with ``high < 2p`` (lazy
    reduction), so exactness needs
    ``K * (p-1) * LIMB_MASK + 2 * LIMB_BASE * p < 2**53``.
    """
    return (_F64_EXACT - 2 * LIMB_BASE * p) // ((p - 1) * LIMB_MASK)


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
    def reduce_f64_lazy(self, x: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
        """In-place Barrett step on exact-integer float64: result in [0, 2p).

        ``q`` is an optional same-shape buffer for the quotient estimate
        (allocated when absent)."""
        q = np.multiply(x, self.invp, out=q)
        np.floor(q, out=q)
        q *= self.pf
        x -= q
        return x

    def reduce_f64(self, x: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
        """In-place full reduction of exact-integer float64 into [0, p)."""
        self.reduce_f64_lazy(x, q)
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
    """Float64 BLAS GEMMs, limb-split only as far as exactness needs.

    Dispatch by contraction length ``K`` (bounds proven in the module
    docstring; overridable caps exist purely so tests can force each
    branch on small operands):

    * ``K <= one_gemm_limit(p)`` — no split, 1 GEMM, 1 reduction;
    * ``K <= two_gemm_limit(p)`` — the smaller operand split into two
      13-bit limb planes, 1 GEMM call over both;
    * otherwise, or ``p >= 2**26``, or a >2-D ``b`` in :meth:`matmul` —
      generic.

    :meth:`matmul_stacked` runs ``S`` independent products as batched
    GEMMs (``np.matmul`` over a leading axis) through the same kernels, so
    the bounds — which depend only on ``K`` and ``p`` — and the exactness
    argument are unchanged.

    The kernels' float64 temporaries — operand copies, limb planes, GEMM
    outputs, Barrett quotients — are views of one grow-only workspace this
    backend owns, and every ufunc runs in place in it: a call allocates
    only its int64 result.  That is a performance property, not a nicety —
    a layer step's stacked products have ~1 MB temporaries, which sit
    above glibc's mmap threshold, so allocating them per call means
    mapping, zero-filling and unmapping fresh pages every time
    (``(24,8,64) @ (24,64,72)``: 1.5 ms and 800 minor faults per call
    that way, 0.4 ms and none this way).  The views are remembered per
    operand geometry, so small products pay a dictionary lookup for them,
    not a round of slicing.
    """

    name = "limb"

    #: Operand geometries whose workspace views are remembered before the
    #: memo starts over (shape churn past this is not a steady state).
    MAX_REMEMBERED_GEOMETRIES = 256

    def __init__(
        self,
        two_gemm_cap: int | None = None,
        one_gemm_cap: int | None = None,
    ) -> None:
        self._caps = (one_gemm_cap, two_gemm_cap)
        self._generic = GenericBackend()
        self._tiers: dict[int, tuple] = {}
        self._workspace = np.empty(0, dtype=np.float64)
        self._views: dict[tuple, tuple] = {}

    # -- dispatch --------------------------------------------------------
    def _kernel_for(self, p: int, k: int):
        """The cheapest exact kernel for contraction length ``k``, or
        ``None`` when only the oracle is exact (empty contraction, or
        ``k`` beyond what the modulus's limbs allow)."""
        tiers = self._tiers.get(p)
        if tiers is None:
            tiers = self._tiers[p] = self._tiers_for(p)
        if k:
            for longest, kernel in tiers:
                if k <= longest:
                    return kernel
        return None

    def _tiers_for(self, p: int) -> tuple:
        """``(longest exact contraction, kernel)`` per tier, cheapest first."""
        kernels = [(one_gemm_limit, self._one_gemm)]
        if p < 1 << (2 * LIMB_BITS):  # beyond that, limbs no longer fit 13 bits
            kernels.append((two_gemm_limit, self._two_gemm))
        return tuple(
            (bound(p) if cap is None else cap, kernel)
            for cap, (bound, kernel) in zip(self._caps, kernels)
        )

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

    # -- workspace -------------------------------------------------------
    def _carve(self, *operands_and_shapes) -> list[np.ndarray]:
        """Float64 arrays (contents undefined) carved side by side from the
        workspace, one per argument: a shape gives a C-ordered array; an
        operand gives one of its shape laid out as the operand is — a
        transposed view (an unfolded conv operand, say) stays transposed,
        so converting into it is one straight pass and BLAS takes the
        transposition as a flag instead of a strided copy."""
        shapes = [getattr(arg, "shape", arg) for arg in operands_and_shapes]
        sizes = [math.prod(shape) for shape in shapes]
        if self._workspace.size < sum(sizes):
            self._workspace = np.empty(sum(sizes), dtype=np.float64)
            self._views.clear()  # they point into the buffer just dropped
        carved, start = [], 0
        for arg, shape, size in zip(operands_and_shapes, shapes, sizes):
            flat = self._workspace[start : start + size]
            strides = getattr(arg, "strides", ())
            if len(shape) >= 2 and strides and strides[-2] < strides[-1]:
                carved.append(flat.reshape(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2))
            else:
                carved.append(flat.reshape(shape))
            start += size
        return carved

    def _remember(self, key: tuple, views: tuple) -> tuple:
        """Keep freshly carved ``views`` for the next call of this geometry."""
        if len(self._views) >= self.MAX_REMEMBERED_GEOMETRIES:
            self._views.clear()
        self._views[key] = views
        return views

    # -- kernels ---------------------------------------------------------
    def _one_gemm(self, red: BarrettReducer, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Unsplit path: ``k * (p-1)**2 < 2**53``, so the float64 product
        is the exact integer product; one GEMM, one reduction.

        The returned array aliases the workspace: both callers copy it
        out via ``astype(np.int64)`` immediately.
        """
        key = (1, a.shape, b.shape, a.strides, b.strides)
        views = self._views.get(key)
        if views is None:
            out_shape = a.shape[:-1] + b.shape[-1:]
            views = self._remember(key, tuple(self._carve(a, b, out_shape, out_shape)))
        a_f, b_f, out, q = views
        np.copyto(a_f, a)
        np.copyto(b_f, b)
        return red.reduce_f64(np.matmul(a_f, b_f, out=out), q)

    def _two_gemm(self, red: BarrettReducer, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One operand split: products <= (p-1)*LIMB_MASK, 2 reductions.

        ``a``/``b`` are ``(m,k)``/``(k,n)`` or the same with one leading
        stack axis; every step is element-wise or ``np.matmul``, which
        batches over it.  The smaller operand is the one split — its two
        limb planes ride on a new leading axis that ``np.matmul``
        broadcasts over, so both partial products come out of one call as
        contiguous planes — and the larger operand is only converted to
        float64, once.  Aliases the workspace like :meth:`_one_gemm`.
        """
        split_a = a.size <= b.size
        small, large = (a, b) if split_a else (b, a)
        key = (2, a.shape, b.shape, a.strides, b.strides)
        views = self._views.get(key)
        if views is None:
            out_shape = a.shape[:-1] + b.shape[-1:]
            planes, large_f, out, q = self._carve(
                (2,) + small.shape, large, (2,) + out_shape, out_shape
            )
            views = self._remember(
                key, (planes[0], planes[1], planes, large_f, out, out[0], out[1], q)
            )
        lo, hi, planes, large_f, out, low, high, q = views
        # floor(x / 2**13) and the remainder are exact in float64, so the
        # planes need no integer temporaries.
        np.multiply(small, 1.0 / LIMB_BASE, out=hi)
        np.floor(hi, out=hi)
        np.multiply(hi, -float(LIMB_BASE), out=lo)
        lo += small
        np.copyto(large_f, large)
        if split_a:
            np.matmul(planes, large_f, out=out)
        else:
            np.matmul(large_f, planes, out=out)
        red.reduce_f64_lazy(high, q)  # [0, 2p): keeps the recombination < 2**53
        high *= float(LIMB_BASE)
        low += high
        return red.reduce_f64(low, q)


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
