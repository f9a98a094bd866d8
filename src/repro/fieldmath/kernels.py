"""Field-op backends: BLAS-backed limb GEMM + Barrett reduction.

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

The tiers, cheapest first; each is taken when its bound holds:

* **a public operand, one GEMM** (:meth:`LimbBackend.matmul_public`):
  ``k * (p-1) * W < 2**53``, where ``W`` is the largest magnitude of the
  public operand's centred lift (:class:`PublicOperand`, entries in
  ``(-p/2, p/2)``).  Quantized weights are public and a few hundred in
  magnitude (``2**l`` with ``l = 8``) where ``p/2`` is about ``2**24``, so
  every forward GPU launch of ``models/`` contracts against them in one
  signed float64 GEMM — the private operand written straight into float64
  — and one signed reduction.  Nothing in the bound depends on the order
  of accumulation: every partial sum is an integer of magnitude at most
  ``k * (p-1) * W``.
* ``K <= one_gemm_limit(p)`` (8 for the paper's ``p = 2**25 - 39``): no
  split at all.  ``K`` products ``<= (p-1)**2`` already sum below ``2**53``,
  so ``a @ b`` is one float64 GEMM and one Barrett reduction.  Every
  contraction over a virtual batch's ``K + M (+1)`` sources or shares —
  encode, decode, the ``Σβ·δ`` combine, the γ-decode, a dense outer
  product — lands here; an operand used over and over (a coefficient
  set's matrices) may come with its float64 copy, so it is not converted
  on every call.
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
canonicalises it.  A signed product lands within one of the true quotient
on either side, so two conditional corrections finish it.  No integer
division anywhere on the fast path.  (For element-wise ``int64 mod p``
numpy's own scalar-modulus kernel already lowers to a libdivide
multiply+shift, i.e. Barrett, and :class:`repro.fieldmath.prime.PrimeField`
uses the division-free conditional-correction forms for add/sub/mul.)

**Allocation.**  The limb backend's float64 temporaries live in one
grow-only workspace it owns, so a product allocates nothing but its
result (see :class:`LimbBackend` for why that matters at stacked sizes).

**Ownership.**  A backend is an object its owner holds, never a name or
a process setting: each :class:`repro.gpu.FieldKernels` (so each GPU
cluster) builds its own :class:`LimbBackend`, and the enclave-side
products run on one per thread, private to :mod:`repro.fieldmath.linalg`.
A workspace is written mid-product, so no two threads may share one: a
cluster is driven from one thread at a time.  :class:`GenericBackend` is
the oracle: every fast kernel is property-tested bit-identical against it
(``tests/test_fieldmath_kernels``), and it has no float tier at all — pass
``GenericBackend()`` where a backend is taken and no product takes a float
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import FieldError

#: Limb geometry: 13-bit limbs cover any modulus below 2**26.
LIMB_BITS = 13
LIMB_BASE = 1 << LIMB_BITS
LIMB_MASK = LIMB_BASE - 1

#: Loss of precision floor: every integer below this is exact in float64.
_F64_EXACT = 2**53


def int64_sum_limit(p: int) -> int:
    """Longest contraction one int64 product sums without overflow: ``K``
    products ``<= (p-1)**2`` must sum to at most ``2**63 - 1``.  That is
    8,192 at the default 25-bit prime and still 2 at ``p = 2**31 - 1``."""
    return (2**63 - 1) // (p - 1) ** 2


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


def public_gemm_exact(p: int, k: int, bound: int) -> bool:
    """Whether one float64 GEMM contracts ``k`` canonical elements against a
    centred operand of magnitude ``<= bound`` exactly: every partial sum is
    an integer of magnitude at most ``k * (p-1) * bound``, which must stay
    below ``2**53``."""
    return k * (p - 1) * bound < _F64_EXACT


#: Magnitude below which one correctly rounded quotient reduces exactly.
_ONE_QUOTIENT_LIMIT = 1 << 50


class BarrettReducer:
    """Division-free reduction mod ``p`` of exact-integer float64.

    Between limb GEMMs every value is an exactly-represented integer below
    ``2**53``, and ``floor(x * invp)`` with the undershooting inverse is at
    most the true quotient and at most one short of it — so ``x - q*p``
    lands in ``[0, 2p)`` ("lazy") and a single conditional subtract
    finishes the job.  :meth:`reduce_f64_signed` takes either sign.  (The
    inverse moves ``x / p`` by less than ``2**4 / p``: less than one for
    every ``p > 16``, and for a smaller modulus at every magnitude an array
    that fits in memory can reach.)
    """

    def __init__(self, p: int) -> None:
        if p < 3 or p % 2 == 0:
            raise FieldError(f"modulus must be odd and >= 3, got {p}")
        self.p = int(p)
        self.pf = float(p)
        #: Undershooting inverse: (1 - 2**-50)/p rounds q down, never up.
        self.invp = (1.0 - 2.0**-50) / p
        #: Correctly rounded inverse, for the one-quotient reduction.
        self.inv_nearest = 1.0 / p

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
        """In-place full reduction of exact-integer float64 into [0, p).

        The lazy step is a quotient short only for ``x`` just above a
        multiple of ``p``, so the conditional subtract almost never has
        work: one ``max`` decides whether it runs at all (a ``where=``
        pass costs about three plain ones, work or not)."""
        self.reduce_f64_lazy(x, q)
        if x.size and np.maximum.reduce(x, None) >= self.pf:
            np.subtract(x, self.pf, out=x, where=x >= self.pf)
        return x

    def reduce_f64_signed(
        self, x: np.ndarray, q: np.ndarray, t: np.ndarray, bound: int = 1 << 53
    ) -> np.ndarray:
        """In-place reduction of exact-integer float64 ``|x| <= bound <
        2**53``, either sign, into [0, p); ``q`` and ``t`` are same-shape
        scratch.

        Below ``2**50`` (every forward launch of ``models/``: ``bound`` is
        ``k * (p-1) * W``) one quotient is exact: ``(x + 1/2) / p`` is never
        an integer (``2x + 1`` is odd) and lies at least ``1/(2p)`` from
        one, while ``(x + 1/2) * (1/p)``, rounded twice, is off by less than
        ``|x| / p * 2**-52 < 1/(4p)``; so ``floor`` of it is ``floor(x / p)``
        and ``x - q*p`` (all below ``2**51``) is exact.  Five passes.

        The undershooting quotient pulls ``x * invp`` towards zero by less
        than one, so ``q = floor(x * invp)`` is the true floor quotient or
        one off it (short for ``x >= 0``, over for ``x < 0``): ``x - q*p``
        lies in ``[-p, 2p)``.  For negative ``x`` near ``-2**53``, ``q*p``
        itself may pass ``2**53`` and lose its last bit, so it is subtracted
        in two exact pieces: ``q*(p-1)`` is even, hence exact below
        ``2**54``, and takes ``x`` back near zero before ``q`` goes.

        A second, exact quotient in ``{-1, 0, 1}`` finishes it:
        ``(y + 1/2) / p`` is never an integer (``2y + 1`` is odd) and lies at
        least ``1/(2p)`` from one, far beyond the product's rounding error,
        so ``floor((y + 1/2) * invp)`` is ``floor(y / p)``.  That finish is
        five plain passes and no ``where=`` mask: a masked pass costs
        several plain ones when the mask is irregular, as a served
        product's is.
        """
        if bound < _ONE_QUOTIENT_LIMIT:
            np.add(x, 0.5, out=q)
            q *= self.inv_nearest
        else:
            np.multiply(x, self.invp, out=q)
            np.floor(q, out=q)
            np.multiply(q, self.pf - 1.0, out=t)
            x -= t
            x -= q  # x - q*p exactly: in [-p, 2p)
            np.add(x, 0.5, out=q)
            q *= self.invp
        np.floor(q, out=q)
        q *= self.pf
        x -= q
        return x


def _copied_out(product: np.ndarray, b: np.ndarray, into: np.ndarray | None) -> np.ndarray:
    """A kernel's reduced product, a view of the workspace, copied out: cast
    into ``into`` (same size) when given, else a fresh array of ``b``'s
    kind — float64 for a float64 ``b``, int64 otherwise."""
    if into is None:
        return product.astype(np.float64 if b.dtype == np.float64 else np.int64)
    np.copyto(into, product.reshape(into.shape), casting="unsafe")
    return into


@lru_cache(maxsize=64)
def barrett(p: int) -> BarrettReducer:
    """Cached per-modulus reducer (the constants are pure functions of p)."""
    return BarrettReducer(p)


@dataclass(frozen=True)
class PublicOperand:
    """A public field matrix, lifted once for every product it takes part in.

    ``values`` is the operand as given; ``centred`` holds the same elements
    as float64 integers in ``(-p/2, p/2)`` — ``v`` up to ``p // 2``,
    ``v - p`` above — and ``bound`` is their largest magnitude.  Both keep
    ``values``' shape; ``centred`` is read-only.  Quantized weights are
    public and a few hundred in magnitude, which is what lets a contraction
    against them run as one float64 GEMM (:func:`public_gemm_exact`).
    """

    values: np.ndarray
    centred: np.ndarray
    bound: int

    @classmethod
    def lift(cls, field, values: np.ndarray) -> "PublicOperand":
        """Centre-lift ``values`` (reduced mod ``p`` first) and read its bound."""
        values = np.asarray(values, dtype=np.int64)
        centred = np.mod(values, field.p).astype(np.float64)
        np.subtract(centred, field.p, out=centred, where=centred > field.half)
        centred.setflags(write=False)
        bound = int(max(centred.max(initial=0.0), -centred.min(initial=0.0)))
        return cls(values, centred, bound)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------


class GenericBackend:
    """The oracle: chunked int64 products, reduced with numpy's modulus.

    A single field product is at most ``(p-1)**2 < 2**62``; summing more
    than :func:`int64_sum_limit` of them can overflow int64, so the
    contraction axis is split into blocks of that length, each partial
    reduced mod ``p`` and the (now ``< p``) partials accumulated and
    reduced again.  Exact for any ``p < 2**31``, any shape — and therefore
    the reference every fast path is property-tested against.  It has no
    float path: ``a_float`` is ignored and :meth:`matmul_public` declines
    every product.
    """

    def matmul(
        self, field, a: np.ndarray, b: np.ndarray, a_float=None, into=None
    ) -> np.ndarray:
        if b.dtype == np.float64:  # exact integers: multiplied as int64, handed back as float64
            product = self.matmul(field, a, b.astype(np.int64), into=into)
            return product if into is not None else product.astype(np.float64)
        n = a.shape[-1]
        out_shape = a.shape[:-1] + b.shape[1:]
        result = np.zeros(out_shape, dtype=np.int64)
        chunk = int64_sum_limit(field.p)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            partial = np.matmul(a[..., start:stop], b[start:stop])
            result += np.mod(partial, field.p)
        result = np.mod(result, field.p)
        if into is None:
            return result
        np.copyto(into, result.reshape(into.shape))
        return into

    def matmul_stacked(
        self, field, a: np.ndarray, b: np.ndarray, a_float=None, into=None
    ) -> np.ndarray:
        """Per-slice oracle: ``out[s] = (a[s] @ b[s]) mod p``, in ``b``'s
        dtype or cast into ``into``."""
        out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=b.dtype) if into is None else into
        for s in range(a.shape[0]):
            out[s] = self.matmul(field, a[s], b[s])
        return out

    def matmul_public(
        self, field, public, private_shape, fill, scratch_shapes=(), public_left=True, into=None
    ):
        """Always ``None``: the caller runs its integer product instead."""
        return None


class LimbBackend:
    """Float64 BLAS GEMMs, limb-split only as far as exactness needs.

    Dispatch by contraction length ``K`` (bounds proven in the module
    docstring; overridable caps exist purely so tests can force each
    branch on small operands):

    * :meth:`matmul_public`, a public operand of centred magnitude ``W`` —
      1 signed GEMM, 1 reduction, while ``K * (p-1) * W < 2**53``, else
      ``None`` (the caller's integer product takes the tiers below);
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
    only its result.  That is a performance property, not a nicety —
    a layer step's stacked products have ~1 MB temporaries, which sit
    above glibc's mmap threshold, so allocating them per call means
    mapping, zero-filling and unmapping fresh pages every time
    (``(24,8,64) @ (24,64,72)``: 1.5 ms and 800 minor faults per call
    that way, 0.4 ms and none this way).  The views are remembered per
    operand geometry, so small products pay a dictionary lookup for them,
    not a round of slicing.
    """

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

    def matmul(
        self, field, a: np.ndarray, b: np.ndarray, a_float=None, into=None
    ) -> np.ndarray:
        """``(a @ b) mod p`` in ``b``'s dtype; ``a_float``, when given, is
        ``a`` as float64 (equal values, any layout), which the unsplit tier
        reads instead of converting ``a`` — the other tiers split integers
        and ignore it.

        ``b`` holds canonical elements as int64, or as float64 exact
        integers — the form the enclave keeps a masking step's values in —
        which the unsplit tier multiplies as they stand and which come back
        as float64: no int64 on either side of that GEMM.  ``into``, an
        array of the product's size, takes the product cast into it instead
        (int64 shares from a float64 source block, with no float64 copy
        between) and is returned."""
        k = a.shape[-1]
        kernel = None if b.ndim > 2 else self._kernel_for(field.p, k)
        if kernel is None:
            return self._generic.matmul(field, a, b, into=into)
        if a.ndim == b.ndim == 2:
            return _copied_out(kernel(barrett(field.p), a, b, a_float), b, into)
        out_shape = a.shape[:-1] + b.shape[1:]
        if a_float is not None:
            a_float = a_float.reshape(-1, k)
        flat = kernel(barrett(field.p), a.reshape(-1, k), b.reshape(k, -1), a_float)
        if into is not None:
            return _copied_out(flat, b, into)
        return _copied_out(flat, b, None).reshape(out_shape)

    def matmul_stacked(
        self, field, a: np.ndarray, b: np.ndarray, a_float=None, into=None
    ) -> np.ndarray:
        """``out[s] = (a[s] @ b[s]) mod p`` for ``(S,m,k) @ (S,k,n)``
        (``a_float``, ``b``'s dtype and ``into`` as in :meth:`matmul`)."""
        kernel = self._kernel_for(field.p, a.shape[-1])
        if kernel is None:
            return self._generic.matmul_stacked(field, a, b, into=into)
        return _copied_out(kernel(barrett(field.p), a, b, a_float), b, into)

    def matmul_public(
        self,
        field,
        public: PublicOperand,
        private_shape: tuple[int, ...],
        fill,
        scratch_shapes: tuple[tuple[int, ...], ...] = (),
        public_left: bool = True,
        into: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """``public @ private`` (or ``private @ public``) mod ``p`` as one
        signed float64 GEMM, or ``None`` when :func:`public_gemm_exact`
        does not hold for it.

        On the left, ``public.centred`` contracts over all axes but its
        first (conv weights ``(F, C, KH, KW)`` as ``(F, C*KH*KW)``); on the
        right it is 2-D.  The private operand — canonical
        elements of shape ``private_shape``, ``(..., k, n)`` (or
        ``(..., m, k)``), leading axes batching the GEMM — is not passed
        in: ``fill(private, *scratch)`` writes it straight into a float64
        workspace view of that shape, given one more view per
        ``scratch_shapes`` entry for whatever staging it needs (a padded
        copy, say).  Returns the canonical int64 product of shape
        ``private_shape[:-2] + (m, n)`` — or casts it into ``into``, an int64
        array of the same size (a transposed view of the caller's result,
        say) that takes the product's elements in C order, and returns
        that.
        """
        centred = public.centred
        if public_left:
            centred = centred.reshape(centred.shape[0], -1)
        k = centred.shape[1] if public_left else centred.shape[0]
        if not public_gemm_exact(field.p, k, public.bound):
            return None
        key = ("public", centred.shape, public_left, private_shape, scratch_shapes)
        views = self._views.get(key)
        if views is None:
            if public_left:
                out_shape = private_shape[:-2] + (centred.shape[0], private_shape[-1])
            else:
                out_shape = private_shape[:-1] + (centred.shape[1],)
            views = self._remember(
                key,
                tuple(self._carve(private_shape, out_shape, out_shape, out_shape, *scratch_shapes)),
            )
        private, out, q, t, *scratch = views
        fill(private, *scratch)
        if public_left:
            np.matmul(centred, private, out=out)
        else:
            np.matmul(private, centred, out=out)
        barrett(field.p).reduce_f64_signed(out, q, t, bound=k * (field.p - 1) * public.bound)
        if into is None:
            return out.astype(np.int64)
        np.copyto(into, out.reshape(into.shape), casting="unsafe")
        return into

    # -- workspace -------------------------------------------------------
    def _carve(self, *operands_and_shapes) -> list[np.ndarray]:
        """Float64 arrays (contents undefined) carved side by side from the
        workspace, one per argument: a shape gives a C-ordered array; an
        operand gives one of its shape laid out as the operand is — a
        transposed view (an unfolded conv operand, say) stays transposed,
        so converting into it is one straight pass and BLAS takes the
        transposition as a flag instead of a strided copy.

        The workspace grows to the next power of two of the elements
        needed, so a backend that meets ever larger geometries (a fresh
        cluster's first layer step) replaces its buffer a few times, not
        once per new size."""
        shapes = [getattr(arg, "shape", arg) for arg in operands_and_shapes]
        sizes = [math.prod(shape) for shape in shapes]
        if self._workspace.size < sum(sizes):
            self._workspace = np.empty(1 << (sum(sizes) - 1).bit_length(), dtype=np.float64)
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
    def _one_gemm(
        self, red: BarrettReducer, a: np.ndarray, b: np.ndarray, a_float=None
    ) -> np.ndarray:
        """Unsplit path: ``k * (p-1)**2 < 2**53``, so the float64 product
        is the exact integer product; one GEMM, one reduction.  A given
        ``a_float`` is the GEMM's left operand as it stands, and so is a
        float64 ``b``; only int64 operands are converted.

        The returned array aliases the workspace: both callers copy it
        out immediately.
        """
        convert_a = a_float is None
        convert_b = b.dtype != np.float64
        key = (
            1, a.shape, b.shape, a.strides if convert_a else None,
            b.strides if convert_b else None,
        )
        views = self._views.get(key)
        if views is None:
            out_shape = a.shape[:-1] + b.shape[-1:]
            operands = (a,) * convert_a + (b,) * convert_b
            views = self._remember(key, tuple(self._carve(*operands, out_shape, out_shape)))
        *converted, out, q = views
        if convert_a:
            a_float = converted.pop(0)
            np.copyto(a_float, a)
        if convert_b:
            np.copyto(converted[0], b)
            b = converted[0]
        return red.reduce_f64(np.matmul(a_float, b, out=out), q)

    def _two_gemm(
        self, red: BarrettReducer, a: np.ndarray, b: np.ndarray, a_float=None
    ) -> np.ndarray:
        """One operand split: products <= (p-1)*LIMB_MASK, 2 reductions.

        ``a``/``b`` are ``(m,k)``/``(k,n)`` or the same with one leading
        stack axis; every step is element-wise or ``np.matmul``, which
        batches over it.  The smaller operand is the one split — its two
        limb planes ride on a new leading axis that ``np.matmul``
        broadcasts over, so both partial products come out of one call as
        contiguous planes — and the larger operand is only converted to
        float64, once.  Aliases the workspace like :meth:`_one_gemm`.
        ``a_float`` is not used: the split reads integers.
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
