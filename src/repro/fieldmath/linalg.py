"""Linear algebra over ``F_p``: overflow-safe products, inverses, rank, MDS.

Everything DarKnight offloads to GPUs is a bilinear form over the field, and
everything the enclave does to decode is small dense linear algebra over the
same field.  This module provides both:

* :func:`field_matmul` / :func:`field_matmul_stacked` — matrix product (one,
  or a stack of independent ones) that never overflows int64, used by the
  simulated GPU kernels and the enclave's masking, and
  :func:`field_matmul_public` — the product against a public operand's
  centred lift that the GPU forward kernels try first.  Each takes the
  backend object to run on; without one it runs on the calling thread's
  own :class:`~repro.fieldmath.kernels.LimbBackend` from this module,
  which only the enclave-side callers (masking, Freivalds, collusion,
  :func:`solve`) reach — every GPU cluster passes the one its kernel set
  owns.  Per thread, because every such product writes its workspace:
  two deployments run from two threads would overwrite each other's
  temporaries mid-product;
* Gauss-Jordan :func:`inverse` / :func:`solve` / :func:`rank` used when
  generating and applying DarKnight coefficient matrices — :func:`inverse`
  takes a stack ``(..., n, n)`` like ``np.linalg.inv`` and eliminates every
  slice in lockstep, so a coefficient set's primary and alternate decode
  matrices cost one call;
* :func:`all_column_subsets_full_rank` — the certificate that *every*
  ``<= M``-column subset of the noise-coefficient block ``A2`` is full rank
  (Section 4.5's collusion requirement, which random matrices only satisfy
  with high probability; :mod:`repro.masking.coefficients` builds ``A2``
  as a Vandermonde block so it holds by construction).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.errors import FieldError, SingularMatrixError
from repro.fieldmath import kernels
from repro.fieldmath.prime import PrimeField


class _EnclaveBackend(threading.local):
    """The backend of every product called without one: the enclave's
    own, one :class:`~repro.fieldmath.kernels.LimbBackend` per thread."""

    def __init__(self) -> None:
        self.backend = kernels.LimbBackend()


_ENCLAVE = _EnclaveBackend()


def _as_matrix(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != 2:
        raise FieldError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def field_matmul(
    field: PrimeField,
    a: np.ndarray,
    b: np.ndarray,
    backend=None,
    a_float: np.ndarray | None = None,
    into: np.ndarray | None = None,
) -> np.ndarray:
    """``(a @ b) mod p`` on ``backend``, a field-op backend object.

    :class:`~repro.fieldmath.kernels.GenericBackend` is the original
    chunked reduction: a single field product is at most ``(p-1)**2``, so
    the shared axis is split into blocks of
    :func:`~repro.fieldmath.kernels.int64_sum_limit` products, as many as
    int64 sums without overflow (8,192 at the default prime, 2 at
    ``p = 2**31 - 1``), each partial reduced mod ``p`` and the (now
    ``< p``) partials reduced again at the end.
    :class:`~repro.fieldmath.kernels.LimbBackend` computes the same
    product — bit-identical, property-tested — as float64 BLAS GEMMs over
    13-bit limbs, roughly an order of magnitude faster, falling back to
    the generic path beyond its exactness bound.

    Accepts any ``a`` of shape ``(..., n)`` against ``b`` of shape
    ``(n, ...)`` the way ``np.matmul`` of 2-D operands does; the common case
    is plain 2-D x 2-D.  ``backend=None`` runs on this module's enclave-side
    limb backend.

    ``a_float`` is ``a`` already converted to float64 (equal values, same
    shape): an operand used in product after product — a coefficient set's
    matrices — is converted once by its owner, and the limb backend's
    unsplit GEMM reads it instead of converting ``a`` again.  The caller
    vouches for the equality; the oracle ignores it.

    The result has ``b``'s kind: int64 elements for integer ``b``, and
    float64 for a float64 ``b`` of canonical exact integers — what the
    enclave's masking steps hold their values in, so the unsplit GEMM
    reads them as they stand and hands the product back unconverted.
    Anything else is cast to int64 first.  ``into``, an array of the
    product's size, takes the product cast into it instead of a fresh
    result (the encoder's int64 shares from its float64 source block) and
    is returned.
    """
    a = np.asarray(a, dtype=np.int64)
    b = _operand(b)
    if a.shape[-1] != b.shape[0]:
        raise FieldError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return _backend(backend).matmul(field, a, b, a_float, into)


def field_matmul_stacked(
    field: PrimeField,
    a: np.ndarray,
    b: np.ndarray,
    backend=None,
    a_float: np.ndarray | None = None,
    into: np.ndarray | None = None,
) -> np.ndarray:
    """``S`` independent products at once: ``out[s] = (a[s] @ b[s]) mod p``.

    ``a`` is ``(S, m, n)`` and ``b`` is ``(S, n, q)``; the result is
    ``(S, m, q)``, slice for slice what :func:`field_matmul` returns.  The
    limb backend runs each limb plane as one batched float64 GEMM, exact
    under the same ``one_gemm_limit``/``two_gemm_limit`` bounds on ``n`` as
    the 2-D product, and hands anything beyond them to the generic
    per-slice oracle.  ``backend``, ``a_float``, ``into`` and ``b``'s dtype
    as in :func:`field_matmul`.
    """
    a = np.asarray(a, dtype=np.int64)
    b = _operand(b)
    if a.ndim != 3 or b.ndim != 3:
        raise FieldError(f"expected 3-D stacks, got {a.shape} @ {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise FieldError(f"stack or inner dimensions differ: {a.shape} @ {b.shape}")
    return _backend(backend).matmul_stacked(field, a, b, a_float, into)


def field_matmul_public(
    field: PrimeField,
    public: kernels.PublicOperand,
    private_shape: tuple[int, ...],
    fill,
    *,
    scratch_shapes: tuple[tuple[int, ...], ...] = (),
    public_left: bool = True,
    into: np.ndarray | None = None,
    backend=None,
) -> np.ndarray | None:
    """``public @ private`` (or ``private @ public``) mod ``p`` as one float64
    GEMM against the public operand's centred lift, or ``None``.

    ``None`` means the product has no such GEMM — the contraction times
    ``p - 1`` times ``public.bound`` reaches ``2**53``
    (:func:`~repro.fieldmath.kernels.public_gemm_exact`), or the backend is
    the oracle, which has no float path — and the caller computes it with
    :func:`field_matmul` instead.  The private operand is written by
    ``fill`` into the backend's float64 workspace; see
    :meth:`~repro.fieldmath.kernels.LimbBackend.matmul_public`.  ``backend``
    as in :func:`field_matmul`.
    """
    return _backend(backend).matmul_public(
        field, public, tuple(private_shape), fill, tuple(scratch_shapes), public_left, into
    )


def _operand(b) -> np.ndarray:
    """A product's right operand: float64 as it stands, anything else int64."""
    b = np.asarray(b)
    return b if b.dtype == np.float64 else b.astype(np.int64, copy=False)


def _backend(backend):
    """``backend``, or this thread's enclave-side one for ``None``."""
    return _ENCLAVE.backend if backend is None else backend


def rank(field: PrimeField, matrix: np.ndarray) -> int:
    """Rank of ``matrix`` (any shape) over ``F_p``, by row reduction.

    Each pivot column clears *all* other rows at once with one
    outer-product update — ``m -= factors ⊗ pivot_row`` over the field —
    instead of a per-row Python loop.
    """
    m = field.element(_as_matrix(matrix)).copy()
    rows, cols = m.shape
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_candidates = np.nonzero(m[row:, col])[0]
        if pivot_candidates.size == 0:
            continue
        pivot_row = row + int(pivot_candidates[0])
        if pivot_row != row:
            m[[row, pivot_row]] = m[[pivot_row, row]]
        m[row] = field.mul(m[row], field.scalar_inv(int(m[row, col])))
        factors = m[:, col].copy()
        factors[row] = 0  # the pivot row eliminates everyone but itself
        if np.any(factors):
            m = field.sub(m, field.mul(factors[:, None], m[row][None, :]))
        row += 1
    return row


def is_invertible(field: PrimeField, matrix: np.ndarray) -> bool:
    """True when a square matrix has full rank over ``F_p``."""
    m = _as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        return False
    return rank(field, m) == m.shape[0]


def _invert_stack(field: PrimeField, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan inverses of an ``(S, n, n)`` stack, all slices in lockstep.

    Returns ``(inverses, singular)``: ``singular[s]`` marks a slice with no
    inverse, whose ``inverses[s]`` is then meaningless.  One augmented
    ``[M | I]`` int64 array per slice; per column, every slice finds its own
    first non-zero pivot at or below the diagonal and swaps it up, the pivot
    row is scaled by the pivot's inverse (one ``pow`` for every slice's
    pivot, :meth:`~repro.fieldmath.prime.PrimeField.batch_inv`) and
    one outer-product update clears the column from every other row of
    every slice.  The interpreter pays per *column*, not per slice and
    column, which is what makes a handful of small inversions cost about
    what one does.  A slice whose column has no pivot is singular; it
    rides along under a zero scale, its entries still canonical and its
    output discarded.

    Exact for any ``p < 2**31``: entries stay canonical, so a product is
    below ``2**62`` and ``entry - product`` cannot leave int64.
    """
    p = field.p
    n_slices, n, _ = stack.shape
    work = np.empty((n_slices, n, 2 * n), dtype=np.int64)
    np.mod(stack, p, out=work[:, :, :n])
    work[:, :, n:] = np.eye(n, dtype=np.int64)
    slices = np.arange(n_slices)
    singular = np.zeros(n_slices, dtype=bool)
    for col in range(n):
        offsets = (work[:, col:, col] != 0).argmax(axis=1)
        if offsets.any():  # some slice has a zero on the diagonal: swap rows
            pivot_rows = offsets + col
            swapped = work[slices, pivot_rows]
            work[slices, pivot_rows] = work[:, col]
            work[:, col] = swapped
        scales = np.array(field.batch_inv(work[:, col, col].tolist()), dtype=np.int64)
        singular |= scales == 0
        pivot_row = work[:, col] * scales[:, None] % p
        factors = work[:, :, col].copy()
        factors[:, col] = 0  # the pivot row eliminates everyone but itself
        work -= factors[:, :, None] * pivot_row[:, None, :]
        work %= p
        work[:, col] = pivot_row
    return work[:, :, n:].copy(), singular


def inverse(field: PrimeField, matrix: np.ndarray) -> np.ndarray:
    """Matrix inverse over ``F_p`` via Gauss-Jordan, broadcasting like
    ``np.linalg.inv``: ``(..., n, n)`` in, the inverse of every ``n x n``
    slice out, all computed by one stacked elimination (a single matrix is
    the one-slice stack).

    Raises
    ------
    SingularMatrixError
        If the matrices are not square or any of them is not full rank;
        its ``singular`` mask, of the leading stack shape, names which, and
        its ``inverses`` carries the elimination's output for the rest.
    """
    m = np.asarray(matrix, dtype=np.int64)
    if m.ndim < 2:
        raise FieldError(f"expected (..., n, n) matrices, got shape {m.shape}")
    if m.shape[-2] != m.shape[-1]:
        raise SingularMatrixError(f"cannot invert non-square matrix {m.shape}")
    n = m.shape[-1]
    inverses, singular = _invert_stack(field, m.reshape(math.prod(m.shape[:-2]), n, n))
    if singular.any():
        raise SingularMatrixError(
            f"matrix of shape {m.shape} is singular mod {field.p}",
            singular=singular.reshape(m.shape[:-2]),
            inverses=inverses.reshape(m.shape),
        )
    return inverses.reshape(m.shape)


def solve(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` over ``F_p`` for square invertible ``a``."""
    a = _as_matrix(a)
    b_arr = field.element(b)
    vector_input = b_arr.ndim == 1
    if vector_input:
        b_arr = b_arr.reshape(-1, 1)
    if a.shape[0] != b_arr.shape[0]:
        raise FieldError(f"incompatible shapes {a.shape} and {b_arr.shape}")
    x = field_matmul(field, inverse(field, a), b_arr)
    return x.ravel() if vector_input else x


def determinant(field: PrimeField, matrix: np.ndarray) -> int:
    """Determinant over ``F_p`` (fraction-free elimination with pivot tracking)."""
    m = field.element(_as_matrix(matrix)).copy()
    n = m.shape[0]
    if n != m.shape[1]:
        raise FieldError(f"determinant of non-square matrix {m.shape}")
    det = 1
    for col in range(n):
        pivot_candidates = np.nonzero(m[col:, col])[0]
        if pivot_candidates.size == 0:
            return 0
        pivot_row = col + int(pivot_candidates[0])
        if pivot_row != col:
            m[[col, pivot_row]] = m[[pivot_row, col]]
            det = (-det) % field.p
        pivot = int(m[col, col])
        det = det * pivot % field.p
        inv_pivot = field.scalar_inv(pivot)
        for other in range(col + 1, n):
            if m[other, col] == 0:
                continue
            factor = field.mul(int(m[other, col]), inv_pivot)
            m[other] = field.sub(m[other], field.mul(m[col], int(factor)))
    return int(det)


def all_column_subsets_full_rank(
    field: PrimeField, matrix: np.ndarray, subset_size: int, max_checks: int | None = 5000
) -> bool:
    """Verify every ``subset_size``-column subset of ``matrix`` has full rank.

    Used by tests and by the strict coefficient generator to certify the
    collusion-privacy condition of Section 4.5.  ``max_checks`` bounds the
    combinatorial explosion for wide matrices; ``None`` means exhaustive.

    Implemented as a lexicographic DFS over column prefixes that keeps an
    incrementally-reduced basis per prefix, instead of re-running full
    Gauss-Jordan on every subset:

    * adding one column costs one elimination step against the shared
      prefix basis (subsets sharing a prefix share all that work);
    * the moment any prefix reduces to a dependent column the search
      stops — every superset of a dependent set is dependent, and with
      ``>= subset_size`` columns available some full-size subset contains
      it, so the certificate already failed.  (This also catches
      dependencies the old sampled-at-``max_checks`` walk could miss.)

    ``max_checks`` still counts *completed* subsets, visited in the same
    lexicographic order as before.
    """
    m = _as_matrix(matrix)
    if subset_size > m.shape[0]:
        raise FieldError(
            f"subset size {subset_size} exceeds row count {m.shape[0]}; rank cannot be full"
        )
    n_cols = m.shape[1]
    if n_cols < subset_size:
        return True  # no subsets exist; vacuously certified (as before)
    cols = field.element(m)
    counter = {"checked": 0}

    def _reduce(col: np.ndarray, basis: list[tuple[int, np.ndarray]]) -> np.ndarray:
        """One incremental elimination step: clear col's basis pivots."""
        vec = col.copy()
        for pivot_idx, pivot_vec in basis:
            factor = int(vec[pivot_idx])
            if factor:
                vec = field.sub(vec, field.mul(pivot_vec, factor))
        return vec

    def _extend(start: int, basis: list[tuple[int, np.ndarray]]) -> bool:
        depth = len(basis)
        if depth == subset_size:
            counter["checked"] += 1
            return True
        for j in range(start, n_cols - (subset_size - depth) + 1):
            vec = _reduce(cols[:, j], basis)
            nonzero = np.nonzero(vec)[0]
            if nonzero.size == 0:
                return False  # dependent prefix => some full subset fails
            pivot_idx = int(nonzero[0])
            pivot_vec = field.mul(vec, field.scalar_inv(int(vec[pivot_idx])))
            basis.append((pivot_idx, pivot_vec))
            ok = _extend(j + 1, basis)
            basis.pop()
            if not ok:
                return False
            if max_checks is not None and counter["checked"] >= max_checks:
                break
        return True

    return _extend(0, [])
