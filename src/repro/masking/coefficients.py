"""Coefficient matrices ``A``, ``B``, ``Gamma`` for DarKnight masking.

One :class:`CoefficientSet` captures everything Sections 4.1-4.5 of the paper
need for a single virtual batch:

* ``A`` (``(K+M) x n_shares``) — encoding coefficients.  Rows ``0..K-1``
  (the paper's ``A1``) weight the real inputs, rows ``K..K+M-1`` (``A2``)
  weight the ``M`` uniform noise vectors.  Share ``j`` is
  ``x̄(j) = Σ_i A[i, j]·x(i) + Σ_m A[K+m, j]·r(m)``.
* ``Gamma`` (diagonal, one ``γ_j`` per share) and ``B`` (``n_shares x K``)
  satisfying the paper's Equation 5/13 constraint
  ``Bᵀ·Γ·Aᵀ = [I_K | 0_{K x M}]`` which makes the backward decode a plain
  ``Σ_j γ_j·Eq_j``.
* ``n_shares = K + M + extra`` where ``extra >= 1`` adds the redundant
  equations used for integrity verification (Section 4.4).

Collusion safety (Section 4.5) requires that any ``<= M``-column subset of
``A2`` be full rank; a merely random ``A2`` only satisfies this with high
probability, so by default we build ``A2`` as a Vandermonde (MDS) matrix
where the property holds *by construction*.

The enclave keeps ``A`` and ``Gamma`` secret; ``B`` is public (the paper:
"we do not need to protect matrix B in the enclave").

Whether a share subset ``J`` decodes, its decode matrix ``A_J⁻¹`` and the
``B`` it supports are read off one memoized inverse per subset; the set's
*verification plan* (primary plus alternates covering every share) is all
integrity detection decodes from.

One elimination, one stack, per layer step.  ``generate(count=V, ...)``
returns a :class:`CoefficientStack`, the ``V`` sets of a layer step as
``(V, ...)`` arrays, having inverted every set's primary subset **and** the
plan's first alternate candidate in one stacked
:func:`~repro.fieldmath.inverse` call and solved both subsets' ``B`` for
the whole stack.  Everything the masking classes read (``Aᵀ``, decode
operands, ``γ``, ``B`` rows, the plan) is derived once for all ``V``.

Draws by the block.  A stack's random material is four draws, whatever
``V`` is: every ``A1`` from one ``uniform((V, K, n))``, the MDS points of
every ``A2`` from one ``distinct_nonzero(V·n)`` (distinct across the stack;
per set only in a field too small to hold ``V·n``), then, **after** the
elimination has accepted every primary, ``γ`` from one ``nonzero((V, n))``
and the noise from one ``uniform((V, M) + shape)``.  A singular primary
(≈ ``V·(K+M)/p``) redraws the ``A`` block and nothing else: nothing is
drawn ahead of the check that decides whether it is used.  At ``V = 1`` the
draws are exactly the single set's; for ``V > 1`` the order differs from
generating the sets one after another (decoding is exact, so nothing
decoded depends on it).  Every array of a stack, and of its sets, is
read-only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from repro.errors import DecodingError, EncodingError, FieldError, SingularMatrixError
from repro.fieldmath import (
    FieldRng,
    PrimeField,
    all_column_subsets_full_rank,
    field_matmul,
    inverse,
)


def _recovery_target(field: PrimeField, k: int, m: int) -> np.ndarray:
    """The ``[I_K | 0_{K x M}]`` right-hand side of Equation 5/13."""
    target = field.zeros((k, k + m))
    target[:k, :k] = field.eye(k)
    return target


def _alternate_candidates(covered, uncovered, size: int):
    """Alternate decode subsets in the order the verification plan tries them.

    As many still-uncovered shares as fit first, lowest indices first,
    filled up to ``size`` with the lowest already-covered shares.
    """
    for take in range(min(len(uncovered), size), 0, -1):
        for fresh in combinations(uncovered, take):
            for fill in combinations(covered, size - take):
                yield tuple(sorted(fill + fresh))


def stack_arrays(arrays) -> np.ndarray:
    """``np.stack`` whose one-slice stack is a view, not a copy — what a
    staged op's single virtual batch pays for riding the stacked code."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def as_stack(coefficients) -> tuple["CoefficientStack", bool]:
    """``(stack, stacked)`` for what a masking class was constructed with.

    The encoder, decoders and verifier all work on a
    :class:`CoefficientStack` — tensors carrying a leading ``V`` axis.  A
    single :class:`CoefficientSet` is the one-slice stack, and ``stacked``
    is ``False``: its tensors come and go without the axis.  A sequence of
    sets is stacked set by set.
    """
    if isinstance(coefficients, CoefficientStack):
        return coefficients, True
    if isinstance(coefficients, CoefficientSet):
        return CoefficientStack.of([coefficients]), False
    return CoefficientStack.of(coefficients), True


def _scalar_inverses(field: PrimeField, values: np.ndarray) -> np.ndarray:
    """Element-wise inverse of a short vector, one ``pow`` for all of it."""
    canonical = [v % field.p for v in values.tolist()]
    if 0 in canonical:
        raise FieldError("zero has no multiplicative inverse in F_p")
    return np.array(field.batch_inv(canonical), dtype=np.int64)


def _vandermonde_rows(field: PrimeField, points: np.ndarray, n_rows: int) -> np.ndarray:
    """``out[v, i, j] = points[v, j]**i`` — a stack of Vandermonde blocks.

    ``points`` is ``(V, n)``, each row distinct and non-zero (the caller's
    draw guarantees it), which makes every block MDS; the powers are built
    for the whole stack, one field multiply per row.
    """
    out = np.empty((points.shape[0], n_rows, points.shape[1]), dtype=np.int64)
    out[:, 0] = 1
    for i in range(1, n_rows):
        out[:, i] = field.mul(out[:, i - 1], points)
    return out


class _ShareShape:
    """``A``'s shape, read alike off a set ``(k + m, n)`` and a stack ``(V, k + m, n)``."""

    @property
    def n_shares(self) -> int:
        """Total encoded shares (== GPUs receiving data), ``k + m + extra``."""
        return self.a.shape[-1]

    @property
    def n_sources(self) -> int:
        """Rows of ``A``: real inputs plus noise vectors, ``k + m``."""
        return self.k + self.m

    @property
    def extra_shares(self) -> int:
        """Redundant shares available for integrity checking."""
        return self.n_shares - self.n_sources


def _freeze(array: np.ndarray) -> np.ndarray:
    """Make ``array`` and the buffer it views read-only, for good: a slice
    of a read-only buffer cannot be made writable again."""
    array.setflags(write=False)
    if array.base is not None:
        array.base.setflags(write=False)
    return array


@dataclass(frozen=True)
class CoefficientSet(_ShareShape):
    """Per-virtual-batch masking coefficients (enclave-secret unless noted).

    Attributes
    ----------
    field:
        Prime field all matrices live in.
    k:
        Virtual batch size (number of real inputs combined per share).
    m:
        Number of noise vectors = collusion tolerance.
    a:
        Encoding matrix, shape ``(k + m, n_shares)``.  **Secret.**
    gamma:
        Per-share decoding scalars ``γ_j``, shape ``(n_shares,)``.  **Secret.**
    b:
        Gradient-combination matrix, shape ``(n_shares, k)``.  Public.
    primary_subset:
        The ``k + m`` share indices used for the default decode; its ``A``
        column submatrix is invertible by construction.
    """

    field: PrimeField
    k: int
    m: int
    a: np.ndarray
    gamma: np.ndarray
    b: np.ndarray
    primary_subset: tuple[int, ...]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        rng: FieldRng,
        k: int,
        m: int = 1,
        extra_shares: int = 0,
        mds_noise: bool = True,
        certify_collusion: bool = False,
        count: int | None = None,
        noise_shape: tuple[int, ...] | None = None,
    ):
        """Sample fresh coefficient sets: one, or a layer step's stack of them.

        Parameters
        ----------
        rng:
            Seeded field sampler (one per enclave session).
        k:
            Virtual batch size, ``>= 1``.
        m:
            Noise vectors / collusion tolerance, ``>= 1``.  ``m=1`` is the
            paper's base scheme of Section 4.1.
        extra_shares:
            Redundant equations for integrity (Section 4.4 uses 1).
        mds_noise:
            Build ``A2`` as a Vandermonde matrix so the collusion-privacy
            rank condition holds by construction rather than w.h.p.  Its
            ``n_shares`` evaluation points are drawn even at ``m=1``, where
            the block is the all-ones row and uses none of them: the draw is
            part of the single set's stream, which serving shares and audit
            roots are pinned to.
        certify_collusion:
            Exhaustively check the ``<= m``-column-subset rank condition
            (slow for wide matrices; tests use it, production trusts MDS).
        count:
            ``None`` for one :class:`CoefficientSet`; ``V >= 1`` for a
            :class:`CoefficientStack` of ``V`` independent sets from four
            block draws (``A1``, MDS points, ``γ``, noise) and one
            elimination, whatever ``V`` is.
            ``count=1`` draws exactly what ``count=None`` does; a larger
            stack's sets are as valid and as independent as ``V`` calls in
            a row would return, but not the same bytes.
        noise_shape:
            When given, the sets' ``m`` noise tensors each are drawn from
            ``rng`` after the last ``γ`` (for the single set: right after
            it, as an encoder drawing its own would), and the call returns
            ``(sets, noise)`` with ``noise`` of shape
            ``(V, m) + noise_shape`` — ``(m,) + noise_shape`` for the
            single set.

        The returned arrays are read-only (a stack's sets view slices of
        shared arrays); the noise is the caller's to write.
        """
        if k < 1:
            raise EncodingError(f"virtual batch size must be >= 1, got {k}")
        if m < 1:
            raise EncodingError(
                f"at least one noise vector is required for privacy, got m={m}"
            )
        if extra_shares < 0:
            raise EncodingError(f"extra_shares must be >= 0, got {extra_shares}")
        if count is not None and count < 1:
            raise EncodingError(f"a coefficient stack needs at least one set, got {count}")
        if k + m + extra_shares >= rng.field.p:
            raise EncodingError("share count exceeds field size")
        stack, noise = cls._generate_stack(
            rng, k, m, extra_shares, mds_noise, certify_collusion,
            1 if count is None else count,
            None if noise_shape is None else tuple(noise_shape),
        )
        if count is None:  # the one-slice stack, handed back without the axis
            stack, noise = stack[0], noise[0]
        return stack if noise_shape is None else (stack, noise)

    @classmethod
    def _generate_stack(
        cls,
        rng: FieldRng,
        k: int,
        m: int,
        extra_shares: int,
        mds_noise: bool,
        certify_collusion: bool,
        count: int,
        noise_shape: tuple[int, ...] | None,
    ) -> tuple["CoefficientStack", np.ndarray]:
        """``count`` sets (and their noise) from four block draws, inverted together."""
        field = rng.field
        s = k + m
        n_shares = s + extra_shares
        # The primary decode uses the first s shares, and the verification
        # plan's first alternate candidate rides in the same elimination.
        primary = tuple(range(s))
        subsets = [primary, *islice(_alternate_candidates(primary, range(s, n_shares), s), 1)]

        a = np.empty((count, s, n_shares), dtype=np.int64)
        for _ in range(FieldRng.MAX_REJECTIONS):
            a[:, :k] = rng.uniform((count, k, n_shares))
            if not mds_noise:
                a[:, k:] = rng.uniform((count, m, n_shares))
            else:
                # One draw, distinct across the whole stack (more than each
                # set's MDS needs); a field too small to hold that many
                # points gets them per set, distinct within each.
                points = (
                    rng.distinct_nonzero(count * n_shares).reshape(count, n_shares)
                    if count * n_shares < field.p
                    else np.stack([rng.distinct_nonzero(n_shares) for _ in range(count)])
                )
                a[:, k:] = _vandermonde_rows(field, points, m)
            # (count, subsets, s, s): the inverses are kept, they are the
            # decode matrices and the source of every B.
            try:
                inverses = inverse(field, a[:, :, subsets].transpose(0, 2, 1, 3))
                singular = np.zeros((count, len(subsets)), dtype=bool)
            except SingularMatrixError as err:
                inverses, singular = err.inverses, err.singular
            if not singular[:, 0].any():
                break  # a singular alternate is only remembered as such
            # Only the A block is drawn again (~ count·s/p per stack).
        else:  # pragma: no cover - probability ~ (s/p)^64
            raise EncodingError("failed to sample an invertible encoding submatrix")
        if certify_collusion and not all(
            all_column_subsets_full_rank(field, a2, min(m, n_shares)) for a2 in a[:, k:]
        ):
            raise EncodingError("noise block A2 violates the collusion rank condition")
        # γ and the noise follow the *accepted* A block in the stream: nothing
        # is drawn before the check that decides whether it will be used.
        gamma = rng.nonzero((count, n_shares))
        # Nothing to hold when the caller brings its own noise.
        noise = (
            np.empty((count, m, 0), dtype=np.int64)
            if noise_shape is None
            else rng.uniform((count, m) + noise_shape)
        )

        gamma_inv = _scalar_inverses(field, gamma.ravel()).reshape(gamma.shape)
        b = [
            cls._solve_b(field, inverses[:, i], gamma_inv, k, subset)
            for i, subset in enumerate(subsets)
        ]
        # Read-only, so that no caller's write through one set's view can
        # reach a neighbouring set through the shared base.
        for array in (a, gamma, inverses, *b):
            _freeze(array)
        stack = CoefficientStack(field, k, m, a, gamma, b[0], primary)
        stack._solved = (subsets, inverses, singular, b)
        return stack, noise

    @staticmethod
    def _solve_b(
        field: PrimeField,
        subset_inverse: np.ndarray,
        gamma_inv: np.ndarray,
        k: int,
        subset: tuple[int, ...],
    ) -> np.ndarray:
        """Solve ``Bᵀ·Γ·Aᵀ = [I | 0]`` with support restricted to ``subset``.

        For the share indices ``J = subset`` (``|J| = k + m``, ``A_J``
        invertible, ``subset_inverse = A_J⁻¹``) the constraint reads
        ``B_Jᵀ·Γ_J·A_Jᵀ = [I | 0]``, whose unique solution is
        ``B_J = Γ_J⁻¹·A_J⁻¹[:, :k]`` — i.e.
        ``B[j, i] = A_J⁻¹[local(j), i]·γ_j⁻¹``, exact in the field, so the
        decode matrix's one elimination serves the backward pass too.
        Shares outside the subset get zero rows — they do not participate
        in this gradient decode (the integrity share is redundant by design).
        Leading axes broadcast: a stack of inverses against a stack of
        ``γ⁻¹`` solves every set's ``B`` in the one pass.
        """
        members = list(subset)
        b = field.zeros(gamma_inv.shape + (k,))
        b[..., members, :] = field.mul(subset_inverse[..., :k], gamma_inv[..., members, None])
        return b

    @property
    def a2(self) -> np.ndarray:
        """Noise-coefficient block (paper's ``A2``), shape ``(m, n_shares)``."""
        return self.a[self.k :]

    # ------------------------------------------------------------------
    # decode-subset management
    # ------------------------------------------------------------------
    def _subset_inverse(self, subset: tuple[int, ...]) -> np.ndarray | None:
        """Memoized ``A[:, subset]⁻¹``, or ``None`` when the subset is singular.

        ``A`` is frozen and the field inverse deterministic, so every
        question this class answers about a subset — is it decodable,
        what is its decode matrix, what ``B`` does it support — is read
        off one inverse per subset, ever.  :meth:`generate` seeds the memo
        with the primary subset and the first alternate candidate; only
        subsets beyond those are eliminated here, one at a time.
        """
        cache = self.__dict__.setdefault("_decode_cache", {})
        if subset not in cache:
            try:
                cache[subset] = _freeze(inverse(self.field, self.a[:, list(subset)]))
            except SingularMatrixError:
                cache[subset] = None
        return cache[subset]

    def decoding_matrix(self, subset: tuple[int, ...] | None = None) -> np.ndarray:
        """``A[:, subset]^{-1}`` for a ``k+m``-sized invertible share subset.

        Memoized per subset, so serving windows that decode thousands of
        batches under one cached coefficient set pay the Gauss–Jordan
        inversion once — part of the offline/online split's "coefficient
        material".
        """
        subset = self.primary_subset if subset is None else tuple(subset)
        if len(subset) != self.n_sources:
            raise EncodingError(
                f"decoding needs exactly {self.n_sources} shares, got {len(subset)}"
            )
        matrix = self._subset_inverse(subset)
        if matrix is None:
            raise EncodingError(f"share subset {subset} is not decodable")
        return matrix

    @cached_property
    def verification_plan(self) -> tuple[tuple[int, ...], ...]:
        """The decode subsets whose agreement proves every share honest.

        The primary subset first, then as few invertible alternates as
        it takes for the union to cover every share: each alternate packs
        in as many still-uncovered shares as an invertible subset allows
        (filling up with already-covered ones), so the plan is exactly two
        subsets whenever ``extra_shares <= k + m``.  Decodes that agree on
        such a cover put the whole output in the row space of ``A`` —
        exactly what "every invertible subset agrees" means — so comparing
        the plan's decodes detects whatever comparing all
        ``C(n_shares, k+m)`` would.  A share that sits in no invertible
        subset influences no decode and is left out; a plan of one subset
        means the set cannot be verified.  Computed once: the plan depends
        on the frozen ``A`` only, and its subset inverses land in the
        decode memo.
        """
        n_shares = self.a.shape[1]
        plan = [self.primary_subset]
        covered = set(self.primary_subset)
        while len(covered) < n_shares:
            uncovered = [j for j in range(n_shares) if j not in covered]
            for alternate in _alternate_candidates(sorted(covered), uncovered, self.k + self.m):
                if self._subset_inverse(alternate) is not None:
                    break
            else:
                break  # the rest sit in no invertible subset
            plan.append(alternate)
            covered.update(alternate)
        return tuple(plan)

    def iter_decoding_subsets(self, limit: int | None = None):
        """Yield invertible ``k+m``-sized share subsets (primary first).

        The exhaustive enumeration behind fault *localisation*; detection
        needs only :attr:`verification_plan`.  ``limit`` caps it for wide
        share sets.
        """
        yielded = 0
        for subset in combinations(range(self.n_shares), self.n_sources):
            if self._subset_inverse(subset) is not None:
                yield subset
                yielded += 1
                if limit is not None and yielded >= limit:
                    return

    def backward_matrices_for_subset(
        self, subset: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(B, Gamma)`` pair supported on an alternative share subset.

        Lets the integrity path decode the aggregate gradient twice from
        disjoint-enough share subsets and cross-check.  Memoized per subset
        (read-only); :meth:`generate` seeds the primary's and the first
        alternate's, so a verified backward pass solves nothing.
        """
        subset = tuple(subset)
        solved = self.__dict__.setdefault("_b_cache", {})
        if subset not in solved:
            gamma_inv = _scalar_inverses(self.field, self.gamma)
            b = self._solve_b(self.field, self.decoding_matrix(subset), gamma_inv, self.k, subset)
            solved[subset] = _freeze(b)  # handed out again on every later call
        return solved[subset], self.gamma

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Check the Equation 5/13 constraint ``Bᵀ·Γ·Aᵀ = [I | 0]`` exactly."""
        lhs = field_matmul(
            self.field,
            field_matmul(self.field, self.b.T, np.diag(self.gamma)),
            self.a.T,
        )
        return bool(np.array_equal(lhs, _recovery_target(self.field, self.k, self.m)))


class CoefficientStack(_ShareShape):
    """A layer step's ``V`` coefficient sets as one unit of work.

    ``a`` ``(V, k + m, n_shares)``, ``gamma`` ``(V, n_shares)`` and ``b``
    ``(V, n_shares, k)`` hold every set, and what the masking classes read
    is derived for all ``V`` at once and kept: :attr:`encode_operands`,
    :meth:`decode_operands`, :attr:`plans` / :attr:`plan` and
    :attr:`alternate_b`.  A stack from :meth:`CoefficientSet.generate` reads
    them off its one elimination; one assembled by :meth:`of` (tickets of
    several encodes, serving's cached set) off each set's own memo.
    ``stack[v]`` is set ``v``, a :class:`CoefficientSet` viewing its
    slices, made on first access.
    """

    def __init__(self, field, k, m, a, gamma, b, primary_subset, views=None) -> None:
        self.field, self.k, self.m = field, k, m
        self.a, self.gamma, self.b = a, gamma, b
        #: The primary subset every set shares, ``None`` when they differ.
        self.primary_subset = primary_subset
        self._views = list(views) if views is not None else [None] * len(a)
        #: ``(subsets, inverses, singular, bs)`` of the generating elimination.
        self._solved = ((), None, None, ())
        self._decode_operands: dict = {}

    @classmethod
    def of(cls, sets) -> "CoefficientStack":
        """The stack of existing sets, which stay its members."""
        sets = tuple(sets)
        if not sets:
            raise EncodingError("a coefficient stack needs at least one set")
        first = sets[0]
        shape = (first.field.p, first.k, first.m, first.n_shares)
        if any((c.field.p, c.k, c.m, c.n_shares) != shape for c in sets[1:]):
            raise EncodingError(
                "stacked coefficient sets must share one field and one (K, M, shares) shape"
            )
        primary = first.primary_subset
        return cls(
            first.field, first.k, first.m,
            *(stack_arrays([getattr(c, name) for c in sets]) for name in ("a", "gamma", "b")),
            primary if all(c.primary_subset == primary for c in sets) else None,
            views=sets,
        )

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, v: int) -> CoefficientSet:
        view = self._views[operator.index(v)]  # a set, never a slice of views
        if view is None:
            subsets, inverses, singular, bs = self._solved
            view = self._views[v] = CoefficientSet(
                self.field, self.k, self.m, self.a[v], self.gamma[v], self.b[v],
                self.primary_subset,
            )
            view.__dict__.update(
                _decode_cache={s: None if singular[v, i] else inverses[v, i]
                               for i, s in enumerate(subsets)},
                _b_cache={s: bs[i][v] for i, s in enumerate(subsets) if not singular[v, i]},
            )
        return view

    def _solved_for(self, subset):
        """``(inverses, B)`` the elimination solved for ``subset`` in every set, or ``None``."""
        subsets, inverses, singular, bs = self._solved
        i = subsets.index(subset) if subset in subsets else None
        return None if i is None or singular[:, i].any() else (inverses[:, i], bs[i])

    @cached_property
    def encode_operands(self) -> tuple[np.ndarray, np.ndarray]:
        """``Aᵀ`` ``(V, n_shares, k + m)`` and its float64 form (read-only):
        the left operand of every encode GEMM, converted once."""
        a_t = self.a.transpose(0, 2, 1)
        return a_t, _freeze(a_t.astype(np.float64))

    def decode_operands(self, subset: tuple[int, ...] | None) -> tuple:
        """``(subset, decode_t, decode_float, run)`` of a decode from
        ``subset`` (``None``: the primary every set shares), memoized:
        every set's ``decoding_matrix(subset)ᵀ`` and its float64 form
        (read-only), the left operand of each such decode GEMM, and whether
        the subset is a run of consecutive shares."""
        operands = self._decode_operands.get(subset)
        if operands is None:
            named, subset = subset, self.primary_subset if subset is None else subset
            if subset is None:
                raise DecodingError("stacked sets have different primary subsets; name one")
            solved = self._solved_for(subset)
            inverses = solved[0] if solved else stack_arrays(
                [c.decoding_matrix(subset) for c in self]
            )
            decode_t = inverses.transpose(0, 2, 1)
            run = subset == tuple(range(subset[0], subset[0] + len(subset)))
            operands = (subset, decode_t, _freeze(decode_t.astype(np.float64)), run)
            self._decode_operands[named] = operands
        return operands

    @cached_property
    def plans(self) -> list[tuple[tuple[int, ...], ...]]:
        """Each set's :attr:`~CoefficientSet.verification_plan`: the
        elimination's subsets when they cover every share and no set found
        one singular, else each set's own search."""
        subsets, _, singular, _ = self._solved
        if subsets and self.extra_shares <= self.n_sources and not singular.any():
            return [tuple(subsets)] * len(self)
        return [c.verification_plan for c in self]

    @cached_property
    def plan(self) -> tuple[tuple[int, ...], ...] | None:
        """The plan every set shares, or ``None`` when they differ."""
        first, *rest = self.plans
        return first if all(plan == first for plan in rest) else None

    @cached_property
    def alternate_b(self) -> np.ndarray:
        """``(V, n_shares, k)``: each set's ``B`` on its plan's first alternate subset."""
        solved = self.plan and self._solved_for(self.plan[1])
        if solved:
            return solved[1]
        return np.stack([c.backward_matrices_for_subset(plan[1])[0]
                         for c, plan in zip(self, self.plans)])
