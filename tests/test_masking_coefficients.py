"""Tests for coefficient generation (the Equation 5/13 machinery)."""

import copy
import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from field_oracle import oracle_inverse, oracle_vandermonde
from repro.errors import EncodingError, FieldError, IntegrityError
from repro.fieldmath import FieldRng, PrimeField, all_column_subsets_full_rank, is_invertible
from repro.masking import CoefficientSet, IntegrityVerifier
from repro.masking.coefficients import CoefficientStack, _scalar_inverses

#: Coefficient material recorded from the commit before generation moved to
#: one stacked elimination per set (``recorded_at`` in the file).
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "coefficient_sets.json").read_text()
)["cases"]


@pytest.mark.parametrize(
    "case", GOLDEN, ids=lambda c: f"seed{c['seed']}-k{c['k']}m{c['m']}x{c['extra']}"
)
def test_generated_material_is_byte_identical_to_recorded(case):
    """Same draws in the same order, same inverses, same plan: serving share
    bytes and audit roots hang off every one of these values."""
    rng = FieldRng(PrimeField(), case["seed"])
    coeffs = CoefficientSet.generate(
        rng, k=case["k"], m=case["m"], extra_shares=case["extra"]
    )
    after_generate = rng.uniform((4,))
    for name in ("a", "gamma", "b"):
        value = getattr(coeffs, name)
        assert value.dtype == np.int64 and value.tolist() == case[name], name
    assert coeffs.decoding_matrix().tolist() == case["decoding_matrix"]
    plan = coeffs.verification_plan
    assert [list(subset) for subset in plan] == case["verification_plan"]
    if len(plan) > 1:
        b_alt, gamma = coeffs.backward_matrices_for_subset(plan[1])
        assert b_alt.tolist() == case["alternate_b"] and gamma is coeffs.gamma
    assert after_generate.tolist() == case["next_draw"]


def test_golden_cases_cover_the_plan_shapes():
    shapes = {(c["k"], c["m"], c["extra"]) for c in GOLDEN}
    assert shapes == {(4, 1, 1), (2, 1, 0), (4, 2, 1), (2, 1, 4)}
    assert len({c["seed"] for c in GOLDEN}) >= 3
    assert {len(c["verification_plan"]) for c in GOLDEN} == {1, 2, 3}


def _reference_material(rng, k, m, extra, mds_noise):
    """Generation and planning the slow way: one big-int elimination per
    question asked, primary first, alternates only when the plan gets there."""
    p, s, n_shares = rng.field.p, k + m, k + m + extra

    def subset_inverse(a, subset):
        return oracle_inverse(p, [[int(row[j]) for j in subset] for row in a])

    while True:
        a1 = rng.uniform((k, n_shares))
        a2 = (
            np.array(oracle_vandermonde(p, rng.distinct_nonzero(n_shares), m), dtype=np.int64)
            if mds_noise
            else rng.uniform((m, n_shares))
        )
        a = np.vstack([a1, a2])
        primary_inverse = subset_inverse(a, range(s))
        if primary_inverse is not None:
            break
    gamma = rng.nonzero((n_shares,))
    b = np.zeros((n_shares, k), dtype=np.int64)
    for j in range(s):
        b[j] = [v * pow(int(gamma[j]), p - 2, p) % p for v in primary_inverse[j][:k]]
    plan, covered, uncovered = [tuple(range(s))], list(range(s)), list(range(s, n_shares))
    while uncovered:
        alternate = next(
            (
                tuple(sorted(fill + fresh))
                for take in range(min(len(uncovered), s), 0, -1)
                for fresh in combinations(uncovered, take)
                for fill in combinations(covered, s - take)
                if subset_inverse(a, sorted(fill + fresh)) is not None
            ),
            None,
        )
        if alternate is None:
            break
        plan.append(alternate)
        covered = sorted(set(covered) | set(alternate))
        uncovered = [j for j in uncovered if j not in alternate]
    return a, gamma, b, tuple(plan)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([7, 11]),
    k=st.integers(1, 2),
    m=st.integers(1, 2),
    extra_kind=st.sampled_from(["none", "one", "beyond"]),
    mds_noise=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# Pinned: a singular primary resampled; only the alternate candidate singular
# and another alternate found; none found (the verifier fails closed); the
# same two with a three-subset plan.
@example(p=7, k=1, m=1, extra_kind="one", mds_noise=False, seed=7)
@example(p=7, k=1, m=1, extra_kind="one", mds_noise=False, seed=6)
@example(p=7, k=1, m=1, extra_kind="one", mds_noise=False, seed=80)
@example(p=11, k=2, m=1, extra_kind="beyond", mds_noise=False, seed=1)
@example(p=11, k=2, m=1, extra_kind="beyond", mds_noise=False, seed=13)
def test_tiny_field_generation_matches_the_per_subset_reference(
    p, k, m, extra_kind, mds_noise, seed
):
    """Where singular draws are common: a singular primary is resampled, a
    singular alternate candidate leaves the plan to find another or to fail
    closed — draw for draw and subset for subset what the reference does."""
    extra = {"none": 0, "one": 1, "beyond": k + m + 1}[extra_kind]
    n_shares = k + m + extra
    if n_shares >= p:
        with pytest.raises(EncodingError):
            CoefficientSet.generate(FieldRng(PrimeField(p), seed), k, m, extra, mds_noise)
        return
    rng, reference_rng = FieldRng(PrimeField(p), seed), FieldRng(PrimeField(p), seed)
    coeffs = CoefficientSet.generate(rng, k, m, extra, mds_noise)
    a, gamma, b, plan = _reference_material(reference_rng, k, m, extra, mds_noise)
    assert np.array_equal(coeffs.a, a)
    assert np.array_equal(coeffs.gamma, gamma)
    assert np.array_equal(coeffs.b, b) and coeffs.verify()
    assert np.array_equal(rng.uniform((3,)), reference_rng.uniform((3,)))
    assert coeffs.verification_plan == plan
    for subset in plan[1:]:
        b_alt, _ = coeffs.backward_matrices_for_subset(subset)
        inv = oracle_inverse(p, coeffs.a[:, list(subset)].tolist())
        assert coeffs.decoding_matrix(subset).tolist() == inv
        assert not b_alt[[j for j in range(n_shares) if j not in subset]].any()
    if extra:
        verifier = IntegrityVerifier(coeffs)
        if len(plan) < 2:
            with pytest.raises(IntegrityError):
                verifier.verification_plans()
        else:
            assert verifier.verification_plans() == [plan]


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(1, 5),
    m=st.integers(1, 3),
    extra=st.integers(0, 2),
    seed=st.integers(0, 5000),
)
def test_generated_set_satisfies_recovery_constraint(k, m, extra, seed):
    rng = FieldRng(PrimeField(), seed)
    coeffs = CoefficientSet.generate(rng, k=k, m=m, extra_shares=extra)
    assert coeffs.verify()
    assert coeffs.n_shares == k + m + extra
    assert coeffs.n_sources == k + m
    assert coeffs.extra_shares == extra
    assert coeffs.m == m


def test_block_views(frng):
    coeffs = CoefficientSet.generate(frng, k=3, m=2, extra_shares=1)
    assert coeffs.a2.shape == (2, 6)
    assert np.array_equal(coeffs.a2, coeffs.a[3:])


def test_mds_noise_block_every_m_column_subset_full_rank(frng, field):
    """Under ``mds_noise`` each ``A2`` is the Vandermonde block over distinct
    non-zero points (distinct across a stack too), so every ``M``-column
    subset is full rank: Section 4.5's collusion condition by construction."""
    for count in (None, 3):
        sets = CoefficientSet.generate(frng, k=2, m=3, extra_shares=2, count=count)
        sets = (sets,) if count is None else sets
        points = [x for coeffs in sets for x in coeffs.a2[1].tolist()]
        assert all(points) and len(set(points)) == len(points) == 7 * len(sets)
        for coeffs in sets:
            assert coeffs.a2.tolist() == oracle_vandermonde(field.p, coeffs.a2[1], 3)
            assert all_column_subsets_full_rank(field, coeffs.a2, 3, max_checks=None)


def test_gamma_inverses_are_the_per_element_pow_and_refuse_zero(frng, field):
    cs = CoefficientSet.generate(frng, k=3, m=1, extra_shares=1)
    gamma_inv = _scalar_inverses(field, cs.gamma)
    assert gamma_inv.tolist() == [pow(int(g), -1, field.p) for g in cs.gamma]
    with pytest.raises(FieldError):
        _scalar_inverses(field, np.array([3, 0, 5]))
    with pytest.raises(FieldError):
        _scalar_inverses(field, np.array([field.p]))


def test_primary_subset_is_decodable(frng, field):
    coeffs = CoefficientSet.generate(frng, k=4, m=1, extra_shares=1)
    decode = coeffs.decoding_matrix()
    sub = coeffs.a[:, list(coeffs.primary_subset)]
    from repro.fieldmath import field_matmul

    assert np.array_equal(field_matmul(field, sub, decode), field.eye(5))


def test_decoding_matrix_rejects_wrong_size(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    with pytest.raises(EncodingError):
        coeffs.decoding_matrix((0, 1))


def test_iter_decoding_subsets_yields_multiple_with_redundancy(frng, field):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    subsets = list(coeffs.iter_decoding_subsets())
    assert coeffs.primary_subset in subsets
    assert len(subsets) >= 2
    for subset in subsets:
        assert is_invertible(field, coeffs.a[:, list(subset)])


def test_iter_decoding_subsets_limit(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=2)
    assert len(list(coeffs.iter_decoding_subsets(limit=3))) == 3


def test_backward_matrices_for_alternate_subset(frng, field):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    alt = next(s for s in coeffs.iter_decoding_subsets() if s != coeffs.primary_subset)
    b_alt, gamma = coeffs.backward_matrices_for_subset(alt)
    from repro.fieldmath import field_matmul

    target = field.zeros((2, 3))
    target[:2, :2] = field.eye(2)
    lhs = field_matmul(
        field, field_matmul(field, b_alt.T, np.diag(gamma)), coeffs.a.T
    )
    assert np.array_equal(lhs, target)
    # Rows outside the subset are zero.
    outside = set(range(coeffs.n_shares)) - set(alt)
    for j in outside:
        assert np.all(b_alt[j] == 0)


def test_generation_validation_errors(frng):
    with pytest.raises(EncodingError):
        CoefficientSet.generate(frng, k=0)
    with pytest.raises(EncodingError):
        CoefficientSet.generate(frng, k=2, m=0)
    with pytest.raises(EncodingError):
        CoefficientSet.generate(frng, k=2, m=1, extra_shares=-1)


def test_certified_collusion_generation(frng, field):
    from repro.fieldmath import all_column_subsets_full_rank

    coeffs = CoefficientSet.generate(
        frng, k=2, m=2, extra_shares=1, certify_collusion=True
    )
    assert all_column_subsets_full_rank(field, coeffs.a2, 2, max_checks=None)


def test_mds_noise_block_always_subset_full_rank(frng, field):
    from repro.fieldmath import all_column_subsets_full_rank

    for _ in range(5):
        coeffs = CoefficientSet.generate(frng, k=3, m=2)
        assert all_column_subsets_full_rank(field, coeffs.a2, 2, max_checks=None)


def test_non_mds_generation_still_verifies(frng):
    coeffs = CoefficientSet.generate(frng, k=3, m=2, mds_noise=False)
    assert coeffs.verify()


# ----------------------------------------------------------------------
# generate(count=V): a layer step's sets from four block draws, one elimination
# ----------------------------------------------------------------------
class RecordingRng(FieldRng):
    """A :class:`FieldRng` that keeps every front-end call it serves: the
    sampler's name and the elements it handed out — a draw ledger."""

    def __init__(self, field, seed=None):
        super().__init__(field, seed)
        self.draws: list[tuple[str, np.ndarray]] = []

    def _kept(self, name, values):
        self.draws.append((name, values.copy()))
        return values

    def uniform(self, shape=()):
        return self._kept("uniform", super().uniform(shape))

    def nonzero(self, shape=()):
        return self._kept("nonzero", super().nonzero(shape))

    def distinct_nonzero(self, count):
        return self._kept("distinct_nonzero", super().distinct_nonzero(count))


def _sequential(rng, count, noise_shape, k, m, extra, mds_noise):
    """The loop the stack replaces: one set, then its noise, ``count`` times."""
    sets, noise = [], []
    for _ in range(count):
        sets.append(CoefficientSet.generate(rng, k, m, extra, mds_noise))
        if noise_shape is not None:
            noise.append(rng.uniform((m,) + noise_shape))
    return sets, noise


def _memo(coeffs):
    """The decode memo as comparable data, ``None`` entries included."""
    return [
        (subset, None if matrix is None else matrix.tolist())
        for subset, matrix in coeffs._decode_cache.items()
    ]


def _assert_same_material(stacked, looped):
    for name in ("a", "gamma", "b"):
        got, want = getattr(stacked, name), getattr(looped, name)
        assert got.dtype == np.int64 and np.array_equal(got, want), name
    assert stacked.primary_subset == looped.primary_subset
    assert _memo(stacked) == _memo(looped)  # as seeded: before any lazy search
    assert stacked.verification_plan == looped.verification_plan
    assert _memo(stacked) == _memo(looped)  # and with whatever the plan looked up
    if len(stacked.verification_plan) > 1:
        alternate = stacked.verification_plan[1]
        b_stacked, gamma = stacked.backward_matrices_for_subset(alternate)
        assert np.array_equal(b_stacked, looped.backward_matrices_for_subset(alternate)[0])
        assert gamma is stacked.gamma
    assert stacked.verify()


def _assert_valid_set(coeffs, k, m, extra, mds_noise):
    """One set of a stack, on its own terms: shapes, ranges, an MDS noise
    block, Equation 5/13, and everything ``generate`` seeded — the decode
    memo, the plan, the alternate ``B`` — equal to what a bare set holding
    the same ``A`` and ``γ`` works out one subset at a time."""
    p, s, n_shares = coeffs.field.p, k + m, k + m + extra
    assert (coeffs.k, coeffs.m, coeffs.a.shape) == (k, m, (s, n_shares))
    assert coeffs.primary_subset == tuple(range(s))
    for name in ("a", "gamma", "b"):
        value = getattr(coeffs, name)
        assert value.dtype == np.int64 and (0 <= value).all() and (value < p).all(), name
    assert coeffs.gamma.all()
    if mds_noise:  # Vandermonde rows over distinct non-zero points
        assert (coeffs.a2[0] == 1).all()
        if m > 1:
            points = coeffs.a2[1].tolist()
            assert all(points) and len(set(points)) == n_shares
            for i in range(2, m):
                assert coeffs.a2[i].tolist() == [pow(x, i, p) for x in points]
    assert coeffs.verify() and not coeffs.b[s:].any()
    bare = CoefficientSet(
        field=coeffs.field, k=k, m=m, a=coeffs.a, gamma=coeffs.gamma, b=coeffs.b,
        primary_subset=coeffs.primary_subset,
    )
    for subset, matrix in coeffs._decode_cache.items():
        assert (None if matrix is None else matrix.tolist()) == oracle_inverse(
            p, coeffs.a[:, list(subset)].tolist()
        )
    assert coeffs.verification_plan == bare.verification_plan
    for subset in coeffs.verification_plan:
        assert np.array_equal(
            coeffs.backward_matrices_for_subset(subset)[0],
            bare.backward_matrices_for_subset(subset)[0],
        )


def _stacked_generate(rng, count, noise_shape, k, m, extra, mds_noise):
    return CoefficientSet.generate(
        rng, k, m, extra, mds_noise, count=count, noise_shape=noise_shape
    )


def _assert_stack_is_valid(p, seed, count, noise_shape, **spec):
    """``generate(count=V)``: every set valid, the noise well formed, the
    one-slice stack byte for byte the single call; returns the stacked sets,
    the recording rng and the sets' decode memos as seeded (``None`` when a
    single call refuses too)."""
    rng, loop_rng = RecordingRng(PrimeField(p), seed), FieldRng(PrimeField(p), seed)
    try:
        loop_sets, loop_noise = _sequential(loop_rng, 1, noise_shape, **spec)
    except Exception as refusal:
        with pytest.raises(type(refusal)):
            _stacked_generate(rng, count, noise_shape, **spec)
        return None
    drawn = _stacked_generate(rng, count, noise_shape, **spec)
    if noise_shape is None:
        sets = drawn
    else:
        sets, noise = drawn
        assert noise.dtype == np.int64
        assert noise.shape == (count, spec["m"]) + tuple(noise_shape)
        assert (0 <= noise).all() and (noise < p).all()
    assert isinstance(sets, CoefficientStack) and len(sets) == count
    memos = [_memo(coeffs) for coeffs in sets]  # as seeded, before any lazy search
    if count == 1:  # the single set's stream, draw for draw
        _assert_same_material(sets[0], loop_sets[0])
        if noise_shape is not None:
            assert np.array_equal(noise, np.stack(loop_noise))
        assert np.array_equal(
            copy.deepcopy(rng.generator).integers(0, p, 5), loop_rng.uniform((5,))
        )
    for coeffs in sets:
        _assert_valid_set(coeffs, **spec)
    return sets, rng, memos


@st.composite
def _stack_cases(draw):
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return {
        "p": draw(st.sampled_from([7, 11, 10007, 2**25 - 39])),
        "k": k,
        "m": m,
        # 0..3 redundant shares, or more than one alternate subset can hold.
        "extra": draw(st.integers(0, 3) | st.just(k + m + 1)),
        "mds_noise": draw(st.booleans()),
        "count": draw(st.integers(1, 5)),
        "noise_shape": draw(st.sampled_from([None, (), (3,), (2, 3, 3)])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=300, deadline=None)
@given(_stack_cases())
def test_stacked_generation_yields_valid_sets_and_the_single_set_stream(case):
    _assert_stack_is_valid(**case)


def _a_block_draws(rng, mds_noise):
    """How many ``A`` blocks the recorded stream drew before its one ``γ``
    draw: an ``A1`` draw each, plus an ``A2`` draw when that is uniform too."""
    names = [name for name, _ in rng.draws]
    return names[: names.index("nonzero")].count("uniform") // (1 if mds_noise else 2)


def test_every_element_drawn_lands_in_one_place_of_one_set():
    """The first slice of the draw ledger: ``generate(count=4)`` is four
    front-end calls where the loop makes sixteen, and what they hand out is
    exactly the sets' ``A1`` blocks, MDS points and ``γ`` and the noise —
    each element once, nothing left over."""
    spec = dict(k=4, m=2, extra=1, mds_noise=True)
    count, noise_shape, n_shares = 4, (3, 2, 2), 7
    rng, loop_rng = RecordingRng(PrimeField(), 21), RecordingRng(PrimeField(), 21)
    sets, noise = _stacked_generate(rng, count, noise_shape, **spec)
    _sequential(loop_rng, count, noise_shape, **spec)
    assert len(loop_rng.draws) == 4 * count and len(rng.draws) == 4
    (a1_kind, a1), (point_kind, points), (gamma_kind, gamma), (noise_kind, drawn_noise) = rng.draws
    assert [a1_kind, point_kind, gamma_kind, noise_kind] == [
        "uniform", "distinct_nonzero", "nonzero", "uniform",
    ]
    assert a1.shape == (count, 4, n_shares) and gamma.shape == (count, n_shares)
    assert points.shape == (count * n_shares,) and drawn_noise.shape == noise.shape
    # Distinct across the whole stack, which is more than each set's MDS needs.
    assert len(set(points.tolist())) == count * n_shares
    for v, coeffs in enumerate(sets):
        assert np.array_equal(coeffs.a[: coeffs.k], a1[v])
        assert np.array_equal(coeffs.a2[1], points[v * n_shares : (v + 1) * n_shares])
        assert np.array_equal(coeffs.gamma, gamma[v])
        assert np.array_equal(noise[v], drawn_noise[v])
    # Same number of elements either way: the loop drew nothing the stack does not.
    assert sum(v.size for _, v in rng.draws) == sum(v.size for _, v in loop_rng.draws)


def test_unused_mds_points_are_still_drawn_at_m_1():
    """``m = 1``: the Vandermonde block is the all-ones row, so the points
    reach no set — and are drawn all the same, because the single set's
    stream (every serving share is pinned to it) contains them."""
    rng = RecordingRng(PrimeField(), 3)
    sets, _ = _stacked_generate(rng, 3, (2,), k=2, m=1, extra=1, mds_noise=True)
    assert [name for name, _ in rng.draws] == ["uniform", "distinct_nonzero", "nonzero", "uniform"]
    assert rng.draws[1][1].size == 3 * 4
    assert all((coeffs.a2 == 1).all() for coeffs in sets)


@pytest.mark.parametrize(
    "p, k, count, mds_noise", [(7, 1, 3, False), (11, 2, 2, True), (7, 1, 3, True)],
    ids=["uniform-A2", "stack-wide-points", "per-set-points"],
)
def test_singular_primary_redraws_the_a_block_and_nothing_else(p, k, count, mds_noise):
    """In a small field a primary is singular often enough to watch: the
    ``A`` block is drawn again, ``γ`` and the noise only once — after the
    accepted block, never before — and only the accepted block reaches a
    set.  (``V·n >= p`` draws points per set: 9 of F_7's 6 cannot be distinct.)"""
    redrawn = 0
    for seed in range(60):
        sets, rng, _ = _assert_stack_is_valid(
            p, seed, count=count, noise_shape=(2,), k=k, m=1, extra=1, mds_noise=mds_noise
        )
        names = [name for name, _ in rng.draws]
        n_shares = k + 2
        per_set_points = mds_noise and count * n_shares >= p
        block = (
            ["uniform"] + ["distinct_nonzero"] * (count if per_set_points else 1)
            if mds_noise
            else ["uniform", "uniform"]
        )
        blocks = _a_block_draws(rng, mds_noise)
        assert names == block * blocks + ["nonzero", "uniform"], seed
        accepted = rng.draws[len(block) * (blocks - 1)][1]
        assert all(np.array_equal(c.a[: c.k], accepted[v]) for v, c in enumerate(sets))
        assert np.array_equal(np.stack([c.gamma for c in sets]), rng.draws[-2][1])
        redrawn += blocks > 1
    assert redrawn > 10


@pytest.fixture()
def tally(monkeypatch):
    """Live count of stacked eliminations."""
    from repro.fieldmath import linalg

    counts = {"eliminations": 0}
    invert_stack = linalg._invert_stack

    def counted(*args):
        counts["eliminations"] += 1
        return invert_stack(*args)

    monkeypatch.setattr(linalg, "_invert_stack", counted)
    return counts


def test_tiny_fields_take_the_redraw_and_the_singular_alternate(tally):
    """Where a stack's ``A`` block is regularly rejected: it is drawn again,
    one elimination per block drawn, and an alternate that is singular on
    its own is remembered as such — both observed, not assumed."""
    redrawn = lone_singular_alternates = 0
    for p, k in ((7, 1), (11, 2)):
        for seed in range(60):
            tally.update(eliminations=0)
            sets, rng, memos = _assert_stack_is_valid(
                p, seed, count=3, noise_shape=(2,), k=k, m=1, extra=1, mds_noise=False
            )
            redrawn += _a_block_draws(rng, mds_noise=False) > 1
            # The memo's second entry is the candidate that rode the elimination.
            lone_singular_alternates += sum(memo[1][1] is None for memo in memos)
    assert redrawn > 10 and lone_singular_alternates > 10


@pytest.mark.parametrize("p, k", [(7, 1), (11, 2)])
def test_a_lone_singular_alternate_costs_no_second_elimination(tally, p, k):
    """Both verdicts are read off the one stacked elimination: a primary's
    inverse is not recomputed because its neighbour had none.  Every set
    costs one elimination per ``A`` block drawn."""
    lone_singular_alternates = 0
    for seed in range(60):
        tally.update(eliminations=0)
        rng = RecordingRng(PrimeField(p), seed)
        coeffs = CoefficientSet.generate(rng, k, 1, extra_shares=1, mds_noise=False)
        assert tally["eliminations"] == _a_block_draws(rng, mds_noise=False), seed
        primary, alternate = coeffs._decode_cache
        lone_singular_alternates += coeffs._decode_cache[alternate] is None
        assert coeffs.decoding_matrix(primary).tolist() == oracle_inverse(
            p, coeffs.a[:, list(primary)].tolist()
        )
    assert lone_singular_alternates > 3


def test_stacked_sets_cannot_be_written_through(frng):
    """The sets of a stack are slices of shared arrays: every array a set
    hands out is read-only and stays so, so no write crosses into a
    neighbour; the noise is the caller's own."""
    sets, noise = CoefficientSet.generate(
        frng, k=2, m=1, extra_shares=1, count=3, noise_shape=(4,)
    )
    single = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    with pytest.raises(TypeError):  # a stack hands out sets, not slices of itself
        sets[:2]
    for coeffs in (*sets, single):
        plan = coeffs.verification_plan
        handed_out = [
            coeffs.a, coeffs.a2, coeffs.gamma, coeffs.b,
            # Seeded by generate (the plan's subsets) or inverted on demand.
            *(coeffs.decoding_matrix(subset) for subset in coeffs.iter_decoding_subsets()),
            *(coeffs.backward_matrices_for_subset(subset)[0] for subset in plan),
        ]
        for array in handed_out:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
            with pytest.raises(ValueError):
                array.setflags(write=True)
            assert not np.shares_memory(array, noise)
    assert noise.flags.writeable and noise.base is None


def test_stack_shapes_and_validation(frng):
    assert isinstance(CoefficientSet.generate(frng, k=2), CoefficientSet)
    single, noise = CoefficientSet.generate(frng, k=2, m=2, noise_shape=(3,))
    assert isinstance(single, CoefficientSet) and noise.shape == (2, 3)
    (only,) = CoefficientSet.generate(frng, k=2, count=1)
    assert isinstance(only, CoefficientSet)
    with pytest.raises(EncodingError, match="at least one set"):
        CoefficientSet.generate(frng, k=2, count=0)
    with pytest.raises(EncodingError, match="collusion rank"):
        CoefficientSet.generate(
            FieldRng(PrimeField(7), 0), k=1, m=2, mds_noise=False,
            certify_collusion=True, count=5,
        )
