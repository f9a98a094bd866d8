"""Tests for coefficient generation (the Equation 5/13 machinery)."""

import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from field_oracle import oracle_inverse
from repro.errors import EncodingError, IntegrityError
from repro.fieldmath import FieldRng, PrimeField, is_invertible
from repro.masking import CoefficientSet, IntegrityVerifier

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
        a2 = rng.mds_matrix(m, n_shares) if mds_noise else rng.uniform((m, n_shares))
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
                verifier.verification_plan()
        else:
            assert verifier.verification_plan() == plan


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
    assert coeffs.collusion_tolerance() == m


def test_block_views(frng):
    coeffs = CoefficientSet.generate(frng, k=3, m=2, extra_shares=1)
    assert coeffs.a1.shape == (3, 6)
    assert coeffs.a2.shape == (2, 6)
    assert np.array_equal(np.vstack([coeffs.a1, coeffs.a2]), coeffs.a)


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
