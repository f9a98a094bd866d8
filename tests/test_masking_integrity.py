"""Tests for the redundant-share integrity machinery (Section 4.4)."""

import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError
from repro.fieldmath import FieldRng, PrimeField, field_matmul, is_invertible, solve
from repro.masking import (
    BackwardDecoder,
    CoefficientSet,
    ForwardDecoder,
    ForwardEncoder,
    IntegrityVerifier,
)


def _setup(frng, field, k=2, m=1, extra=1):
    coeffs = CoefficientSet.generate(frng, k=k, m=m, extra_shares=extra)
    x = frng.uniform((k, 6))
    batch = ForwardEncoder(coeffs, frng).encode(x)
    w = frng.uniform((4, 6))
    outputs = np.stack(
        [field_matmul(field, w, s.reshape(-1, 1)).ravel() for s in batch.shares]
    )
    return coeffs, batch, outputs


def test_honest_results_verify(frng, field):
    coeffs, _, outputs = _setup(frng, field)
    report = IntegrityVerifier(coeffs).verify_forward(outputs)
    assert report.consistent
    assert len(coeffs.verification_plan) >= 2
    report.raise_on_failure()  # no-op when consistent


@pytest.mark.parametrize("victim", [0, 1, 2, 3])
def test_single_tamper_always_detected(frng, field, victim):
    coeffs, _, outputs = _setup(frng, field)
    tampered = outputs.copy()
    tampered[victim, 0] = field.add(tampered[victim, 0], 1)
    report = IntegrityVerifier(coeffs).verify_forward(tampered)
    assert not report.consistent
    with pytest.raises(IntegrityError):
        report.raise_on_failure()


def test_k_prime_minus_one_security(frng, field):
    """Even when all but one GPU lie, the decode disagreement is detected."""
    coeffs, _, outputs = _setup(frng, field, k=2, m=1, extra=1)
    tampered = outputs.copy()
    for victim in range(coeffs.n_shares - 1):
        tampered[victim] = field.add(tampered[victim], victim + 1)
    report = IntegrityVerifier(coeffs).verify_forward(tampered)
    assert not report.consistent


def test_localisation_with_two_redundant_shares(frng, field):
    """With >= 2 extra shares, the verifier can name the culprit."""
    coeffs, _, outputs = _setup(frng, field, k=2, m=1, extra=2)
    victim = 1
    tampered = outputs.copy()
    tampered[victim, 2] = field.add(tampered[victim, 2], 7)
    verifier = IntegrityVerifier(coeffs, max_subsets=12)
    report = verifier.verify_forward(tampered)
    assert not report.consistent
    assert victim in report.suspected_shares


def test_localisation_impossible_with_single_extra_share(frng, field):
    """One redundant share detects but cannot localise — expected behaviour."""
    coeffs, _, outputs = _setup(frng, field, k=2, m=1, extra=1)
    tampered = outputs.copy()
    tampered[0, 0] = field.add(tampered[0, 0], 5)
    report = IntegrityVerifier(coeffs).verify_forward(tampered)
    assert not report.consistent
    assert report.suspected_shares == ()


def test_verifier_requires_redundancy(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=0)
    with pytest.raises(IntegrityError):
        IntegrityVerifier(coeffs)


def test_verifier_requires_two_subsets(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    with pytest.raises(IntegrityError):
        IntegrityVerifier(coeffs, max_subsets=1)


def test_noise_coordinate_tampering_detected(frng, field):
    """A tamper that shifts only the recovered noise product is caught too."""
    coeffs, batch, outputs = _setup(frng, field)
    # Craft a tamper on the extra share (unused by the primary decode).
    tampered = outputs.copy()
    tampered[coeffs.n_shares - 1] = field.add(tampered[coeffs.n_shares - 1], 3)
    report = IntegrityVerifier(coeffs).verify_forward(tampered)
    assert not report.consistent


def test_backward_verification(frng, field):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    x = frng.uniform((2, 5))
    batch = ForwardEncoder(coeffs, frng).encode(x)
    deltas = frng.uniform((2, 3))
    op = lambda d, xi: field_matmul(field, d.reshape(-1, 1), xi.reshape(1, -1))
    combined = field_matmul(field, coeffs.b, deltas)
    eq_primary = np.stack([op(combined[j], batch.shares[j]) for j in range(coeffs.n_shares)])
    primary = BackwardDecoder(coeffs).decode(eq_primary)

    alt = next(s for s in coeffs.iter_decoding_subsets() if s != coeffs.primary_subset)
    b_alt, gamma = coeffs.backward_matrices_for_subset(alt)
    eq_alt = np.stack(
        [
            op(field_matmul(field, b_alt[j].reshape(1, -1), deltas).ravel(), batch.shares[j])
            for j in range(coeffs.n_shares)
        ]
    )
    alternate = BackwardDecoder(coeffs).decode_with_matrices(eq_alt, b_alt, gamma)

    verifier = IntegrityVerifier(coeffs)
    ok = verifier.verify_backward({coeffs.primary_subset: primary, alt: alternate})
    assert ok.consistent

    bad = verifier.verify_backward(
        {coeffs.primary_subset: primary, alt: field.add(alternate, 1)}
    )
    assert not bad.consistent
    with pytest.raises(IntegrityError):
        verifier.verify_backward({coeffs.primary_subset: primary})


# ----------------------------------------------------------------------
# verification plan: detection from a cover, localisation on mismatch only
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "k, m, extra, expected_subsets",
    [(4, 1, 1, 2), (2, 1, 3, 2), (1, 1, 2, 2), (1, 1, 3, 3), (1, 1, 5, 4)],
)
def test_verification_plan_is_a_minimal_cover(frng, k, m, extra, expected_subsets):
    coeffs = CoefficientSet.generate(frng, k=k, m=m, extra_shares=extra)
    plan = coeffs.verification_plan
    assert plan[0] == coeffs.primary_subset
    assert len(plan) == expected_subsets  # ceil(extra / (k+m)) alternates
    assert set().union(*plan) == set(range(coeffs.n_shares))
    for subset in plan:
        assert is_invertible(coeffs.field, coeffs.a[:, list(subset)])
    assert coeffs.verification_plan is plan  # cached on the set


def test_verified_decode_is_the_primary_decode(frng, field):
    coeffs, _, outputs = _setup(frng, field, k=3, m=2, extra=2)
    report = IntegrityVerifier(coeffs).verify_forward(outputs)
    assert len(coeffs.verification_plan) == 2
    assert np.array_equal(report.decoded, ForwardDecoder(coeffs).decode(outputs))
    tampered = outputs.copy()
    tampered[0, 0] = field.add(tampered[0, 0], 1)
    assert IntegrityVerifier(coeffs).verify_forward(tampered).decoded is None


def _singular_alternates(coeffs):
    """``coeffs`` with the redundant share's column zeroed: every subset
    but the primary is singular."""
    a = coeffs.a.copy()
    a[:, coeffs.n_sources :] = 0
    return dataclasses.replace(coeffs, a=a)


def test_unverifiable_coefficient_set_fails_closed(frng, field):
    coeffs, _, outputs = _setup(frng, field)
    crippled = _singular_alternates(coeffs)
    assert crippled.verification_plan == (crippled.primary_subset,)
    with pytest.raises(IntegrityError, match="fewer than two"):
        IntegrityVerifier(crippled).verify_forward(outputs)


def _oracle_consistent(coeffs, outputs) -> bool:
    """Every invertible ``C(n, K+M)`` subset decodes to the same ``[Y | W·r]``."""
    field = coeffs.field
    flat = outputs.reshape(coeffs.n_shares, -1)
    decodes = [
        solve(field, coeffs.a[:, list(subset)].T, flat[list(subset)])
        for subset in combinations(range(coeffs.n_shares), coeffs.n_sources)
        if is_invertible(field, coeffs.a[:, list(subset)])
    ]
    return all(np.array_equal(d, decodes[0]) for d in decodes[1:])


def _enumerate_everything_verify(coeffs, outputs, max_subsets):
    """The pre-plan algorithm: decode the first ``max_subsets`` invertible
    subsets, compare all to the first, localise by exclusion."""
    decoder = ForwardDecoder(coeffs)
    decoded = {}
    for subset in combinations(range(coeffs.n_shares), coeffs.n_sources):
        if not is_invertible(coeffs.field, coeffs.a[:, list(subset)]):
            continue
        y, noise = decoder.decode(outputs, subset=subset, return_noise_product=True)
        decoded[subset] = np.concatenate([y, noise])
        if len(decoded) == max_subsets:
            break
    reference, *others = decoded.values()
    if all(np.array_equal(other, reference) for other in others):
        return True, ()
    suspects = []
    for share in range(coeffs.n_shares):
        excluding = [decoded[s] for s in decoded if share not in s]
        if len(excluding) >= 2 and all(
            np.array_equal(d, excluding[0]) for d in excluding[1:]
        ):
            suspects.append(share)
    return False, tuple(suspects)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    m=st.integers(1, 2),
    extra=st.integers(1, 3),
    max_subsets=st.sampled_from([2, 3, 8, 12]),
    noise_only=st.booleans(),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_property_plan_verdicts_match_the_exhaustive_oracle(
    k, m, extra, max_subsets, noise_only, seed, data
):
    field = PrimeField()
    rng = FieldRng(field, seed)
    coeffs, _, outputs = _setup(rng, field, k=k, m=m, extra=extra)
    victims = data.draw(
        st.lists(st.integers(0, coeffs.n_shares - 1), min_size=1, unique=True)
    )
    tampered = outputs.copy()
    if noise_only:
        # Shift W·r under the victims' own noise coefficients: a decode from
        # victims alone recovers the right Y and a wrong noise product.
        shift = rng.nonzero((m, outputs.shape[1]))
        for j in victims:
            delta = field_matmul(field, coeffs.a2[:, j].reshape(1, m), shift)[0]
            tampered[j] = field.add(tampered[j], delta)
    else:
        for j in victims:
            col = data.draw(st.integers(0, outputs.shape[1] - 1))
            tampered[j, col] = field.add(tampered[j, col], int(rng.nonzero((1,))[0]))

    report = IntegrityVerifier(coeffs, max_subsets=max_subsets).verify_forward(tampered)
    assert report.consistent == _oracle_consistent(coeffs, tampered)
    if not report.consistent:
        # Localisation is the old enumeration, budget and all; where that
        # budget never reached the tampered share it names nobody.
        _, suspects = _enumerate_everything_verify(coeffs, tampered, max_subsets)
        assert report.suspected_shares == suspects
    assert IntegrityVerifier(coeffs, max_subsets=max_subsets).verify_forward(outputs).consistent
