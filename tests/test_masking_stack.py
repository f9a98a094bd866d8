"""The masking classes over a stack of coefficient sets == one set at a time.

Handing :class:`ForwardEncoder`, :class:`ForwardDecoder`,
:class:`BackwardDecoder` or :class:`IntegrityVerifier` a sequence of ``V``
sets makes every tensor carry a leading ``V`` axis and every product one
stacked field GEMM; each slice must be exactly what the single-set object
makes of it — a single set *is* the one-slice stack.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, EncodingError, IntegrityError
from repro.fieldmath import FieldRng, PrimeField
from repro.masking import (
    BackwardDecoder,
    CoefficientSet,
    ForwardDecoder,
    ForwardEncoder,
    IntegrityVerifier,
)

FIELD = PrimeField()


def _sets(rng, n, k=2, m=1, extra=1, shared=False):
    if shared:
        return [CoefficientSet.generate(rng, k=k, m=m, extra_shares=extra)] * n
    return [CoefficientSet.generate(rng, k=k, m=m, extra_shares=extra) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4), k=st.integers(1, 4), m=st.integers(1, 2), extra=st.integers(0, 2),
    shared=st.booleans(), predrawn=st.booleans(), seed=st.integers(0, 10_000),
)
def test_stacked_encode_decode_equal_the_per_set_loop(n, k, m, extra, shared, predrawn, seed):
    rng = FieldRng(FIELD, seed)
    sets = _sets(rng, n, k, m, extra, shared)
    x = rng.uniform((n, k, 3, 2))
    noise = rng.uniform((n, m, 3, 2)) if predrawn else None
    loop_rng, stack_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    loop = [
        ForwardEncoder(coeffs, loop_rng).encode(x[v], None if noise is None else noise[v])
        for v, coeffs in enumerate(sets)
    ]
    batch = ForwardEncoder(sets, stack_rng).encode(x, noise)
    assert batch.shares.shape == (n, k + m + extra, 3, 2) and batch.feature_shape == (3, 2)
    assert np.array_equal(batch.shares, np.stack([b.shares for b in loop]))
    assert np.array_equal(batch.noise, np.stack([b.noise for b in loop]))
    # noise drawn inside: one draw per set, in order — the stream ends where the loop's does
    assert stack_rng.uniform(()) == loop_rng.uniform(())

    outputs = batch.shares  # the identity operator: decodes must return x (and the noise)
    y, wr = ForwardDecoder(sets).decode(outputs, return_noise_product=True)
    assert np.array_equal(y, x) and np.array_equal(wr, batch.noise)
    for subset in sets[0].verification_plan:
        stacked = ForwardDecoder(sets).decode(outputs, subset=subset)
        assert np.array_equal(
            stacked,
            np.stack([ForwardDecoder(c).decode(outputs[v], subset=subset) for v, c in enumerate(sets)]),
        )


def test_stack_shape_and_membership_validation():
    rng = FieldRng(FIELD, 1)
    sets = _sets(rng, 2)
    with pytest.raises(EncodingError):
        ForwardEncoder([], rng)
    with pytest.raises(EncodingError):  # one (K, M, shares) shape per stack
        ForwardDecoder(sets + _sets(rng, 1, k=3))
    encoder = ForwardEncoder(sets, rng)
    with pytest.raises(EncodingError):
        encoder.encode(rng.uniform((2, 5)))  # no virtual-batch axis
    with pytest.raises(EncodingError):
        encoder.encode(rng.uniform((3, 2, 5)))  # three slices for two sets
    with pytest.raises(EncodingError):
        encoder.encode(rng.uniform((2, 2, 5)), noise=rng.uniform((1, 5)))
    with pytest.raises(EncodingError):
        encoder.encode(np.full((2, 2, 5), FIELD.p))  # not canonical
    with pytest.raises(DecodingError):
        ForwardDecoder(sets).decode(rng.uniform((4, 5)))
    with pytest.raises(DecodingError):
        BackwardDecoder(sets).decode(rng.uniform((2, 3, 5)))  # 3 rows, 4 shares
    with pytest.raises(DecodingError):
        BackwardDecoder(sets).decode_many(rng.uniform((2, 4, 5)))
    moved = dataclasses.replace(sets[1], primary_subset=(0, 1, 3))
    with pytest.raises(DecodingError, match="primary"):
        ForwardDecoder([sets[0], moved]).decode(rng.uniform((2, 4, 5)))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_stacked_gamma_decode_equals_the_per_set_loop(n, k, seed):
    rng = FieldRng(FIELD, seed)
    sets = _sets(rng, n, k)
    equations = rng.uniform((n, k + 2, 2, 3, 2))  # e.g. (V, S, R, *grad)
    loop = np.stack([BackwardDecoder(c).decode(equations[v]) for v, c in enumerate(sets)])
    assert np.array_equal(BackwardDecoder(sets).decode(equations), loop)
    gammas = np.stack([c.gamma for c in sets])
    assert np.array_equal(
        BackwardDecoder(sets).decode_with_matrices(equations, None, gammas), loop
    )
    one = BackwardDecoder(sets[0])
    assert np.array_equal(
        one.decode_many(equations), np.stack([one.decode(eq) for eq in equations])
    )
    assert one.decode_many(equations[:0]).shape == (0, 2, 3, 2)


def _outputs(rng, sets):
    """Honest outputs of the identity operator under each set."""
    x = rng.uniform((len(sets), sets[0].k, 6))
    return x, ForwardEncoder(sets, rng).encode(x).shares


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4), k=st.integers(1, 3), extra=st.integers(1, 2),
    max_subsets=st.sampled_from([2, 4, 8]), seed=st.integers(0, 10_000), data=st.data(),
)
def test_stacked_verify_forward_gives_each_virtual_batch_its_own_verdict(
    n, k, extra, max_subsets, seed, data
):
    rng = FieldRng(FIELD, seed)
    sets = _sets(rng, n, k, extra=extra)
    x, outputs = _outputs(rng, sets)
    victims = data.draw(st.sets(st.integers(0, n - 1)), label="tampered virtual batches")
    tampered = outputs.copy()
    for v in victims:
        share = data.draw(st.integers(0, sets[0].n_shares - 1), label="share")
        tampered[v, share, 0] = FIELD.add(tampered[v, share, 0], 1)
    reports = IntegrityVerifier(sets, max_subsets=max_subsets).verify_forward(tampered)
    assert [not r.consistent for r in reports] == [v in victims for v in range(n)]
    for v, report in enumerate(reports):
        alone = IntegrityVerifier(sets[v], max_subsets=max_subsets).verify_forward(tampered[v])
        assert report == alone  # consistent, subsets_checked, suspected_shares
        if report.consistent:
            assert np.array_equal(report.decoded, x[v])
        else:
            assert report.decoded is None
            with pytest.raises(IntegrityError, match="^layer 'c', virtual batch 2: GPU"):
                report.raise_on_failure("layer 'c', virtual batch 2")


def test_stack_whose_sets_follow_different_plans_is_verified_set_by_set():
    """A singular first alternate candidate sends one set to another plan;
    no subset is shared, so the stack falls back to one-slice stacks."""
    rng = FieldRng(FIELD, 7)
    regular, other = _sets(rng, 2, k=1, m=1, extra=1)
    a = other.a.copy()
    a[:, 2] = FIELD.mul(a[:, 0], 5)  # shares {0, 2} no longer decode; {1, 2} still do
    other = dataclasses.replace(other, a=a)
    assert regular.verification_plan == ((0, 1), (0, 2))
    assert other.verification_plan == ((0, 1), (1, 2))
    sets = [regular, other, regular]
    verifier = IntegrityVerifier(sets)
    assert verifier.verification_plans() == [c.verification_plan for c in sets]
    with pytest.raises(IntegrityError, match="different plans"):
        verifier.verification_plan()
    x, outputs = _outputs(rng, sets)
    reports = verifier.verify_forward(outputs)
    assert all(r.consistent for r in reports)
    assert np.array_equal(np.stack([r.decoded for r in reports]), x)
    outputs[1, 2, 3] = FIELD.add(outputs[1, 2, 3], 9)
    assert [r.consistent for r in verifier.verify_forward(outputs)] == [True, False, True]


def test_stacked_verify_backward_takes_one_mapping_per_virtual_batch():
    rng = FieldRng(FIELD, 9)
    sets = _sets(rng, 3)
    aggregates = rng.uniform((3, 2, 5))
    aggregates[:, 1] = aggregates[:, 0]
    aggregates[1, 1, 4] = FIELD.add(aggregates[1, 1, 4], 1)
    plans = IntegrityVerifier(sets).verification_plans()
    by_bset = [
        {plan[0]: primary, plan[1]: alternate}
        for plan, (primary, alternate) in zip(plans, aggregates)
    ]
    reports = IntegrityVerifier(sets).verify_backward(by_bset)
    assert [r.consistent for r in reports] == [True, False, True]
    assert reports[1] == IntegrityVerifier(sets[1]).verify_backward(by_bset[1])
    with pytest.raises(IntegrityError):
        IntegrityVerifier(sets).verify_backward([{plans[0][0]: aggregates[0, 0]}] * 3)
