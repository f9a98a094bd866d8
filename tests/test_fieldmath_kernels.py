"""Property tests: the limb/Barrett kernels are bit-identical to the oracle.

The limb backend's exactness argument (13-bit limb products accumulated in
float64 below 2**53) is proved in :mod:`repro.fieldmath.kernels`; these
tests attack it empirically — randomized shapes and values, all-zero and
all-``p-1`` adversarial operands, contractions straddling every dispatch
boundary (public 1-GEMM, 1-GEMM -> 2-GEMM -> generic fallback) — and pin
how a backend object reaches a product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.fieldmath import (
    BarrettReducer,
    FieldRng,
    PrimeField,
    field_matmul,
    field_matmul_stacked,
)
from repro.fieldmath.kernels import (
    GenericBackend,
    LimbBackend,
    PublicOperand,
    int64_sum_limit,
    one_gemm_limit,
    public_gemm_exact,
    two_gemm_limit,
)

FIELD = PrimeField()
GENERIC = GenericBackend()
LIMB = LimbBackend()


def _bigint_matmul(a, b, p):
    """Exact reference via Python big ints."""
    return np.mod(a.astype(object) @ b.astype(object), p).astype(np.int64)


# ----------------------------------------------------------------------
# limb GEMM == generic oracle == bigint reference
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 7),
    k=st.integers(1, 40),
    cols=st.integers(1, 7),
    seed=st.integers(0, 10_000),
)
def test_limb_matmul_matches_oracle_random(rows, k, cols, seed):
    rng = FieldRng(FIELD, seed)
    a, b = rng.uniform((rows, k)), rng.uniform((k, cols))
    expected = GENERIC.matmul(FIELD, a, b)
    assert np.array_equal(expected, _bigint_matmul(a, b, FIELD.p))
    assert np.array_equal(LIMB.matmul(FIELD, a, b), expected)


@pytest.mark.parametrize("value", [0, 1, PrimeField().p - 1])
@pytest.mark.parametrize("k", [1, 7, 4096])
def test_limb_matmul_extreme_values(value, k):
    a = np.full((3, k), value, dtype=np.int64)
    b = np.full((k, 2), value, dtype=np.int64)
    assert np.array_equal(
        LIMB.matmul(FIELD, a, b), GENERIC.matmul(FIELD, a, b)
    )


def test_limb_matmul_max_k_accumulation_edge():
    """Worst case at the 2-GEMM bound: every operand entry is ``p - 1``."""
    for k in (two_gemm_limit(FIELD.p) - 1, two_gemm_limit(FIELD.p)):
        a = np.full((1, k), FIELD.p - 1, dtype=np.int64)
        b = np.full((k, 1), FIELD.p - 1, dtype=np.int64)
        expected = pow(FIELD.p - 1, 2, FIELD.p) * k % FIELD.p
        assert LIMB.matmul(FIELD, a, b)[0, 0] == expected


def test_limb_matmul_past_two_gemm_bound_uses_the_oracle():
    """Contractions just past the 2-GEMM bound have no exact limb kernel:
    the oracle takes them (nothing in ``models/`` contracts that far)."""
    k = two_gemm_limit(FIELD.p) + 1
    assert LIMB._kernel_for(FIELD.p, k - 1) is not None
    assert LIMB._kernel_for(FIELD.p, k) is None
    a = np.full((1, k), FIELD.p - 1, dtype=np.int64)
    b = np.full((k, 1), FIELD.p - 1, dtype=np.int64)
    expected = pow(FIELD.p - 1, 2, FIELD.p) * k % FIELD.p
    assert LIMB.matmul(FIELD, a, b)[0, 0] == expected


#: The paper's prime, one below ``2**26``, and two up to ``PrimeField``'s
#: ``2**31`` ceiling, where the oracle's int64 sums hold fewest products.
_WIDE_PRIMES = [2**25 - 39, 67_108_859, 2**30 - 35, 2**31 - 1]


@pytest.mark.parametrize("p", _WIDE_PRIMES)
@pytest.mark.parametrize("k", [2, 8, 64, 4097])
def test_every_path_is_exact_at_all_p_minus_one_operands(p, k):
    """The oracle, the limb backend and ``field_matmul`` against Python
    ints, at the largest products a field admits, up to the largest prime
    ``PrimeField`` accepts: the oracle's int64 chunk must shrink with ``p``
    (8,192 products at the paper's prime, 2 at ``2**31 - 1``)."""
    field = PrimeField(p)
    a = np.full((2, k), p - 1, dtype=np.int64)
    b = np.full((k, 3), p - 1, dtype=np.int64)
    expected = _bigint_matmul(a, b, p)
    assert (expected == k % p).all()
    assert int64_sum_limit(p) >= 2
    for product in (GENERIC.matmul(field, a, b), LimbBackend().matmul(field, a, b)):
        assert np.array_equal(product, expected)
    assert np.array_equal(field_matmul(field, a, b), expected)


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 60), seed=st.integers(0, 1000))
def test_forced_dispatch_branches_agree(k, seed):
    """Tiny caps force each branch (1-GEMM where exact / 2-GEMM / generic)
    on the same operands; all must agree bit-for-bit."""
    rng = FieldRng(FIELD, seed)
    a, b = rng.uniform((4, k)), rng.uniform((k, 3))
    expected = GENERIC.matmul(FIELD, a, b)
    forced_two = LimbBackend(one_gemm_cap=0)
    forced_fallback = LimbBackend(one_gemm_cap=0, two_gemm_cap=0)
    assert np.array_equal(LIMB.matmul(FIELD, a, b), expected)
    assert np.array_equal(forced_two.matmul(FIELD, a, b), expected)
    assert np.array_equal(forced_fallback.matmul(FIELD, a, b), expected)


def test_limb_matmul_falls_back_past_exactness_bound():
    """Regression: contractions beyond the 2-GEMM bound (modeled with a
    tiny cap) must take the generic path and stay exact, not overflow."""
    capped = LimbBackend(one_gemm_cap=0, two_gemm_cap=8)
    rng = FieldRng(FIELD, 7)
    a, b = rng.uniform((3, 40)), rng.uniform((40, 3))
    assert np.array_equal(
        capped.matmul(FIELD, a, b), _bigint_matmul(a, b, FIELD.p)
    )


def test_limb_backend_rejects_nothing_it_cannot_handle():
    """p >= 2**26 (limbs would not fit 13 bits) silently uses the oracle."""
    big = PrimeField(67108879)  # smallest prime >= 2**26
    rng = FieldRng(big, 3)
    a, b = rng.uniform((4, 9)), rng.uniform((9, 4))
    assert np.array_equal(
        LIMB.matmul(big, a, b), _bigint_matmul(a, b, big.p)
    )


def test_limb_matmul_one_dimensional_operands():
    rng = FieldRng(FIELD, 11)
    a, b = rng.uniform(17), rng.uniform((17, 3))
    assert np.array_equal(
        LIMB.matmul(FIELD, a, b), GENERIC.matmul(FIELD, a, b)
    )
    bv = rng.uniform(17)
    am = rng.uniform((3, 17))
    assert np.array_equal(
        LIMB.matmul(FIELD, am, bv), GENERIC.matmul(FIELD, am, bv)
    )


# ----------------------------------------------------------------------
# stacked (batched) limb GEMM == big-int reference, slice by slice
# ----------------------------------------------------------------------


def _bigint_stacked(a, b, p):
    return np.stack([_bigint_matmul(a[s], b[s], p) for s in range(a.shape[0])])


@settings(max_examples=30, deadline=None)
@given(
    stack=st.integers(1, 6),
    rows=st.integers(1, 5),
    k=st.integers(1, 40),
    cols=st.integers(1, 5),
    extreme=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_stacked_matmul_matches_bigint_per_slice(stack, rows, k, cols, extreme, seed):
    """Every dispatch branch (the default's, then 2-GEMM, per-slice oracle —
    forced by small caps straddling ``k``) and the generic backend agree
    with big ints."""
    if extreme:
        a = np.full((stack, rows, k), FIELD.p - 1, dtype=np.int64)
        b = np.full((stack, k, cols), FIELD.p - 1, dtype=np.int64)
    else:
        rng = FieldRng(FIELD, seed)
        a, b = rng.uniform((stack, rows, k)), rng.uniform((stack, k, cols))
    expected = _bigint_stacked(a, b, FIELD.p)
    for backend in (
        LIMB,
        GENERIC,
        LimbBackend(one_gemm_cap=0, two_gemm_cap=k),  # k exactly on the 2-GEMM bound
        LimbBackend(one_gemm_cap=0, two_gemm_cap=k - 1),  # first fallback k
    ):
        got = backend.matmul_stacked(FIELD, a, b)
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert np.array_equal(field_matmul_stacked(FIELD, a, b), expected)
    assert np.array_equal(field_matmul_stacked(FIELD, a, b, backend=GENERIC), expected)


def test_stacked_matmul_at_the_real_two_gemm_bound():
    """All-(p-1) operands at and just past ``two_gemm_limit``: the last exact
    2-GEMM contraction and the first the oracle takes, on a 2-slice stack."""
    for k in (two_gemm_limit(FIELD.p), two_gemm_limit(FIELD.p) + 1):
        a = np.full((2, 1, k), FIELD.p - 1, dtype=np.int64)
        b = np.full((2, k, 1), FIELD.p - 1, dtype=np.int64)
        expected = pow(FIELD.p - 1, 2, FIELD.p) * k % FIELD.p
        assert field_matmul_stacked(FIELD, a, b).tolist() == [[[expected]]] * 2


def test_stacked_matmul_degenerate_shapes_and_validation():
    rng = FieldRng(FIELD, 5)
    a, b = rng.uniform((1, 3, 4)), rng.uniform((1, 4, 2))  # S = 1
    assert np.array_equal(
        field_matmul_stacked(FIELD, a, b)[0], field_matmul(FIELD, a[0], b[0])
    )
    empty = field_matmul_stacked(  # empty contraction: all zeros
        FIELD, np.zeros((2, 3, 0), dtype=np.int64), np.zeros((2, 0, 4), dtype=np.int64)
    )
    assert empty.shape == (2, 3, 4) and not empty.any()
    big = PrimeField(67108879)  # p >= 2**26: the oracle, silently
    ab, bb = FieldRng(big, 3).uniform((2, 3, 5)), FieldRng(big, 4).uniform((2, 5, 2))
    assert np.array_equal(field_matmul_stacked(big, ab, bb), _bigint_stacked(ab, bb, big.p))
    with pytest.raises(FieldError):
        field_matmul_stacked(FIELD, a[0], b)  # not a stack
    with pytest.raises(FieldError):
        field_matmul_stacked(FIELD, a, rng.uniform((2, 4, 2)))  # stack sizes differ
    with pytest.raises(FieldError):
        field_matmul_stacked(FIELD, a, rng.uniform((1, 3, 2)))  # inner dims differ


# ----------------------------------------------------------------------
# the unsplit tier: k * (p-1)**2 < 2**53 needs no limbs
# ----------------------------------------------------------------------
SMALL = PrimeField(16777213)  # largest prime below 2**24: the tier reaches k = 32


def test_one_gemm_limit_is_where_the_worst_case_sum_leaves_float64():
    assert one_gemm_limit(FIELD.p) == 8  # every K+M(+1)-term masking contraction
    assert one_gemm_limit(SMALL.p) == 32
    for p in (FIELD.p, SMALL.p):
        k = one_gemm_limit(p)
        assert k * (p - 1) ** 2 < 2**53 <= (k + 1) * (p - 1) ** 2
    assert one_gemm_limit(2**31 - 1) == 0  # a single product already too wide


@pytest.mark.parametrize("field", [FIELD, SMALL], ids=["paper-prime", "small-prime"])
@pytest.mark.parametrize("past", [0, 1], ids=["last-unsplit-k", "first-split-k"])
@pytest.mark.parametrize("extreme", [True, False], ids=["all-p-1", "random"])
def test_one_gemm_tier_boundary_matches_bigint(field, past, extreme):
    """At ``one_gemm_limit`` (the unsplit GEMM's last exact contraction) and
    one past it (the first limb-split one), 2-D and stacked, all-``(p-1)``
    and random operands equal the big-int product."""
    k = one_gemm_limit(field.p) + past
    kernel = LIMB._kernel_for(field.p, k)
    assert kernel == (LIMB._two_gemm if past else LIMB._one_gemm)
    if extreme:
        a = np.full((3, 2, k), field.p - 1, dtype=np.int64)
        b = np.full((3, k, 4), field.p - 1, dtype=np.int64)
    else:
        rng = FieldRng(field, 17 + k)
        a, b = rng.uniform((3, 2, k)), rng.uniform((3, k, 4))
    expected = _bigint_stacked(a, b, field.p)
    assert np.array_equal(field_matmul_stacked(field, a, b), expected)
    assert np.array_equal(field_matmul(field, a[0], b[0]), expected[0])
    # the oracle never takes the tier
    assert np.array_equal(field_matmul_stacked(field, a, b, backend=GENERIC), expected)
    assert np.array_equal(field_matmul(field, a[0], b[0], backend=GENERIC), expected[0])


@settings(max_examples=30, deadline=None)
@given(
    stack=st.integers(1, 5),
    rows=st.integers(1, 6),
    k=st.integers(1, 8),
    cols=st.integers(1, 9),
    transposed=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_one_gemm_tier_matches_the_split_kernels(stack, rows, k, cols, transposed, seed):
    """Masking-sized contractions: the unsplit tier, the forced 2-GEMM split
    and the generic oracle agree, on contiguous and transposed operands."""
    rng = FieldRng(FIELD, seed)
    a = rng.uniform((stack, rows, k))
    b = rng.uniform((stack, cols, k)).transpose(0, 2, 1) if transposed else rng.uniform((stack, k, cols))
    expected = GENERIC.matmul_stacked(FIELD, a, b)
    assert np.array_equal(LIMB.matmul_stacked(FIELD, a, b), expected)
    assert np.array_equal(LimbBackend(one_gemm_cap=0).matmul_stacked(FIELD, a, b), expected)
    assert np.array_equal(LIMB.matmul(FIELD, a[0], b[0]), expected[0])


def test_limb_results_never_alias_the_kernel_workspace():
    """Temporaries live in the backend's grow-only workspace; what a call
    returns must survive the next call (and a scribble over the workspace)."""
    backend = LimbBackend()
    rng = FieldRng(FIELD, 23)
    cases = [  # unsplit 2-D, split 2-D (a smaller / b smaller), split stacked
        (rng.uniform((6, 5)), rng.uniform((5, 40))),
        (rng.uniform((4, 30)), rng.uniform((30, 50))),
        (rng.uniform((50, 30)), rng.uniform((30, 4))),
        (rng.uniform((3, 4, 30)), rng.uniform((3, 30, 7))),
    ]
    for a, b in cases:
        run = backend.matmul_stacked if a.ndim == 3 else backend.matmul
        first = run(FIELD, a, b)
        kept = first.copy()
        grown = backend._workspace
        run(FIELD, a, b)
        assert backend._workspace is grown  # same shapes: nothing reallocated
        backend._workspace.fill(-1.0)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, backend._workspace)


# ----------------------------------------------------------------------
# a public operand: one GEMM while k * (p-1) * W < 2**53
# ----------------------------------------------------------------------


def _largest_public_bound(p, k):
    """The largest centred magnitude ``W`` one GEMM over ``k`` terms takes:
    ``k*(p-1)*W`` is as close to ``2**53 - 1`` as it gets from below (never
    equal: ``p - 1`` is even)."""
    return (2**53 - 1) // (k * (p - 1))


def _public_product(backend, public, private, public_left):
    """``backend.matmul_public`` with ``private`` as the operand it writes."""
    return backend.matmul_public(
        FIELD, public, private.shape, lambda out: np.copyto(out, private),
        public_left=public_left,
    )


def _signed_weights(rng, shape, bound, signs):
    """Centred weights of magnitude ``<= bound`` reaching it, as field elements."""
    if signs == "negative":
        signed = np.full(shape, -bound)
    elif signs == "positive":
        signed = np.full(shape, bound)
    else:
        signed = rng.integers(-bound, bound + 1, size=shape)
        signed.flat[0] = -bound
    return FIELD.element(signed)


def test_public_gemm_bound_is_where_the_worst_partial_sum_leaves_float64():
    p = FIELD.p
    for k in (17, 72, 144, 4096, 25_088):
        bound = _largest_public_bound(p, k)
        assert k * (p - 1) * bound <= 2**53 - 1 < k * (p - 1) * (bound + 1)
        assert public_gemm_exact(p, k, bound) and not public_gemm_exact(p, k, bound + 1)
    # Normalised weights quantize to |w_q| <= 2**8, which fits every
    # contraction in models/ (VGG16's fc6 is the longest) with room to spare.
    assert public_gemm_exact(p, 25_088, 2**8) and public_gemm_exact(p, 25_088, 10)
    # Below k = 17 even a full-range centred operand fits.
    assert public_gemm_exact(p, 16, p // 2) and not public_gemm_exact(p, 17, p // 2)


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([17, 18, 72, 144, 1000, 4096]),
    past=st.booleans(),
    signs=st.sampled_from(["negative", "positive", "mixed"]),
    public_left=st.booleans(),
    stacked=st.booleans(),
    extreme=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_public_gemm_at_its_bound_matches_the_oracle(
    k, past, signs, public_left, stacked, extreme, seed
):
    """At the largest ``W`` the rule admits the public tier computes the
    product; one past it the tier declines (``None``) and the integer path
    takes over.  All-``(p-1)`` private operands against all-``-W`` weights
    put the signed sum within ``p`` of ``-2**53``, where ``q*p`` itself is
    not exact."""
    rng = np.random.default_rng(seed)
    bound = _largest_public_bound(FIELD.p, k) + past
    weights = _signed_weights(rng, (2, k) if public_left else (k, 2), bound, signs)
    public = PublicOperand.lift(FIELD, weights)
    assert public.bound == bound
    lead = (3,) if stacked else ()
    shape = lead + ((k, 4) if public_left else (4, k))
    private = (
        np.full(shape, FIELD.p - 1, dtype=np.int64)
        if extreme
        else FieldRng(FIELD, seed).uniform(shape)
    )
    got = _public_product(LIMB, public, private, public_left)
    assert _public_product(GENERIC, public, private, public_left) is None
    if past:
        assert got is None
        return
    slices = private.reshape((-1,) + shape[-2:])
    pairs = [(weights, s) if public_left else (s, weights) for s in slices]
    expected = np.stack([_bigint_matmul(left, right, FIELD.p) for left, right in pairs])
    assert got.dtype == np.int64 and np.array_equal(got, expected.reshape(got.shape))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 5),
    k=st.integers(1, 300),
    cols=st.integers(1, 6),
    bound=st.sampled_from([0, 1, 255, 256, 4096, PrimeField().p // 2]),
    seed=st.integers(0, 10_000),
)
def test_public_gemm_matches_the_oracle_wherever_it_applies(rows, k, cols, bound, seed):
    """Random shapes and sign-mixed weights of every scale: the tier takes
    exactly the products its rule admits, and agrees with the oracle."""
    rng = np.random.default_rng(seed)
    weights = (
        _signed_weights(rng, (rows, k), bound, "mixed") if bound else np.zeros((rows, k), np.int64)
    )
    public = PublicOperand.lift(FIELD, weights)
    private = FieldRng(FIELD, seed).uniform((k, cols))
    got = _public_product(LIMB, public, private, True)
    assert (got is not None) == public_gemm_exact(FIELD.p, k, public.bound)
    if got is not None:
        assert np.array_equal(got, GENERIC.matmul(FIELD, weights, private))


def test_public_operand_lift_is_centred_and_read_only():
    p = FIELD.p
    values = np.array([[0, 1, p // 2], [p // 2 + 1, p - 1, p + 3]])
    public = PublicOperand.lift(FIELD, values)
    assert public.centred.tolist() == [[0, 1, p // 2], [-(p // 2), -1, 3]]
    assert public.bound == p // 2 and public.values is not None
    assert not public.centred.flags.writeable


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(-(2**53) + 1, 2**53 - 1),
            st.sampled_from([0, 1, -1, 2**53 - 1, -(2**53) + 1, PrimeField().p, -PrimeField().p]),
            st.integers(-4, 4).map(lambda j: j + (2**53 // PrimeField().p) * PrimeField().p),
            st.integers(-4, 4).map(lambda j: j - (2**53 // PrimeField().p) * PrimeField().p),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_barrett_signed_reduction_is_exact_on_the_whole_range(values):
    red = BarrettReducer(FIELD.p)
    x = np.array(values, dtype=np.float64)
    assert np.array_equal(x.astype(np.int64), np.array(values))  # exact inputs
    got = red.reduce_f64_signed(x, np.empty_like(x), np.empty_like(x))
    assert got.tolist() == [v % FIELD.p for v in values]


def _two_pass_signed(red, x, q, t):
    """The signed reduction as it was: the lazy step, then two
    ``where=``-masked corrections (the oracle for the single-quotient one)."""
    np.multiply(x, red.invp, out=q)
    np.floor(q, out=q)
    np.multiply(q, red.pf - 1.0, out=t)
    x -= t
    x -= q
    np.add(x, red.pf, out=x, where=x < 0)
    np.subtract(x, red.pf, out=x, where=x >= red.pf)
    return x


_MODULI = [FIELD.p, 2**31 - 1, 1073741789, 67108859, 8191]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_MODULI).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(
                st.one_of(
                    st.integers(-p, 2 * p - 1),
                    st.integers(-(2**53) + 1, -(2**53) + 4 * p),
                    st.integers(2**53 - 4 * p, 2**53 - 1),
                    st.integers(-(2**50) + 1, -(2**50) + 4 * p),
                    st.integers(2**50 - 4 * p, 2**50 - 1),
                    st.integers(-(2**50) + 1, 2**50 - 1),
                ),
                min_size=1,
                max_size=64,
            ),
        )
    )
)
def test_barrett_signed_single_quotient_matches_the_two_pass_form(case):
    """Bit for bit the old two-pass result, over ``[-p, 2p)`` (the residues
    the corrections see), within a few ``p`` of ``±2**53`` and of ``±2**50``
    — and, for inputs below ``2**50`` given that bound, by one quotient."""
    p, values = case
    red = BarrettReducer(p)
    x = np.array(values, dtype=np.float64)
    want = _two_pass_signed(red, x.copy(), np.empty_like(x), np.empty_like(x))
    got = red.reduce_f64_signed(x.copy(), np.empty_like(x), np.empty_like(x))
    assert got.tobytes() == want.tobytes()
    assert got.tolist() == [v % p for v in values]
    bound = max(abs(v) for v in values)
    if bound < 2**50:
        one = red.reduce_f64_signed(x.copy(), np.empty_like(x), np.empty_like(x), bound=bound)
        assert one.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Barrett reducer
# ----------------------------------------------------------------------


def test_barrett_f64_boundary_values():
    p = FIELD.p
    red = BarrettReducer(p)
    ks = [0, 1, 2, 1000, (2**52) // p]
    ds = [0, 1, p - 1]
    xs = np.array([k * p + d for k in ks for d in ds], dtype=np.float64)
    expected = np.array([d for _ in ks for d in ds], dtype=np.float64)
    assert np.array_equal(red.reduce_f64(xs.copy()), expected)
    lazy = red.reduce_f64_lazy(xs.copy())
    assert np.all(lazy >= 0) and np.all(lazy < 2 * p)
    assert np.array_equal(np.mod(lazy, p), expected)


def test_dispatch_limits_are_sane():
    assert two_gemm_limit(FIELD.p) == 32770
    assert two_gemm_limit(FIELD.p) > 25_088  # VGG16 fc6, the longest in models/


# ----------------------------------------------------------------------
# a backend is an object the caller passes
# ----------------------------------------------------------------------


def test_field_matmul_backend_argument_overrides_default(monkeypatch):
    """A passed backend runs the product; without one it runs on the
    enclave-side limb backend private to ``linalg``."""
    from repro.fieldmath import linalg

    rng = FieldRng(FIELD, 9)
    a, b = rng.uniform((5, 13)), rng.uniform((13, 5))
    expected = _bigint_matmul(a, b, FIELD.p)
    assert isinstance(linalg._ENCLAVE.backend, LimbBackend)
    assert np.array_equal(field_matmul(FIELD, a, b), expected)

    def refuse(*args, **kwargs):
        raise AssertionError("the enclave-side backend ran")

    monkeypatch.setattr(linalg._ENCLAVE.backend, "matmul", refuse)
    for backend in (GenericBackend(), LimbBackend()):
        assert np.array_equal(field_matmul(FIELD, a, b, backend=backend), expected)
    with pytest.raises(AssertionError, match="enclave-side"):
        field_matmul(FIELD, a, b)


def test_field_matmul_still_validates_before_dispatch():
    rng = FieldRng(FIELD, 1)
    a = rng.uniform((3, 4))
    with pytest.raises(FieldError):
        field_matmul(FIELD, a, rng.uniform((5, 3)))
    with pytest.raises(FieldError):
        field_matmul(FIELD, a, rng.uniform((5, 3)), backend=GenericBackend())


# ----------------------------------------------------------------------
# division-free PrimeField ops stay exact
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prime_field_ops_match_mod_semantics(seed):
    rng = np.random.default_rng(seed)
    p = FIELD.p
    a = rng.integers(0, p, size=200)
    b = rng.integers(0, p, size=200)
    assert np.array_equal(FIELD.add(a, b), (a + b) % p)
    assert np.array_equal(FIELD.sub(a, b), (a - b) % p)
    assert np.array_equal(FIELD.mul(a, b), a * b % p)


def test_prime_field_ops_accept_non_canonical_inputs():
    """The conditional-correction fast paths must still reduce arbitrary
    int64 inputs exactly (falling back to the generic modulus)."""
    p = FIELD.p
    a = np.array([-1, -p, 2 * p + 3, p, 0, p - 1], dtype=np.int64)
    b = np.array([5, -3 * p - 1, p + 2, -p + 1, p - 1, p - 1], dtype=np.int64)
    assert np.array_equal(FIELD.add(a, b), (a + b) % p)
    assert np.array_equal(FIELD.sub(a, b), (a - b) % p)


def test_prime_field_mul_f64_band_is_bit_identical():
    """Sizes inside the float64-Barrett band agree with np.mod exactly."""
    rng = np.random.default_rng(0)
    p = FIELD.p
    for size in (1024, 4096, 1 << 17):
        a = rng.integers(0, p, size=size)
        b = rng.integers(0, p, size=size)
        assert np.array_equal(FIELD.mul(a, b), a * b % p)
    worst = np.full(2048, p - 1, dtype=np.int64)
    assert np.array_equal(FIELD.mul(worst, worst), worst * worst % p)


def test_barrett_reducers_are_shared_per_modulus():
    from repro.fieldmath.kernels import barrett

    assert barrett(FIELD.p) is barrett(FIELD.p)
    assert barrett(10007) is not barrett(FIELD.p)
    assert barrett(10007).reduce_f64(np.array([10007.0 * 5 + 3])).tolist() == [3.0]


@pytest.mark.parametrize("p", [2, 1, 10008])
def test_barrett_refuses_moduli_it_cannot_reduce(p):
    with pytest.raises(FieldError):
        BarrettReducer(p)
