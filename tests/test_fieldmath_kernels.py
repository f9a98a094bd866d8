"""Property tests: the limb/Barrett kernels are bit-identical to the oracle.

The limb backend's exactness argument (13-bit limb products accumulated in
float64 below 2**53) is proved in :mod:`repro.fieldmath.kernels`; these
tests attack it empirically — randomized shapes and values, all-zero and
all-``p-1`` adversarial operands, contractions straddling every dispatch
boundary (1-GEMM -> 2-GEMM -> generic fallback) — and pin the
backend registry / config / CLI plumbing.
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
    default_backend_name,
    field_matmul,
    field_matmul_stacked,
    get_backend,
    set_default_backend,
    use_backend,
)
from repro.fieldmath.kernels import (
    BACKENDS,
    GenericBackend,
    LimbBackend,
    one_gemm_limit,
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
    expected = GENERIC.matmul(FIELD, a, b, 4096)
    assert np.array_equal(expected, _bigint_matmul(a, b, FIELD.p))
    assert np.array_equal(LIMB.matmul(FIELD, a, b, 4096), expected)


@pytest.mark.parametrize("value", [0, 1, PrimeField().p - 1])
@pytest.mark.parametrize("k", [1, 7, 4096])
def test_limb_matmul_extreme_values(value, k):
    a = np.full((3, k), value, dtype=np.int64)
    b = np.full((k, 2), value, dtype=np.int64)
    assert np.array_equal(
        LIMB.matmul(FIELD, a, b, 4096), GENERIC.matmul(FIELD, a, b, 4096)
    )


def test_limb_matmul_max_k_accumulation_edge():
    """Worst case at the 2-GEMM bound: every operand entry is ``p - 1``."""
    for k in (two_gemm_limit(FIELD.p) - 1, two_gemm_limit(FIELD.p)):
        a = np.full((1, k), FIELD.p - 1, dtype=np.int64)
        b = np.full((k, 1), FIELD.p - 1, dtype=np.int64)
        expected = pow(FIELD.p - 1, 2, FIELD.p) * k % FIELD.p
        assert LIMB.matmul(FIELD, a, b, 4096)[0, 0] == expected


def test_limb_matmul_past_two_gemm_bound_uses_the_oracle():
    """Contractions just past the 2-GEMM bound have no exact limb kernel:
    the oracle takes them (nothing in ``models/`` contracts that far)."""
    k = two_gemm_limit(FIELD.p) + 1
    assert LIMB._kernel_for(FIELD.p, k - 1) is not None
    assert LIMB._kernel_for(FIELD.p, k) is None
    a = np.full((1, k), FIELD.p - 1, dtype=np.int64)
    b = np.full((k, 1), FIELD.p - 1, dtype=np.int64)
    expected = pow(FIELD.p - 1, 2, FIELD.p) * k % FIELD.p
    assert LIMB.matmul(FIELD, a, b, 4096)[0, 0] == expected


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 60), seed=st.integers(0, 1000))
def test_forced_dispatch_branches_agree(k, seed):
    """Tiny caps force each branch (1-GEMM where exact / 2-GEMM / generic)
    on the same operands; all must agree bit-for-bit."""
    rng = FieldRng(FIELD, seed)
    a, b = rng.uniform((4, k)), rng.uniform((k, 3))
    expected = GENERIC.matmul(FIELD, a, b, 4096)
    forced_two = LimbBackend(one_gemm_cap=0)
    forced_fallback = LimbBackend(one_gemm_cap=0, two_gemm_cap=0)
    assert np.array_equal(LIMB.matmul(FIELD, a, b, 4096), expected)
    assert np.array_equal(forced_two.matmul(FIELD, a, b, 4096), expected)
    assert np.array_equal(forced_fallback.matmul(FIELD, a, b, 4096), expected)


def test_limb_matmul_falls_back_past_exactness_bound():
    """Regression: contractions beyond the 2-GEMM bound (modeled with a
    tiny cap) must take the generic path and stay exact, not overflow."""
    capped = LimbBackend(one_gemm_cap=0, two_gemm_cap=8)
    rng = FieldRng(FIELD, 7)
    a, b = rng.uniform((3, 40)), rng.uniform((40, 3))
    assert np.array_equal(
        capped.matmul(FIELD, a, b, 4096), _bigint_matmul(a, b, FIELD.p)
    )


def test_limb_backend_rejects_nothing_it_cannot_handle():
    """p >= 2**26 (limbs would not fit 13 bits) silently uses the oracle."""
    big = PrimeField(67108879)  # smallest prime >= 2**26
    rng = FieldRng(big, 3)
    a, b = rng.uniform((4, 9)), rng.uniform((9, 4))
    assert np.array_equal(
        LIMB.matmul(big, a, b, 4096), _bigint_matmul(a, b, big.p)
    )


def test_limb_matmul_one_dimensional_operands():
    rng = FieldRng(FIELD, 11)
    a, b = rng.uniform(17), rng.uniform((17, 3))
    assert np.array_equal(
        LIMB.matmul(FIELD, a, b, 4096), GENERIC.matmul(FIELD, a, b, 4096)
    )
    bv = rng.uniform(17)
    am = rng.uniform((3, 17))
    assert np.array_equal(
        LIMB.matmul(FIELD, am, bv, 4096), GENERIC.matmul(FIELD, am, bv, 4096)
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
        got = backend.matmul_stacked(FIELD, a, b, 4096)
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert np.array_equal(field_matmul_stacked(FIELD, a, b), expected)
    assert np.array_equal(field_matmul_stacked(FIELD, a, b, backend="generic"), expected)


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
    with pytest.raises(FieldError):
        field_matmul_stacked(FIELD, a, b, chunk=0)


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
    with use_backend("generic"):  # the oracle never takes the tier
        assert np.array_equal(field_matmul_stacked(field, a, b), expected)
        assert np.array_equal(field_matmul(field, a[0], b[0]), expected[0])


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
    expected = GENERIC.matmul_stacked(FIELD, a, b, 4096)
    assert np.array_equal(LIMB.matmul_stacked(FIELD, a, b, 4096), expected)
    assert np.array_equal(LimbBackend(one_gemm_cap=0).matmul_stacked(FIELD, a, b, 4096), expected)
    assert np.array_equal(LIMB.matmul(FIELD, a[0], b[0], 4096), expected[0])


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
        first = run(FIELD, a, b, 4096)
        kept = first.copy()
        grown = backend._workspace
        run(FIELD, a, b, 4096)
        assert backend._workspace is grown  # same shapes: nothing reallocated
        backend._workspace.fill(-1.0)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, backend._workspace)


# ----------------------------------------------------------------------
# Barrett reducer
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_barrett_int64_matches_mod(seed):
    rng = np.random.default_rng(seed)
    red = BarrettReducer(FIELD.p)
    x = rng.integers(0, 1 << 50, size=257)
    assert np.array_equal(red.reduce_int64(x), np.mod(x, FIELD.p))


def test_barrett_int64_boundary_values():
    p = FIELD.p
    red = BarrettReducer(p)
    edges = np.array(
        [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 3 * p - 1, (1 << 50) - 1],
        dtype=np.int64,
    )
    assert np.array_equal(red.reduce_int64(edges), np.mod(edges, p))


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


def test_barrett_int64_refuses_wide_moduli():
    wide = BarrettReducer((1 << 31) - 1)  # Mersenne prime, 31 bits
    with pytest.raises(FieldError):
        wide.reduce_int64(np.arange(4))


def test_dispatch_limits_are_sane():
    assert two_gemm_limit(FIELD.p) == 32770
    assert two_gemm_limit(FIELD.p) > 25_088  # VGG16 fc6, the longest in models/


# ----------------------------------------------------------------------
# backend registry / selection plumbing
# ----------------------------------------------------------------------


def test_backend_registry_and_default_switch():
    assert set(BACKENDS) == {"generic", "limb"}
    assert default_backend_name() == "limb"
    previous = set_default_backend("generic")
    try:
        assert previous == "limb"
        assert default_backend_name() == "generic"
    finally:
        set_default_backend(previous)
    with pytest.raises(FieldError):
        get_backend("nope")
    with pytest.raises(FieldError):
        set_default_backend("nope")


def test_use_backend_scopes_and_restores():
    rng = FieldRng(FIELD, 5)
    a, b = rng.uniform((6, 20)), rng.uniform((20, 6))
    results = {}
    for name in ("generic", "limb"):
        with use_backend(name):
            assert default_backend_name() == name
            results[name] = field_matmul(FIELD, a, b)
    assert default_backend_name() == "limb"
    assert np.array_equal(results["generic"], results["limb"])


def test_field_matmul_backend_argument_overrides_default():
    rng = FieldRng(FIELD, 9)
    a, b = rng.uniform((5, 13)), rng.uniform((13, 5))
    assert np.array_equal(
        field_matmul(FIELD, a, b, backend="generic"),
        field_matmul(FIELD, a, b, backend="limb"),
    )
    with pytest.raises(FieldError):
        field_matmul(FIELD, a, b, backend="nope")


def test_field_matmul_still_validates_before_dispatch():
    rng = FieldRng(FIELD, 1)
    a, b = rng.uniform((3, 4)), rng.uniform((4, 3))
    with pytest.raises(FieldError):
        field_matmul(FIELD, a, rng.uniform((5, 3)))
    with pytest.raises(FieldError):
        field_matmul(FIELD, a, b, chunk=0)


def test_backend_construction_leaves_the_process_default_alone():
    """Two live backends must not share whichever was built last: the
    kernel selection is lexically scoped, never set by construction."""
    from repro.runtime.config import DarKnightConfig
    from repro.runtime.darknight import DarKnightBackend

    assert default_backend_name() == "limb"
    DarKnightBackend(DarKnightConfig())
    assert default_backend_name() == "limb"
    with use_backend("generic"):
        DarKnightBackend(DarKnightConfig())
        assert default_backend_name() == "generic"
    assert default_backend_name() == "limb"


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
    assert np.array_equal(FIELD.neg(a), (-a) % p)
    assert np.array_equal(FIELD.mul(a, b), a * b % p)


def test_prime_field_ops_accept_non_canonical_inputs():
    """The conditional-correction fast paths must still reduce arbitrary
    int64 inputs exactly (falling back to the generic modulus)."""
    p = FIELD.p
    a = np.array([-1, -p, 2 * p + 3, p, 0, p - 1], dtype=np.int64)
    b = np.array([5, -3 * p - 1, p + 2, -p + 1, p - 1, p - 1], dtype=np.int64)
    assert np.array_equal(FIELD.add(a, b), (a + b) % p)
    assert np.array_equal(FIELD.sub(a, b), (a - b) % p)
    assert np.array_equal(FIELD.neg(a), (-a) % p)


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
