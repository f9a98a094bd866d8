"""Tests for Algorithm 1 fixed-point quantization and dynamic normalisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import to_signed
from repro.errors import QuantizationError
from repro.quantization import (
    IDENTITY,
    DynamicNormalizer,
    Normalization,
    QuantizationConfig,
)


def test_quantize_rounds_ties_up():
    """Algorithm 1's Round: a fraction < 0.5 floors, else ceils — ties go
    up, unlike numpy's banker's rounding."""
    q = QuantizationConfig(fractional_bits=1)
    values = np.array([0.5, 1.5, -0.5, -1.5, 2.4, -2.4]) / q.scale
    quantized = q.quantize(values)
    assert to_signed(q.field, quantized).tolist() == [1, 2, 0, -1, 2, -2]


def test_config_validation():
    with pytest.raises(QuantizationError):
        QuantizationConfig(fractional_bits=0)
    with pytest.raises(QuantizationError):
        QuantizationConfig(fractional_bits=13)  # 2*13 bits >= field headroom


def test_scales():
    q = QuantizationConfig(fractional_bits=8)
    assert q.scale == 256
    assert q.product_scale == 65536
    assert q.resolution == 1 / 256


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=32
    )
)
def test_quantize_dequantize_roundtrip_within_resolution(values):
    q = QuantizationConfig()
    arr = np.array(values)
    recovered = q.dequantize(q.quantize(arr))
    assert np.all(np.abs(recovered - arr) <= 0.5 * q.resolution + 1e-12)


def test_bias_uses_product_scale(field):
    q = QuantizationConfig()
    bias = np.array([0.5, -0.25])
    encoded = q.quantize(bias, bias=True)
    assert np.array_equal(
        to_signed(field, encoded), (bias * q.product_scale).astype(np.int64)
    )


def test_product_dequantization_matches_reference():
    q = QuantizationConfig()
    x = np.array([0.5, -1.25])
    w = np.array([0.75, 0.5])
    xq = q.quantize(x)
    wq = q.quantize(w)
    prod = q.field.mul(xq, wq)  # elementwise product at scale 2^2l
    back = q.dequantize_product(prod)
    assert np.all(np.abs(back - x * w) < 0.01)


def test_dequantize_matches_the_to_signed_reference_on_canonical_input():
    """Both dequantizers centre-lift without reducing first: on canonical
    elements they equal Algorithm 1 over ``field.to_signed`` bit for bit,
    the lift's boundary values included."""
    q = QuantizationConfig()
    p, half = q.field.p, q.field.half
    rng = np.random.default_rng(7)
    edges = np.array([0, 1, half - 1, half, half + 1, p - 2, p - 1], dtype=np.int64)
    for elements in (edges, rng.integers(0, p, size=(3, 5, 7), dtype=np.int64)):
        signed = to_signed(q.field, elements).astype(np.float64)
        assert np.array_equal(q.dequantize(elements), signed / q.scale)
        want = np.floor(signed / q.scale + 0.5) / q.scale
        got = q.dequantize_product(elements)
        assert got.dtype == np.float64 and np.array_equal(got, want)
    assert q.dequantize(edges)[3] > 0 > q.dequantize(edges)[4]  # half stays positive
    before = edges.copy()
    q.dequantize_product(edges)
    assert np.array_equal(edges, before)  # the input is never written


def test_overflow_raises_with_context():
    q = QuantizationConfig()
    with pytest.raises(QuantizationError, match="fractional_bits"):
        q.quantize(np.array([1e6]))


def test_saturate_clips_instead():
    q = QuantizationConfig(saturate=True)
    out = q.quantize(np.array([1e9, -1e9]))
    signed = to_signed(q.field, out)
    assert signed[0] == q.field.half
    assert signed[1] == -q.field.half


@pytest.mark.parametrize("saturate", [False, True], ids=["strict", "saturate"])
def test_non_finite_input_is_refused_as_such(saturate):
    q = QuantizationConfig(saturate=saturate)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(QuantizationError, match="NaN or infinite"):
            q.quantize(np.array([0.5, bad]))
    with pytest.raises(QuantizationError, match="NaN or infinite"):
        q.quantize(np.array([np.nan]), bias=True)


def test_saturate_keeps_the_sign_of_values_past_int64():
    """Clipping happens before the int64 cast: ``1e30`` (whose cast is
    ``-2**63``) saturates to the positive boundary, not the negative."""
    q = QuantizationConfig(saturate=True)
    signed = to_signed(q.field, q.quantize(np.array([1e30, -1e30, 1e18, 0.25])))
    assert signed.tolist() == [q.field.half, -q.field.half, q.field.half, 64]
    with np.errstate(over="ignore"):  # finite, but its scaled value is not
        signed = to_signed(q.field, q.quantize(np.array([1.7e308, -1.7e308])))
    assert signed.tolist() == [q.field.half, -q.field.half]


def test_strict_overflow_reports_the_true_magnitude():
    q = QuantizationConfig()
    with pytest.raises(QuantizationError, match=r"\|value\| up to 256000000000000000000000 "):
        q.quantize(np.array([1e21]))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=16),
    st.booleans(),
)
def test_saturate_equals_clipping_the_real_values(values, bias):
    """Saturation is the float clip of the scaled, rounded values — for
    every finite input, whatever its magnitude."""
    q = QuantizationConfig(saturate=True)
    scale = q.product_scale if bias else q.scale
    arr = np.array(values)
    expected = np.clip(np.floor(arr * scale + 0.5), -q.field.half, q.field.half)
    assert np.array_equal(to_signed(q.field, q.quantize(arr, bias=bias)), expected.astype(np.int64))


def test_headroom_and_max_safe_product():
    q = QuantizationConfig()
    # The largest safe product fills the signed range exactly.
    assert q.max_safe_product() * q.product_scale == pytest.approx(q.field.half)


def test_quantize_weights_alias():
    q = QuantizationConfig()
    w = np.array([0.1, -0.2])
    assert np.array_equal(q.quantize_weights(w), q.quantize(w))


# ----------------------------------------------------------------------
# dynamic normalisation
# ----------------------------------------------------------------------
def test_normalizer_leaves_small_tensors_alone():
    norm = DynamicNormalizer()
    x = np.array([0.5, -0.9])
    scaled, n = norm.normalize(x)
    assert n is IDENTITY
    assert np.array_equal(scaled, x)


def test_normalizer_scales_to_ceiling():
    norm = DynamicNormalizer()
    x = np.array([4.0, -2.0])
    scaled, n = norm.normalize(x)
    assert np.max(np.abs(scaled)) == pytest.approx(1.0)
    assert n.factor == pytest.approx(4.0)


def test_normalizer_zero_tensor():
    scaled, n = DynamicNormalizer().normalize(np.zeros(4))
    assert n is IDENTITY
    assert np.array_equal(scaled, np.zeros(4))


def test_normalized_quantized_linear_op_roundtrip():
    # End-to-end: normalise, quantize, multiply in field, dequantize, unapply.
    q = QuantizationConfig()
    norm = DynamicNormalizer()
    rng = np.random.default_rng(0)
    x = rng.normal(scale=5.0, size=(8,))
    w = rng.normal(scale=3.0, size=(8,))
    xs, xn = norm.normalize(x)
    ws, wn = norm.normalize(w)
    prod_field = q.field.mul(q.quantize(xs), q.quantize(ws))
    recovered = q.dequantize_product(prod_field) * (xn.factor * wn.factor)
    assert np.all(np.abs(recovered - x * w) < np.abs(x * w) * 0.1 + 0.5)


def test_normalize_rows_scales_each_virtual_batch_as_normalize_would_alone():
    norm = DynamicNormalizer()
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(3, 4, 5)) * np.array([0.1, 3.0, 7.0]).reshape(3, 1, 1)
    scaled, factors, _ = norm.normalize_rows(stack, lead=1)
    assert factors.shape == (3, 1, 1)
    for v in range(3):
        alone, n = norm.normalize(stack[v])
        assert np.array_equal(scaled[v], alone)
        assert factors[v].item() == (1.0 if n is IDENTITY else n.factor)


def test_normalize_rows_per_sample_slot_ignores_its_neighbours():
    """``lead=2`` gives every sample slot its own factor, so a sample's
    scaled values do not depend on what shares its virtual batch."""
    norm = DynamicNormalizer()
    rng = np.random.default_rng(1)
    stack = rng.normal(size=(2, 3, 6))
    scaled, factors, _ = norm.normalize_rows(stack, lead=2)
    assert factors.shape == (2, 3, 1)
    loud = stack.copy()
    loud[0, 1] *= 100.0
    loud_scaled, _, _ = norm.normalize_rows(loud, lead=2)
    untouched = np.ones((2, 3), dtype=bool)
    untouched[0, 1] = False
    assert np.array_equal(loud_scaled[untouched], scaled[untouched])
    assert np.abs(loud_scaled).max() <= 1.0


def test_normalize_rows_reports_none_when_nothing_needs_scaling():
    norm = DynamicNormalizer()
    small = np.full((2, 3), 0.5)
    scaled, factors, _ = norm.normalize_rows(small)
    assert factors is None
    assert np.array_equal(scaled, small)
    # Rows without feature axes fall back to the whole-tensor rule.
    scaled, factor, _ = norm.normalize_rows(np.array([2.0, -4.0]))
    assert factor == 4.0
    assert np.array_equal(scaled, [0.5, -1.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["+inf", "-inf"])
@pytest.mark.parametrize("lead", [1, 2])
def test_normalizers_refuse_infinite_values_before_dividing(bad, lead):
    """``inf / inf`` would warn (an error under ``tests/``) and hand the
    quantizer a NaN: both normalisers refuse the value by name first."""
    values = np.ones((1, 2, 3))
    values[0, 1, 2] = bad
    with pytest.raises(QuantizationError, match="NaN or infinite"):
        DynamicNormalizer().normalize_rows(values, lead=lead)
    with pytest.raises(QuantizationError, match="NaN or infinite"):
        DynamicNormalizer().normalize(values)


def test_only_the_scalar_one_is_the_identity():
    assert IDENTITY.is_identity
    assert not Normalization(2.0).is_identity
    assert not Normalization(np.ones((2, 1))).is_identity
    rows = Normalization(np.array([[2.0], [4.0]]))
    assert np.array_equal(rows.apply(np.full((2, 3), 8.0)), [[4.0] * 3, [2.0] * 3])
