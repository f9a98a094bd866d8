"""The enclave's masking steps hold their values in float64: the same bytes
as the int64 chain they replaced.

The oracles below are that chain, kept as it ran: the quantizer cast to
int64 before the signed lift, the sources were an int64 concatenation of
inputs and noise, every product took int64 operands (here on
``GenericBackend``, which has no float path at all), each decode was cast
back to int64 and ``dequantize_product`` cast it to float64 again.  The
float64 path must return the same shares, decodes, dequantized floats and
enclave-RNG state; the refusals must still fire before anything is
scattered.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError, QuantizationError
from repro.fieldmath import FieldRng, GenericBackend, PrimeField, field_matmul
from repro.gpu import FaultInjector
from repro.masking import CoefficientSet, ForwardDecoder, ForwardEncoder, IntegrityVerifier
from repro.masking import iter_virtual_batches
from repro.masking.forward import source_block
from repro.nn import Dense, ReLU, Sequential
from repro.quantization import DynamicNormalizer, QuantizationConfig
from repro.runtime import DarKnightBackend, DarKnightConfig
from repro.serving import (
    STATUS_INTEGRITY_FAILED,
    PrivateInferenceServer,
    ServingConfig,
    synthetic_trace,
)

ORACLE = GenericBackend()


# ----------------------------------------------------------------------
# the int64 chain, as it ran before the float64 path
# ----------------------------------------------------------------------
def _int64_normalize_rows(values, lead):
    """``DynamicNormalizer.normalize_rows`` as it ran: ``where`` then ``all``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim <= lead or arr.size == 0:
        max_abs = float(np.abs(arr).max()) if arr.size else 0.0
        return (arr, None) if max_abs <= 1.0 else (arr / max_abs, max_abs)
    axes = tuple(range(lead, arr.ndim))
    max_abs = np.abs(arr).max(axis=axes, keepdims=True)
    factors = np.where(max_abs > 1.0, max_abs, 1.0)
    if (factors == 1.0).all():
        return arr, None
    return arr / factors, factors


def _int64_quantize(q: QuantizationConfig, values, bias=False) -> np.ndarray:
    """``QuantizationConfig.quantize`` as it ran: cast, then lift in int64."""
    scale = q.product_scale if bias else q.scale
    scaled = np.array(values, dtype=np.float64)
    scaled *= scale
    scaled += 0.5
    np.floor(scaled, out=scaled)
    limit = q.field.half
    hi = float(scaled.max(initial=0.0))
    lo = float(scaled.min(initial=0.0))
    if not (hi <= limit and -lo <= limit):
        if not np.isfinite(values).all():
            raise QuantizationError("holds NaN or infinite values")
        if not q.saturate:
            raise QuantizationError("overflows the signed field range")
        np.clip(scaled, -limit, limit, out=scaled)
    ints = scaled.astype(np.int64)
    np.add(ints, q.field.p, out=ints, where=ints < 0)
    return ints


def _int64_dequantize_product(q: QuantizationConfig, elements) -> np.ndarray:
    """``dequantize_product`` as it ran: a fresh cast, ``where`` lift, divisions."""
    out = np.asarray(elements).astype(np.float64)
    np.subtract(out, q.field.p, out=out, where=out > q.field.half)
    out /= q.scale
    np.add(out, 0.5, out=out)
    np.floor(out, out=out)
    out /= q.scale
    return out


def _int64_shares(field, sets, x_q, noise) -> np.ndarray:
    """``A^T @ [X; R]`` per virtual batch over an int64 concatenation."""
    sources = np.concatenate([x_q, noise], axis=1)
    return np.stack(
        [
            field_matmul(
                field, s.a.T, src.reshape(s.n_sources, -1), backend=ORACLE
            ).reshape((s.n_shares,) + src.shape[1:])
            for s, src in zip(sets, sources)
        ]
    )


def _int64_decode(field, coeffs, outputs, subset=None) -> tuple[np.ndarray, np.ndarray]:
    """``(Y, W·r)`` of one virtual batch's int64 outputs from one subset."""
    subset = coeffs.primary_subset if subset is None else subset
    rows = outputs[list(subset)].reshape(len(subset), -1)
    recovered = field_matmul(field, coeffs.decoding_matrix(subset).T, rows, backend=ORACLE)
    recovered = recovered.astype(np.int64).reshape((coeffs.n_sources,) + outputs.shape[1:])
    return recovered[: coeffs.k], recovered[coeffs.k :]


def _rows(data, shape, count):
    """``count`` sample rows, each with max-abs 0, at most 1, or above 1."""
    kinds = data.draw(st.lists(st.sampled_from(("zero", "unit", "wide")), min_size=count, max_size=count))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, (count,) + shape)
    for row, kind in zip(rows, kinds):
        if kind == "zero":
            row[...] = 0.0
        elif kind == "wide":
            row *= rng.uniform(1.5, 300.0)
    return rows


FEATURES = {"dense": (6,), "conv": (2, 3, 3)}


# ----------------------------------------------------------------------
# the quantizer and the dequantizer, value for value
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    saturate=st.booleans(),
    lead=st.sampled_from((1, 2)),
    bias=st.booleans(),
    reach=st.sampled_from((1.0, 1e3, 1e9)),
    data=st.data(),
)
def test_quantizing_into_float64_rows_is_the_int64_quantizer(saturate, lead, bias, reach, data):
    q = QuantizationConfig(saturate=saturate)
    values = _rows(data, (3, 2), 4).reshape(2, 2, 3, 2) * reach
    scaled, factors, _ = DynamicNormalizer().normalize_rows(values, lead=lead)
    want_scaled, want_factors = _int64_normalize_rows(values, lead)
    assert np.array_equal(scaled, want_scaled)
    assert (factors is None) == (want_factors is None)
    if factors is not None:
        assert np.array_equal(factors, want_factors)
    for raw in (scaled, values):  # normalised, and raw (which may overflow)
        try:
            want = _int64_quantize(q, raw, bias=bias)
        except QuantizationError:
            with pytest.raises(QuantizationError):
                q.quantize(raw, bias=bias, out=np.empty(raw.shape))
            continue
        rows = np.empty(raw.shape)
        assert q.quantize(raw, bias=bias, out=rows) is rows
        assert rows.dtype == np.float64 and np.array_equal(rows, want)
        ints = q.quantize(raw, bias=bias)
        assert ints.dtype == np.int64 and np.array_equal(ints, want)
        products = q.field.mul(want, want)
        expected = _int64_dequantize_product(q, products)
        floats = products.astype(np.float64)
        assert np.array_equal(q.dequantize_product(products), expected)
        assert q.dequantize_product(floats, out=floats) is floats
        assert np.array_equal(floats, expected)


# ----------------------------------------------------------------------
# encode, decode and verify, stack for stack
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from((1, 2, 4)),
    m=st.sampled_from((1, 2)),
    extra=st.sampled_from((0, 1, 2)),
    kind=st.sampled_from(sorted(FEATURES)),
    n_sets=st.sampled_from((1, 2)),
    stacked=st.booleans(),
    lead=st.sampled_from((1, 2)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_float64_masking_is_the_int64_chain(k, m, extra, kind, n_sets, stacked, lead, seed, data):
    field = PrimeField()
    q = QuantizationConfig(field=field)
    rng, twin = FieldRng(field, seed), FieldRng(field, seed)
    sets = CoefficientSet.generate(rng, k=k, m=m, extra_shares=extra, count=n_sets)
    CoefficientSet.generate(twin, k=k, m=m, extra_shares=extra, count=n_sets)
    if not stacked:
        sets = [sets[0]]
    shape = FEATURES[kind]
    values = _rows(data, shape, len(sets) * k).reshape((len(sets), k) + shape)
    scaled, _, _ = DynamicNormalizer().normalize_rows(values, lead=lead)

    # Encode: quantize into the source block, the encoder draws the noise.
    sources = source_block(len(sets), k + m, shape)
    q.quantize(scaled, out=sources[:, :k])
    encoder = ForwardEncoder(sets if stacked else sets[0], rng)
    batch = encoder.encode(sources if stacked else sources[0])
    noise = np.stack([twin.uniform((m,) + shape) for _ in sets])
    want_shares = _int64_shares(field, sets, _int64_quantize(q, scaled), noise)
    shares = batch.shares if stacked else batch.shares[None]
    assert shares.dtype == np.int64 and np.array_equal(shares, want_shares)
    assert np.array_equal(batch.noise if stacked else batch.noise[None], noise)
    assert np.array_equal(rng.uniform((5,)), twin.uniform((5,)))

    # The devices' outputs: any field values, indexed by share id.
    outputs = twin.uniform((len(sets), sets[0].n_shares) + shape)
    decoder = ForwardDecoder(sets if stacked else sets[0])
    for subset in sets[0].iter_decoding_subsets(limit=4):
        got_y, got_wr = decoder.decode(outputs if stacked else outputs[0], subset, True)
        got_y = got_y if stacked else got_y[None]
        got_wr = got_wr if stacked else got_wr[None]
        for v, coeffs in enumerate(sets):
            want_y, want_wr = _int64_decode(field, coeffs, outputs[v], subset)
            assert got_y.dtype == np.float64
            assert np.array_equal(got_y[v], want_y) and np.array_equal(got_wr[v], want_wr)
    y = decoder.decode(outputs if stacked else outputs[0])
    want = [_int64_dequantize_product(q, _int64_decode(field, c, o)[0]) for c, o in zip(sets, outputs)]
    assert np.array_equal(q.dequantize_product(y, out=y), np.stack(want) if stacked else want[0])

    # Verify: an honest stack reports the primary decode as its result.
    if extra:
        honest = _int64_shares(field, sets, _int64_quantize(q, scaled), noise)
        reports = IntegrityVerifier(sets).verify_forward(honest)
        for report, coeffs, v_shares in zip(reports, sets, honest):
            assert report.consistent
            assert np.array_equal(report.decoded, _int64_decode(field, coeffs, v_shares)[0])


# ----------------------------------------------------------------------
# through the runtime's staged path
# ----------------------------------------------------------------------
def _staged(backend, kind, rng):
    if kind == "conv":
        w = rng.normal(size=(3, 2, 3, 3)) * 0.4
        return backend.stage_linear("conv2d", w, None, "L", 1, 1), w
    w = rng.normal(size=(6, 3)) * 0.4
    return backend.stage_linear("dense", w, None, "L"), w


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from((1, 2, 4)),
    m=st.sampled_from((1, 2)),
    integrity=st.booleans(),
    kind=st.sampled_from(sorted(FEATURES)),
    serving=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_a_staged_step_is_the_int64_chain(k, m, integrity, kind, serving, seed, data):
    config = DarKnightConfig(
        virtual_batch_size=k, collusion_tolerance=m, integrity=integrity, seed=seed
    )
    backend, twin = (DarKnightBackend(config, serving=serving) for _ in range(2))
    field, q = backend.field, backend.quantizer
    wrng = np.random.default_rng(seed)
    op, w = _staged(backend, kind, wrng)
    shape = FEATURES[kind]
    x = _rows(data, shape, data.draw(st.integers(1, 2 * k)))
    vbs = list(iter_virtual_batches(x, k))
    n = len(vbs)

    tickets = backend.encode(op, vbs, range(n))
    y = backend.decode(backend.dispatch(tickets))

    # The oracle replays the twin enclave's draws through the int64 chain.
    lead = 2 if serving else 1
    stack = np.stack([vb.data for vb in vbs])
    scaled, factors = _int64_normalize_rows(stack, lead)
    x_q = _int64_quantize(q, scaled)
    twin_op, _ = _staged(twin, kind, np.random.default_rng(seed))
    step, noise = twin._prepared_step(twin_op, n, None if serving else shape)
    sets = step.sets
    if noise is None:
        noise = np.stack([twin.enclave.rng.uniform((m,) + shape) for _ in sets])
    want_shares = _int64_shares(field, sets, x_q, noise)
    w_q = _int64_quantize(q, DynamicNormalizer().normalize(w)[0])
    assert np.array_equal(backend.cluster[0].weights["L"], w_q)
    for v, ticket in enumerate(tickets):
        for j, device in enumerate(backend.cluster.devices[: sets[v].n_shares]):
            assert np.array_equal(device.stored_share(ticket.share_key), want_shares[v, j])
        outputs = backend.dispatch([ticket]).outputs[0]
        want = _int64_dequantize_product(q, _int64_decode(field, sets[v], outputs)[0])
        factor = 1.0 if factors is None else factors[v]
        want *= factor * op.w_norm.factor
        assert y[v].dtype == np.float64
        assert np.array_equal(y[v], want[: ticket.n_real])
    assert np.array_equal(backend.enclave.rng.uniform((5,)), twin.enclave.rng.uniform((5,)))
    backend.end_batch()
    backend.assert_encodings_released()


# ----------------------------------------------------------------------
# refusals fire before anything is scattered
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad, dynamic",
    [(np.nan, False), (np.inf, False), (-np.inf, False), (1e6, False),
     (np.nan, True), (np.inf, True), (-np.inf, True)],
    ids=["nan", "inf", "-inf", "range", "nan-dynamic", "inf-dynamic", "-inf-dynamic"],
)
def test_a_refused_input_scatters_no_share(bad, dynamic):
    # 1e6 only without normalisation: it would scale back into range.
    config = DarKnightConfig(
        virtual_batch_size=2, integrity=True, seed=0, dynamic_normalization=dynamic
    )
    backend = DarKnightBackend(config)
    op, _ = _staged(backend, "dense", np.random.default_rng(0))
    x = np.full((2, 6), 0.25)
    x[1, 3] = bad
    before = backend.enclave.rng.generator.bit_generator.state
    with pytest.raises(QuantizationError):
        backend.encode(op, list(iter_virtual_batches(x, 2)), [0])
    assert backend.open_encodings() == 0
    assert not any(device.stored_shares for device in backend.cluster.devices)
    assert backend.enclave.rng.generator.bit_generator.state == before
    backend.assert_encodings_released()


def test_non_canonical_noise_is_refused(frng, field):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    x = frng.uniform((2, 5))
    for bad in (np.full((1, 5), field.p), np.full((1, 5), -1)):
        with pytest.raises(EncodingError, match="canonical"):
            ForwardEncoder(coeffs, frng).encode(x, noise=bad)
        block = source_block(1, 3, (5,))[0]
        block[:2] = x
        with pytest.raises(EncodingError, match="canonical"):
            ForwardEncoder(coeffs, frng).encode(block, noise=bad)


def test_a_non_canonical_pooled_mask_scatters_no_share(monkeypatch):
    """In precompute mode the noise comes from the mask pool: a tensor
    outside ``[0, p)`` is refused by the encoder's canonical check."""
    config = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=0)
    backend = DarKnightBackend(config, precompute=True)
    op, _ = _staged(backend, "dense", np.random.default_rng(0))
    draw = backend._mask_pool.draw
    monkeypatch.setattr(
        backend._mask_pool, "draw",
        lambda *key: (draw(*key)[0] + backend.field.p, True),
    )
    x = np.full((2, 6), 0.25)
    with pytest.raises(EncodingError, match="canonical"):
        backend.encode(op, list(iter_virtual_batches(x, 2)), [0])
    assert backend.open_encodings() == 0
    assert not any(device.stored_shares for device in backend.cluster.devices)


class _NoiseOnlyShift(FaultInjector):
    """Shifts a device's forward output only along its own noise column
    ``a2[:, j]`` — the ``noise_only`` tamper of the plan-verdict property
    test, driven through a served deployment: a decode that sees this
    share recovers the right ``Y`` only if the ``W·r`` compare is made."""

    def __init__(self, backend, share: int) -> None:
        self.backend, self.share = backend, share
        self._rng = np.random.default_rng(9)
        self.shifted = 0

    def corrupt(self, tensor, device_id, op_name):
        coeffs = self.backend._cached_coefficients  # serving's one cached set
        field = coeffs.field
        flat = np.asarray(tensor, dtype=np.int64).reshape(1, -1)
        shift = field.uniform((coeffs.m, flat.shape[1]), self._rng)
        delta = field_matmul(field, coeffs.a2[:, self.share].reshape(1, -1), shift)
        self.shifted += 1
        return field.add(flat, delta).reshape(np.shape(tensor))


def test_a_noise_only_shift_fails_the_served_request():
    rng = np.random.default_rng(0)
    net = Sequential([Dense(6, 5, rng=rng), ReLU(), Dense(5, 3, rng=rng)], (6,))
    dk = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=3)
    server = PrivateInferenceServer(net, ServingConfig(darknight=dk))
    shard = server.shards[0]
    extra = dk.virtual_batch_size + dk.collusion_tolerance  # the redundant share
    injector = _NoiseOnlyShift(shard.backend, extra)
    shard.cluster[extra].faults = injector
    report = server.serve_trace(synthetic_trace(4, (6,), n_tenants=1, seed=2))
    assert injector.shifted > 0
    assert report.metrics.integrity_failures == 4
    assert all(o.status == STATUS_INTEGRITY_FAILED for o in report.outcomes)
