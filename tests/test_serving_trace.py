"""Trace generators draw by the block: the requests' samples a block of
``SAMPLE_BLOCK_BYTES`` per ``normal`` call (per phase for ``phased_trace``),
``bursty_trace``'s gap jitters from one ``uniform`` call.  The Generator
stream is consumed in the per-request loop's order, so each trace equals
that loop's — times, tenants and samples — bit for bit."""

import numpy as np
import pytest

from repro.serving import trace as trace_module
from repro.serving.trace import bursty_trace, phased_trace, ramping_trace, synthetic_trace

SEEDS = [0, 7, 2026]
SHAPES = [(16,), (3, 8, 8), (2, 3)]
SIZES = [1, 7, 1200]


# ----------------------------------------------------------------------
# per-request reference loops: one draw per request, in arrival order
# ----------------------------------------------------------------------
def _synthetic_loop(n, shape, n_tenants=4, mean_interarrival=1e-3, seed=0):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(mean_interarrival, size=n))
    picks = rng.integers(0, n_tenants, size=n)
    return [(float(times[i]), f"tenant{int(picks[i])}", rng.normal(size=shape)) for i in range(n)]


def _bursty_loop(n, shape, n_tenants=4, burst_size=10, intra_gap=2e-4, burst_gap=5e-2, seed=0):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n_tenants, size=n)
    times, t = [], 0.0
    for i in range(n):
        if i > 0:
            gap = burst_gap if i % burst_size == 0 else intra_gap
            t += float(gap * rng.uniform(0.8, 1.2))
        times.append(t)
    return [(times[i], f"tenant{int(picks[i])}", rng.normal(size=shape)) for i in range(n)]


def _ramping_loop(n, shape, n_tenants=4, start=1e-2, end=2e-4, seed=0):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n_tenants, size=n)
    fractions = np.linspace(0.0, 1.0, num=n)
    means = np.exp((1.0 - fractions) * np.log(start) + fractions * np.log(end))
    times = np.cumsum(rng.exponential(means))
    return [(float(times[i]), f"tenant{int(picks[i])}", rng.normal(size=shape)) for i in range(n)]


def _phased_loop(phases, shape, n_tenants=4, seed=0):
    rng = np.random.default_rng(seed)
    out, t = [], 0.0
    for n, gap in phases:
        gaps = rng.exponential(gap, size=n)
        picks = rng.integers(0, n_tenants, size=n)
        for i in range(n):
            t += float(gaps[i])
            out.append((t, f"tenant{int(picks[i])}", rng.normal(size=shape)))
    return out


def _assert_same(trace, reference):
    assert len(trace) == len(reference)
    for request, (time, tenant, x) in zip(trace, reference):
        assert type(request.time) is float and request.time == time
        assert request.tenant == tenant
        assert request.x.shape == x.shape and np.array_equal(request.x, x)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_synthetic_trace_is_the_per_request_loop(n, seed, shape):
    _assert_same(synthetic_trace(n, shape, seed=seed), _synthetic_loop(n, shape, seed=seed))
    _assert_same(
        synthetic_trace(n, shape, n_tenants=3, seed=seed),
        _synthetic_loop(n, shape, n_tenants=3, seed=seed),
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_bursty_trace_is_the_per_request_loop(n, seed, shape):
    _assert_same(bursty_trace(n, shape, seed=seed), _bursty_loop(n, shape, seed=seed))
    _assert_same(
        bursty_trace(n, shape, burst_size=1, intra_gap=1e-3, burst_gap=2, seed=seed),
        _bursty_loop(n, shape, burst_size=1, intra_gap=1e-3, burst_gap=2, seed=seed),
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_ramping_trace_is_the_per_request_loop(n, seed, shape):
    _assert_same(ramping_trace(n, shape, seed=seed), _ramping_loop(n, shape, seed=seed))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_phased_trace_is_the_per_request_loop(seed, shape):
    phases = [(1, 1e-3), (37, 2e-4), (5, 5e-2), (120, 1e-3)]
    _assert_same(phased_trace(phases, shape, seed=seed), _phased_loop(phases, shape, seed=seed))


def test_the_stream_is_consumed_exactly_as_far_as_the_loop():
    """What a generator leaves in the stream is what the loop leaves: the
    next draw after either trace is the same number."""
    for build, loop in (
        (lambda rng: synthetic_trace(9, (4,), seed=rng), _synthetic_loop),
        (lambda rng: bursty_trace(9, (4,), seed=rng), _bursty_loop),
        (lambda rng: ramping_trace(9, (4,), seed=rng), _ramping_loop),
    ):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        build(ours)
        loop(9, (4,), seed=theirs)
        assert ours.random() == theirs.random()


def test_samples_come_in_blocks_under_the_mmap_threshold():
    """1,200 samples of 3x8x8 are 1.8 MB, drawn in blocks of at most 64 KiB
    — under the 128 KiB above which glibc maps an allocation."""
    trace = synthetic_trace(1200, (3, 8, 8), seed=0)
    bases = {id(request.x.base): request.x.base for request in trace}
    assert len(bases) > 1
    assert all(base.nbytes <= trace_module.SAMPLE_BLOCK_BYTES for base in bases.values())


def test_trace_from_arrays_deals_rows_round_robin_in_time_order():
    x = np.arange(10 * 3, dtype=np.float64).reshape(10, 3)
    trace = trace_module.trace_from_arrays(x, tenants=["a", "b", "c"], seed=4)
    assert [r.tenant for r in trace] == ["a", "b", "c"] * 3 + ["a"]
    for i, request in enumerate(trace):
        assert np.array_equal(request.x, x[i])
    times = [r.time for r in trace]
    assert all(0 < t0 < t1 for t0, t1 in zip(times, times[1:]))
    again = trace_module.trace_from_arrays(x, tenants=["a", "b", "c"], seed=4)
    assert [r.time for r in again] == times


def test_trace_from_arrays_defaults_and_validation():
    from repro.errors import ConfigurationError

    trace = trace_module.trace_from_arrays(np.zeros((2, 4)))
    assert [r.tenant for r in trace] == ["tenant0", "tenant0"]
    for bad in (np.zeros(4), np.zeros((0, 4))):
        with pytest.raises(ConfigurationError):
            trace_module.trace_from_arrays(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: synthetic_trace(0, (4,)),
        lambda: synthetic_trace(3, (4,), n_tenants=0),
        lambda: synthetic_trace(3, (4,), mean_interarrival=0.0),
        lambda: bursty_trace(0, (4,)),
        lambda: bursty_trace(3, (4,), n_tenants=0),
        lambda: bursty_trace(3, (4,), burst_size=0),
        lambda: bursty_trace(3, (4,), intra_gap=0.0),
        lambda: ramping_trace(0, (4,)),
        lambda: ramping_trace(3, (4,), n_tenants=0),
        lambda: ramping_trace(3, (4,), end_interarrival=0.0),
        lambda: phased_trace([], (4,)),
        lambda: phased_trace([(2, 1e-3)], (4,), n_tenants=0),
        lambda: phased_trace([(0, 1e-3)], (4,)),
        lambda: phased_trace([(2, 0.0)], (4,)),
    ],
)
def test_generators_reject_empty_traces_and_bad_rates(build):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        build()
