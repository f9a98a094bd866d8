"""Offline request traces: the serving driver's network substitute.

A trace is a time-ordered list of (arrival time, tenant, sample) tuples.
:func:`synthetic_trace` draws Poisson-process arrivals (exponential gaps)
spread uniformly over a configurable number of tenants, so benchmarks and
tests can replay identical load patterns deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import SAMPLE_BLOCK_BYTES
from repro.errors import ConfigurationError


def _samples(rng: np.random.Generator, n: int, shape: tuple[int, ...]) -> list[np.ndarray]:
    """``n`` standard-normal samples in request order — the stream ``n``
    one-sample draws consume — drawn a block of whole samples at a time."""
    shape = tuple(shape)
    per_block = max(1, SAMPLE_BLOCK_BYTES // max(8, 8 * int(np.prod(shape))))
    out: list[np.ndarray] = []
    for start in range(0, n, per_block):
        out.extend(rng.normal(size=(min(per_block, n - start),) + shape))
    return out


@dataclass(slots=True)
class TraceRequest:
    """One request in an offline trace.

    Slotted and not frozen, like every request-path record: a frozen
    dataclass's ``__init__`` pays one ``object.__setattr__`` per field.
    """

    time: float
    tenant: str
    x: np.ndarray


def _requests(
    times: np.ndarray, picks: np.ndarray, tenants: list[str], samples
) -> list[TraceRequest]:
    """Zip arrival ``times``, tenant ``picks`` (indices into ``tenants``) and
    ``samples`` into the trace's records, in arrival order."""
    return [
        TraceRequest(t, tenants[pick], x)
        for t, pick, x in zip(times.tolist(), picks.tolist(), samples)
    ]


def _tenants(n_requests: int, n_tenants: int) -> list[str]:
    """The tenants' names, ``tenant0..tenant{n-1}``, once both counts hold."""
    if n_requests < 1:
        raise ConfigurationError(f"trace needs >= 1 requests, got {n_requests}")
    if n_tenants < 1:
        raise ConfigurationError(f"trace needs >= 1 tenants, got {n_tenants}")
    return [f"tenant{i}" for i in range(n_tenants)]


def synthetic_trace(
    n_requests: int,
    input_shape: tuple[int, ...],
    n_tenants: int = 4,
    mean_interarrival: float = 1e-3,
    seed: int | None = 0,
) -> list[TraceRequest]:
    """Generate a Poisson-arrival multi-tenant request trace.

    Parameters
    ----------
    n_requests:
        Total requests in the trace.
    input_shape:
        Per-sample shape (no batch axis); samples are standard normal.
    n_tenants:
        Distinct tenants, named ``tenant0..tenant{n-1}``.
    mean_interarrival:
        Mean gap between consecutive arrivals in simulated seconds (the
        offered load is ``1 / mean_interarrival`` requests per second).
    seed:
        Makes the trace fully deterministic.
    """
    tenants = _tenants(n_requests, n_tenants)
    if mean_interarrival <= 0:
        raise ConfigurationError(
            f"mean interarrival must be > 0, got {mean_interarrival}"
        )
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(mean_interarrival, size=n_requests))
    picks = rng.integers(0, n_tenants, size=n_requests)
    samples = _samples(rng, n_requests, input_shape)
    return _requests(times, picks, tenants, samples)


def bursty_trace(
    n_requests: int,
    input_shape: tuple[int, ...],
    n_tenants: int = 4,
    burst_size: int = 10,
    intra_gap: float = 2e-4,
    burst_gap: float = 5e-2,
    seed: int | None = 0,
) -> list[TraceRequest]:
    """Generate an on/off bursty trace (the adaptive-deadline stressor).

    Requests arrive in bursts of ``burst_size`` spaced ``intra_gap``
    apart, with ``burst_gap`` of silence between bursts — the regime
    where a fixed flush deadline is wrong twice over: too loose for the
    stragglers at a burst's tail (they idle out the full deadline) and
    irrelevant mid-burst (size triggers fire first).

    Parameters
    ----------
    n_requests / input_shape / n_tenants / seed:
        As for :func:`synthetic_trace`.
    burst_size:
        Arrivals per burst.
    intra_gap:
        Gap between consecutive arrivals inside a burst (jittered ±20%).
    burst_gap:
        Silence between the last arrival of one burst and the first of
        the next.
    """
    tenants = _tenants(n_requests, n_tenants)
    if burst_size < 1:
        raise ConfigurationError(f"burst size must be >= 1, got {burst_size}")
    if intra_gap <= 0 or burst_gap <= 0:
        raise ConfigurationError(
            f"gaps must be > 0, got intra={intra_gap} burst={burst_gap}"
        )
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n_tenants, size=n_requests)
    jitter = rng.uniform(0.8, 1.2, size=n_requests - 1)
    at_burst_boundary = np.arange(1, n_requests) % burst_size == 0
    gaps = np.where(at_burst_boundary, burst_gap, intra_gap) * jitter
    # ``cumsum`` adds left to right, so each time is the running sum a
    # per-request loop would compute, bit for bit.
    times = np.cumsum(np.concatenate(([0.0], gaps)))
    samples = _samples(rng, n_requests, input_shape)
    return _requests(times, picks, tenants, samples)


def ramping_trace(
    n_requests: int,
    input_shape: tuple[int, ...],
    n_tenants: int = 4,
    start_interarrival: float = 1e-2,
    end_interarrival: float = 2e-4,
    seed: int | None = 0,
) -> list[TraceRequest]:
    """Generate a trace whose offered load ramps between two rates.

    The mean inter-arrival gap interpolates log-linearly from
    ``start_interarrival`` to ``end_interarrival`` across the trace, so
    an adaptive deadline must keep re-learning the arrival process
    instead of converging once.
    """
    tenants = _tenants(n_requests, n_tenants)
    if start_interarrival <= 0 or end_interarrival <= 0:
        raise ConfigurationError(
            "interarrival bounds must be > 0, got"
            f" start={start_interarrival} end={end_interarrival}"
        )
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n_tenants, size=n_requests)
    fractions = np.linspace(0.0, 1.0, num=n_requests)
    means = np.exp(
        (1.0 - fractions) * np.log(start_interarrival)
        + fractions * np.log(end_interarrival)
    )
    times = np.cumsum(rng.exponential(means))
    samples = _samples(rng, n_requests, input_shape)
    return _requests(times, picks, tenants, samples)


def phased_trace(
    phases: list[tuple[int, float]],
    input_shape: tuple[int, ...],
    n_tenants: int = 4,
    seed: int | None = 0,
) -> list[TraceRequest]:
    """Generate a piecewise-constant-load trace (the autoscale stressor).

    ``phases`` is a list of ``(n_requests, mean_interarrival)`` segments
    played back to back: a heavy segment (tight gaps) that saturates a
    small deployment, then a lull (wide gaps) where provisioned capacity
    sits idle, and so on.  Diurnal traffic in miniature — exactly the
    regime where a static shard count is wrong in both directions and an
    elastic deployment should win on shard-hours without losing p99.
    """
    if not phases:
        raise ConfigurationError("phased trace needs >= 1 phase")
    for n, gap in phases:
        if n < 1:
            raise ConfigurationError(f"phase needs >= 1 requests, got {n}")
        if gap <= 0:
            raise ConfigurationError(f"phase interarrival must be > 0, got {gap}")
    tenants = _tenants(sum(n for n, _ in phases), n_tenants)
    rng = np.random.default_rng(seed)
    gaps, picks, samples = [], [], []
    for n, gap in phases:
        gaps.append(rng.exponential(gap, size=n))
        picks.append(rng.integers(0, n_tenants, size=n))
        samples += _samples(rng, n, input_shape)
    times = np.cumsum(np.concatenate(gaps))
    return _requests(times, np.concatenate(picks), tenants, samples)


def trace_from_arrays(
    x: np.ndarray,
    tenants: list[str] | None = None,
    mean_interarrival: float = 1e-3,
    seed: int | None = 0,
) -> list[TraceRequest]:
    """Wrap an existing dataset as a round-robin multi-tenant trace.

    Useful for replaying real evaluation data (e.g. a CIFAR-like test set)
    through the server while keeping arrival dynamics synthetic.
    """
    x = np.asarray(x)
    if x.ndim < 2 or x.shape[0] == 0:
        raise ConfigurationError("trace needs a non-empty batch-major array")
    tenants = tenants or ["tenant0"]
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(mean_interarrival, size=x.shape[0]))
    return _requests(times, np.arange(x.shape[0]) % len(tenants), tenants, x)
