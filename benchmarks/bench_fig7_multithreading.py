"""Fig. 7: effect of SGX multithreading on training latency (VGG16).

Paper: counter-intuitively, adding enclave threads *increases* per-batch
latency (to ~7x at 4 threads) because concurrent working sets multiply the
encrypted-paging traffic through the shared memory-encryption engine.
"""

from conftest import show

from repro.perf import fig7_series
from repro.reporting.exhibits import render_fig7


def test_fig7_multithreading(benchmark, capsys):
    series = benchmark(fig7_series)
    show(capsys, render_fig7(series))
    assert series[1] == 1.0
    assert series[2] > 1.5
    assert series[3] > series[2]
    assert series[4] > series[3]
    assert 3.0 < series[4] < 12.0  # paper eyeballs ~7x
