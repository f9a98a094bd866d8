"""Fig. 3: aggregation speedup vs virtual batch size (batch 128).

Paper: speedup grows with K and peaks at K=4 for all three models; K=5
regresses because the virtual batch no longer fits enclave memory.
"""

from conftest import show

from repro.perf import fig3_series
from repro.reporting.exhibits import render_fig3


def test_fig3_virtual_batch_aggregation(benchmark, capsys):
    series = benchmark(fig3_series)
    show(capsys, render_fig3(series))
    for model, speedups in series.items():
        assert speedups[2] < speedups[3] < speedups[4], model
        assert speedups[5] < speedups[4], f"{model}: K=5 must dip (EPC overflow)"
        assert speedups[4] > 2.0, model
