"""Fig. 6(b): per-operation inference speedup vs virtual batch size (VGG16).

Paper: relative to DarKnight(1), blinding/unblinding/relu/maxpool/total all
improve as K grows while the virtual batch fits SGX memory; past K=4 the
execution regresses from EPC overflow.
"""

from conftest import show

from repro.perf import fig6b_series
from repro.reporting.exhibits import render_fig6b


def test_fig6b_virtual_batch_inference(benchmark, capsys):
    series = benchmark(fig6b_series)
    show(capsys, render_fig6b(series))
    total = series["Total"]
    assert total[1] == 1.0
    assert 1.0 < total[2] < total[4], "total speedup must rise to the K=4 knee"
    assert total[6] < total[4], "K=6 must regress (EPC overflow)"
    for op in ("Blinding", "Unblinding", "Relu", "Maxpooling"):
        assert series[op][4] > 1.0, op
