"""Fig. 5: ImageNet training speedup, non-pipelined and pipelined.

Paper: VGG16 > 8x non-pipelined (linear-op time cut 23x); ResNet50 4.2x;
MobileNetV2 2.2x; pipelining overlaps communication under compute, lifting
linear-op speedups to 20-158x and the overall numbers above the
non-pipelined bars.
"""

from conftest import show

from repro.perf import fig5_series
from repro.reporting.exhibits import FIG5_PAPER as PAPER_OVERALL
from repro.reporting.exhibits import render_fig5


def test_fig5_training_speedup(benchmark, capsys):
    series = benchmark(fig5_series)
    show(capsys, render_fig5(series))
    for model, v in series.items():
        paper = PAPER_OVERALL[model]
        assert abs(v["non_pipelined"] - paper) / paper < 0.5, model
        assert v["pipelined"] > v["non_pipelined"]
    # Paper's pipelined linear-op speedups span roughly 20-158x.
    lin = [v["linear_speedup_pipelined"] for v in series.values()]
    assert max(lin) > 50 and min(lin) > 10
    # Ordering: VGG benefits most, MobileNet least.
    assert (
        series["VGG16"]["non_pipelined"]
        > series["ResNet50"]["non_pipelined"]
        > series["MobileNetV2"]["non_pipelined"]
    )
