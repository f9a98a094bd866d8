"""Fig. 6(a): inference speedup over SGX for five configurations.

Paper (VGG16): Slalom ~11.5x, DarKnight(4) ~15x (a ~30% edge over Slalom),
Slalom+Integrity ~9x, DarKnight(3)+Integrity ~13x (1.45x over
Slalom+Integrity).  Shape: DarKnight beats Slalom with and without
integrity; integrity costs both systems; MobileNetV1 gains are smaller.
"""

from conftest import show

from repro.perf import fig6a_series
from repro.reporting.exhibits import FIG6A_CONFIGS as CONFIGS
from repro.reporting.exhibits import render_fig6a


def test_fig6a_inference_speedup(benchmark, capsys):
    series = benchmark(fig6a_series)
    show(capsys, render_fig6a(series))
    for model, v in series.items():
        assert v["DarKnight(4)"] > v["Slalom"], model
        assert v["Slalom"] > v["Slalom+Integrity"], model
        assert v["DarKnight(3)+Integrity"] > v["Slalom+Integrity"], model
        assert v["DarKnight(4)"] > v["DarKnight(3)+Integrity"], model
    # VGG16 magnitudes in the paper's ballpark.
    assert 8 < series["VGG16"]["DarKnight(4)"] < 35
    assert 4 < series["VGG16"]["Slalom"] < 20
    # MobileNetV1 gains are smaller than VGG16's across the board.
    for c in CONFIGS[1:]:
        assert series["MobileNetV1"][c] < series["VGG16"][c]
