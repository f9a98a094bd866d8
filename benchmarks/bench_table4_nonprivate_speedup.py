"""Table 4: non-private 3-GPU training speedup over DarKnight and SGX-only.

Paper: over DarKnight 23.93x / 41.01x / 27.51x; over SGX 273.26x / 216.62x /
80.31x (VGG16 / ResNet50 / MobileNetV2).  Shape: the privacy gap is tens-of-x,
the TEE-only gap is two orders of magnitude, and MobileNet has the smallest
SGX gap (least linear work to accelerate).
"""

from conftest import show

from repro.perf import table4_rows
from repro.reporting.exhibits import render_table4


def test_table4_nonprivate_speedup(benchmark, capsys):
    rows = benchmark(table4_rows)
    show(capsys, render_table4(rows))
    by_model = {r["model"]: r for r in rows}
    for model, row in by_model.items():
        assert 10 < row["speedup_over_darknight"] < 100
        assert row["speedup_over_sgx"] > 50
    # MobileNet shows the smallest gap over SGX (paper's 80x vs 273x).
    assert (
        by_model["MobileNetV2"]["speedup_over_sgx"]
        < by_model["ResNet50"]["speedup_over_sgx"]
        < by_model["VGG16"]["speedup_over_sgx"]
    )
