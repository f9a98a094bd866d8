"""Table 1: GPU-over-SGX speedup per operation class (VGG16 on ImageNet).

Paper values — Forward: linear 126.85x, maxpool 11.86x, relu 119.60x, total
119.03x; Backward: 149.13x, 5.47x, 6.59x, 124.56x.  These are the model's
calibration anchors, so the reproduction should match tightly.
"""

from conftest import show

from repro.perf import table1_rows
from repro.reporting.exhibits import TABLE1_PAPER as PAPER
from repro.reporting.exhibits import render_table1


def test_table1_gpu_vs_sgx(benchmark, capsys):
    rows = benchmark(table1_rows)
    show(capsys, render_table1(rows))
    for r in rows:
        paper_lin, paper_mp, paper_relu, paper_total = PAPER[r["operation"]]
        assert abs(r["linear"] - paper_lin) / paper_lin < 0.05
        assert abs(r["maxpool"] - paper_mp) / paper_mp < 0.05
        assert abs(r["relu"] - paper_relu) / paper_relu < 0.05
        assert abs(r["total"] - paper_total) / paper_total < 0.10
