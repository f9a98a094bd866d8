"""Headline claims: the abstract's 6.5x training / 12.5x inference averages.

"We observe an average of 6.5x performance improvement for different DNN
models" (training, Section 1) and "an average of 6.5x training speedup and
12.5x inference speedup" (Section 8).
"""

from conftest import show

from repro.perf import headline_speedups
from repro.reporting.exhibits import render_headline


def test_headline_claims(benchmark, capsys):
    headline = benchmark(headline_speedups)
    show(capsys, render_headline(headline))
    assert abs(headline["training_speedup_avg"] - 6.5) / 6.5 < 0.5
    assert abs(headline["inference_speedup_avg"] - 12.5) / 12.5 < 0.5
