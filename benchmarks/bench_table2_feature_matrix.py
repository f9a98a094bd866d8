"""Table 2: qualitative comparison of prior privacy techniques.

A static capability matrix (• supported / ◦ not); reproduced verbatim from
the paper so downstream docs can regenerate it.
"""

from conftest import show

from repro.perf import table2_rows
from repro.reporting.exhibits import render_table2


def test_table2_feature_matrix(benchmark, capsys):
    rows = benchmark(table2_rows)
    show(capsys, render_table2(rows))
    by_name = {r[0]: r for r in rows}
    # DarKnight is the only training-capable TEE+GPU row with integrity.
    assert by_name["DarKnight"][1] == "•"
    assert by_name["Slalom"][1] == "◦"
    assert len(rows) == 11
