"""Tests for the per-table/figure experiment harnesses."""

import pytest

from repro.perf import (
    TABLE2_HEADERS,
    build_timeline,
    fig3_series,
    fig4_series,
    fig5_series,
    fig6a_series,
    fig6b_series,
    fig7_series,
    headline_speedups,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)


def test_table1_rows_structure_and_values():
    rows = table1_rows()
    assert [r["operation"] for r in rows] == ["Forward Pass", "Backward Propagation"]
    fwd, bwd = rows
    assert fwd["linear"] == pytest.approx(126.85, rel=0.02)
    assert fwd["relu"] == pytest.approx(119.60, rel=0.02)
    assert bwd["linear"] == pytest.approx(149.13, rel=0.02)
    assert bwd["maxpool"] == pytest.approx(5.47, rel=0.02)
    assert fwd["total"] == pytest.approx(119.03, rel=0.05)
    assert bwd["total"] == pytest.approx(124.56, rel=0.05)


def test_table2_matches_paper_matrix():
    rows = table2_rows()
    assert len(rows) == 11
    assert len(rows[0]) == len(TABLE2_HEADERS)
    by_name = {r[0]: r for r in rows}
    # DarKnight: the only row with training + TEE + integrity + GPU + large DNNs.
    dk = by_name["DarKnight"]
    assert dk[1] == "•" and dk[6] == "•" and dk[10] == "•" and dk[11] == "•" and dk[12] == "•"
    # Slalom: inference only.
    assert by_name["Slalom"][1] == "◦"
    assert by_name["Slalom"][2] == "•"


def test_table3_rows():
    rows = table3_rows()
    assert {r["model"] for r in rows} == {"VGG16", "ResNet50", "MobileNetV2"}
    for row in rows:
        assert sum(row["darknight"].values()) == pytest.approx(1.0)
        assert sum(row["baseline"].values()) == pytest.approx(1.0)
        assert row["baseline"]["encode_decode"] == 0.0
        assert row["baseline"]["communication"] == 0.0


def test_table4_rows():
    rows = table4_rows()
    for row in rows:
        assert row["speedup_over_darknight"] > 10
        assert row["speedup_over_sgx"] > row["speedup_over_darknight"]


def test_fig3_series_shape():
    series = fig3_series()
    for model, speedups in series.items():
        assert speedups[4] > speedups[2] > 1.0
        assert speedups[5] < speedups[4], model


def test_fig5_series_shape():
    series = fig5_series()
    for model, values in series.items():
        assert values["pipelined"] >= values["non_pipelined"]
        assert values["linear_speedup_pipelined"] > values["linear_speedup_non_pipelined"]
    # Paper: pipelined linear speedups span roughly 20-158x.
    lins = [v["linear_speedup_pipelined"] for v in series.values()]
    assert max(lins) > 50
    assert min(lins) > 10


def test_fig6a_series_shape():
    series = fig6a_series()
    for model, values in series.items():
        assert values["SGX"] == 1.0
        assert values["DarKnight(4)"] > values["Slalom"] > 1.0
        assert values["Slalom"] > values["Slalom+Integrity"]
        assert values["DarKnight(4)"] > values["DarKnight(3)+Integrity"]


def test_fig6b_series_shape():
    series = fig6b_series()
    total = series["Total"]
    assert total[1] == pytest.approx(1.0)
    assert total[4] > total[2] > 1.0
    assert total[6] < total[4]  # EPC overflow past the knee
    # Blinding/unblinding improve with K too (amortised noise shares).
    assert series["Blinding"][4] > 1.0
    assert series["Unblinding"][4] > 1.0


def test_fig7_series_shape():
    series = fig7_series()
    assert series[1] == pytest.approx(1.0)
    assert series[2] > 1.5
    assert series[4] > series[3] > series[2]


def test_fig4_series_tiny_run_has_matching_curves():
    results = fig4_series(
        models=("MiniVGG",), epochs=2, n_train=32, n_test=16,
        batch_size=8, image_size=8, width=8, seed=0,
    )
    curves = results["MiniVGG"]
    assert len(curves["raw"]) == 2
    assert len(curves["darknight"]) == 2
    # Both runs produce valid accuracies; closeness asserted in integration.
    for accs in curves.values():
        assert all(0.0 <= a <= 1.0 for a in accs)


def test_headline_speedups():
    headline = headline_speedups()
    # Paper abstract: 6.5x training / 12.5x inference averages.
    assert headline["training_speedup_avg"] == pytest.approx(6.5, rel=0.5)
    assert headline["inference_speedup_avg"] == pytest.approx(12.5, rel=0.5)


def test_timeline_consistency():
    from repro.models import vgg16_spec
    from repro.perf import CostModel
    from repro.runtime import DarKnightConfig

    dk = CostModel().darknight_training(vgg16_spec(), DarKnightConfig(virtual_batch_size=2))
    tl = build_timeline(dk)
    assert tl.non_pipelined == pytest.approx(dk.total)
    streams = (dk.nonlinear + dk.encode_decode, dk.linear, dk.communication)
    assert tl.pipelined == pytest.approx(max(streams))
    assert tl.non_pipelined >= tl.pipelined
