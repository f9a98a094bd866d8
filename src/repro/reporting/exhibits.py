"""The paper's evaluation exhibits, each rendered beside the paper's values.

One function per exhibit — Tables 1-4, Figs. 3, 5, 6a, 6b and 7, and the
headline averages — takes the rows :mod:`repro.perf.experiments` returns
and renders them with :func:`render_table` / :func:`render_series`.  The
benchmarks print these and assert on the same rows; ``python -m repro
report`` prints :data:`PAPER_EXHIBITS` in paper order.  Fig. 4 trains
models rather than evaluating the cost model, so it lives in its benchmark
only.  To report an exhibit from another source (measured spans, say),
swap its rows function in :data:`PAPER_EXHIBITS`.
"""

from __future__ import annotations

from repro import perf
from repro.reporting.tables import render_series, render_table

#: Table 1's speedups (linear, maxpool, relu, total) as the paper prints them.
TABLE1_PAPER = {
    "Forward Pass": (126.85, 11.86, 119.60, 119.03),
    "Backward Propagation": (149.13, 5.47, 6.59, 124.56),
}

#: Table 4's speedups (over DarKnight, over SGX-only) as the paper prints them.
TABLE4_PAPER = {
    "VGG16": (23.93, 273.26),
    "ResNet50": (41.01, 216.62),
    "MobileNetV2": (27.51, 80.31),
}

#: Fig. 5's non-pipelined training speedups as the paper states them.
FIG5_PAPER = {"VGG16": 8.0, "ResNet50": 4.2, "MobileNetV2": 2.2}

#: The abstract's average training and inference speedups.
HEADLINE_PAPER = {"training_speedup_avg": 6.5, "inference_speedup_avg": 12.5}

#: Fig. 6a's five configurations, in the paper's bar order.
FIG6A_CONFIGS = ["SGX", "Slalom", "DarKnight(4)", "Slalom+Integrity", "DarKnight(3)+Integrity"]


def _beside(row: dict, keys: tuple[str, ...], paper: tuple[float, ...], fmt: str) -> list:
    """Each reproduced value followed by the paper's."""
    return [c for key, ref in zip(keys, paper) for c in (f"{row[key]:{fmt}}x", f"{ref:{fmt}}x")]


def render_table1(rows: list[dict]) -> str:
    keys = ("linear", "maxpool", "relu", "total")
    return render_table(
        ["Operations", "Linear Ops", "(paper)", "Maxpool", "(paper)", "Relu", "(paper)",
         "Total", "(paper)"],
        [[r["operation"]] + _beside(r, keys, TABLE1_PAPER[r["operation"]], ".2f") for r in rows],
        title="Table 1 — Speedup in GPU relative to SGX, VGG16 training on ImageNet",
    )


def render_table2(rows: list[list[str]]) -> str:
    return render_table(
        perf.TABLE2_HEADERS,
        rows,
        title="Table 2 — Applications and security guarantees of prior techniques",
    )


def render_table3(rows: list[dict]) -> str:
    cells = [("darknight", k) for k in ("linear", "nonlinear", "encode_decode", "communication")]
    cells += [("baseline", "linear"), ("baseline", "nonlinear")]
    return render_table(
        ["Model", "DK lin", "DK nonlin", "DK enc/dec", "DK comm", "BL lin", "BL nonlin"],
        [[r["model"]] + [f"{r[side][key]:.2f}" for side, key in cells] for r in rows],
        title="Table 3 — Training time breakdown (fractions of total)",
    )


def render_table4(rows: list[dict]) -> str:
    keys = ("speedup_over_darknight", "speedup_over_sgx")
    return render_table(
        ["Model", "over DarKnight", "(paper)", "over SGX-only", "(paper)"],
        [[r["model"]] + _beside(r, keys, TABLE4_PAPER[r["model"]], ".1f") for r in rows],
        title="Table 4 — Non-private 3-GPU training speedup (ImageNet)",
    )


def render_fig3(series: dict[str, dict[int, float]]) -> str:
    return "\n".join(
        render_series(f"Fig 3 — {model} aggregation speedup vs K=1", sorted(v),
                      [v[k] for k in sorted(v)], unit="x")
        for model, v in series.items()
    )


def render_fig5(series: dict[str, dict[str, float]]) -> str:
    return render_table(
        ["Model", "non-pipelined", "(paper)", "pipelined", "linear x (pipe)",
         "linear x (non-pipe)"],
        [
            [model, f"{v['non_pipelined']:.1f}x", f"{FIG5_PAPER[model]:.1f}x",
             f"{v['pipelined']:.1f}x", f"{v['linear_speedup_pipelined']:.0f}x",
             f"{v['linear_speedup_non_pipelined']:.0f}x"]
            for model, v in series.items()
        ],
        title="Fig 5 — ImageNet training speedup over the SGX-only baseline",
    )


def render_fig6a(series: dict[str, dict[str, float]]) -> str:
    return render_table(
        ["Model"] + FIG6A_CONFIGS,
        [[model] + [f"{v[c]:.1f}x" for c in FIG6A_CONFIGS] for model, v in series.items()],
        title="Fig 6a — Inference speedup relative to SGX-only",
    )


def render_fig6b(series: dict[str, dict[int, float]]) -> str:
    ks = sorted(series["Total"])
    return render_table(
        ["Operation"] + [f"K={k}" for k in ks],
        [
            [op] + [f"{series[op][k]:.2f}x" for k in ks]
            for op in ("Unblinding", "Blinding", "Relu", "Maxpooling", "Total")
        ],
        title="Fig 6b — Inference speedup per op vs DarKnight(1), VGG16",
    )


def render_fig7(series: dict[int, float]) -> str:
    return render_series(
        "Fig 7 — SGX training latency vs threads (relative to 1 thread)",
        sorted(series), [series[t] for t in sorted(series)], unit="x",
    )


def render_headline(headline: dict[str, float]) -> str:
    return render_table(
        ["Claim", "Paper", "Reproduced"],
        [
            [f"avg {key.split('_')[0]} speedup", f"{paper:.1f}x", f"{headline[key]:.1f}x"]
            for key, paper in HEADLINE_PAPER.items()
        ],
        title="Headline claims (abstract / conclusion)",
    )


#: Every exhibit in paper order, as ``(rows function, renderer)``.
PAPER_EXHIBITS = (
    (perf.table1_rows, render_table1),
    (perf.table2_rows, render_table2),
    (perf.table3_rows, render_table3),
    (perf.table4_rows, render_table4),
    (perf.fig3_series, render_fig3),
    (perf.fig5_series, render_fig5),
    (perf.fig6a_series, render_fig6a),
    (perf.fig6b_series, render_fig6b),
    (perf.fig7_series, render_fig7),
    (perf.headline_speedups, render_headline),
)
