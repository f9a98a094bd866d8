"""Performance model: device profiles, cost model, timelines, experiments."""

from repro.perf.costs import EPC_KNEE_SAMPLES, CostModel, PhaseBreakdown
from repro.perf.devices import (
    DEFAULT_SYSTEM,
    KERNEL_EFFICIENCY,
    GpuProfile,
    LinkProfile,
    SgxProfile,
    SystemProfile,
    kernel_efficiency,
)
from repro.perf.experiments import (
    TABLE2_HEADERS,
    TRAINING_SPECS,
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
from repro.perf.timeline import TimelineSummary, build_timeline

__all__ = [
    "CostModel",
    "PhaseBreakdown",
    "EPC_KNEE_SAMPLES",
    "SystemProfile",
    "SgxProfile",
    "GpuProfile",
    "LinkProfile",
    "DEFAULT_SYSTEM",
    "KERNEL_EFFICIENCY",
    "kernel_efficiency",
    "TimelineSummary",
    "build_timeline",
    "table1_rows",
    "table2_rows",
    "TABLE2_HEADERS",
    "table3_rows",
    "table4_rows",
    "fig3_series",
    "fig4_series",
    "fig5_series",
    "fig6a_series",
    "fig6b_series",
    "fig7_series",
    "headline_speedups",
    "TRAINING_SPECS",
]
