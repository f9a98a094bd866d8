"""ASCII rendering for reproduced tables and figure series.

Every benchmark prints its reproduction in the same rows/series layout the
paper uses, via these helpers; :mod:`repro.reporting.exhibits` holds the
paper's exhibits.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None
) -> str:
    """Fixed-width table with a header rule; cells are str()-ed."""
    if not rows:
        raise ConfigurationError("table needs at least one row")
    str_rows = [[_fmt(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(str(headers[i])), max(len(r[i]) for r in str_rows))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def render_series(
    name: str, xs: Sequence, ys: Sequence[float], unit: str = ""
) -> str:
    """One figure series as ``x -> y`` lines (plot-free environments)."""
    if len(xs) != len(ys):
        raise ConfigurationError(f"series length mismatch: {len(xs)} vs {len(ys)}")
    suffix = f" {unit}" if unit else ""
    lines = [name]
    for x, y in zip(xs, ys):
        lines.append(f"  {x!s:>10} -> {_fmt(y)}{suffix}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
