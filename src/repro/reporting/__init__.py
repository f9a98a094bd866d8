"""Shared ASCII table/series rendering for benches and examples.

:mod:`repro.reporting.exhibits` renders each of the paper's exhibits with
them.
"""

from repro.reporting.tables import render_series, render_table

__all__ = ["render_table", "render_series"]
