"""Empirical privacy analysis: MI estimation and reconstruction attacks."""

from repro.analysis.attacks import (
    DependenceReport,
    run_collusion_attack,
    share_input_dependence,
)
from repro.analysis.gradient_leakage import (
    LeakagePoint,
    gradient_leakage_curve,
    leakage_reduction,
)
from repro.analysis.mutual_information import (
    chi_square_uniformity,
    empirical_mutual_information,
    max_abs_correlation,
)

__all__ = [
    "empirical_mutual_information",
    "chi_square_uniformity",
    "max_abs_correlation",
    "run_collusion_attack",
    "share_input_dependence",
    "DependenceReport",
    "gradient_leakage_curve",
    "leakage_reduction",
    "LeakagePoint",
]
