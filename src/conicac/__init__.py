"""Almost-complete subsets of a conic in PG(2,q): search, upper bounds on
the smallest size, and applications to normal rational curve completeness."""

from .gf import field_for_order
from .geometry import build_conic_model
from .search import exhaustive_min_ac, is_ac_subset, randomized_greedy
from .bounds import bound_a_trace, bound_values, curve_emit, theta_values
from .nrc import completeness_brute, corollary11_range, nrc_points, p0_solve

__all__ = [
    "field_for_order", "build_conic_model",
    "exhaustive_min_ac", "is_ac_subset", "randomized_greedy",
    "bound_a_trace", "bound_values", "curve_emit", "theta_values",
    "completeness_brute", "corollary11_range", "nrc_points", "p0_solve",
]
