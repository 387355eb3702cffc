"""Almost-complete subsets of a conic in PG(2,q): search, upper bounds on
the smallest size, and applications to normal rational curve completeness."""

from .gf import FieldCtx, field_new, field_for_order, factor_prime_power
from .geometry import ConicModel, build_conic_model, canon_point, pg_points
from .search import (CoverageState, SearchResult, exhaustive_min_ac,
                     is_ac_subset, is_minimal_ac, randomized_greedy)
from .bounds import (BoundTrace, bound_a_trace, bound_a_values, bound_b,
                     bound_c_phi, bound_theorem32, bound_theorem34,
                     curve_emit, f_q_log, theorem41_bound, theta)
from .nrc import (NrcArc, P0Entry, completeness_brute, corollary11_range,
                  gdrs_generator, is_prime, nrc_points, p0_solve)

__all__ = [
    "FieldCtx", "field_new", "field_for_order", "factor_prime_power",
    "ConicModel", "build_conic_model", "canon_point", "pg_points",
    "CoverageState", "SearchResult", "exhaustive_min_ac", "is_ac_subset", "is_minimal_ac", "randomized_greedy",
    "BoundTrace", "bound_a_trace", "bound_a_values", "bound_b", "bound_c_phi",
    "bound_theorem32", "bound_theorem34", "curve_emit", "f_q_log",
    "theorem41_bound", "theta",
    "NrcArc", "P0Entry", "completeness_brute", "corollary11_range",
    "gdrs_generator", "is_prime", "nrc_points", "p0_solve",
]
