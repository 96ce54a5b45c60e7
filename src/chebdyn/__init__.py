"""chebdyn: arithmetic dynamics of Chebyshev maps over finite fields.

Build the functional graph of T_ell on F_{p^n}, predict its structure
(cycles, trees, weights, point counts) from multiplicative orders alone,
factor iterates T_ell^n(x) - t mod p both directly and by the closed-form
pattern rules, and report how primes decompose in the radical towers the
iterates generate.
"""

from .cheb import (CriticalSplit, SignedFactoredInt, cheb_coeffs, cheb_eval,
                   critical_factorization, disc_factored, iterate_coeffs,
                   ramified_candidates)
from .factor import (DecompReport, FactorPattern, LevelDecomp, TClass,
                     all_iterates_irreducible, classify_t, decompose_prime,
                     factor_pattern_actual, factor_pattern_predicted,
                     factor_patterns_actual, factor_patterns_predicted,
                     find_irreducibility_witness, verify_reciprocity)
from .ffield import (MINUS, PLUS, Branch, FactoredInt, FFElem, FieldCtx,
                     alpha_order, element_degree, factor_int, is_prime,
                     make_field)
from .graph import (FuncGraph, build_graph, export_dot, orbit_stats_order,
                    summarize, verify_structure)
from .predict import (D1, D2, StructureParams, half_order, nu_2n,
                      periodic_density, predict_summary, predict_weight,
                      structure_params, tower_density, tower_levels,
                      tower_limit)
from .summary import GraphSummary, SummaryRow
from .verify import FIGURE_ERRATA, VerifyReport, verify_instance

__version__ = "0.1.0"

__all__ = [
    "Branch", "CriticalSplit", "D1", "D2", "DecompReport", "FFElem",
    "FIGURE_ERRATA", "FactorPattern", "FactoredInt", "FieldCtx", "FuncGraph",
    "GraphSummary", "LevelDecomp", "MINUS", "PLUS",
    "SignedFactoredInt", "StructureParams", "SummaryRow", "TClass",
    "VerifyReport", "all_iterates_irreducible", "alpha_order", "build_graph",
    "cheb_coeffs", "cheb_eval", "classify_t",
    "critical_factorization", "decompose_prime", "disc_factored",
    "element_degree", "export_dot", "factor_int", "factor_pattern_actual",
    "factor_pattern_predicted", "factor_patterns_actual",
    "factor_patterns_predicted",
    "find_irreducibility_witness", "half_order",
    "is_prime", "iterate_coeffs", "make_field",
    "nu_2n", "orbit_stats_order", "periodic_density", "predict_summary",
    "predict_weight", "ramified_candidates", "structure_params", "summarize",
    "tower_density", "tower_levels", "tower_limit", "verify_instance",
    "verify_reciprocity", "verify_structure",
]
