"""Exact linear-algebra engine for twisted flag-embedding codes.

Point-hyperplane flags of PG(n, q) embed into the projective space of
(n+1) x (n+1) matrices by sending a flag (point x, functional xi) to the
rank-1 class sigma(x) * xi, with sigma a Frobenius power of GF(q).  The
package computes exactly with the resulting projective system and its
linear code: theta counts, weight spectra, minimality, hyperplane
classification and the constructive searches.  See the README for the
command line front end.
"""

from .code import (AutomorphismReport, Codeword, MaxThetaReport,
                   MinimalityReport, SecondWeightReport, SpectrumTable,
                   ThetaReport, act, automorphism_check,
                   closed_form_min_distance, eval_codeword, is_minimal,
                   line_solution_bound, m_bound, max_theta_by_rank,
                   min_distance, min_weight_condition_n2, min_weight_sweep,
                   second_weight_check, subspace_solution_bound, theta,
                   weight_spectrum)
from .embedding import ProjectiveSystem, build_system, embed_flag, make_system
from .gamma import (Flag, Gamma, GammaLine, base_cardinality, build_gamma,
                    flag_count)
from .gf import (AutSpec, FieldCtx, apply_sigma, apply_sigma_inverse,
                 make_autspec, make_field, norm)
from .hyperplanes import (FpfWitness, HyperplaneReport, SearchBudgetExhausted,
                          classify, find_fpf_collineation, find_spread,
                          norm_proportional, phi_fixed_points,
                          quasi_singular_cardinality, singular_cardinality,
                          spread_type_cardinality)
from .projgeom import (ProjClass, class_index, class_reps_range, enumerate_pg,
                       num_classes, sigma_fixed_points)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "AutSpec", "AutomorphismReport", "Codeword", "FieldCtx", "Flag",
    "FpfWitness", "Gamma", "GammaLine", "HyperplaneReport", "MaxThetaReport",
    "MinimalityReport", "ProjClass", "ProjectiveSystem",
    "SearchBudgetExhausted", "SecondWeightReport", "SpectrumTable",
    "SplitMix64", "ThetaReport", "act",
    "apply_sigma", "apply_sigma_inverse", "automorphism_check",
    "base_cardinality", "build_gamma", "build_system", "class_index",
    "class_reps_range", "classify", "closed_form_min_distance",
    "embed_flag", "enumerate_pg", "eval_codeword", "find_fpf_collineation",
    "find_spread", "flag_count", "is_minimal", "line_solution_bound",
    "m_bound", "make_autspec", "make_field", "make_system",
    "max_theta_by_rank", "min_distance", "min_weight_condition_n2",
    "min_weight_sweep", "norm", "norm_proportional", "num_classes",
    "phi_fixed_points", "quasi_singular_cardinality", "second_weight_check",
    "sigma_fixed_points", "singular_cardinality", "spread_type_cardinality",
    "subspace_solution_bound", "theta", "weight_spectrum",
]
