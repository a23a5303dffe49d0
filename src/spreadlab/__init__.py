"""Finite field towers, linearized polynomials, planar functions, and
translation plane spreads, with exhaustive desk-scale verification tools."""

from .experiments import (ExperimentSpec, VerdictReport,
                          hermite_coefficient_check, report_write,
                          run_experiment, verify_even_n3_classification,
                          verify_hermite, verify_no_typeC_even_8dim,
                          verify_no_typeC_odd, verify_planar_dichotomy)
from .field import FieldCtx, build_tower, ctx_from_json, factor_prime_power
from .linpoly import (QPoly, adjoint, assoc_matrix, compose, kernel_basis,
                      kernel_dim, is_permutation, linearity_field)
from .quadform import (DOPoly, QuadSpace, classify_char2, coset_representatives,
                       count_zeros, is_permutation_brute,
                       is_permutation_via_rank, permutes_cosets, radical)
from .semifield import (Presemifield, RtcsSpec, is_planar_2to1,
                        is_planar_direct, middle_nucleus,
                        middle_nucleus_elements, normalize, nucleus,
                        nucleus_elements, planar_family_check,
                        planar_to_presemifield, psi_image_check, psi_map,
                        q_from_component, q_from_pair, rtcs_build, rtcs_check,
                        zeta_element)
from .spread import (KeyLemmaReport, Spread, Subspace, build_even_n3,
                     build_typeC, build_typeH, check_key_lemma,
                     component_from_pair, even3_admissible, gcd_condition,
                     is_partial_spread, is_spread, kernel_of_spread, orbit,
                     symplectic_check)

__all__ = [
    "DOPoly", "ExperimentSpec", "FieldCtx", "KeyLemmaReport", "Presemifield",
    "QPoly", "QuadSpace", "RtcsSpec", "Spread", "Subspace", "VerdictReport",
    "adjoint", "assoc_matrix", "build_even_n3", "build_tower", "build_typeC",
    "build_typeH", "check_key_lemma", "classify_char2", "compose",
    "component_from_pair", "coset_representatives", "count_zeros",
    "ctx_from_json", "even3_admissible", "factor_prime_power",
    "gcd_condition", "hermite_coefficient_check", "is_partial_spread",
    "is_permutation", "is_permutation_brute", "is_permutation_via_rank",
    "is_planar_2to1", "is_planar_direct", "is_spread", "kernel_basis",
    "kernel_dim", "kernel_of_spread", "linearity_field", "middle_nucleus",
    "middle_nucleus_elements", "normalize", "nucleus", "nucleus_elements",
    "orbit", "permutes_cosets", "planar_family_check",
    "planar_to_presemifield", "psi_image_check", "psi_map", "q_from_component",
    "q_from_pair", "radical",
    "report_write", "rtcs_build", "rtcs_check", "run_experiment",
    "symplectic_check", "verify_even_n3_classification", "verify_hermite",
    "verify_no_typeC_even_8dim", "verify_no_typeC_odd",
    "verify_planar_dichotomy", "zeta_element",
]

__version__ = "0.1.0"
