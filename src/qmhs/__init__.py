"""Exact evaluation and verification of finite multiple harmonic q-series
at roots of unity, their closed forms, generating-function identities,
and limits."""

from .exactnum import Poly, bernoulli, binomial
from .cyclotomic import (
    CycloElem,
    CycloField,
    cyclotomic_polynomial,
    get_field,
    parse_cyclo,
    q_integer,
    render_cyclo,
)
from .mhs import (
    Index,
    IndexProfile,
    enumerate_indices,
    exact_backend,
    numeric_backend,
    profile_sum,
    z,
    z_star,
    zbar,
    zbar_star,
)
from .multiseries import MultiSeries, RATIONALS, ms_divide_xy_minus_z, ms_substitute
from .closedforms import (
    conjecture_check,
    depth_one_bar,
    exterior_F,
    kkk_closed,
    kkk_general,
)
from .ohno_zagier import (
    f_bruteforce,
    phi_product,
    phi_recurrence,
    polylog,
    sum_formula_check,
    u_kernel,
    verify_lemma_3_2,
    verify_prop_3_3,
    verify_theorem_1_2,
)
from .xi import (
    XiClosed,
    convergence_study,
    tilde_u,
    tilde_u_star,
    xi_closed_depth1,
    xi_kkk,
    xi_sum_formula,
    z_numeric,
)
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "Poly", "bernoulli", "binomial",
    "CycloElem", "CycloField", "cyclotomic_polynomial", "get_field",
    "parse_cyclo", "q_integer", "render_cyclo",
    "Index", "IndexProfile", "enumerate_indices", "exact_backend",
    "numeric_backend", "profile_sum", "z", "z_star", "zbar", "zbar_star",
    "MultiSeries", "RATIONALS", "ms_divide_xy_minus_z", "ms_substitute",
    "conjecture_check", "depth_one_bar", "exterior_F", "kkk_closed",
    "kkk_general",
    "f_bruteforce", "phi_product", "phi_recurrence", "polylog",
    "sum_formula_check", "u_kernel", "verify_lemma_3_2", "verify_prop_3_3",
    "verify_theorem_1_2",
    "XiClosed", "convergence_study", "tilde_u", "tilde_u_star",
    "xi_closed_depth1", "xi_kkk", "xi_sum_formula", "z_numeric",
    "VerificationReport",
]
