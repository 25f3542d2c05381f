"""Exact arithmetic for the Carlitz module over cyclotomic function fields.

Special L-values, Gauss-Thakur sums, Bernoulli-Carlitz numbers and
Anderson special points, with machine verification of the identities
tying them together at desk scale.
"""

from .core import (CarlitzTables, bc_stream_mod_P, carlitz_act, carlitz_poly,
                   exp_eval, padic_exp, padic_log)
from .cyclotomic import (Character, CycElem, CycField, InftyEmbedding,
                         all_characters, b1, embed_padic, gauss_thakur)
from .fields import make_field, residue_field
from .laurent import LaurentSeries, RamifiedElem
from .lvalues import (ClassSumTable, PadicClassSumTable,
                      euler_factor_charpoly, euler_product, l_inf, l_padic)
from .polynomials import (Poly, RatFunc, format_poly, monic_irreducibles,
                          parse_poly, rat_reduce_mod_P)
from .special_points import (VerificationReport, hr_dual_check,
                             odd_fitting_report, padic_ledger,
                             recognize_integral, special_point_inf,
                             special_point_padic, verify_anderson,
                             verify_b1_formula, verify_cnf,
                             verify_congruence)

__version__ = "0.1.0"

__all__ = [
    "CarlitzTables", "bc_stream_mod_P", "carlitz_act", "carlitz_poly",
    "exp_eval", "padic_exp", "padic_log",
    "Character", "CycElem", "CycField", "InftyEmbedding", "all_characters",
    "b1", "embed_padic", "gauss_thakur",
    "make_field", "residue_field",
    "LaurentSeries", "RamifiedElem",
    "ClassSumTable", "PadicClassSumTable", "euler_factor_charpoly",
    "euler_product", "l_inf", "l_padic",
    "Poly", "RatFunc", "format_poly", "monic_irreducibles", "parse_poly",
    "rat_reduce_mod_P",
    "VerificationReport", "hr_dual_check", "odd_fitting_report",
    "padic_ledger", "recognize_integral", "special_point_inf",
    "special_point_padic", "verify_anderson", "verify_b1_formula",
    "verify_cnf", "verify_congruence",
]
