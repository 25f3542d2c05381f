"""Exact arithmetic for the Carlitz module over cyclotomic function fields.

Special L-values, Gauss-Thakur sums, Bernoulli-Carlitz numbers and
Anderson special points, with machine verification of the identities
tying them together at desk scale.

Importing the package registers each module below as a lazy module: it
is in sys.modules and on the package from the start, and is compiled
and run when one of its attributes is first read.  A command then pays
only for the layers it calls (bc-scan never runs laurent, cyclotomic,
lvalues, padics, equivariant or special_points).  The public names are read
from their modules on first use, through __getattr__.
"""

import importlib.util
import sys

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

for _name in ("fields", "polynomials", "laurent", "padics", "core",
              "cyclotomic", "lvalues", "equivariant", "report",
              "special_points"):
    _spec = importlib.util.find_spec("%s.%s" % (__name__, _name))
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    """A public name, read from the first module that has it, lowest
    layer first: a module binds what it imports under the same name, so
    the first one to have a name runs only what that name needs."""
    if name in __all__:
        for module in (report, fields, polynomials, laurent, padics, core,
                       cyclotomic, lvalues, special_points):
            if name in vars(module):
                return vars(module)[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
