"""Exact computations for finitely generated groups acting on regular
rooted trees: canonical wreath-recursion arithmetic, pseudonorm sphere
enumeration, incompressible-element analysis, and the finite inequalities
behind the subexponential-growth criterion.

The public names below are resolved on first use (PEP 562), so importing
the package, or one module of it, loads only the modules used: a `define`
run compiles no enumeration, filtration or criterion code."""

from importlib import import_module

_MODULES = {
    "engine": ("BudgetExceeded", "Engine"),
    "elements": ("Element", "Group"),
    "family": ("FamilyError", "FamilySpec", "GeneratorSpec", "LevelSpec",
               "shift", "validate"),
    "catalog": ("CatalogError", "SpinalData", "fabrykowski_gupta",
                "first_grigorchuk", "ggs", "grigorchuk_p", "gupta_sidki",
                "nekrashevych_D", "neumann6", "spinal", "sunic"),
    "growth": ("Atlas", "SphereTable", "TableExhausted", "build_atlas",
               "check_submultiplicative", "check_wreath_inequality",
               "enumerate_spheres", "kappa_estimates"),
    "incompressible": ("approximate_I_infty", "check_polynomial_bound",
                       "extract_ternary_data", "factorization_dp",
                       "level_function"),
    "criterion": ("partition", "pair_factors", "run_criterion",
                  "theorem_hypotheses_report"),
}
_HOME = {name: module for module, names in _MODULES.items()
         for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # a submodule that is no public name's home is left to the import
    # system, which loads it on this AttributeError
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__),
                                      name)
    return value
