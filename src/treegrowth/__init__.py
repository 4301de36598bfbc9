"""Exact computations for finitely generated groups acting on regular
rooted trees: canonical wreath-recursion arithmetic, pseudonorm sphere
enumeration, incompressible-element analysis, and the finite inequalities
behind the subexponential-growth criterion."""

from .engine import BudgetExceeded, Engine
from .elements import Element, Group
from .family import (FamilyError, FamilySpec, GeneratorSpec, LevelSpec,
                     shift, validate)
from .catalog import (CatalogError, SpinalData, fabrykowski_gupta,
                      first_grigorchuk, ggs, grigorchuk_p, gupta_sidki,
                      nekrashevych_D, neumann6, spinal, sunic)
from .growth import (Atlas, SphereTable, TableExhausted, build_atlas,
                     check_submultiplicative, check_wreath_inequality,
                     enumerate_spheres, kappa_estimates)
from .incompressible import (approximate_I_infty, check_polynomial_bound,
                             extract_ternary_data, factorization_dp,
                             level_function)
from .criterion import (partition, pair_factors, run_criterion,
                        theorem_hypotheses_report)

__version__ = "0.1.0"
