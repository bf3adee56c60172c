"""Workbench for randomizations of finite first-order structures.

Everything is exact: probabilities, distances and ranks are Fractions,
and the identities the theory promises are checked as equalities.
"""

from .errors import (
    BudgetError,
    ParseError,
    RandlabError,
    ResolutionError,
    ValidationError,
)
from .structures import (
    FinStructure,
    Signature,
    directed_cycle,
    linear_order,
    parse_structure,
    pure_set,
)
from .formulas import Formula, format_formula, free_vars, parse_formula
from .semantics import (
    TypeId,
    TypeSpace,
    automorphisms,
    eval_formula,
    isolating_formula,
    type_of_tuple,
    type_space,
)
from .measure import (
    FiberSpace,
    FinProbSpace,
    MeasurableMap,
    RationalFn,
    cond_exp,
    fiber_product,
    image_measure,
    pair,
)
from .extension import (
    Certificate,
    FeasibleCertificate,
    InfeasibleEqCertificate,
    InfeasibleIneqCertificate,
    LinFeasProblem,
    extend_measure_eq,
    extend_measure_ineq,
)
from .randomization import (
    EventAlgebra,
    RandomElement,
    Randomization,
    approximate_by_simple,
    convex_combination,
    d_b,
    d_k,
    event_of,
    event_witness,
    fullness_witness,
    mu,
)
from .cformulas import CFormula, eval_cformula, format_cformula, parse_cformula
from .axioms import AxiomReport, check_axioms, default_formula_corpus
from .rtypes import (
    CondRealizationSpec,
    RMeasure,
    Refinement,
    check_omega_categoricity,
    d_metric,
    realize,
    realize_conditional,
    rtype_of,
    rtype_of_over,
)
from .stability import (
    PhiContext,
    PhiType,
    cb_rank_mult,
    certify_nonforking,
    check_independence,
    ladder_length,
    nonforking_extension,
    phi_type_space,
    rho,
    rho_by_multiplicity,
    rho_hat,
)
from .workspace import Workspace, load_workspace, save_workspace

__version__ = "0.1.0"
