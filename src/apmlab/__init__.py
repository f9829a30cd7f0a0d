"""apmlab: a numerical verification lab for Riemannian almost product manifolds."""

from .curvature import (
    CurvatureInvariants,
    ab_forms,
    almost_einstein_check,
    curvature_invariants,
    decompose_dim4,
    is_curvature_like,
    is_p_tensor,
    p_slot_identities,
    pi_tensors,
    psi1,
    psi2,
    random_curvature_like,
    random_p_tensor,
    sectional_curvatures,
)
from .exprs import EvalError, ParseError, ScalarExpr, eval_jet, parse_expr
from .germs import (
    ChartGerm,
    ConnectionParams,
    GermFrame,
    conformal_flat_product_germ,
    d_scalar,
    flat_product_germ,
)
from .report import CheckReport, emit_report, load_report
from .scenarios import (
    Scenario,
    ScenarioError,
    load_scenario,
    load_scenario_file,
    resolve_scenario,
    run_scenario,
)
from .structure import (
    ClassReport,
    adapted_orthonormal_basis,
    classify_f,
    f_symmetry_residuals,
    lee_form_from_f,
    projectors,
    validate_structure,
    w1_form,
    w3bar_form,
    w6bar_form,
)
from .tensors import (
    PointStructure,
    StructureError,
    canonical_structure,
    contract,
    frob,
    lower_last,
    metric_inverse,
    raise_last,
    random_symmetric2,
    random_tensor4,
    split_structure,
)

__version__ = "0.1.0"
