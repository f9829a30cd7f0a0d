"""apmlab: a numerical verification lab for Riemannian almost product manifolds."""

from .curvature import (
    CurvatureInvariants,
    almost_einstein_check,
    curvature_invariants,
    decompose_dim4,
    is_p_tensor,
    p_slot_identities,
    pi_tensors,
    psi1,
    psi2,
    random_curvature_like,
    random_p_tensor,
)
from .exprs import EvalError, ParseError, ScalarExpr, parse_expr
from .germs import (
    ChartGerm,
    ConnectionParams,
    GermFrame,
    conformal_flat_product_germ,
)
from .report import CheckReport, emit_report
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
    projectors,
    w1_form,
)
from .tensors import (
    PointStructure,
    StructureError,
    canonical_structure,
    frob,
    metric_inverse,
    random_symmetric2,
    random_tensor4,
)

__version__ = "0.1.0"
