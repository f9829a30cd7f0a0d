"""Named verification checks run by the scenario harness.

Each check inspects one germ at its base point and returns CheckReports.
Every check reads the exact jets of one frame, the base frame, built once
per scenario: ``structure`` and ``levi_civita`` read its values and first
derivatives, and no check re-evaluates frames to difference them.  Checks
that sample random tensors (``dim4_round_trip``, ``pointwise_algebra``)
stack their samples and run each helper once over the stack.

``@check`` declares each check once and registers it in ``CHECKS``; one
function, ``drive``, runs every check.  The declaration lists the check's
residual keys, and the base tolerance of each key that has its own, in
``RESIDUALS``: scenario overrides are validated against it at load,
``drive`` builds each report's tolerances from it, and ``apmlab
list-checks`` prints it.  Theorem checks are implications: each hypothesis is
one entry of ``HYPOTHESES``, its skip reason, measured by the
``ScenarioContext`` member of its name.  The declaration names the check's
hypotheses in ``GATES``, each with the jet order it is read to, and
``drive`` evaluates them before the body, skipping on the first that fails.
A body raises ``Skip`` only for a degeneracy met partway through, as
``_ln_abs`` does for a scalar combination too close to zero.  Each quantity
two checks share has one home, a cached property of the context or of a
``ConnectionFrame``.
"""

from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from . import curvature as curv
from . import structure as struct
# d_scalar and one_form_exterior_fd run in no check: they stay bound here only
# because perfbench/tracing.py wraps both FD oracles as attributes of this module.
from .germs import (  # noqa: F401
    ChartGerm,
    ConnectionFrame,
    ConnectionParams,
    GermFrame,
    d_scalar,
    exterior_derivative,
    one_form_exterior_fd,
)
from .jetfields import JetTensor, jt_einsum
from .report import CheckReport
from .tensors import DEFAULT_TOL, einsum, frob, random_symmetric2, random_tensor2

# Tolerance ladder: pointwise algebra / first-derivative pipelines.
TOL_ALGEBRA = 1e-10
TOL_FIRST_DERIV = 1e-7

# Jet order of the base frame.  The tau-form checks take the exterior
# derivative of d(ln|tau-combination|), which needs Hessians of tau' and
# tau*'; ``ConnectionFrame.scalar_curvatures`` has those only from an
# order-4 metric jet.
BASE_ORDER = 4
# ln of a scalar combination closer to zero than this skips the check.
SINGULAR_FLOOR = 1e-10
# Relative threshold below which a Lee form's exterior derivative counts as zero.
CLOSED_TOL = 1e-8


class ScenarioContext:
    """A germ with the settings of one run; its frame and connections are built once.

    ``connections`` and ``tolerances`` left out are a new empty list and dict.
    Each hypothesis of ``HYPOTHESES`` is measured by the member of its name: a
    property of the germ, or a method ``(cf, order)`` of a connection frame.
    """

    def __init__(self, germ: ChartGerm, connections: list[ConnectionParams] | None = None,
                 seed: int = 0, expect_class: str | None = None, tolerances: dict | None = None,
                 tol_scale: float = 1.0):
        self.germ = germ
        self.connections = [] if connections is None else connections
        self.seed, self.expect_class = seed, expect_class
        self.tolerances = {} if tolerances is None else tolerances
        self.tol_scale = tol_scale
        self._connections: dict[ConnectionParams, ConnectionFrame] = {}

    @cached_property
    def frame(self) -> GermFrame:
        return self.germ.frame(order=BASE_ORDER)

    def connection(self, params: ConnectionParams) -> ConnectionFrame:
        """The base frame's connection ``params``, built once: checks share its T, R', tau'."""
        if params not in self._connections:
            self._connections[params] = self.frame.connection(params)
        return self._connections[params]

    @cached_property
    def curvature_invariants(self) -> curv.CurvatureInvariants:
        """tau and tau* of the Levi-Civita curvature at the base point."""
        return curv.curvature_invariants(self.frame.structure, self.frame.curvature.values)

    @cached_property
    def class_report(self) -> struct.ClassReport:
        return struct.classify_f(self.frame.structure, self.frame.f_tensor.values)

    def tol(self, base: float) -> float:
        return base * self.tol_scale

    @cached_property
    def closedness(self) -> dict[str, bool]:
        """``theta_closed``, ``theta_p_closed``: |d form| / max(1, |theta|) < tol(CLOSED_TOL)."""
        fr = self.frame
        scale, tol = max(1.0, frob(fr.theta.values)), self.tol(CLOSED_TOL)
        return {"theta_closed": frob(fr.d_theta) / scale < tol,
                "theta_p_closed": frob(fr.d_theta_p) / scale < tol}

    @cached_property
    def valid_structure(self) -> bool:
        """``PointStructure.require_valid``'s rule at the base point: DEFAULT_TOL, unscaled."""
        return all(v < DEFAULT_TOL for v in self.frame.structure.invariant_residuals().values())

    @cached_property
    def in_w1(self) -> bool:
        """The natural family's hypothesis: F is W1 or a subclass (W0, W3bar, W6bar)."""
        return self.class_report.label != struct.CLASS_OUTSIDE

    @cached_property
    def w1_outside_eigenclasses(self) -> bool:
        """The standing hypothesis: the germ is W1 but in neither W3bar nor W6bar."""
        cls = self.class_report
        scale = max(1.0, frob(cls.theta))
        return (cls.label == struct.CLASS_W1 and frob(cls.theta - cls.theta_p) / scale > 1e-6
                and frob(cls.theta + cls.theta_p) / scale > 1e-6)

    @cached_property
    def eigenclass(self) -> bool:
        """F is in W3bar or W6bar, where theta o P = +-theta."""
        return self.class_report.label in (struct.CLASS_W3BAR, struct.CLASS_W6BAR)

    def r_prime_p_tensor(self, cf: ConnectionFrame, order: int = 0) -> bool:
        """Whether R' of ``cf`` is a Riemannian P-tensor to jet ``order`` (0 or 1): its
        residual, then its ``p_tensor_defect`` (built only if needed), below tol(TOL_FIRST_DERIV).
        """
        tol = self.tol(TOL_FIRST_DERIV)
        return cf.p_tensor_residual < tol and (order < 1 or cf.p_tensor_defect < tol)

    def nondegenerate_connection(self, cf: ConnectionFrame, order: int = 0) -> bool:
        """Whether ``cf`` is a preset or generic connection; its case has no jet to read."""
        return cf.params.case(self.germ.n) != "degenerate"


# Hypothesis -> the skip reason of a check that declares it, when it fails.  Only
# r_prime_p_tensor is also recorded as a flag, by every report that evaluates it.
HYPOTHESES = {
    "valid_structure": "invalid almost product structure at the base point",
    "in_w1": "germ is not in W1 or a subclass",
    "w1_outside_eigenclasses": "germ is not a W1-manifold outside W3bar u W6bar",
    "eigenclass": "germ is not in W3bar u W6bar",
    "r_prime_p_tensor": "R' is not a Riemannian P-tensor",
    "nondegenerate_connection": "degenerate connection family",
}
DEGENERATE_SCALARS = "degenerate scalar curvatures"


class Skip(Exception):
    """A degeneracy a check meets partway through its computation; the message names it."""


def _require(ctx: ScenarioContext, report: CheckReport, gates: tuple, *args) -> None:
    """Raise Skip with the reason of the first of ``gates`` to fail; a key's gate skips nothing."""
    for hypothesis, order, key in gates:
        holds = getattr(ctx, hypothesis)
        if callable(holds):
            holds = holds(*args, order)
        if hypothesis == "r_prime_p_tensor":
            report.hypothesis_flags[hypothesis] = holds
        if not holds and key is None:
            raise Skip(HYPOTHESES[hypothesis])


def drive(ctx: ScenarioContext, name: str, base_tol: float, body,
          per_connection: bool = False, dim: int | None = None, records: tuple = ()
          ) -> list[CheckReport]:
    """Run check ``name``: one report ``name[label]`` per connection, or one ``name``.

    ``body(ctx, report)`` fills the report, or with ``per_connection``
    ``body(ctx, report, cf)`` that of each connection frame ``cf``, after
    ``records`` and the hypotheses ``GATES`` declares: the first (the structure
    gate), the dimension, then the rest.  A failing one, or a ``Skip`` raised
    by ``body``, skips the report with its reason; a germ whose dimension is
    not ``dim`` gets one bare-named report.  Every report, skipped ones
    included, carries the per-key tolerances ``name`` declares in
    ``RESIDUALS``, updated by the scenario's overrides of ``name``.  A
    residual key ``name`` does not declare raises RuntimeError.
    """
    off_dim = dim is not None and ctx.germ.dim != dim
    runs = [(name, ())]
    if per_connection and not off_dim:
        runs = [(f"{name}[{cp.label(ctx.germ.n)}]", (ctx.connection(cp),))
                for cp in ctx.connections]
    declared, gates = RESIDUALS[name], GATES.get(name, ())
    overrides = ctx.tolerances.get(name, {})
    own = {key: tol for key, tol in declared.items() if tol is not None}
    tolerances = {key: ctx.tol(tol) for key, tol in {**own, **overrides}.items() if key != "*"}
    reports = []
    for label, args in runs:
        report = CheckReport(name=label, tol=ctx.tol(overrides.get("*", base_tol)),
                             tolerances=dict(tolerances))
        if "closedness" in records:
            report.hypothesis_flags.update(ctx.closedness)
        if "case" in records:
            report.notes.append(f"case={args[0].params.case(ctx.germ.n)}")
        try:
            _require(ctx, report, gates[:1], *args)
            if off_dim:
                raise Skip(f"dimension is not {dim}")
            _require(ctx, report, gates[1:], *args)
            body(ctx, report, *args)
        except Skip as exc:
            report.skip(str(exc))
        undeclared = sorted(report.residuals.keys() - declared.keys())
        if undeclared:
            raise RuntimeError(f"check {name} wrote undeclared residuals {undeclared}")
        reports.append(report.finalize())
    return reports


# name -> (fn(ctx) -> reports, description), in declaration order.
CHECKS: dict = {}
# name -> {residual key: the key's own base tolerance, or None}, kept apart from
# CHECKS, whose entries perfbench/tracing.py swaps during a traced run.
RESIDUALS: dict[str, dict[str, float | None]] = {}
# name -> the check's hypotheses, each (hypothesis, jet order, residual key or None).
GATES: dict[str, tuple] = {}
# The checks that write one report per connection, and none without one.
PER_CONNECTION: set[str] = set()


def check(name: str, base_tol: float, description: str, *, residuals: tuple,
          hypotheses: tuple = (), records: tuple = (), per_connection: bool = False,
          dim: int | None = None):
    """Register the decorated body as check ``name`` in ``CHECKS``, run by ``drive``.

    ``residuals`` lists every key the body can write, over all its branches; a
    ``(key, tol)`` pair gives that key its own base tolerance.  ``hypotheses``
    names entries of ``HYPOTHESES`` in order: a name is read at the base
    point, ``(name, order)`` to jet order ``order``, and ``(name, order,
    key)`` guards the residual ``key`` alone.  ``records`` is what ``drive``
    writes first: "closedness", the Lee-form flags, and "case", the
    connection's ``case=`` note.  The decorated name is bound to ``fn(ctx)``.
    """

    def declare(body):
        RESIDUALS[name] = dict(key if isinstance(key, tuple) else (key, None) for key in residuals)
        entries = ((h,) if isinstance(h, str) else h for h in hypotheses)
        GATES[name] = tuple(entry + (0, None)[len(entry) - 1:] for entry in entries)
        if per_connection:
            PER_CONNECTION.add(name)
        run = wraps(body)(lambda ctx: drive(ctx, name, base_tol, body, per_connection, dim,
                                            records))
        CHECKS[name] = (run, description)
        return run

    return declare


# ---------------------------------------------------------------------------
# basic checks


@check("structure", TOL_ALGEBRA, "Structure invariants and their first derivatives",
       residuals=("p_squared", "compatibility", "trace_p", "g_symmetry", "g_positivity",
                  "g_inverse"))
def check_structure(ctx: ScenarioContext, report: CheckReport):
    """The invariants of (g, P) at the base point, and those that are identities
    of the fields also to first order: each of those is the largest over the
    values and first derivatives of P o P - I, P^T g P - g, trace P and g - g^T.
    """
    fr = ctx.frame
    g, p = fr.g.truncated(1), fr.p.truncated(1)
    g_scale = max(1.0, frob(g.values))
    derivatives = {  # the identity of P o P - I drops out of the first derivatives
        "p_squared": jt_einsum("ij,jk->ik", p, p),
        "compatibility": jt_einsum("mi,mk->ik", p, jt_einsum("mj,jk->mk", g, p)) - g,
        "trace_p": p.transpose("ii->"),
        "g_symmetry": g - g.transpose("ji->ij"),
    }
    for key, value in fr.structure.invariant_residuals().items():
        if key in derivatives:
            scale = g_scale if key in ("compatibility", "g_symmetry") else 1.0
            value = max(value, frob(derivatives[key].data[1]) / scale)
        report.residuals[key] = value


@check("classification", 1e-9, "F symmetries, W-class label and Lee-form closedness",
       residuals=("f_last_two_symmetry", "f_double_p_skew", "f_single_p_skew"),
       hypotheses=("valid_structure",), records=("closedness",))
def check_classification(ctx: ScenarioContext, report: CheckReport):
    """F symmetries, class label and Lee-form closedness: the germ-level hypotheses."""
    fr = ctx.frame
    scale = max(1.0, frob(fr.f_tensor.values))
    for key, value in struct.f_symmetry_residuals(fr.structure, fr.f_tensor.values).items():
        report.residuals[f"f_{key}"] = value / scale
    cls = ctx.class_report
    report.scalars.update({"theta_norm": frob(cls.theta), "d_theta_norm": frob(fr.d_theta),
                           "d_theta_p_norm": frob(fr.d_theta_p)})
    report.notes.append(f"label={cls.label}")
    for name, value in cls.as_dict()["residuals"].items():
        report.scalars[f"class_residual_{name}"] = value
    if ctx.expect_class is not None and cls.label != ctx.expect_class:
        report.status = "fail"
        report.notes.append(f"expected class {ctx.expect_class}")


@check("levi_civita", TOL_ALGEBRA, "Torsion-free metric connection residuals",
       residuals=("torsion_free", "metric_parallel"), hypotheses=("valid_structure",))
def check_levi_civita(ctx: ScenarioContext, report: CheckReport):
    """Gamma is symmetric and g parallel, to first order at the base point."""
    fr = ctx.frame
    gamma = fr.christoffel.truncated(1)
    report.residuals["torsion_free"] = max(
        frob(level) for level in (gamma - gamma.transpose("mji->mij")).data)
    report.residuals["metric_parallel"] = fr.metric_parallel_residual(gamma)


@check("curvature_like", 1e-9, "Curvature identities of the Levi-Civita tensor",
       residuals=("first_pair_skew", "last_pair_skew", "first_bianchi", "pair_symmetry"),
       hypotheses=("valid_structure",))
def check_curvature_like(ctx: ScenarioContext, report: CheckReport):
    r = ctx.frame.curvature.values
    report.residuals.update(curv.curvature_like_residuals(r))
    report.residuals["pair_symmetry"] = frob(r - r.transpose(2, 3, 0, 1))
    inv = ctx.curvature_invariants
    report.scalars.update({"tau": inv.tau, "tau_star": inv.tau_star})


# ---------------------------------------------------------------------------
# connection checks


def _transfer_correction(ctx: ScenarioContext, cf: ConnectionFrame) -> np.ndarray:
    """g(p,p) pi1 + g(q,q) pi2 + g(p,q) pi3 + psi1(S') + psi2(S''): R' - R."""
    pi1, pi2, pi3 = curv.pi_tensors(ctx.frame.structure)
    tr = cf.transfer
    return tr["g_pp"] * pi1 + tr["g_qq"] * pi2 + tr["g_pq"] * pi3 + cf.transfer_psi


@check("natural_connection", TOL_ALGEBRA, "Torsion family and parallelism residuals",
       residuals=(("torsion_match", 1e-12), "metric_parallel", ("structure_parallel", 1e-8),
                  ("torsion_p_identity", 1e-12), "explicit_formula"),
       hypotheses=("valid_structure", ("in_w1", 0, "structure_parallel")), per_connection=True)
def check_natural_connection(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    fr = ctx.frame
    eye = np.eye(ctx.germ.dim)
    report.residuals["torsion_match"] = cf.torsion_residual()
    report.residuals["metric_parallel"] = cf.metric_parallel_residual()
    # P is parallel for the family only on W1; the other residuals hold on any germ.
    if ctx.in_w1:
        report.residuals["structure_parallel"] = cf.structure_parallel_residual()
    else:
        report.notes.append(f"structure parallelism skipped: {HYPOTHESES['in_w1']}")

    # T(x,y) - P T(Px,y) = {th(Px) y - th(x) Py} / 2n, for every (lam, mu);
    # P T(Px,y) is P T P on the slots m, i of T^m_ij, moved last.
    tm = cf.torsion_mixed
    pv = fr.p.values
    lhs = tm - (pv @ tm.transpose(2, 0, 1) @ pv).transpose(1, 2, 0)
    rhs = (einsum("i,mj->mij", fr.theta_p.values, eye)
           - einsum("i,mj->mij", fr.theta.values, pv)) / (2 * fr.n)
    report.residuals["torsion_p_identity"] = frob(lhs - rhs)

    case = cf.params.case(fr.n)
    if case == "D":
        expl = fr.christoffel.values + (einsum("ij,k->kij", fr.g.values, pv @ fr.omega.values)
                                        - einsum("j,ki->kij", fr.theta_p.values, eye)) / (2 * fr.n)
        report.residuals["explicit_formula"] = frob(cf.gamma.values - expl)
    elif case == "D_tilde":
        # Diagnostic only: the printed formula read with a vector-valued
        # last term, g(y,Pz) Omega.
        expl = fr.christoffel.values + (
            einsum("j,ki->kij", fr.theta.values, pv)
            - einsum("ij,k->kij", fr.g_assoc.values, fr.omega.values)
        ) / (2 * fr.n)
        report.scalars["corrected_formula_residual"] = frob(cf.gamma.values - expl)


@check("curvature_relation", TOL_FIRST_DERIV, "Curvature transfer between connections",
       residuals=("curvature_relation",), hypotheses=("valid_structure", "in_w1"),
       per_connection=True)
def check_curvature_relation(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    """Reconstruction of the Levi-Civita curvature from a natural connection."""
    rebuilt = cf.curvature.values - _transfer_correction(ctx, cf)
    report.residuals["curvature_relation"] = frob(ctx.frame.curvature.values - rebuilt)
    report.scalars.update({key: cf.transfer[key] for key in ("g_pp", "g_qq", "g_pq")})


@check("p_tensor_cases", TOL_FIRST_DERIV, "Which connections give Riemannian P-tensors",
       residuals=("p_tensor", "p_tensor_refuted_margin"),
       hypotheses=("valid_structure", "w1_outside_eigenclasses"), records=("closedness", "case"),
       per_connection=True)
def check_p_tensor_cases(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    """Case analysis of which natural connections make R' a Riemannian P-tensor.

    Standing hypothesis: the germ is W1 but not in W3bar u W6bar.  The
    closedness profile of the Lee forms fixes what each case claims: D gives
    a P-tensor exactly when only theta o P is closed, D_tilde exactly when
    only theta is, the generic family exactly when both are.  A degenerate
    connection (on the conic lambda^2 = mu^2 + mu/2n, but neither preset)
    cannot give one when exactly one form is closed, since D or D_tilde is
    then the only such connection; otherwise it carries no claim.  A claimed
    P-tensor asserts R''s P-tensor residual; a forbidden one fails when R'
    passes ``ScenarioContext.r_prime_p_tensor`` to order 0.  Refutations are
    skipped when they would be vacuous: a vanishing R' satisfies every
    P-tensor identity, and with both Lee forms closed the preset connections
    themselves carry P-tensor curvature (the conformal family over a flat
    product realizes this).
    """
    theta_closed, theta_p_closed = ctx.closedness["theta_closed"], ctx.closedness["theta_p_closed"]
    expected = {
        "D": (not theta_closed) and theta_p_closed,
        "D_tilde": theta_closed and not theta_p_closed,
        "generic": theta_closed and theta_p_closed,
        "degenerate": False if theta_closed != theta_p_closed else None,
    }
    residual, curvature_scale = cf.p_tensor_residual, frob(cf.curvature.values)
    report.scalars.update({"p_tensor_residual": residual, "r_prime_norm": curvature_scale})
    claim = expected[cf.params.case(ctx.germ.n)]
    if claim is None:
        report.notes.append("degenerate case: necessary condition only")
    elif claim:
        report.residuals["p_tensor"] = residual
        report.notes.append("closedness profile implies a P-tensor")
    elif curvature_scale < 1e-10:
        raise Skip("refutation vacuous: R' vanishes")
    elif theta_closed and theta_p_closed:  # only D and D_tilde are refuted here
        raise Skip("preset refutation degenerate: both Lee forms closed")
    else:
        report.residuals["p_tensor_refuted_margin"] = float(ctx.r_prime_p_tensor(cf))
        report.notes.append("closedness profile forbids a P-tensor")


@check("second_bianchi", 1e-6, "Differential curvature identities",
       residuals=("cyclic_identity", "p_twisted_identity"),
       hypotheses=("valid_structure", ("r_prime_p_tensor", 1, "p_twisted_identity")),
       per_connection=True)
def check_second_bianchi(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    """Differential identities of R': the cyclic (second Bianchi) identity holds
    for every connection of the family, the P-twisted one where R' is a P-tensor.
    """
    fr = ctx.frame
    pv = fr.p.values
    nr = cf.nabla_curvature
    rv = cf.curvature.values
    b = nr + einsum("ami,ajkl->mijkl", cf.torsion_mixed, rv)
    cyc = b + b.transpose(2, 0, 1, 3, 4) + b.transpose(1, 2, 0, 3, 4)
    report.residuals["cyclic_identity"] = frob(cyc)

    if report.hypothesis_flags["r_prime_p_tensor"]:
        # R'(x,Py,z,w), and (grad_{Pm} R')(.,.,.,Pl) with the slots m, l moved last.
        r_pz = (rv.swapaxes(1, 3) @ pv).swapaxes(1, 3)
        derived = (nr - (pv.T @ nr.transpose(1, 2, 3, 0, 4) @ pv).transpose(3, 0, 1, 2, 4)
                   + (einsum("m,ijkl->mijkl", fr.theta_p.values, rv)
                      - einsum("m,ijkl->mijkl", fr.theta.values, r_pz)) / fr.n)
        report.residuals["p_twisted_identity"] = frob(derived)
    else:
        report.notes.append("P-twisted identity skipped: R' is not a P-tensor")


@check("scalar_system", TOL_FIRST_DERIV, "Linear system for the Lee forms",
       residuals=("system_direct", "system_p_substituted"),
       hypotheses=("valid_structure", ("r_prime_p_tensor", 1)), per_connection=True)
def check_scalar_system(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    """The linear system tying the Lee forms to the scalar curvatures of R'."""
    fr = ctx.frame
    pv = fr.p.values
    theta, theta_p = fr.theta.values, fr.theta_p.values
    tau, tau_star = float(cf.tau.values), float(cf.tau_star.values)
    d_tau, d_tau_star = cf.tau.data[1], cf.tau_star.data[1]
    r_direct = d_tau - d_tau_star @ pv + (theta_p * tau - theta * tau_star) / fr.n
    r_swapped = d_tau @ pv - d_tau_star + (theta * tau - theta_p * tau_star) / fr.n
    report.residuals["system_direct"] = frob(r_direct)
    report.residuals["system_p_substituted"] = frob(r_swapped)
    report.scalars.update({"tau_prime": tau, "tau_star_prime": tau_star,
                           "delta": tau_star**2 - tau**2})


# ---------------------------------------------------------------------------
# Lee-form recovery from the scalar curvatures of R' (exact jets)


def _ln_abs(u: JetTensor) -> JetTensor:
    value = float(u.values)
    if abs(value) < SINGULAR_FLOOR:
        raise Skip("singular scalar combination")
    return u.scaled(np.sign(value)).ln()


def _d_p_form(phi: JetTensor, fr: GermFrame) -> np.ndarray:
    """d of the 1-form (d phi) o P."""
    return exterior_derivative(jt_einsum("m,mj->j", phi.partial(), fr.p))


def _tau_branch(cf: ConnectionFrame) -> float:
    """eps with tau*' = eps tau' != 0 for the R' of ``cf``, or 0.0 if |tau*'| != |tau'|.

    Skips when both scalar curvatures vanish.
    """
    tau, tau_star = float(cf.tau.values), float(cf.tau_star.values)
    if abs(abs(tau_star) - abs(tau)) > 1e-8 * max(1.0, abs(tau), abs(tau_star)):
        return 0.0
    if not abs(tau) > 1e-8:
        raise Skip(DEGENERATE_SCALARS)
    return 1.0 if tau_star * tau > 0 else -1.0


@check("lee_recovery", TOL_FIRST_DERIV, "Lee form from scalar curvatures",
       residuals=("theta_recovery", "theta_p_recovery", "equal_magnitude_combination"),
       hypotheses=("valid_structure", "w1_outside_eigenclasses", ("r_prime_p_tensor", 1)),
       per_connection=True)
def check_lee_recovery(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    """Recovery of the Lee form from the scalar curvatures of R'.

    With Delta = tau*'^2 - tau'^2 nonzero the solution of the linear system
    expresses theta through d ln of two tau-combinations.  With Delta = 0 and
    tau*' = eps tau' != 0 the system gives only the combination

        theta o P - eps theta = -n {d ln|tau'| - eps d ln|tau'| o P}.
    """
    fr = ctx.frame
    pv = fr.p.values
    theta, theta_p = fr.theta.values, fr.theta_p.values
    n = fr.n
    theta_scale = max(1e-10, frob(theta))
    t, ts = cf.tau, cf.tau_star
    tau, tau_star = float(t.values), float(ts.values)
    report.scalars.update({"tau_prime": tau, "tau_star_prime": tau_star,
                           "delta": tau_star**2 - tau**2})
    eps = _tau_branch(cf)
    if not eps:
        grad_ratio = (_ln_abs(ts + t) - _ln_abs(ts - t)).data[1]
        grad_delta = _ln_abs(ts * ts - t * t).data[1]
        theta_rec = 0.5 * n * (grad_ratio - grad_delta @ pv)
        theta_p_rec = 0.5 * n * (grad_ratio @ pv - grad_delta)
        report.residuals["theta_recovery"] = frob(theta_rec - theta) / theta_scale
        report.residuals["theta_p_recovery"] = frob(theta_p_rec - theta_p) / theta_scale
    else:
        grad_ln_tau = _ln_abs(t).data[1]
        resid = (theta_p - eps * theta) + n * (grad_ln_tau - eps * (grad_ln_tau @ pv))
        report.residuals["equal_magnitude_combination"] = frob(resid) / theta_scale


@check("tau_form_closedness", TOL_FIRST_DERIV, "Closedness of tau-combination forms",
       residuals=("ratio_form_closed", "delta_form_closed", "ln_tau_form_closed",
                  "d_theta_match", "d_theta_p_match"),
       hypotheses=("valid_structure", "w1_outside_eigenclasses", ("r_prime_p_tensor", 1),
                   "nondegenerate_connection"),
       records=("case",), per_connection=True)
def check_tau_form_closedness(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    """Closedness of the P-composed tau-combination forms per connection case.

    With |tau*'| != |tau'| the ratio form ln|(tau*' + tau')/(tau*' - tau')|
    (D and generic) and the delta form ln|tau*'^2 - tau'^2| (D_tilde and
    generic) are closed after composing their differential with P.  With
    tau*' = eps tau' != 0, d of the combination checked by ``lee_recovery``
    gives d(theta o P) - eps d theta = eps n d(d ln|tau'| o P).  So d theta is
    -n d(d ln|tau'| o P) for D (theta o P closed), d(theta o P) is
    eps n d(d ln|tau'| o P) for D_tilde (theta closed), and
    d(d ln|tau'| o P) is zero for generic (both closed).
    """
    fr = ctx.frame
    n = fr.n
    case = cf.params.case(n)
    eps = _tau_branch(cf)
    t, ts = cf.scalar_curvatures  # with their Hessians, built here on first read
    if not eps:
        if case != "D_tilde":
            ratio = _ln_abs(ts + t) - _ln_abs(ts - t)
            report.residuals["ratio_form_closed"] = frob(_d_p_form(ratio, fr))
        if case != "D":
            delta = _ln_abs(ts * ts - t * t)
            report.residuals["delta_form_closed"] = frob(_d_p_form(delta, fr))
        return
    d_form = _d_p_form(_ln_abs(t), fr)
    if case == "generic":
        report.residuals["ln_tau_form_closed"] = frob(d_form)
    elif case == "D":
        report.residuals["d_theta_match"] = frob(fr.d_theta + n * d_form)
    else:
        report.residuals["d_theta_p_match"] = frob(fr.d_theta_p - eps * n * d_form)


@check("eigenclass_lee_recovery", TOL_FIRST_DERIV, "Lee-form formulas inside W3bar / W6bar",
       residuals=("lee_scalar_identity", "theta_recovery", "difference_form_closed",
                  "sum_form_closed", "tau_form_closed"),
       hypotheses=("valid_structure", "eigenclass", ("r_prime_p_tensor", 1)), per_connection=True)
def check_eigenclass_lee_recovery(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    """Lee-form recovery formulas for germs inside W3bar or W6bar.

    With sign = +1 on W3bar and -1 on W6bar, and |tau*'| != |tau'|,
    theta = sign n/2 {d phi - sign d phi o P} for phi = ln|tau*' + sign tau'|,
    and tau*' - sign tau' has a closed P-composed differential.  With
    tau*' = sign tau' != 0 the same recovery holds for phi = ln|tau'|: it is
    the ``lee_recovery`` combination with eps = sign, on theta o P = -sign theta.
    """
    fr = ctx.frame
    pv = fr.p.values
    theta = fr.theta.values
    n = fr.n
    sign = 1.0 if ctx.class_report.label == struct.CLASS_W3BAR else -1.0
    t, ts = cf.tau, cf.tau_star
    tau, tau_star = float(t.values), float(ts.values)
    report.scalars.update({"tau_prime": tau, "tau_star_prime": tau_star})
    if sign > 0:
        # theta (tau*' + tau') = n {d tau*'(x) - d tau'(Px)}
        resid = theta * (tau_star + tau) - n * (ts.data[1] - t.data[1] @ pv)
        scale = max(1.0, abs(tau) + abs(tau_star))
        report.residuals["lee_scalar_identity"] = frob(resid) / scale
    eps = _tau_branch(cf)
    if not eps or eps == sign:
        # phi = ln|tau*' + sign tau'|, or ln|tau'| when tau*' = sign tau'
        grad = _ln_abs(t if eps else ts + t.scaled(sign)).data[1]
        rec = 0.5 * sign * n * (grad - sign * (grad @ pv))
        report.residuals["theta_recovery"] = frob(rec - theta) / max(1e-10, frob(theta))
    if not eps:
        closed_key = "difference_form_closed" if sign > 0 else "sum_form_closed"
        t, ts = cf.scalar_curvatures
        report.residuals[closed_key] = frob(_d_p_form(ts - t.scaled(sign), fr))
    elif sign < 0 or eps != sign:  # W6bar, or W3bar with tau*' = -tau'
        report.residuals["tau_form_closed"] = frob(_d_p_form(cf.scalar_curvatures[0], fr))


# ---------------------------------------------------------------------------
# dimension-4 suite


# One coefficient row per preset connection: the index of the pi tensor that
# carries theta(omega) / 16, the coefficient of theta(omega) in tau - tau', and
# those of (div(P omega), theta(omega)) in tau' - tau and of
# (div(omega), theta(P omega)) in tau*' - tau*.  S'' vanishes for D, so the
# S'' terms of the formulas hold for both presets.
_DIM4_PRESETS = {
    "D": (0, -0.75, (1.5, 9 / 8), (0.5, -3 / 8)),
    "D_tilde": (1, 0.25, (0.5, 5 / 8), (-0.5, 1 / 8)),
}

# The trace identities of dim4_traces, one per residual: the preset
# connection, the trace of its transfer tensor, and the coefficients of the
# germ scalars whose combination that trace equals.
_DIM4_TRACES = {
    "d_tr_s_prime": ("D", "tr_s_prime", {"div_p_omega": 1 / 4, "theta_omega": 1 / 16}),
    "d_tr_s_prime_assoc": ("D", "tr_s_prime_assoc", {"div_omega": 1 / 4, "theta_p_omega": -3 / 16}),
    "dt_tr_s_prime": ("D_tilde", "tr_s_prime", {"theta_omega": 1 / 16}),
    "dt_tr_s_prime_assoc": ("D_tilde", "tr_s_prime_assoc", {"theta_p_omega": 1 / 16}),
    "dt_tr_s_dprime": ("D_tilde", "tr_s_dprime", {"div_p_omega": -1 / 4, "theta_omega": -1 / 4}),
    "dt_tr_s_dprime_assoc": ("D_tilde", "tr_s_dprime_assoc", {"div_omega": -1 / 4}),
}


@check("dim4_traces", 1e-5, "Unconditional dim-4 trace identities",
       residuals=tuple(_DIM4_TRACES), hypotheses=("valid_structure",), dim=4)
def check_dim4_traces(ctx: ScenarioContext, report: CheckReport):
    """Trace identities of the transfer tensors for the two preset connections: they
    hold on every 4-dimensional W1 germ, independent of any curvature hypothesis.
    """
    presets = {"D": ConnectionParams.d(), "D_tilde": ConnectionParams.d_tilde(2)}
    scalars = {case: ctx.connection(cp).trace_scalars for case, cp in presets.items()}
    for key, (case, trace, coefficients) in _DIM4_TRACES.items():
        s = scalars[case]
        report.residuals[key] = abs(s[trace] - sum(c * s[k] for k, c in coefficients.items()))


@check("dim4_reconstruction", 1e-6, "Dim-4 curvature reconstruction from scalar curvatures",
       residuals=("curvature_from_scalars", "preset_reconstruction", "tau_transfer",
                  "tau_star_transfer", "tau_from_traces", "tau_star_from_traces",
                  "final_display"),
       hypotheses=("valid_structure", ("r_prime_p_tensor", 0), "in_w1"), per_connection=True,
       dim=4)
def check_dim4_reconstruction(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame):
    """Levi-Civita curvature reconstructed from R' scalar curvatures (dim 4), on W1,
    where the R -> R' transfer it reads is derived; the preset connections also
    verify their explicit trace and scalar-curvature relations.
    """
    fr = ctx.frame
    pis = curv.pi_tensors(fr.structure)
    r = fr.curvature.values
    tau_p, tau_star_p = float(cf.tau.values), float(cf.tau_star.values)
    from_scalars = curv.dim4_from_scalars(pis, tau_p, tau_star_p)
    rebuilt = from_scalars - _transfer_correction(ctx, cf)
    report.residuals["curvature_from_scalars"] = frob(r - rebuilt)
    if cf.params.case(fr.n) not in _DIM4_PRESETS:
        return
    k, c, (a, b), (a_star, b_star) = _DIM4_PRESETS[cf.params.case(fr.n)]
    s = cf.trace_scalars
    inv_r = ctx.curvature_invariants
    correction = s["theta_omega"] / 16 * pis[k] + cf.transfer_psi
    rebuilt = from_scalars - correction
    report.residuals["preset_reconstruction"] = frob(r - rebuilt)
    tau = tau_p + c * s["theta_omega"] - 6 * s["tr_s_prime"] + 2 * s["tr_s_dprime"]
    tau_star = tau_star_p - 2 * s["tr_s_prime_assoc"] - 2 * s["tr_s_dprime_assoc"]
    report.residuals["tau_transfer"] = abs(inv_r.tau - tau)
    report.residuals["tau_star_transfer"] = abs(inv_r.tau_star - tau_star)
    tau_traces = inv_r.tau + a * s["div_p_omega"] + b * s["theta_omega"]
    tau_star_traces = inv_r.tau_star + a_star * s["div_omega"] + b_star * s["theta_p_omega"]
    report.residuals["tau_from_traces"] = abs(tau_p - tau_traces)
    report.residuals["tau_star_from_traces"] = abs(tau_star_p - tau_star_traces)
    final = curv.dim4_from_scalars(pis, tau_traces, tau_star_traces) - correction
    report.residuals["final_display"] = frob(r - final)


@check("dim4_round_trip", TOL_ALGEBRA, "Random P-tensors rebuilt from their scalar curvatures",
       residuals=("round_trip",), hypotheses=("valid_structure",), dim=4)
def check_dim4_round_trip(ctx: ScenarioContext, report: CheckReport):
    """Random Riemannian P-tensors rebuilt from their scalar curvatures.

    In dimension 4 a Riemannian P-tensor L is {tau (pi1 + pi2) + tau* pi3} / 8
    with tau, tau* its scalar curvatures; ``decompose_dim4`` returns the
    distance of L from that rebuild.
    """
    ps = ctx.frame.structure
    samples = curv.random_p_tensor(ps, range(ctx.seed * 1000, ctx.seed * 1000 + 5))
    report.residuals["round_trip"] = float(np.max(curv.decompose_dim4(ps, samples)[2]))


@check("pointwise_algebra", 1e-12, "psi/pi identities at the base structure",
       residuals=("psi1_symmetric_curvature_like", "psi2_p_twist_identity", "pi_sum_p_tensor",
                  "pi3_p_tensor", "psi1_g_is_two_pi1", "psi1_asymmetric_detected"),
       hypotheses=("valid_structure",))
def check_pointwise_algebra(ctx: ScenarioContext, report: CheckReport):
    """psi/pi identities at the germ's point structure, over five seeded samples at once."""
    ps = ctx.frame.structure
    seed = ctx.seed * 100
    s_sym = random_symmetric2(ps.dim, range(seed, seed + 5))
    s_any = random_tensor2(ps.dim, range(seed + 7, seed + 12))
    psi1_any = curv.psi1(ps, s_any)
    twisted = curv.p_twist(ps, curv.psi2(ps, s_any))
    # Per sample: the worst curvature-like residual of psi1(S) for S not symmetric.
    asym_worst = np.max(list(curv.curvature_like_residuals(psi1_any).values()), axis=0)
    asymmetric = frob(s_any - s_any.transpose(0, 2, 1), 2) > 1e-6
    min_asym = np.min(asym_worst[asymmetric], initial=np.inf)
    pi1, pi2, pi3 = curv.pi_tensors(ps)
    report.residuals["psi1_symmetric_curvature_like"] = float(
        np.max(list(curv.curvature_like_residuals(curv.psi1(ps, s_sym)).values())))
    report.residuals["psi2_p_twist_identity"] = float(np.max(frob(twisted - psi1_any, 4)))
    report.residuals["pi_sum_p_tensor"] = max(curv.p_tensor_residuals(ps, pi1 + pi2).values())
    report.residuals["pi3_p_tensor"] = max(curv.p_tensor_residuals(ps, pi3).values())
    # 2 pi1 = 2{g(y,z) g(x,w) - g(x,z) g(y,w)}, built without psi1.
    gg = einsum("yz,xw->xyzw", ps.g, ps.g)
    report.residuals["psi1_g_is_two_pi1"] = frob(curv.psi1(ps, ps.g) - 2 * (gg - gg.swapaxes(0, 1)))
    if min_asym < 1e-6:
        report.residuals["psi1_asymmetric_detected"] = 1.0


def run_checks(ctx: ScenarioContext, names: list[str] | None = None) -> list[CheckReport]:
    reports: list[CheckReport] = []
    for name in CHECKS if names is None else names:
        reports.extend(CHECKS[name][0](ctx))
    return reports
