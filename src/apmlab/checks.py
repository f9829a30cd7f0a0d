"""Named verification checks run by the scenario harness.

Each check inspects one germ at its base point and returns CheckReports.
Derivatives come from the exact jets of one base frame; only
``levi_civita`` samples neighbouring points, and only ``lee_closedness``
differences re-evaluated frames, as an independent oracle.  Theorem checks are
implication-structured: numeric hypothesis flags are computed first and the
conclusion is asserted only when the hypotheses hold; otherwise the check is
skipped, carrying the violated hypothesis by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import curvature as curv
from . import structure as struct
# d_scalar is unused here but stays bound: perfbench/tracing.py wraps both FD names.
from .germs import (  # noqa: F401
    ChartGerm,
    ConnectionFrame,
    ConnectionParams,
    GermFrame,
    d_scalar,
    one_form_exterior_fd,
)
from .jetfields import JetTensor, jt_einsum
from .report import CheckReport
from .tensors import frob, random_tensor2, random_vector

# Tolerance ladder: pointwise algebra / first-derivative pipelines.
TOL_ALGEBRA = 1e-10
TOL_FIRST_DERIV = 1e-7

# Jet order of the base frame.  The tau-form checks take the exterior
# derivative of d(ln|tau-combination|), which needs Hessians of tau' and
# tau*'; R' keeps those only from an order-4 metric jet.
BASE_ORDER = 4
# ln of a scalar combination closer to zero than this skips the check.
SINGULAR_FLOOR = 1e-10

# Residual above which "R' is a Riemannian P-tensor" is considered refuted.
P_TENSOR_FAIL_FLOOR = 1e-3
# Relative threshold below which a 1-form is accepted as closed.
CLOSED_TOL = 1e-8


@dataclass
class ScenarioContext:
    germ: ChartGerm
    point: np.ndarray
    connections: list[ConnectionParams] = field(default_factory=list)
    seed: int = 0
    expect_class: str | None = None
    tolerances: dict = field(default_factory=dict)
    tol_scale: float = 1.0
    _held: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def frame(self) -> GermFrame:
        return self.germ.frame(self.point, order=BASE_ORDER)

    def connection(self, params: ConnectionParams) -> ConnectionFrame:
        """The base frame's connection ``params``, held for the life of the context.

        The frame refers to its connections weakly; holding them here lets
        every check reuse one torsion, R' and tau' per connection.
        """
        return self._held.setdefault(params, self.frame.connection(params))

    @cached_property
    def class_report(self) -> struct.ClassReport:
        return struct.classify_f(self.frame.structure, self.frame.f_tensor.values)

    def tol(self, base: float) -> float:
        return base * self.tol_scale

    def new_report(self, name: str, base_tol: float) -> CheckReport:
        report = CheckReport(name=name, tol=self.tol(base_tol))
        for key, value in self.tolerances.get(name.split("[")[0], {}).items():
            if key == "*":
                report.tol = value * self.tol_scale
            else:
                report.tolerances[key] = value * self.tol_scale
        return report

    def not_in_eigenclasses(self) -> bool:
        theta, theta_p = self.class_report.theta, self.class_report.theta_p
        scale = max(1.0, frob(theta))
        return (
            frob(theta - theta_p) / scale > 1e-6
            and frob(theta + theta_p) / scale > 1e-6
        )


def _closed_tol(ctx: ScenarioContext) -> float:
    return CLOSED_TOL * ctx.tol_scale


def _p_tensor_residuals(ctx: ScenarioContext, cf: ConnectionFrame) -> dict[str, float]:
    res = curv.curvature_like_residuals(cf.curvature.values)
    res["p_invariance"] = curv.p_invariance_residual(ctx.frame.structure, cf.curvature.values)
    return res


# ---------------------------------------------------------------------------
# basic checks


def check_structure(ctx: ScenarioContext) -> list[CheckReport]:
    report = ctx.new_report("structure", TOL_ALGEBRA)
    report.residuals.update(ctx.germ.validate(seed=ctx.seed))
    return [report.finalize()]


def check_classification(ctx: ScenarioContext) -> list[CheckReport]:
    report = ctx.new_report("classification", 1e-9)
    fr = ctx.frame
    scale = max(1.0, frob(fr.f_tensor.values))
    for key, value in struct.f_symmetry_residuals(fr.structure, fr.f_tensor.values).items():
        report.residuals[f"f_{key}"] = value / scale
    cls = ctx.class_report
    report.scalars["theta_norm"] = frob(cls.theta)
    report.notes.append(f"label={cls.label}")
    for name, value in cls.as_dict()["residuals"].items():
        report.scalars[f"class_residual_{name}"] = value
    if ctx.expect_class is not None and cls.label != ctx.expect_class:
        report.status = "fail"
        report.notes.append(f"expected class {ctx.expect_class}")
    return [report.finalize()]


def check_levi_civita(ctx: ScenarioContext) -> list[CheckReport]:
    report = ctx.new_report("levi_civita", TOL_ALGEBRA)
    rng = np.random.default_rng(ctx.seed)
    points = [ctx.point] + [
        ctx.point + rng.uniform(-0.05, 0.05, size=ctx.germ.dim) for _ in range(9)
    ]
    worst_sym = worst_metric = 0.0
    for pt in points:
        fr = ctx.germ.frame(pt, order=2)
        gamma = fr.christoffel.values
        worst_sym = max(worst_sym, frob(gamma - gamma.transpose(0, 2, 1)))
        dg = fr.g.partial().values
        nabla_g = (
            np.einsum("ijk->kij", dg)
            - np.einsum("mki,mj->kij", gamma, fr.g.values)
            - np.einsum("mkj,im->kij", gamma, fr.g.values)
        )
        worst_metric = max(worst_metric, frob(nabla_g))
    report.residuals["torsion_free"] = worst_sym
    report.residuals["metric_parallel"] = worst_metric
    return [report.finalize()]


def check_curvature_like(ctx: ScenarioContext) -> list[CheckReport]:
    report = ctx.new_report("curvature_like", 1e-9)
    r = ctx.frame.curvature.values
    report.residuals.update(curv.curvature_like_residuals(r))
    report.residuals["pair_symmetry"] = frob(r - np.einsum("klij->ijkl", r))
    inv = curv.curvature_invariants(ctx.frame.structure, r)
    report.scalars.update({"tau": inv.tau, "tau_star": inv.tau_star})
    return [report.finalize()]


def check_lee_closedness(ctx: ScenarioContext) -> list[CheckReport]:
    """Exterior derivatives of the Lee form from jets against an FD oracle."""
    report = ctx.new_report("lee_closedness", 1e-6)
    fr = ctx.frame
    germ = ctx.germ

    def theta_field(pt):
        return germ.frame(pt, order=1).theta.values

    def theta_p_field(pt):
        f = germ.frame(pt, order=1)
        return f.theta.values @ f.p.values

    fd_d_theta = one_form_exterior_fd(theta_field, ctx.point, step=1e-4)
    fd_d_theta_p = one_form_exterior_fd(theta_p_field, ctx.point, step=1e-4)
    report.residuals["d_theta_vs_fd"] = frob(fr.d_theta - fd_d_theta)
    report.residuals["d_theta_p_vs_fd"] = frob(fr.d_theta_p - fd_d_theta_p)
    flags = fr.closedness(tol=_closed_tol(ctx))
    report.hypothesis_flags.update(flags)
    report.scalars["d_theta_norm"] = frob(fr.d_theta)
    report.scalars["d_theta_p_norm"] = frob(fr.d_theta_p)
    return [report.finalize()]


# ---------------------------------------------------------------------------
# connection checks


def check_natural_connection(ctx: ScenarioContext) -> list[CheckReport]:
    reports = []
    fr = ctx.frame
    eye = np.eye(ctx.germ.dim)
    for cp in ctx.connections:
        cf = ctx.connection(cp)
        report = ctx.new_report(f"natural_connection[{cp.label(fr.n)}]", TOL_ALGEBRA)
        report.tolerances.setdefault("torsion_match", ctx.tol(1e-12))
        report.tolerances.setdefault("contorsion_skew", ctx.tol(1e-12))
        report.tolerances.setdefault("torsion_p_identity", ctx.tol(1e-12))
        report.tolerances.setdefault("structure_parallel", ctx.tol(1e-8))
        report.residuals["torsion_match"] = cf.torsion_residual()
        report.residuals["metric_parallel"] = cf.metric_parallel_residual()
        report.residuals["structure_parallel"] = cf.structure_parallel_residual()
        k = cf.contorsion.values
        report.residuals["contorsion_skew"] = frob(k + k.transpose(0, 2, 1))

        # T(x,y) - P T(Px,y) = {th(Px) y - th(x) Py} / 2n, for every (lam, mu)
        tm = cf.torsion_mixed
        pv = fr.p.values
        lhs = tm - np.einsum("ma,abj,bi->mij", pv, tm, pv)
        rhs = (
            np.einsum("i,mj->mij", fr.theta_p.values, eye)
            - np.einsum("i,mj->mij", fr.theta.values, pv)
        ) / (2 * fr.n)
        report.residuals["torsion_p_identity"] = frob(lhs - rhs)

        case = cp.case(fr.n)
        if case == "D":
            expl = fr.christoffel.values + (
                np.einsum("ij,k->kij", fr.g.values, pv @ fr.omega.values)
                - np.einsum("j,ki->kij", fr.theta_p.values, eye)
            ) / (2 * fr.n)
            report.residuals["explicit_formula"] = frob(cf.gamma.values - expl)
        elif case == "D_tilde":
            # Diagnostic only: the printed formula read with a vector-valued
            # last term, g(y,Pz) Omega.
            expl = fr.christoffel.values + (
                np.einsum("j,ki->kij", fr.theta.values, pv)
                - np.einsum("ij,k->kij", fr.g_assoc.values, fr.omega.values)
            ) / (2 * fr.n)
            report.scalars["corrected_formula_residual"] = frob(cf.gamma.values - expl)
        reports.append(report.finalize())
    return reports


def check_curvature_relation(ctx: ScenarioContext) -> list[CheckReport]:
    """Reconstruction of the Levi-Civita curvature from a natural connection."""
    reports = []
    fr = ctx.frame
    ps = fr.structure
    pi1, pi2, pi3 = curv.pi_tensors(ps)
    r = fr.curvature.values
    for cp in ctx.connections:
        cf = ctx.connection(cp)
        report = ctx.new_report(f"curvature_relation[{cp.label(fr.n)}]", TOL_FIRST_DERIV)
        tr = cf.transfer
        rebuilt = (
            cf.curvature.values
            - tr["g_pp"] * pi1
            - tr["g_qq"] * pi2
            - tr["g_pq"] * pi3
            - curv.psi1(ps, tr["s_prime"])
            - curv.psi2(ps, tr["s_dprime"])
        )
        report.residuals["curvature_relation"] = frob(r - rebuilt)
        report.scalars.update(
            {"g_pp": tr["g_pp"], "g_qq": tr["g_qq"], "g_pq": tr["g_pq"]}
        )
        reports.append(report.finalize())
    return reports


def check_p_tensor_cases(ctx: ScenarioContext) -> list[CheckReport]:
    """Case analysis of which natural connections make R' a Riemannian P-tensor.

    Standing hypothesis: the germ is W1 but not in W3bar u W6bar.  For the two
    preset connections and the generic family the equivalence with closedness
    of the Lee forms is asserted in the direction the germ's closedness
    profile fixes.  Refutations are skipped when they would be vacuous: a
    vanishing R' satisfies every P-tensor identity, and with both Lee forms
    closed the preset connections themselves carry P-tensor curvature (the
    conformal family over a flat product realizes this), so only the generic
    family is refutable there.  The remaining degenerate connections carry a
    necessary condition only.
    """
    reports = []
    fr = ctx.frame
    flags = fr.closedness(_closed_tol(ctx))
    theta_closed = flags["theta_closed"]
    theta_p_closed = flags["theta_p_closed"]
    hypothesis_ok = ctx.class_report.label == struct.CLASS_W1 and ctx.not_in_eigenclasses()
    for cp in ctx.connections:
        case = cp.case(fr.n)
        report = ctx.new_report(f"p_tensor_cases[{cp.label(fr.n)}]", TOL_FIRST_DERIV)
        report.hypothesis_flags.update(flags)
        report.notes.append(f"case={case}")
        if not hypothesis_ok:
            reports.append(report.skip("germ is not a W1-manifold outside W3bar u W6bar"))
            continue
        cf = ctx.connection(cp)
        residual = max(_p_tensor_residuals(ctx, cf).values())
        curvature_scale = frob(cf.curvature.values)
        report.scalars["p_tensor_residual"] = residual
        report.scalars["r_prime_norm"] = curvature_scale
        expected = {
            "D": (not theta_closed) and theta_p_closed,
            "D_tilde": theta_closed and not theta_p_closed,
            "generic": theta_closed and theta_p_closed,
        }
        if case in expected:
            if expected[case]:
                report.residuals["p_tensor"] = residual
                report.notes.append("closedness profile implies a P-tensor")
            elif curvature_scale < 1e-10:
                reports.append(report.skip("refutation vacuous: R' vanishes"))
                continue
            elif case != "generic" and theta_closed and theta_p_closed:
                reports.append(
                    report.skip("preset refutation degenerate: both Lee forms closed")
                )
                continue
            else:
                report.residuals["p_tensor_refuted_margin"] = (
                    0.0 if residual > ctx.tol(P_TENSOR_FAIL_FLOOR) else 1.0
                )
                report.notes.append("closedness profile forbids a P-tensor")
        else:
            # Degenerate family: if R' is a P-tensor, neither Lee form is closed.
            if residual < report.tol and (theta_closed or theta_p_closed) \
                    and curvature_scale > 1e-10:
                report.residuals["necessary_condition"] = 1.0
            report.notes.append("degenerate case: necessary condition only")
        reports.append(report.finalize())
    return reports


def check_second_bianchi(ctx: ScenarioContext) -> list[CheckReport]:
    """Differential identities of R': the cyclic (second Bianchi) identity holds
    for every connection of the family; the P-twisted derived identity and the
    scalar-curvature system require R' to be a P-tensor.
    """
    reports = []
    fr = ctx.frame
    pv = fr.p.values
    theta, theta_p = fr.theta.values, fr.theta_p.values
    for cp in ctx.connections:
        cf = ctx.connection(cp)
        report = ctx.new_report(f"second_bianchi[{cp.label(fr.n)}]", 1e-6)
        nr = cf.nabla_curvature
        rv = cf.curvature.values
        b = nr + np.einsum("ami,ajkl->mijkl", cf.torsion_mixed, rv)
        cyc = b + np.einsum("ijmkl->mijkl", b) + np.einsum("jmikl->mijkl", b)
        report.residuals["cyclic_identity"] = frob(cyc)

        p_res = max(_p_tensor_residuals(ctx, cf).values())
        is_p = p_res < ctx.tol(TOL_FIRST_DERIV)
        report.hypothesis_flags["r_prime_p_tensor"] = is_p
        if is_p:
            r_pz = np.einsum("iakl,aj->ijkl", rv, pv)
            derived = (
                nr
                - np.einsum("aijkb,am,bl->mijkl", nr, pv, pv)
                + (
                    np.einsum("m,ijkl->mijkl", theta_p, rv)
                    - np.einsum("m,ijkl->mijkl", theta, r_pz)
                )
                / fr.n
            )
            report.residuals["p_twisted_identity"] = frob(derived)
        else:
            report.notes.append("P-twisted identity skipped: R' is not a P-tensor")
        reports.append(report.finalize())
    return reports


def check_scalar_system(ctx: ScenarioContext) -> list[CheckReport]:
    """The linear system tying the Lee forms to the scalar curvatures of R'."""
    reports = []
    fr = ctx.frame
    pv = fr.p.values
    theta, theta_p = fr.theta.values, fr.theta_p.values
    for cp in ctx.connections:
        cf = ctx.connection(cp)
        report = ctx.new_report(f"scalar_system[{cp.label(fr.n)}]", TOL_FIRST_DERIV)
        p_res = max(_p_tensor_residuals(ctx, cf).values())
        report.hypothesis_flags["r_prime_p_tensor"] = p_res < ctx.tol(TOL_FIRST_DERIV)
        if not report.hypothesis_flags["r_prime_p_tensor"]:
            reports.append(report.skip("R' is not a Riemannian P-tensor"))
            continue
        tau = float(cf.tau.values)
        tau_star = float(cf.tau_star.values)
        d_tau = cf.tau.data[1]
        d_tau_star = cf.tau_star.data[1]
        r_direct = d_tau - d_tau_star @ pv + (theta_p * tau - theta * tau_star) / fr.n
        r_swapped = d_tau @ pv - d_tau_star + (theta * tau - theta_p * tau_star) / fr.n
        report.residuals["system_direct"] = frob(r_direct)
        report.residuals["system_p_substituted"] = frob(r_swapped)
        report.scalars.update(
            {
                "tau_prime": tau,
                "tau_star_prime": tau_star,
                "delta": tau_star**2 - tau**2,
            }
        )
        reports.append(report.finalize())
    return reports


# ---------------------------------------------------------------------------
# Lee-form recovery from the scalar curvatures of R' (exact jets)


class SingularScalarError(ValueError):
    """A scalar combination under ln is too close to zero."""


def _ln_abs(u: JetTensor) -> JetTensor:
    value = float(u.values)
    if abs(value) < SINGULAR_FLOOR:
        raise SingularScalarError("singular scalar combination")
    return u.scaled(np.sign(value)).ln()


def _p_form(phi: JetTensor, fr: GermFrame) -> JetTensor:
    """The 1-form (d phi) o P."""
    return jt_einsum("m,mj->j", phi.partial(), fr.p)


def _exterior(form: JetTensor) -> np.ndarray:
    """(d form)_ij = d_i form_j - d_j form_i."""
    jac = form.partial().values  # jac[j, i] = d_i form_j
    return jac.T - jac


def _closed_residual(phi: JetTensor, fr: GermFrame) -> float:
    return frob(_exterior(_p_form(phi, fr)))


def check_lee_recovery(ctx: ScenarioContext) -> list[CheckReport]:
    """Recovery of the Lee form from the scalar curvatures of R'.

    With Delta = tau*'^2 - tau'^2 nonzero the solution of the linear system
    expresses theta through d ln of two tau-combinations; with Delta = 0 and
    tau' nonzero the degenerate combination is checked instead.
    """
    reports = []
    fr = ctx.frame
    pv = fr.p.values
    theta, theta_p = fr.theta.values, fr.theta_p.values
    n = fr.n
    hypothesis_ok = ctx.class_report.label == struct.CLASS_W1 and ctx.not_in_eigenclasses()
    for cp in ctx.connections:
        report = ctx.new_report(f"lee_recovery[{cp.label(n)}]", TOL_FIRST_DERIV)
        if not hypothesis_ok:
            reports.append(report.skip("germ is not a W1-manifold outside W3bar u W6bar"))
            continue
        cf = ctx.connection(cp)
        p_res = max(_p_tensor_residuals(ctx, cf).values())
        report.hypothesis_flags["r_prime_p_tensor"] = p_res < ctx.tol(TOL_FIRST_DERIV)
        if not report.hypothesis_flags["r_prime_p_tensor"]:
            reports.append(report.skip("R' is not a Riemannian P-tensor"))
            continue
        t, ts = cf.tau, cf.tau_star
        tau = float(t.values)
        tau_star = float(ts.values)
        delta = tau_star**2 - tau**2
        scale = max(1.0, tau**2 + tau_star**2)
        report.scalars.update({"tau_prime": tau, "tau_star_prime": tau_star, "delta": delta})
        theta_scale = max(1e-10, frob(theta))
        try:
            if abs(delta) > 1e-8 * scale:
                grad_ratio = (_ln_abs(ts + t) - _ln_abs(ts - t)).data[1]
                grad_delta = _ln_abs(ts * ts - t * t).data[1]
                theta_rec = 0.5 * n * (grad_ratio - grad_delta @ pv)
                theta_p_rec = 0.5 * n * (grad_ratio @ pv - grad_delta)
                report.residuals["theta_recovery"] = frob(theta_rec - theta) / theta_scale
                report.residuals["theta_p_recovery"] = frob(theta_p_rec - theta_p) / theta_scale
            elif abs(tau) > 1e-8 * np.sqrt(scale):
                eps = 1.0 if tau_star * tau > 0 else -1.0
                grad_ln_tau = _ln_abs(t).data[1]
                if eps > 0:
                    resid = (theta_p - theta) - n * (grad_ln_tau - grad_ln_tau @ pv)
                else:
                    resid = (theta_p + theta) + n * (grad_ln_tau + grad_ln_tau @ pv)
                report.residuals["equal_magnitude_combination"] = frob(resid) / theta_scale
            else:
                reports.append(report.skip("degenerate scalar curvatures (delta = tau' = 0)"))
                continue
        except SingularScalarError as exc:
            reports.append(report.skip(str(exc)))
            continue
        reports.append(report.finalize())
    return reports


def check_tau_form_closedness(ctx: ScenarioContext) -> list[CheckReport]:
    """Closedness of the P-composed tau-combination forms per connection case."""
    reports = []
    fr = ctx.frame
    n = fr.n
    hypothesis_ok = ctx.class_report.label == struct.CLASS_W1 and ctx.not_in_eigenclasses()
    for cp in ctx.connections:
        case = cp.case(n)
        report = ctx.new_report(f"tau_form_closedness[{cp.label(n)}]", TOL_FIRST_DERIV)
        report.notes.append(f"case={case}")
        if not hypothesis_ok:
            reports.append(report.skip("germ is not a W1-manifold outside W3bar u W6bar"))
            continue
        cf = ctx.connection(cp)
        p_res = max(_p_tensor_residuals(ctx, cf).values())
        report.hypothesis_flags["r_prime_p_tensor"] = p_res < ctx.tol(TOL_FIRST_DERIV)
        if not report.hypothesis_flags["r_prime_p_tensor"]:
            reports.append(report.skip("R' is not a Riemannian P-tensor"))
            continue
        t, ts = cf.tau, cf.tau_star
        tau = float(t.values)
        tau_star = float(ts.values)
        distinct = abs(abs(tau_star) - abs(tau)) > 1e-8 * max(1.0, abs(tau), abs(tau_star))
        nonzero = abs(tau) > 1e-8
        eps = 1.0 if tau_star * tau > 0 else -1.0
        try:
            if case == "D":
                if distinct:
                    report.residuals["ratio_form_closed"] = _closed_residual(
                        _ln_abs(ts + t) - _ln_abs(ts - t), fr
                    )
                elif nonzero:
                    d_form = _exterior(_p_form(_ln_abs(t), fr))
                    report.residuals["d_theta_match"] = frob(fr.d_theta - eps * n * d_form)
                else:
                    reports.append(report.skip("degenerate scalar curvatures"))
                    continue
            elif case == "D_tilde":
                if distinct:
                    report.residuals["delta_form_closed"] = _closed_residual(
                        _ln_abs(ts * ts - t * t), fr
                    )
                elif nonzero:
                    d_form = _exterior(_p_form(_ln_abs(t), fr))
                    report.residuals["d_theta_p_match"] = frob(fr.d_theta_p - eps * n * d_form)
                else:
                    reports.append(report.skip("degenerate scalar curvatures"))
                    continue
            elif case == "generic":
                if distinct:
                    report.residuals["ratio_form_closed"] = _closed_residual(
                        _ln_abs(ts + t) - _ln_abs(ts - t), fr
                    )
                    report.residuals["delta_form_closed"] = _closed_residual(
                        _ln_abs(ts * ts - t * t), fr
                    )
                elif nonzero:
                    report.residuals["ln_tau_form_closed"] = _closed_residual(_ln_abs(t), fr)
                else:
                    reports.append(report.skip("degenerate scalar curvatures"))
                    continue
            else:
                reports.append(report.skip("degenerate connection family"))
                continue
        except SingularScalarError as exc:
            reports.append(report.skip(str(exc)))
            continue
        reports.append(report.finalize())
    return reports


def check_eigenclass_lee_recovery(ctx: ScenarioContext) -> list[CheckReport]:
    """Lee-form recovery formulas for germs inside W3bar or W6bar."""
    reports = []
    fr = ctx.frame
    pv = fr.p.values
    theta = fr.theta.values
    n = fr.n
    label = ctx.class_report.label
    for cp in ctx.connections:
        report = ctx.new_report(f"eigenclass_lee_recovery[{cp.label(n)}]", TOL_FIRST_DERIV)
        if label not in (struct.CLASS_W3BAR, struct.CLASS_W6BAR):
            reports.append(report.skip("germ is not in W3bar u W6bar"))
            continue
        cf = ctx.connection(cp)
        p_res = max(_p_tensor_residuals(ctx, cf).values())
        report.hypothesis_flags["r_prime_p_tensor"] = p_res < ctx.tol(TOL_FIRST_DERIV)
        if not report.hypothesis_flags["r_prime_p_tensor"]:
            reports.append(report.skip("R' is not a Riemannian P-tensor"))
            continue
        t, ts = cf.tau, cf.tau_star
        tau = float(t.values)
        tau_star = float(ts.values)
        d_tau = t.data[1]
        d_tau_star = ts.data[1]
        theta_scale = max(1e-10, frob(theta))
        distinct = abs(abs(tau_star) - abs(tau)) > 1e-8 * max(1.0, abs(tau), abs(tau_star))
        report.scalars.update({"tau_prime": tau, "tau_star_prime": tau_star})
        try:
            if label == struct.CLASS_W3BAR:
                # theta (tau*' + tau') = n {d tau*'(x) - d tau'(Px)}
                resid = theta * (tau_star + tau) - n * (d_tau_star - d_tau @ pv)
                report.residuals["lee_scalar_identity"] = frob(resid) / max(
                    1.0, abs(tau) + abs(tau_star)
                )
                if distinct:
                    grad = _ln_abs(ts + t).data[1]
                    rec = 0.5 * n * (grad - grad @ pv)
                    report.residuals["theta_recovery"] = frob(rec - theta) / theta_scale
                    report.residuals["difference_form_closed"] = _closed_residual(ts - t, fr)
                elif abs(tau) > 1e-8:
                    if tau_star * tau > 0:  # tau*' = tau' != 0
                        grad = _ln_abs(t).data[1]
                        rec = 0.5 * n * (grad - grad @ pv)
                        report.residuals["theta_recovery"] = frob(rec - theta) / theta_scale
                    else:  # tau*' = -tau' != 0
                        report.residuals["tau_form_closed"] = _closed_residual(t, fr)
                else:
                    reports.append(report.skip("degenerate scalar curvatures"))
                    continue
            else:  # W6bar
                if distinct:
                    grad = _ln_abs(ts - t).data[1]
                    rec = -0.5 * n * (grad + grad @ pv)
                    report.residuals["theta_recovery"] = frob(rec - theta) / theta_scale
                    report.residuals["sum_form_closed"] = _closed_residual(ts + t, fr)
                elif abs(tau) > 1e-8:
                    report.residuals["tau_form_closed"] = _closed_residual(t, fr)
                    if tau_star * tau < 0:  # tau*' = -tau' != 0
                        grad = _ln_abs(t).data[1]
                        rec = -0.5 * n * (grad + grad @ pv)
                        report.residuals["theta_recovery"] = frob(rec - theta) / theta_scale
                else:
                    reports.append(report.skip("degenerate scalar curvatures"))
                    continue
        except SingularScalarError as exc:
            reports.append(report.skip(str(exc)))
            continue
        reports.append(report.finalize())
    return reports


# ---------------------------------------------------------------------------
# dimension-4 suite


def _dim4_scalars(fr: GermFrame, cf: ConnectionFrame) -> dict[str, float]:
    gi = fr.g_inv.values
    pv = fr.p.values
    theta = fr.theta.values
    omega = fr.omega.values
    nt = fr.nabla_theta.values
    tr = cf.transfer
    tr_s = lambda s: float(np.einsum("ij,ij->", gi, s))
    tr_s_assoc = lambda s: float(np.einsum("ij,im,mj->", gi, s, pv))
    return {
        "theta_omega": float(theta @ omega),
        "theta_p_omega": float(fr.theta_p.values @ omega),
        # Trace of the Lee-form covariant derivative, plain and against P.
        "div_omega": float(np.einsum("ij,ij->", gi, nt)),
        "div_p_omega": float(np.einsum("ij,im,mj->", gi, nt, pv)),
        "tr_s_prime": tr_s(tr["s_prime"]),
        "tr_s_prime_assoc": tr_s_assoc(tr["s_prime"]),
        "tr_s_dprime": tr_s(tr["s_dprime"]),
        "tr_s_dprime_assoc": tr_s_assoc(tr["s_dprime"]),
    }


def check_dim4_traces(ctx: ScenarioContext) -> list[CheckReport]:
    """Trace identities of the transfer tensors for the two preset connections.

    These hold on every 4-dimensional W1 germ, independent of any curvature
    hypothesis.
    """
    report = ctx.new_report("dim4_traces", 1e-5)
    if ctx.germ.dim != 4:
        return [report.skip("dimension is not 4")]
    fr = ctx.frame
    s = _dim4_scalars(fr, ctx.connection(ConnectionParams.d()))
    report.residuals["d_tr_s_prime"] = abs(
        s["tr_s_prime"] - (s["div_p_omega"] / 4 + s["theta_omega"] / 16)
    )
    report.residuals["d_tr_s_prime_assoc"] = abs(
        s["tr_s_prime_assoc"] - (s["div_omega"] / 4 - 3 * s["theta_p_omega"] / 16)
    )
    st = _dim4_scalars(fr, ctx.connection(ConnectionParams.d_tilde(2)))
    report.residuals["dt_tr_s_prime"] = abs(st["tr_s_prime"] - st["theta_omega"] / 16)
    report.residuals["dt_tr_s_prime_assoc"] = abs(
        st["tr_s_prime_assoc"] - st["theta_p_omega"] / 16
    )
    report.residuals["dt_tr_s_dprime"] = abs(
        st["tr_s_dprime"] + (st["div_p_omega"] + st["theta_omega"]) / 4
    )
    report.residuals["dt_tr_s_dprime_assoc"] = abs(
        st["tr_s_dprime_assoc"] + st["div_omega"] / 4
    )
    return [report.finalize()]


def check_dim4_reconstruction(ctx: ScenarioContext) -> list[CheckReport]:
    """Levi-Civita curvature reconstructed from R' scalar curvatures (dim 4).

    Conditional on R' being a Riemannian P-tensor; the preset connections
    additionally verify their explicit trace and scalar-curvature relations.
    """
    reports = []
    if ctx.germ.dim != 4:
        return [ctx.new_report("dim4_reconstruction", 1e-6).skip("dimension is not 4")]
    fr = ctx.frame
    ps = fr.structure
    pi1, pi2, pi3 = curv.pi_tensors(ps)
    r = fr.curvature.values
    inv_r = curv.curvature_invariants(ps, r)
    for cp in ctx.connections:
        case = cp.case(fr.n)
        report = ctx.new_report(f"dim4_reconstruction[{cp.label(fr.n)}]", 1e-6)
        cf = ctx.connection(cp)
        p_res = max(_p_tensor_residuals(ctx, cf).values())
        report.hypothesis_flags["r_prime_p_tensor"] = p_res < ctx.tol(TOL_FIRST_DERIV)
        if not report.hypothesis_flags["r_prime_p_tensor"]:
            reports.append(report.skip("R' is not a Riemannian P-tensor"))
            continue
        tr = cf.transfer
        tau_p = float(cf.tau.values)
        tau_star_p = float(cf.tau_star.values)
        base = (tau_p * (pi1 + pi2) + tau_star_p * pi3) / 8
        rebuilt = (
            base
            - tr["g_pp"] * pi1
            - tr["g_qq"] * pi2
            - tr["g_pq"] * pi3
            - curv.psi1(ps, tr["s_prime"])
            - curv.psi2(ps, tr["s_dprime"])
        )
        report.residuals["curvature_from_scalars"] = frob(r - rebuilt)
        s = _dim4_scalars(fr, cf)
        if case == "D":
            rebuilt_d = (
                base - s["theta_omega"] / 16 * pi1 - curv.psi1(ps, tr["s_prime"])
            )
            report.residuals["preset_reconstruction"] = frob(r - rebuilt_d)
            report.residuals["tau_transfer"] = abs(
                inv_r.tau - (tau_p - 0.75 * s["theta_omega"] - 6 * s["tr_s_prime"])
            )
            report.residuals["tau_star_transfer"] = abs(
                inv_r.tau_star - (tau_star_p - 2 * s["tr_s_prime_assoc"])
            )
            report.residuals["tau_from_traces"] = abs(
                tau_p - (inv_r.tau + 1.5 * s["div_p_omega"] + 9 / 8 * s["theta_omega"])
            )
            report.residuals["tau_star_from_traces"] = abs(
                tau_star_p
                - (inv_r.tau_star + 0.5 * s["div_omega"] - 3 / 8 * s["theta_p_omega"])
            )
            final = (
                (8 * inv_r.tau + 12 * s["div_p_omega"] + 9 * s["theta_omega"]) / 64 * (pi1 + pi2)
                + (8 * inv_r.tau_star + 4 * s["div_omega"] - 3 * s["theta_p_omega"]) / 64 * pi3
                - s["theta_omega"] / 16 * pi1
                - curv.psi1(ps, tr["s_prime"])
            )
            report.residuals["final_display"] = frob(r - final)
        elif case == "D_tilde":
            rebuilt_dt = (
                base
                - s["theta_omega"] / 16 * pi2
                - curv.psi1(ps, tr["s_prime"])
                - curv.psi2(ps, tr["s_dprime"])
            )
            report.residuals["preset_reconstruction"] = frob(r - rebuilt_dt)
            report.residuals["tau_transfer"] = abs(
                inv_r.tau
                - (
                    tau_p
                    + s["theta_omega"] / 4
                    - 6 * s["tr_s_prime"]
                    + 2 * s["tr_s_dprime"]
                )
            )
            report.residuals["tau_star_transfer"] = abs(
                inv_r.tau_star
                - (tau_star_p - 2 * s["tr_s_prime_assoc"] - 2 * s["tr_s_dprime_assoc"])
            )
            report.residuals["tau_from_traces"] = abs(
                tau_p - (inv_r.tau + 0.5 * s["div_p_omega"] + 5 / 8 * s["theta_omega"])
            )
            report.residuals["tau_star_from_traces"] = abs(
                tau_star_p
                - (inv_r.tau_star - 0.5 * s["div_omega"] + s["theta_p_omega"] / 8)
            )
            final = (
                (8 * inv_r.tau + 4 * s["div_p_omega"] + 5 * s["theta_omega"]) / 64 * (pi1 + pi2)
                + (8 * inv_r.tau_star - 4 * s["div_omega"] + s["theta_p_omega"]) / 64 * pi3
                - s["theta_omega"] / 16 * pi2
                - curv.psi1(ps, tr["s_prime"])
                - curv.psi2(ps, tr["s_dprime"])
            )
            report.residuals["final_display"] = frob(r - final)
        reports.append(report.finalize())
    return reports


def check_dim4_round_trip(ctx: ScenarioContext) -> list[CheckReport]:
    """Synthetic consistency of the two curvature-relation formula paths.

    A random Riemannian P-tensor plays R'; the Levi-Civita curvature built
    through the transfer formula must be reproduced exactly by the
    scalar-curvature reconstruction.
    """
    report = ctx.new_report("dim4_round_trip", TOL_ALGEBRA)
    if ctx.germ.dim != 4:
        return [report.skip("dimension is not 4")]
    ps = ctx.frame.structure
    pi1, pi2, pi3 = curv.pi_tensors(ps)
    worst = 0.0
    for trial in range(5):
        seed = ctx.seed * 1000 + trial
        l = curv.random_p_tensor(ps, seed)
        p_vec = random_vector(4, seed + 1)
        q_vec = random_vector(4, seed + 2)
        s_prime = 0.5 * (random_tensor2(4, seed + 3) + random_tensor2(4, seed + 3).T)
        s_dprime = random_tensor2(4, seed + 4) @ ps.p
        gv = ps.g
        r_synth = (
            l
            - (p_vec @ gv @ p_vec) * pi1
            - (q_vec @ gv @ q_vec) * pi2
            - (p_vec @ gv @ q_vec) * pi3
            - curv.psi1(ps, s_prime)
            - curv.psi2(ps, s_dprime)
        )
        inv_l = curv.curvature_invariants(ps, l)
        rebuilt = (
            (inv_l.tau * (pi1 + pi2) + inv_l.tau_star * pi3) / 8
            - (p_vec @ gv @ p_vec) * pi1
            - (q_vec @ gv @ q_vec) * pi2
            - (p_vec @ gv @ q_vec) * pi3
            - curv.psi1(ps, s_prime)
            - curv.psi2(ps, s_dprime)
        )
        worst = max(worst, frob(r_synth - rebuilt))
    report.residuals["round_trip"] = worst
    return [report.finalize()]


def check_pointwise_algebra(ctx: ScenarioContext) -> list[CheckReport]:
    """psi/pi identities at the germ's point structure."""
    report = ctx.new_report("pointwise_algebra", 1e-12)
    ps = ctx.frame.structure
    rng_seeds = [ctx.seed * 100 + k for k in range(5)]
    worst_sym = worst_identity = 0.0
    min_asym = np.inf
    for seed in rng_seeds:
        s_sym = 0.5 * (random_tensor2(ps.dim, seed) + random_tensor2(ps.dim, seed).T)
        worst_sym = max(
            worst_sym, max(curv.curvature_like_residuals(curv.psi1(ps, s_sym)).values())
        )
        s_any = random_tensor2(ps.dim, seed + 7)
        lhs = np.einsum("ijab,ak,bl->ijkl", curv.psi2(ps, s_any), ps.p, ps.p)
        worst_identity = max(worst_identity, frob(lhs - curv.psi1(ps, s_any)))
        asym = s_any - s_any.T
        if frob(asym) > 1e-6:
            min_asym = min(
                min_asym,
                max(curv.curvature_like_residuals(curv.psi1(ps, s_any)).values()),
            )
    pi1, pi2, pi3 = curv.pi_tensors(ps)
    report.residuals["psi1_symmetric_curvature_like"] = worst_sym
    report.residuals["psi2_p_twist_identity"] = worst_identity
    report.residuals["pi_sum_p_tensor"] = max(
        curv.is_p_tensor(ps, pi1 + pi2).residuals.values()
    )
    report.residuals["pi3_p_tensor"] = max(curv.is_p_tensor(ps, pi3).residuals.values())
    report.residuals["psi1_g_is_two_pi1"] = frob(curv.psi1(ps, ps.g) - 2 * pi1)
    if min_asym < 1e-6:
        report.residuals["psi1_asymmetric_detected"] = 1.0
    return [report.finalize()]


CHECKS = {
    "structure": (check_structure, "Structure invariants at and near the base point"),
    "classification": (check_classification, "F symmetries and W-class label"),
    "levi_civita": (check_levi_civita, "Torsion-free metric connection residuals"),
    "curvature_like": (check_curvature_like, "Curvature identities of the Levi-Civita tensor"),
    "lee_closedness": (check_lee_closedness, "Lee-form exterior derivatives vs FD oracle"),
    "natural_connection": (check_natural_connection, "Torsion family and parallelism residuals"),
    "curvature_relation": (check_curvature_relation, "Curvature transfer between connections"),
    "p_tensor_cases": (check_p_tensor_cases, "Which connections give Riemannian P-tensors"),
    "second_bianchi": (check_second_bianchi, "Differential curvature identities"),
    "scalar_system": (check_scalar_system, "Linear system for the Lee forms"),
    "lee_recovery": (check_lee_recovery, "Lee form from scalar curvatures"),
    "tau_form_closedness": (check_tau_form_closedness, "Closedness of tau-combination forms"),
    "eigenclass_lee_recovery": (
        check_eigenclass_lee_recovery,
        "Lee-form formulas inside W3bar / W6bar",
    ),
    "dim4_traces": (check_dim4_traces, "Unconditional dim-4 trace identities"),
    "dim4_reconstruction": (
        check_dim4_reconstruction,
        "Dim-4 curvature reconstruction from scalar curvatures",
    ),
    "dim4_round_trip": (check_dim4_round_trip, "Synthetic two-path formula consistency"),
    "pointwise_algebra": (check_pointwise_algebra, "psi/pi identities at the base structure"),
}

DEFAULT_CHECKS = list(CHECKS)


def run_checks(ctx: ScenarioContext, names: list[str] | None = None) -> list[CheckReport]:
    reports: list[CheckReport] = []
    for name in names or DEFAULT_CHECKS:
        fn, _ = CHECKS[name]
        reports.extend(fn(ctx))
    return reports
