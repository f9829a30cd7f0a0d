"""Named verification checks run by the scenario harness.

Each check inspects one germ at its base point and returns CheckReports.
Derivatives come from the exact jets of one base frame; only
``levi_civita`` samples neighbouring points, and only ``lee_closedness``
differences re-evaluated frames, as an independent oracle.

Theorem checks are implications.  Each hypothesis is declared once on
``ScenarioContext`` (``closedness``, ``w1_outside_eigenclasses``,
``r_prime_p_tensor``); a check states those it needs with ``requires``, which
raises ``Skip`` when one fails, as ``_ln_abs`` raises ``SingularScalarError``.
The one loop over connections, ``_per_connection``, turns a ``Skip`` into a
skipped report that names the reason and carries no residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

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
from .tensors import frob, random_symmetric2, random_tensor2, random_vector

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

    @cached_property
    def closedness(self) -> dict[str, bool]:
        """Flags ``theta_closed`` and ``theta_p_closed`` of the Lee forms."""
        return self.frame.closedness(tol=CLOSED_TOL * self.tol_scale)

    @cached_property
    def w1_outside_eigenclasses(self) -> bool:
        """The standing hypothesis: the germ is W1 but in neither W3bar nor W6bar."""
        cls = self.class_report
        scale = max(1.0, frob(cls.theta))
        return (
            cls.label == struct.CLASS_W1
            and frob(cls.theta - cls.theta_p) / scale > 1e-6
            and frob(cls.theta + cls.theta_p) / scale > 1e-6
        )

    def r_prime_p_tensor(self, cf: ConnectionFrame) -> bool:
        """Whether the curvature R' of ``cf`` is a Riemannian P-tensor."""
        return cf.p_tensor_residual < self.tol(TOL_FIRST_DERIV)


# Skip reasons of the hypotheses shared by several checks.
W1_GATE = "germ is not a W1-manifold outside W3bar u W6bar"
P_TENSOR_GATE = "R' is not a Riemannian P-tensor"
DEGENERATE_SCALARS = "degenerate scalar curvatures"


class Skip(Exception):
    """A hypothesis of a check does not hold; the message names it."""


class SingularScalarError(Skip, ValueError):
    """A scalar combination under ln is too close to zero."""


def requires(holds: bool, reason: str) -> None:
    """Skip the running check with ``reason`` unless ``holds``."""
    if not holds:
        raise Skip(reason)


def _requires_p_tensor(ctx: ScenarioContext, report: CheckReport, cf: ConnectionFrame) -> None:
    """Flag and require "R' is a Riemannian P-tensor"."""
    report.hypothesis_flags["r_prime_p_tensor"] = ctx.r_prime_p_tensor(cf)
    requires(report.hypothesis_flags["r_prime_p_tensor"], P_TENSOR_GATE)


def _per_connection(ctx: ScenarioContext, name: str, base_tol: float, body) -> list[CheckReport]:
    """One report ``name[label]`` per connection, filled by ``body(report, params)``.

    A ``Skip`` raised by ``body`` marks that report skipped with its reason.
    """
    reports = []
    for cp in ctx.connections:
        report = ctx.new_report(f"{name}[{cp.label(ctx.germ.n)}]", base_tol)
        try:
            body(report, cp)
        except Skip as exc:
            report.skip(str(exc))
        reports.append(report.finalize())
    return reports


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
        # Gamma and its metric parallelism need only first derivatives of g.
        fr = ctx.germ.frame(pt, order=1)
        gamma = fr.christoffel.values
        worst_sym = max(worst_sym, frob(gamma - gamma.transpose(0, 2, 1)))
        worst_metric = max(worst_metric, fr.metric_parallel_residual(gamma))
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

    # Both oracles difference the same points: one order-1 frame serves each.
    frame_at = cache(lambda key: germ.frame(np.array(key), order=1))

    def theta_field(pt):
        return frame_at(tuple(pt)).theta.values

    def theta_p_field(pt):
        f = frame_at(tuple(pt))
        return f.theta.values @ f.p.values

    fd_d_theta = one_form_exterior_fd(theta_field, ctx.point, step=1e-4)
    fd_d_theta_p = one_form_exterior_fd(theta_p_field, ctx.point, step=1e-4)
    report.residuals["d_theta_vs_fd"] = frob(fr.d_theta - fd_d_theta)
    report.residuals["d_theta_p_vs_fd"] = frob(fr.d_theta_p - fd_d_theta_p)
    report.hypothesis_flags.update(ctx.closedness)
    report.scalars["d_theta_norm"] = frob(fr.d_theta)
    report.scalars["d_theta_p_norm"] = frob(fr.d_theta_p)
    return [report.finalize()]


# ---------------------------------------------------------------------------
# connection checks


def _transfer_correction(ps, pis, tr) -> np.ndarray:
    """g(p,p) pi1 + g(q,q) pi2 + g(p,q) pi3 + psi1(S') + psi2(S''): R' - R."""
    pi1, pi2, pi3 = pis
    return (
        tr["g_pp"] * pi1
        + tr["g_qq"] * pi2
        + tr["g_pq"] * pi3
        + curv.psi1(ps, tr["s_prime"])
        + curv.psi2(ps, tr["s_dprime"])
    )


def check_natural_connection(ctx: ScenarioContext) -> list[CheckReport]:
    fr = ctx.frame
    eye = np.eye(ctx.germ.dim)

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        cf = ctx.connection(cp)
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

    return _per_connection(ctx, "natural_connection", TOL_ALGEBRA, body)


def check_curvature_relation(ctx: ScenarioContext) -> list[CheckReport]:
    """Reconstruction of the Levi-Civita curvature from a natural connection."""
    fr = ctx.frame
    ps = fr.structure
    pis = curv.pi_tensors(ps)
    r = fr.curvature.values

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        cf = ctx.connection(cp)
        tr = cf.transfer
        rebuilt = cf.curvature.values - _transfer_correction(ps, pis, tr)
        report.residuals["curvature_relation"] = frob(r - rebuilt)
        report.scalars.update({key: tr[key] for key in ("g_pp", "g_qq", "g_pq")})

    return _per_connection(ctx, "curvature_relation", TOL_FIRST_DERIV, body)


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
    n = ctx.germ.n
    flags = ctx.closedness
    theta_closed, theta_p_closed = flags["theta_closed"], flags["theta_p_closed"]
    expected = {
        "D": (not theta_closed) and theta_p_closed,
        "D_tilde": theta_closed and not theta_p_closed,
        "generic": theta_closed and theta_p_closed,
    }

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        case = cp.case(n)
        report.hypothesis_flags.update(flags)
        report.notes.append(f"case={case}")
        requires(ctx.w1_outside_eigenclasses, W1_GATE)
        cf = ctx.connection(cp)
        residual = cf.p_tensor_residual
        curvature_scale = frob(cf.curvature.values)
        report.scalars["p_tensor_residual"] = residual
        report.scalars["r_prime_norm"] = curvature_scale
        if case in expected:
            if expected[case]:
                report.residuals["p_tensor"] = residual
                report.notes.append("closedness profile implies a P-tensor")
            elif curvature_scale < 1e-10:
                raise Skip("refutation vacuous: R' vanishes")
            elif case != "generic" and theta_closed and theta_p_closed:
                raise Skip("preset refutation degenerate: both Lee forms closed")
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

    return _per_connection(ctx, "p_tensor_cases", TOL_FIRST_DERIV, body)


def check_second_bianchi(ctx: ScenarioContext) -> list[CheckReport]:
    """Differential identities of R': the cyclic (second Bianchi) identity holds
    for every connection of the family; the P-twisted derived identity and the
    scalar-curvature system require R' to be a P-tensor.
    """
    fr = ctx.frame
    pv = fr.p.values
    theta, theta_p = fr.theta.values, fr.theta_p.values

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        cf = ctx.connection(cp)
        nr = cf.nabla_curvature
        rv = cf.curvature.values
        b = nr + np.einsum("ami,ajkl->mijkl", cf.torsion_mixed, rv)
        cyc = b + np.einsum("ijmkl->mijkl", b) + np.einsum("jmikl->mijkl", b)
        report.residuals["cyclic_identity"] = frob(cyc)

        is_p = ctx.r_prime_p_tensor(cf)
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

    return _per_connection(ctx, "second_bianchi", 1e-6, body)


def check_scalar_system(ctx: ScenarioContext) -> list[CheckReport]:
    """The linear system tying the Lee forms to the scalar curvatures of R'."""
    fr = ctx.frame
    pv = fr.p.values
    theta, theta_p = fr.theta.values, fr.theta_p.values

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        cf = ctx.connection(cp)
        _requires_p_tensor(ctx, report, cf)
        tau = float(cf.tau.values)
        tau_star = float(cf.tau_star.values)
        d_tau = cf.tau.data[1]
        d_tau_star = cf.tau_star.data[1]
        r_direct = d_tau - d_tau_star @ pv + (theta_p * tau - theta * tau_star) / fr.n
        r_swapped = d_tau @ pv - d_tau_star + (theta * tau - theta_p * tau_star) / fr.n
        report.residuals["system_direct"] = frob(r_direct)
        report.residuals["system_p_substituted"] = frob(r_swapped)
        delta = tau_star**2 - tau**2
        report.scalars.update({"tau_prime": tau, "tau_star_prime": tau_star, "delta": delta})

    return _per_connection(ctx, "scalar_system", TOL_FIRST_DERIV, body)


# ---------------------------------------------------------------------------
# Lee-form recovery from the scalar curvatures of R' (exact jets)


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
    expresses theta through d ln of two tau-combinations.  With Delta = 0 and
    tau*' = eps tau' != 0 the system gives only the combination

        theta o P - eps theta = -n {d ln|tau'| - eps d ln|tau'| o P}.
    """
    fr = ctx.frame
    pv = fr.p.values
    theta, theta_p = fr.theta.values, fr.theta_p.values
    n = fr.n
    theta_scale = max(1e-10, frob(theta))

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        requires(ctx.w1_outside_eigenclasses, W1_GATE)
        cf = ctx.connection(cp)
        _requires_p_tensor(ctx, report, cf)
        t, ts = cf.tau, cf.tau_star
        tau = float(t.values)
        tau_star = float(ts.values)
        delta = tau_star**2 - tau**2
        scale = max(1.0, tau**2 + tau_star**2)
        report.scalars.update({"tau_prime": tau, "tau_star_prime": tau_star, "delta": delta})
        if abs(delta) > 1e-8 * scale:
            grad_ratio = (_ln_abs(ts + t) - _ln_abs(ts - t)).data[1]
            grad_delta = _ln_abs(ts * ts - t * t).data[1]
            theta_rec = 0.5 * n * (grad_ratio - grad_delta @ pv)
            theta_p_rec = 0.5 * n * (grad_ratio @ pv - grad_delta)
            report.residuals["theta_recovery"] = frob(theta_rec - theta) / theta_scale
            report.residuals["theta_p_recovery"] = frob(theta_p_rec - theta_p) / theta_scale
        else:
            requires(abs(tau) > 1e-8 * np.sqrt(scale), f"{DEGENERATE_SCALARS} (delta = tau' = 0)")
            eps = 1.0 if tau_star * tau > 0 else -1.0  # tau*' = eps tau' != 0
            grad_ln_tau = _ln_abs(t).data[1]
            resid = (theta_p - eps * theta) + n * (grad_ln_tau - eps * (grad_ln_tau @ pv))
            report.residuals["equal_magnitude_combination"] = frob(resid) / theta_scale

    return _per_connection(ctx, "lee_recovery", TOL_FIRST_DERIV, body)


def _distinct_magnitudes(tau: float, tau_star: float) -> bool:
    return abs(abs(tau_star) - abs(tau)) > 1e-8 * max(1.0, abs(tau), abs(tau_star))


def check_tau_form_closedness(ctx: ScenarioContext) -> list[CheckReport]:
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

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        case = cp.case(n)
        report.notes.append(f"case={case}")
        requires(ctx.w1_outside_eigenclasses, W1_GATE)
        cf = ctx.connection(cp)
        _requires_p_tensor(ctx, report, cf)
        requires(case != "degenerate", "degenerate connection family")
        t, ts = cf.tau, cf.tau_star
        tau = float(t.values)
        tau_star = float(ts.values)
        if _distinct_magnitudes(tau, tau_star):
            if case != "D_tilde":
                ratio = _ln_abs(ts + t) - _ln_abs(ts - t)
                report.residuals["ratio_form_closed"] = _closed_residual(ratio, fr)
            if case != "D":
                delta = _ln_abs(ts * ts - t * t)
                report.residuals["delta_form_closed"] = _closed_residual(delta, fr)
            return
        requires(abs(tau) > 1e-8, DEGENERATE_SCALARS)
        d_form = _exterior(_p_form(_ln_abs(t), fr))
        eps = 1.0 if tau_star * tau > 0 else -1.0
        if case == "generic":
            report.residuals["ln_tau_form_closed"] = frob(d_form)
        elif case == "D":
            report.residuals["d_theta_match"] = frob(fr.d_theta + n * d_form)
        else:
            report.residuals["d_theta_p_match"] = frob(fr.d_theta_p - eps * n * d_form)

    return _per_connection(ctx, "tau_form_closedness", TOL_FIRST_DERIV, body)


def check_eigenclass_lee_recovery(ctx: ScenarioContext) -> list[CheckReport]:
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
    label = ctx.class_report.label
    sign = 1.0 if label == struct.CLASS_W3BAR else -1.0
    theta_scale = max(1e-10, frob(theta))

    def recovery_residual(phi: JetTensor) -> float:
        grad = phi.data[1]
        rec = 0.5 * sign * n * (grad - sign * (grad @ pv))
        return frob(rec - theta) / theta_scale

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        requires(label in (struct.CLASS_W3BAR, struct.CLASS_W6BAR), "germ is not in W3bar u W6bar")
        cf = ctx.connection(cp)
        _requires_p_tensor(ctx, report, cf)
        t, ts = cf.tau, cf.tau_star
        tau = float(t.values)
        tau_star = float(ts.values)
        report.scalars.update({"tau_prime": tau, "tau_star_prime": tau_star})
        if sign > 0:
            # theta (tau*' + tau') = n {d tau*'(x) - d tau'(Px)}
            resid = theta * (tau_star + tau) - n * (ts.data[1] - t.data[1] @ pv)
            scale = max(1.0, abs(tau) + abs(tau_star))
            report.residuals["lee_scalar_identity"] = frob(resid) / scale
        if _distinct_magnitudes(tau, tau_star):
            report.residuals["theta_recovery"] = recovery_residual(_ln_abs(ts + t.scaled(sign)))
            closed_key = "difference_form_closed" if sign > 0 else "sum_form_closed"
            report.residuals[closed_key] = _closed_residual(ts - t.scaled(sign), fr)
            return
        requires(abs(tau) > 1e-8, DEGENERATE_SCALARS)
        recovers = sign * tau_star * tau > 0  # tau*' = sign tau'
        if recovers:
            report.residuals["theta_recovery"] = recovery_residual(_ln_abs(t))
        if sign < 0 or not recovers:  # W6bar, or W3bar with tau*' = -tau'
            report.residuals["tau_form_closed"] = _closed_residual(t, fr)

    return _per_connection(ctx, "eigenclass_lee_recovery", TOL_FIRST_DERIV, body)


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


# One coefficient row per preset connection: the index of the pi tensor that
# carries theta(omega) / 16, the coefficient of theta(omega) in tau - tau', and
# those of (div(P omega), theta(omega)) in tau' - tau and of
# (div(omega), theta(P omega)) in tau*' - tau*.  S'' vanishes for D, so the
# S'' terms of the formulas hold for both presets.
_DIM4_PRESETS = {
    "D": (0, -0.75, (1.5, 9 / 8), (0.5, -3 / 8)),
    "D_tilde": (1, 0.25, (0.5, 5 / 8), (-0.5, 1 / 8)),
}


def check_dim4_reconstruction(ctx: ScenarioContext) -> list[CheckReport]:
    """Levi-Civita curvature reconstructed from R' scalar curvatures (dim 4).

    Conditional on R' being a Riemannian P-tensor; the preset connections
    additionally verify their explicit trace and scalar-curvature relations.
    """
    if ctx.germ.dim != 4:
        return [ctx.new_report("dim4_reconstruction", 1e-6).skip("dimension is not 4")]
    fr = ctx.frame
    ps = fr.structure
    pis = curv.pi_tensors(ps)
    r = fr.curvature.values
    inv_r = curv.curvature_invariants(ps, r)

    def body(report: CheckReport, cp: ConnectionParams) -> None:
        cf = ctx.connection(cp)
        _requires_p_tensor(ctx, report, cf)
        tr = cf.transfer
        tau_p = float(cf.tau.values)
        tau_star_p = float(cf.tau_star.values)
        from_scalars = curv.dim4_from_scalars(pis, tau_p, tau_star_p)
        rebuilt = from_scalars - _transfer_correction(ps, pis, tr)
        report.residuals["curvature_from_scalars"] = frob(r - rebuilt)
        if cp.case(fr.n) not in _DIM4_PRESETS:
            return
        k, c, (a, b), (a_star, b_star) = _DIM4_PRESETS[cp.case(fr.n)]
        s = _dim4_scalars(fr, cf)
        correction = (
            s["theta_omega"] / 16 * pis[k]
            + curv.psi1(ps, tr["s_prime"])
            + curv.psi2(ps, tr["s_dprime"])
        )
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

    return _per_connection(ctx, "dim4_reconstruction", 1e-6, body)


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
    pis = curv.pi_tensors(ps)
    gv = ps.g
    worst = 0.0
    for trial in range(5):
        seed = ctx.seed * 1000 + trial
        l = curv.random_p_tensor(ps, seed)
        p_vec = random_vector(4, seed + 1)
        q_vec = random_vector(4, seed + 2)
        corrections = _transfer_correction(
            ps,
            pis,
            {
                "g_pp": p_vec @ gv @ p_vec,
                "g_qq": q_vec @ gv @ q_vec,
                "g_pq": p_vec @ gv @ q_vec,
                "s_prime": random_symmetric2(4, seed + 3),
                "s_dprime": random_tensor2(4, seed + 4) @ ps.p,
            },
        )
        r_synth = l - corrections
        inv_l = curv.curvature_invariants(ps, l)
        rebuilt = curv.dim4_from_scalars(pis, inv_l.tau, inv_l.tau_star) - corrections
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
        s_sym = random_symmetric2(ps.dim, seed)
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
