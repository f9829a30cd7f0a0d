"""Coordinate-chart germs: connections, curvature and the Lee-form pipelines.

A ``ChartGerm`` describes (M, P, g) near a point through scalar expressions
for the metric and structure components.  ``GermFrame`` evaluates the whole
Levi-Civita pipeline at one point on exact derivative jets; attaching
``ConnectionParams`` (lambda, mu) produces a ``ConnectionFrame`` for the
two-parameter family of natural connections, whose torsion is

    T(x,y,z) = {g(y,z) th(Px) - g(x,z) th(Py)} / 2n
             + lam {g(y,z) th(x) - g(x,z) th(y) + g(y,Pz) th(Px) - g(x,Pz) th(Py)}
             + mu  {g(y,Pz) th(x) - g(x,Pz) th(y) + g(y,z) th(Px) - g(x,z) th(Py)}

with th the Lee form.  It is evaluated as T = g^a + g~^b, where
(m^w)(x,y,z) = m(y,z) w(x) - m(x,z) w(y), a = (1/2n + mu) th o P + lam th and
b = lam th o P + mu th.  The connection itself is realized through the
contorsion K(x,y,z) = {T(x,y,z) - T(y,z,x) + T(z,x,y)} / 2, which is the
unique metric connection with that torsion; parallelism of P is then a
checked consequence on conformal-class germs, not an assumption.

Each frame quantity has one producer: g^-1 extends the one validated inversion
of the point structure, and each connection builds T -> K -> Gamma' -> R' once.
Every jet is carried only to the derivative levels some reader takes: R,
omega, grad theta and a connection's T, K and Gamma' as values, its R' to the
one derivative the second Bianchi identity needs, and its scalar curvatures
tau' and tau*' at the frame's full order (Hessians on order-4 frames).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import curvature as curv
from .exprs import Binary, Const, Func, ScalarExpr, parse_expr
from .jetfields import JetTensor, jt_einsum, jt_inverse
from .tensors import PointStructure, StructureError, einsum, frob, split_structure


# Relative threshold below which a Lee form's exterior derivative counts as zero.
CLOSED_TOL = 1e-8


def default_base_point(dim: int) -> np.ndarray:
    """Offset sample point (0.1, 0.2, ...) avoiding coordinate symmetries."""
    return 0.1 * np.arange(1, dim + 1)


@dataclass(frozen=True)
class ConnectionParams:
    """Parameters (lambda, mu) selecting one natural connection of the family."""

    lam: float
    mu: float

    @staticmethod
    def d() -> "ConnectionParams":
        return ConnectionParams(0.0, 0.0)

    @staticmethod
    def d_tilde(n: int) -> "ConnectionParams":
        return ConnectionParams(0.0, -1.0 / (2 * n))

    def case(self, n: int, eps: float = 1e-12) -> str:
        """Classify into 'D', 'D_tilde', 'generic' or 'degenerate'.

        'generic' is a discriminant lambda^2 - mu^2 - mu/(2n) above ``eps``
        relative to max(1, lambda^2 + mu^2).  Both sides are divided by s^2,
        s = max(1, |lambda|, |mu|), so no parameter overflows the test.
        """
        if abs(self.lam) < eps and abs(self.mu) < eps:
            return "D"
        if abs(self.lam) < eps and abs(self.mu + 1.0 / (2 * n)) < eps:
            return "D_tilde"
        s = max(1.0, abs(self.lam), abs(self.mu))
        lam, mu = self.lam / s, self.mu / s
        scale = max(1.0 / s / s, lam * lam + mu * mu)
        if abs(lam * lam - mu * mu - mu / (2 * n * s)) > eps * scale:
            return "generic"
        return "degenerate"

    def label(self, n: int) -> str:
        case = self.case(n)
        if case in ("D", "D_tilde"):
            return case
        return f"lam={self.lam:g},mu={self.mu:g}"


@dataclass(frozen=True)
class ChartGerm:
    """Local description of (M, P, g): expression grids plus a base point."""

    dim: int
    metric: tuple[tuple[ScalarExpr, ...], ...]
    structure: tuple[tuple[ScalarExpr, ...], ...]
    base_point: tuple[float, ...]
    name: str = "germ"

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim < 4:
            raise StructureError("germ dimension must be an even integer >= 4")
        for grid, label in ((self.metric, "metric"), (self.structure, "structure")):
            if len(grid) != self.dim or any(len(row) != self.dim for row in grid):
                raise StructureError(f"{label} grid must be {self.dim}x{self.dim}")
        if len(self.base_point) != self.dim:
            raise StructureError("base point has wrong length")

    @property
    def n(self) -> int:
        return self.dim // 2

    @staticmethod
    def from_strings(dim: int, metric: list[list[str]], structure: list[list[str]],
                     base_point=None, name: str = "germ") -> "ChartGerm":
        point = default_base_point(dim) if base_point is None else np.asarray(base_point, float)
        parse = lambda grid: tuple(
            tuple(parse_expr(str(entry), dim) for entry in row) for row in grid
        )
        return ChartGerm(dim, parse(metric), parse(structure), tuple(point), name)

    def frame(self, point=None, order: int = 3) -> "GermFrame":
        return GermFrame(self, self.base_point if point is None else point, order)


def _const_grid(values: np.ndarray) -> tuple[tuple[ScalarExpr, ...], ...]:
    return tuple(tuple(Const(float(v)) for v in row) for row in values)


def flat_product_germ(n: int, name: str = "flat_product") -> ChartGerm:
    """Flat product metric with the constant split structure diag(+I_n, -I_n): u = 0."""
    return conformal_flat_product_germ(n, "0", name)


def conformal_flat_product_germ(n: int, u, name: str | None = None) -> ChartGerm:
    """Metric e^{2u} times the flat product metric, same constant structure.

    ``u`` may be a ScalarExpr or an expression string over x1..x<2n>.
    """
    dim = 2 * n
    if not isinstance(u, ScalarExpr):
        u = parse_expr(str(u), dim)
    factor = Func("exp", Binary("*", Const(2.0), u))
    metric = tuple(
        tuple(factor if i == j else Const(0.0) for j in range(dim)) for i in range(dim)
    )
    return ChartGerm(
        dim,
        metric,
        _const_grid(split_structure(dim).p),
        tuple(default_base_point(dim)),
        name or f"conformal_flat_product[u={u}]",
    )


def _grid_jets(grid, point: np.ndarray, order: int, dim: int, label: str) -> JetTensor:
    """Stack the jets of a grid of expressions, evaluating each distinct entry once.

    A value or derivative that is not finite (an overflowing exponential, say)
    raises StructureError naming ``label`` and the point.
    """
    jets: dict[ScalarExpr, JetTensor] = {}
    for row in grid:
        for entry in row:
            if entry not in jets:
                jets[entry] = entry.eval_jet(point, order)
    stacked = JetTensor(
        tuple(
            np.array([[jets[entry].data[k] for entry in row] for row in grid])
            for k in range(order + 1)
        ),
        dim,
    )
    return _finite(stacked, label, point)


def _finite(jet: JetTensor, label: str, point: np.ndarray) -> JetTensor:
    """``jet``, or a StructureError naming ``label`` and ``point`` if a level is not finite."""
    if not all(np.isfinite(level).all() for level in jet.data):
        raise StructureError(f"{label} not finite at point {tuple(point.tolist())}")
    return jet


def exterior_derivative(form: JetTensor) -> np.ndarray:
    """(d form)_ij = d_i form_j - d_j form_i of a 1-form jet, at its point."""
    jac = form.partial().values  # jac[j, i] = d_i form_j
    return jac.T - jac


def _covariant_p(p: JetTensor, gamma: JetTensor) -> JetTensor:
    """(grad_i P)^m_j for the connection Gamma^m_{ij}, axes (i, m, j)."""
    dp = p.truncated(gamma.order + 1).partial()  # dp[m, j, i] = d_i P^m_j
    return (
        dp.transpose("mji->imj")
        + jt_einsum("mik,kj->imj", gamma, p)
        - jt_einsum("kij,mk->imj", gamma, p)
    )


class GermFrame:
    """Levi-Civita pipeline of a germ at one point, on derivative jets.

    Each derivative taken along the pipeline costs one jet order: g^-1, the
    Christoffel symbols and the Lee form carry order - 1.  g^-1 extends the
    inverse ``structure`` validates, so a singular or indefinite metric raises
    StructureError naming the point, whichever field is read first.  The
    Levi-Civita curvature, the metric dual ``omega`` and ``nabla_theta`` are
    values (order 0).  A connection's curvature R' is built at order - 2 and
    kept to KEPT_ORDER levels, so order 3 leaves the one exact derivative of
    R' that the second Bianchi identity needs; its scalar curvatures keep
    order - 2, so order 4 leaves their exact Hessians.
    """

    def __init__(self, germ: ChartGerm, point, order: int = 3):
        self.germ = germ
        self.point = np.asarray(point, dtype=float)
        self.order = order
        self.dim = germ.dim
        self.n = germ.n

    # -- fields ---------------------------------------------------------------

    @cached_property
    def g(self) -> JetTensor:
        return _grid_jets(self.germ.metric, self.point, self.order, self.dim, "metric")

    @cached_property
    def p(self) -> JetTensor:
        return _grid_jets(self.germ.structure, self.point, self.order, self.dim, "structure P")

    @cached_property
    def g_inv(self) -> JetTensor:
        # The validated inverse of the metric values, one order below g like
        # g_assoc: every consumer pairs them with derivatives of g or the Lee form.
        return jt_inverse(self.g.truncated(max(self.order - 1, 0)), self.structure.g_inv)

    @cached_property
    def g_assoc(self) -> JetTensor:
        # g~(y, z) = g(y, Pz)
        return jt_einsum("im,mj->ij", self.g.truncated(max(self.order - 1, 0)), self.p)

    @cached_property
    def p_adjoint(self) -> JetTensor:
        """Q^i_a = g^il P^m_l g_ma, the g-adjoint of P, shared by every connection's rho*'."""
        g_inv_p = jt_einsum("il,ml->im", self.g_inv, self.p)
        return jt_einsum("im,ma->ia", g_inv_p, self.g)

    @cached_property
    def structure(self) -> PointStructure:
        """(g, P) at the point, with the one inversion of the metric values."""
        try:
            return PointStructure(self.g.values, self.p.values)
        except StructureError as exc:
            raise StructureError(f"{exc} at point {tuple(self.point.tolist())}") from None

    @cached_property
    def christoffel(self) -> JetTensor:
        """Gamma^m_{ij}; index order (m; direction i, argument j)."""
        dg = self.g.partial()  # dg[a, b, c] = d_c g_ab
        first_kind = (
            dg.transpose("kji->kij") + dg - dg.transpose("ijk->kij")
        ).scaled(0.5)
        return jt_einsum("mk,kij->mij", self.g_inv, first_kind)

    @cached_property
    def curvature(self) -> JetTensor:
        """Levi-Civita curvature, all indices down: R(e_i,e_j,e_k,e_l), as values."""
        up = _curvature_of(self.christoffel.truncated(1))
        return jt_einsum("mijk,ml->ijkl", up, self.g)

    @cached_property
    def nabla_p(self) -> JetTensor:
        """(grad_i P)^m_j, axes (i, m, j)."""
        return _covariant_p(self.p, self.christoffel)

    @cached_property
    def f_tensor(self) -> JetTensor:
        """F(x,y,z) = g((grad_x P)y, z)."""
        return jt_einsum("imj,mk->ijk", self.nabla_p, self.g)

    @cached_property
    def theta(self) -> JetTensor:
        """Lee form theta_k = g^{ij} F_{ijk}."""
        return jt_einsum("ij,ijk->k", self.g_inv, self.f_tensor)

    @cached_property
    def theta_p(self) -> JetTensor:
        return jt_einsum("m,mk->k", self.theta, self.p)

    @cached_property
    def omega(self) -> JetTensor:
        """Metric dual of the Lee form, as values."""
        return jt_einsum("kl,l->k", self.g_inv, self.theta.truncated(0))

    @cached_property
    def nabla_theta(self) -> JetTensor:
        """(grad theta)(y, z) with axes (direction y, argument z), as values."""
        dtheta = self.theta.truncated(1).partial()  # dtheta[j, i] = d_i theta_j
        theta = self.theta.truncated(0)
        return dtheta.transpose("ji->ij") - jt_einsum("kij,k->ij", self.christoffel, theta)

    @cached_property
    def d_theta(self) -> np.ndarray:
        return exterior_derivative(self.theta)

    @cached_property
    def d_theta_p(self) -> np.ndarray:
        return exterior_derivative(self.theta_p)

    def closedness(self, tol_scale: float = 1.0) -> dict[str, bool]:
        """Lee-form closedness flags: |d form| / max(1, |theta|) below CLOSED_TOL * tol_scale."""
        tol = CLOSED_TOL * tol_scale
        scale = max(1.0, frob(self.theta.values))
        return {
            "theta_closed": frob(self.d_theta) / scale < tol,
            "theta_p_closed": frob(self.d_theta_p) / scale < tol,
        }

    def metric_parallel_residual(self, gamma: np.ndarray) -> float:
        """|grad g| at the point for the connection Gamma^m_{ij} (values)."""
        dg = self.g.partial().values  # dg[i, j, k] = d_k g_ij
        g = self.g.values
        nabla_g = (
            einsum("ijk->kij", dg)
            - einsum("mki,mj->kij", gamma, g)
            - einsum("mkj,im->kij", gamma, g)
        )
        return frob(nabla_g)

    def connection(self, params: ConnectionParams) -> "ConnectionFrame":
        """A new frame of the natural connection ``params`` on this frame."""
        return ConnectionFrame(self, params)


def _curvature_of(gamma: JetTensor) -> JetTensor:
    """R^l_{ijk} of a coordinate connection Gamma^l_{ij} (direction-first)."""
    dgamma = gamma.partial()  # dgamma[l, a, b, c] = d_c Gamma^l_{ab}
    # The sum below carries the order of dgamma, so the product needs no more.
    lower = gamma.truncated(dgamma.order)
    quad = jt_einsum("lim,mjk->lijk", lower, lower)
    return (
        dgamma.transpose("ljki->lijk")
        - dgamma.transpose("likj->lijk")
        + quad
        - quad.transpose("ljik->lijk")
    )


def _contorsion_of(t: JetTensor) -> JetTensor:
    """K(x,y,z) = {T(x,y,z) - T(y,z,x) + T(z,x,y)} / 2."""
    return (t - t.transpose("jki->ijk") + t.transpose("kij->ijk")).scaled(0.5)


# Derivative levels kept by a connection's R': the one derivative that
# ``nabla_curvature`` reads.
KEPT_ORDER = 1


class ConnectionFrame:
    """A natural connection (lambda, mu) attached to an evaluated germ frame.

    One chain, built once at the frame's full order, makes T, K, Gamma' and
    R'^m_ijk.  It keeps T, K and Gamma' as values, all their readers take, the
    lowered R' to KEPT_ORDER levels, and Ricci' and rho*' at full order; the
    full-order T and K are released before R' is built and Gamma' right after,
    so a frame holding several connections stays small.  tau' and tau*' keep
    the full order.
    """

    def __init__(self, frame: GermFrame, params: ConnectionParams):
        self.frame = frame
        self.params = params
        self.dim = frame.dim
        self.n = frame.n

    # -- connection -----------------------------------------------------------

    def _torsion(self) -> JetTensor:
        """T = g^a + g~^b at full order: two outer products H, then H_ijk - H_jik."""
        f = self.frame
        lam, mu = self.params.lam, self.params.mu
        a = f.theta_p.scaled(1.0 / (2 * self.n) + mu) + f.theta.scaled(lam)
        b = f.theta_p.scaled(lam) + f.theta.scaled(mu)
        h = jt_einsum("jk,i->ijk", f.g, a) + jt_einsum("jk,i->ijk", f.g_assoc, b)
        return h - h.transpose("jik->ijk")

    @cached_property
    def _chain(self) -> tuple[JetTensor, ...]:
        """T, K, Gamma' = Gamma + g^-1 K, R'_ijkl, Ricci' = R'^i_ijk and rho*' = Q^i_a R'^a_ijk.

        A T or R' that is not finite (a huge lambda or mu) raises StructureError
        naming the connection and the point.
        """
        f = self.frame
        label = f"connection {self.params.label(self.n)}"
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite instead
            torsion = _finite(self._torsion(), f"torsion T of {label}", f.point)
            contorsion = _contorsion_of(torsion)
            torsion = torsion.truncated(0)  # each full-order jet is released once read
            gamma = f.christoffel + jt_einsum("mk,ijk->mij", f.g_inv, contorsion)
            contorsion = contorsion.truncated(0)
            up = _finite(_curvature_of(gamma), f"curvature R' of {label}", f.point)
        gamma = gamma.truncated(0)
        lowered = jt_einsum("mijk,ml->ijkl", up.truncated(KEPT_ORDER), f.g)
        return (torsion, contorsion, gamma, lowered, up.transpose("iijk->jk"),
                jt_einsum("ia,aijk->jk", f.p_adjoint, up))

    @property
    def torsion(self) -> JetTensor:
        return self._chain[0]

    @property
    def contorsion(self) -> JetTensor:
        return self._chain[1]

    @property
    def gamma(self) -> JetTensor:
        """Gamma'^m_{ij}, axes (m; direction i, argument j)."""
        return self._chain[2]

    @cached_property
    def torsion_mixed(self) -> np.ndarray:
        """T^m_{ij} from the covariant torsion (values)."""
        return einsum("ijk,km->mij", self.torsion.values, self.frame.g_inv.values)

    def torsion_residual(self) -> float:
        gamma = self.gamma.values
        return frob(gamma - gamma.transpose(0, 2, 1) - self.torsion_mixed)

    def metric_parallel_residual(self) -> float:
        return self.frame.metric_parallel_residual(self.gamma.values)

    def structure_parallel_residual(self) -> float:
        return frob(_covariant_p(self.frame.p, self.gamma).values)

    # -- curvature --------------------------------------------------------------

    @property
    def curvature(self) -> JetTensor:
        """Curvature of the natural connection, all indices down, to KEPT_ORDER."""
        return self._chain[3]

    @cached_property
    def p_tensor_residual(self) -> float:
        """Worst residual of "R' is a Riemannian P-tensor" at the frame's point."""
        return max(curv.p_tensor_residuals(self.frame.structure, self.curvature.values).values())

    @cached_property
    def nabla_curvature(self) -> np.ndarray:
        """(grad'_m R')(i,j,k,l) from exact jets, axes (m, i, j, k, l)."""
        r = self.curvature
        dr = r.partial().values  # dr[i,j,k,l,m] = d_m R'_{ijkl}
        gamma = self.gamma.values
        rv = r.values
        out = einsum("ijklm->mijkl", dr)
        out = out - einsum("ami,ajkl->mijkl", gamma, rv)
        out = out - einsum("amj,iakl->mijkl", gamma, rv)
        out = out - einsum("amk,ijal->mijkl", gamma, rv)
        out = out - einsum("aml,ijka->mijkl", gamma, rv)
        return out

    @cached_property
    def nabla_theta(self) -> JetTensor:
        """(grad' theta)(y, z) through the contorsion correction, as values."""
        correction = jt_einsum("ijk,k->ij", self.contorsion, self.frame.omega)
        return self.frame.nabla_theta - correction

    # -- scalar curvatures -------------------------------------------------------

    @property
    def ricci(self) -> JetTensor:
        """Ricci'_jk = g^il R'_ijkl, taken as the trace R'^i_ijk."""
        return self._chain[4]

    @cached_property
    def tau(self) -> JetTensor:
        return jt_einsum("jk,jk->", self.frame.g_inv, self.ricci)

    @cached_property
    def tau_star(self) -> JetTensor:
        """tau*' = g^jk rho*'_jk, where rho*'_jk = g^il R'_ijkm P^m_l."""
        return jt_einsum("jk,jk->", self.frame.g_inv, self._chain[5])

    # -- transfer components -------------------------------------------------------

    @cached_property
    def transfer(self) -> dict[str, np.ndarray | float]:
        """S', S'' and g(p,p), g(q,q), g(p,q) for the vectors p, q relating R to R'."""
        f = self.frame
        lam, mu = self.params.lam, self.params.mu
        two_n = 2.0 * self.n
        theta = f.theta.values
        theta_pf = f.theta_p.values
        omega = f.omega.values
        p_omega = f.p.values @ omega
        nt = self.nabla_theta.values
        ntp = nt @ f.p.values

        p_vec = lam * omega + (mu + 1.0 / two_n) * p_omega
        q_vec = lam * p_omega + mu * omega
        s_prime = (
            lam * nt
            + (mu + 1.0 / two_n) * ntp
            - (np.outer(theta, lam * theta_pf + mu * theta)) / two_n
        )
        s_dprime = (
            lam * nt
            + mu * ntp
            + (np.outer(theta_pf, lam * theta + mu * theta_pf)) / two_n
        )
        gv = f.g.values
        return {
            "s_prime": s_prime,
            "s_dprime": s_dprime,
            "g_pp": float(p_vec @ gv @ p_vec),
            "g_qq": float(q_vec @ gv @ q_vec),
            "g_pq": float(p_vec @ gv @ q_vec),
        }


# ---------------------------------------------------------------------------
# Finite-difference differentials, kept as oracles for the exact jets


def d_scalar(pipeline, point: np.ndarray, step: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference differential with one Richardson extrapolation.

    Returns (gradient, per-coordinate error estimate); ``pipeline`` maps a
    coordinate point to a float.
    """
    point = np.asarray(point, dtype=float)
    dim = point.shape[0]
    grad = np.zeros(dim)
    err = np.zeros(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0

        def central(h: float) -> float:
            return (pipeline(point + h * e) - pipeline(point - h * e)) / (2.0 * h)

        coarse = central(step)
        fine = central(step / 2.0)
        grad[i] = (4.0 * fine - coarse) / 3.0
        err[i] = abs(fine - coarse) / 3.0
    return grad, err


def one_form_exterior_fd(form, point: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Exterior derivative of a 1-form-valued pipeline by central differences."""
    point = np.asarray(point, dtype=float)
    dim = point.shape[0]
    jac = np.zeros((dim, dim))  # jac[i, j] = d_i form_j
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = step
        jac[i] = (np.asarray(form(point + e)) - np.asarray(form(point - e))) / (2.0 * step)
    return jac - jac.T
