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
checked consequence on conformal-class germs, not an assumption.  For a
symmetric m the contorsion of m^w is m(x,y) w(z) - m(x,z) w(y), so
Gamma' = Gamma + g^-1 K is built straight from the wedges, as
Gamma'^m_ij = Gamma^m_ij + sum m_ij (g^-1 w)^m - (g^-1 m)^m_i w_j.  g~ is
symmetric exactly when P is g-compatible, which ``structure`` checks; the
torsion check compares that Gamma' with the general T.

Each frame quantity has one producer: g^-1 extends the one validated inversion
of the point structure, and each connection builds T, K, Gamma' and R' once.
Every jet is carried only to the derivative levels some reader takes, and a
jet that is only contracted is contracted before it is expanded: the Lee form
comes from rank-1 traces of grad P, so grad P, F, R, omega, grad theta, T and
K are values.  Gamma^m_ij = g^mk Gamma_kij, from the first kind
Gamma_kij = (d_i g_kj + d_j g_ki - d_k g_ij) / 2, and g~ are built only to
the levels Gamma' and R read (``_gamma_order``: 2 on frames of order 3 and
4); every rank-1 trace of Gamma that is differentiated contracts the first
kind instead, with Y_l = g^ij Gamma_lij:

    g^jk Gamma^a_jk = g^al Y_l,   Gamma^i_ik = g^il Gamma_lik,
    Q^i_a Gamma^a_ik = (g^in P^l_n) Gamma_lik   (Q g^-1 = g^-1 P^T),

and the Lee form, theta_k = g_mk (g^ij d_i P^m_j - P^m_n g^nl Y_l)
+ Gamma_kia g^ij P^a_j.  R', Ricci', rho*', tau' and tau*' keep KEPT_ORDER,
the one derivative the second Bianchi identity and the scalar system read,
from a Gamma' to KEPT_ORDER + 1.  The Hessians of tau' and tau*' (order-4 frames)
are built when a check reads them, scalar first: with D_0 = 1, D_1 = Q (the
g-adjoint of P), gamma^a = g^jk Gamma'^a_jk and sigma_s,k = D_s^i_a Gamma'^a_ik,

    tau'_s = g^jk D_s^i_a R'^a_ijk
           = D_s^i_a (d_i gamma^a + Gamma'^a_jk g^kp Gamma'^j_ip) - g^jk d_j sigma_s,k
             + g^jk (d_j D_s^i_a) Gamma'^a_ik + sigma_s,m gamma^m,

where grad' g^-1 = 0, as Gamma' is metric, folds -(d_i g^jk) Gamma'^a_jk and
-g^jk Gamma'^a_jm Gamma'^m_ik into one term.  Only the rank-1 gamma and
sigma read the top level of Gamma', and the scalar products are built only
at the levels above KEPT_ORDER (``jetfields.jt_level``).  P^2 = 1,
trace P = 0 and g(P., P.) = g, which ``structure`` checks, make their wedge
parts sums of forms, so the frame builds the rest once (``trace_pieces``):

    gamma   = g^jk Gamma^a_jk + (dim - 1) g^-1 a - g^-1 (b o P)
    sigma_0 = Gamma^i_ik + (1 - dim) a + b o P
    sigma_1 = Q^i_a Gamma^a_ik + a o P + (1 - dim) b

A frame evaluates each distinct metric and P entry once, at its one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import curvature as curv
from .exprs import Binary, Const, Func, ScalarExpr, parse_expr
from .jetfields import JetTensor, jt_einsum, jt_inverse, jt_level
from .tensors import PointStructure, StructureError, einsum, frob, split_structure


# Relative threshold below which a Lee form's exterior derivative counts as zero.
CLOSED_TOL = 1e-8

# Derivative levels kept by a connection's R' and its traces: the one
# derivative that ``nabla_curvature`` and ``scalar_system`` read.
KEPT_ORDER = 1


def _gamma_order(order: int) -> int:
    """The top level of Gamma, g~ and Gamma' on a frame of ``order``: the levels R and R' read.

    That is KEPT_ORDER + 1, or order - 2 where the Hessians of tau' and tau*'
    need more, and never above order - 1, the top level of d g.
    """
    return max(0, min(order - 1, max(KEPT_ORDER + 1, order - 2)))


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

    def wedge_coefficients(self, n: int) -> tuple[tuple[float, float], tuple[float, float]]:
        """((1/2n + mu, lam), (lam, mu)): a and b of T = g^a + g~^b against (th o P, th)."""
        return (1.0 / (2 * n) + self.mu, self.lam), (self.lam, self.mu)

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
    """The jets of a grid of expressions at ``point``, each distinct entry evaluated once.

    A value or derivative that is not finite (an overflowing exponential, say)
    raises StructureError naming ``label`` and the point.
    """
    distinct: dict[ScalarExpr, int] = {}
    index = np.array([[distinct.setdefault(entry, len(distinct)) for entry in row]
                      for row in grid])
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite instead
        jets = [entry.eval_jet(point, order) for entry in distinct]
    levels = tuple(np.stack([jet.data[k] for jet in jets])[index] for k in range(order + 1))
    return _finite(JetTensor(levels, dim), label, point)


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
    first-kind Christoffel symbols, their traces and the Lee form carry
    order - 1.  The Christoffel symbols Gamma^m_ij and g~ carry only the
    levels Gamma' and R read, ``_gamma_order``; every differentiated trace of
    Gamma contracts the first kind, as the module says.  g^-1 extends the
    inverse ``structure`` validates, so a singular or indefinite metric raises
    StructureError naming the point, whichever field is read first.  The Lee
    form is traced from grad P term by term, so grad P and F, which only
    classification reads, are values (order 0), as are the Levi-Civita
    curvature, the metric dual ``omega`` and ``nabla_theta``.  A connection's
    curvature R' and its scalar curvatures keep KEPT_ORDER levels, the one
    exact derivative that the second Bianchi identity needs; on order 4 their
    Hessians come scalar first, from ``trace_pieces``.
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
        # The validated inverse of the metric values, one order below g: every
        # consumer pairs it with derivatives of g or the Lee form.
        return jt_inverse(self.g.truncated(max(self.order - 1, 0)), self.structure.g_inv)

    @cached_property
    def g_assoc(self) -> JetTensor:
        """g~(y, z) = g(y, Pz), to the levels the wedges of Gamma' read (``_gamma_order``)."""
        return jt_einsum("im,mj->ij", self.g.truncated(_gamma_order(self.order)), self.p)

    @cached_property
    def g_inv_p(self) -> JetTensor:
        """g^il P^m_l, axes (i, m), at order - 1: Q g^-1, read by Q, the Lee form and the traces."""
        return jt_einsum("il,ml->im", self.g_inv, self.p)

    @cached_property
    def p_adjoint(self) -> JetTensor:
        """Q^i_a = g^il P^m_l g_ma, the g-adjoint of P, shared by every connection's rho*'."""
        return jt_einsum("im,ma->ia", self.g_inv_p, self.g)

    @cached_property
    def structure(self) -> PointStructure:
        """(g, P) at the point, with the one inversion of the metric values."""
        g, p = self.g.values, self.p.values  # a non-finite jet's error names the point
        try:
            return PointStructure(g, p)
        except StructureError as exc:
            raise StructureError(f"{exc} at point {tuple(self.point.tolist())}") from None

    @cached_property
    def first_kind(self) -> JetTensor:
        """Gamma_kij = (d_i g_kj + d_j g_ki - d_k g_ij) / 2 at order - 1, by transposes and adds."""
        dg = self.g.partial()  # dg[a, b, c] = d_c g_ab
        return (dg.transpose("kji->kij") + dg - dg.transpose("ijk->kij")).scaled(0.5)

    @cached_property
    def christoffel(self) -> JetTensor:
        """Gamma^m_{ij} = g^mk Gamma_kij, axes (m; direction i, argument j), to ``_gamma_order``."""
        g_inv = self.g_inv.truncated(_gamma_order(self.order))
        return jt_einsum("mk,kij->mij", g_inv, self.first_kind)

    @cached_property
    def christoffel_trace(self) -> JetTensor:
        """g^jk Gamma^a_jk = g^al Y_l, Y_l = g^ij Gamma_lij, at order - 1, from the first kind."""
        y = jt_einsum("ij,lij->l", self.g_inv, self.first_kind)
        return jt_einsum("al,l->a", self.g_inv, y)

    @cached_property
    def curvature(self) -> JetTensor:
        """Levi-Civita curvature, all indices down: R(e_i,e_j,e_k,e_l), as values."""
        up = _curvature_of(self.christoffel.truncated(1))
        return jt_einsum("mijk,ml->ijkl", up, self.g)

    @cached_property
    def nabla_p(self) -> JetTensor:
        """(grad_i P)^m_j, axes (i, m, j), as values."""
        return _covariant_p(self.p, self.christoffel.truncated(0))

    @cached_property
    def f_tensor(self) -> JetTensor:
        """F(x,y,z) = g((grad_x P)y, z), as values."""
        return jt_einsum("imj,mk->ijk", self.nabla_p, self.g)

    @cached_property
    def theta(self) -> JetTensor:
        """Lee form theta_k = g^{ij} F_{ijk}, contracted before it is expanded.

        With D^m = g^{ij} (grad_i P)^m_j
                 = g^{ij} d_i P^m_j + Gamma^m_ia P^a_j g^{ij} - P^m_n (g^{ij} Gamma^n_ij)
        and g g^-1 = 1, theta_k = g_mk D^m is

            theta_k = g_mk (g^ij d_i P^m_j - P^m_n g^nl Y_l) + Gamma_kia g^ij P^a_j,

        Y_l = g^ij Gamma_lij: first-kind traces, so no derivative level of
        the rank-3 grad P, F or Gamma is built.
        """
        dp = self.p.partial()  # dp[m, j, i] = d_i P^m_j
        divergence = (jt_einsum("ij,mji->m", self.g_inv, dp)
                      - jt_einsum("mn,n->m", self.p, self.christoffel_trace))
        return (jt_einsum("mk,m->k", self.g, divergence)
                + jt_einsum("kia,ia->k", self.first_kind, self.g_inv_p))

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

    def metric_parallel_residual(self, gamma: JetTensor) -> float:
        """|grad g| for the connection Gamma^m_{ij}, the largest over the levels of ``gamma``.

        grad g carries the order of ``gamma``: values for a gamma of values,
        and its first derivatives too for an order-1 gamma.
        """
        g = self.g.truncated(gamma.order + 1)
        nabla_g = (
            g.partial().transpose("ijk->kij")  # d_k g_ij
            - jt_einsum("mki,mj->kij", gamma, g)
            - jt_einsum("mkj,im->kij", gamma, g)
        )
        return max(frob(level) for level in nabla_g.data)

    @cached_property
    def trace_pieces(self) -> tuple:
        """The pieces of tau'_s no connection changes, built on the first Hessian read.

        g^-1 (th o P, th), g^jk Gamma^a_jk (``christoffel_trace``) and
        (Gamma^i_ik, Q^i_a Gamma^a_ik) keep order - 1, as they are
        differentiated, the Christoffel traces from the first kind;
        g^jk d_j Q^i_a, axes (k, i, a), order - 2.
        """
        return _hessian_pieces(self)

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


def _hessian_pieces(frame: GermFrame) -> tuple:
    """``GermFrame.trace_pieces``, the Christoffel traces from the first kind.

    Gamma^i_ik = g^il Gamma_lik, and Q^i_a Gamma^a_ik = (g^in P^l_n) Gamma_lik,
    as Q g^-1 = g^-1 P^T.
    """
    f = frame
    first = f.first_kind
    raised = tuple(jt_einsum("ak,k->a", f.g_inv, form) for form in (f.theta_p, f.theta))
    sigma = tuple(jt_einsum("il,lik->k", left, first) for left in (f.g_inv, f.g_inv_p))
    return (raised, f.christoffel_trace, sigma,
            jt_einsum("jk,iaj->kia", f.g_inv, f.p_adjoint.partial()))


def _combine(jets: tuple[JetTensor, JetTensor], coefficients) -> JetTensor:
    """c_0 jets[0] + c_1 jets[1]."""
    return jets[0].scaled(coefficients[0]) + jets[1].scaled(coefficients[1])


def _contorsion_of(t: JetTensor) -> JetTensor:
    """K(x,y,z) = {T(x,y,z) - T(y,z,x) + T(z,x,y)} / 2."""
    return (t - t.transpose("jki->ijk") + t.transpose("kij->ijk")).scaled(0.5)


class ConnectionFrame:
    """A natural connection (lambda, mu) attached to an evaluated germ frame.

    One chain, built once, makes T and K as values, all their readers take,
    Gamma' to KEPT_ORDER + 1 straight from the wedges of T, and R'^m_ijk from
    Gamma'.  It keeps Gamma' as values, and the lowered R', Ricci', rho*',
    tau' and tau*' to KEPT_ORDER levels: values and gradients, from R'.  On
    an order-4 frame ``scalar_curvatures`` adds the Hessians of tau' and
    tau*' when a check reads them, from the identity of the ``germs`` module:
    gamma and sigma_s are sums of the frame's ``trace_pieces`` and Lee forms,
    and eight products with the chain's Gamma' do the rest: two full jets
    and six scalars built only above KEPT_ORDER.  No connection builds a
    level-3 Gamma' or a level-2 R'.
    """

    def __init__(self, frame: GermFrame, params: ConnectionParams):
        self.frame = frame
        self.params = params
        self.dim = frame.dim
        self.n = frame.n

    # -- connection -----------------------------------------------------------

    @cached_property
    def _wedges(self) -> list[tuple[JetTensor, JetTensor | None, JetTensor]]:
        """(m, g^-1 m, w) for each wedge m^w of T = g^a + g~^b, at full order.

        a and b are ``ConnectionParams.wedge_coefficients``.  g^-1 g is the
        identity, given as None, and g^-1 g~ is the g-adjoint Q of P.  A
        wedge whose Lee-form coefficients are both exactly zero is left out:
        g~^b for D, and g^a for D_tilde, where 1/2n + mu cancels.
        """
        f = self.frame
        c_a, c_b = self.params.wedge_coefficients(self.n)
        return [(metric, raised, _combine((f.theta_p, f.theta), c))
                for metric, raised, c in ((f.g, None, c_a), (f.g_assoc, f.p_adjoint, c_b))
                if c[0] or c[1]]

    def _torsion(self) -> JetTensor:
        """T = g^a + g~^b as values: outer products H, then H_ijk - H_jik."""
        h = None
        for metric, _, form in self._wedges:
            outer = jt_einsum("jk,i->ijk", metric.truncated(0), form.truncated(0))
            h = outer if h is None else h + outer
        return h - h.transpose("jik->ijk")

    def _gamma(self) -> JetTensor:
        """Gamma'^m_ij = Gamma^m_ij + g^mk K_ijk straight from the wedges, as the module says.

        It is built to the levels R' reads, KEPT_ORDER + 1, or to those of
        tau', order - 2, where the frame carries more.
        """
        f = self.frame
        order = _gamma_order(f.order)
        gamma = f.christoffel
        diagonal = np.arange(self.dim)
        for metric, raised, form in self._wedges:
            form = form.truncated(order)
            gamma = gamma + jt_einsum("ij,m->mij", metric, jt_einsum("mk,k->m", f.g_inv, form))
            if raised is None:  # delta^m_i w_j: w_j subtracted where m = i, in the fresh sum
                for level, w in zip(gamma.data, form.data):
                    level[diagonal, diagonal] -= w
            else:
                gamma = gamma - jt_einsum("mi,j->mij", raised, form)
        return gamma

    @property
    def _label(self) -> str:
        return f"connection {self.params.label(self.n)}"

    @cached_property
    def _chain(self) -> tuple[JetTensor, ...]:
        """T, K, Gamma', R'_ijkl, Ricci' = R'^i_ijk, rho*' = Q^i_a R'^a_ijk, Gamma' for tau'.

        T and K = {T_ijk - T_jki + T_kij} / 2 are values.  R' is built from
        Gamma' to KEPT_ORDER + 1, so it and its traces carry KEPT_ORDER.  The
        last entry is Gamma' to order - 2, kept for the Hessians of tau' and
        tau*' when the frame is deep enough to carry them, else None.  A T or
        R' that is not finite (a huge lambda or mu) raises StructureError
        naming the connection and the point.
        """
        f = self.frame
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite instead
            torsion = _finite(self._torsion(), f"torsion T of {self._label}", f.point)
            contorsion = _contorsion_of(torsion)
            gamma = self._gamma()
            up = _finite(_curvature_of(gamma.truncated(KEPT_ORDER + 1)),
                         f"curvature R' of {self._label}", f.point)
        lowered = jt_einsum("mijk,ml->ijkl", up, f.g)
        traced = gamma if f.order - 2 > KEPT_ORDER else None
        return (torsion, contorsion, gamma.truncated(0), lowered, up.transpose("iijk->jk"),
                jt_einsum("ia,aijk->jk", f.p_adjoint, up), traced)

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
        """|Gamma'^m_ij - Gamma'^m_ji - T^m_ij| / max(1, |T|).

        Gamma' and T are rounded along different routes, so the mismatch
        grows with |T| (with lambda or mu), as rounding does.
        """
        gamma = self.gamma.values
        torsion = self.torsion_mixed
        return frob(gamma - gamma.transpose(0, 2, 1) - torsion) / max(1.0, frob(torsion))

    def metric_parallel_residual(self) -> float:
        return self.frame.metric_parallel_residual(self.gamma)

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

    @cached_property
    def scalar_curvatures(self) -> tuple[JetTensor, JetTensor]:
        """(tau', tau*') at the frame's full order, order - 2: with Hessians on order 4.

        Levels up to KEPT_ORDER are those of ``tau`` and ``tau_star``; the
        levels above come from the identity in the ``germs`` module, checked
        for finiteness as R' is.
        """
        gamma = self._chain[6]
        if gamma is None:
            return self.tau, self.tau_star
        f, dim, order = self.frame, self.dim, gamma.order
        raised, traced, sigmas, g_dq = f.trace_pieces
        (a_p, a_t), (b_p, b_t) = self.params.wedge_coefficients(self.n)
        forms, k = (f.theta_p, f.theta), dim - 1
        # The closed forms of the module: (dim - 1) a - b o P and a o P - (dim - 1) b
        # against forms, where b o P = b_p th + b_t th o P, as P^2 = 1.
        lee = (k * a_p - b_t, k * a_t - b_p)
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite instead
            g_trace = traced + _combine(raised, lee)  # gamma^a = g^jk Gamma'^a_jk
            sigmas = (sigmas[0] - _combine(forms, lee),
                      sigmas[1] + _combine(forms, (a_t - k * b_p, a_p - k * b_t)))
            raised_gamma = jt_einsum("mik,jk->mij", gamma, f.g_inv)  # g^jk Gamma'^m_ik
            # w[a, i] = d_i gamma^a + Gamma'^a_jk g^kp Gamma'^j_ip
            w = g_trace.partial() + jt_einsum("ajk,jik->ai", gamma, raised_gamma)
            # The scalar products build only their levels above KEPT_ORDER.
            upper = ([], [])
            for k in range(KEPT_ORDER + 1, order + 1):
                heads = (einsum("aa...->...", w.data[k]),
                         jt_level("ia,ai->", f.p_adjoint, w, k)
                         + jt_level("kia,aik->", g_dq, gamma, k))
                for levels, head, sigma in zip(upper, heads, sigmas):
                    levels.append(head + jt_level("m,m->", sigma, g_trace, k)
                                  - jt_level("jk,kj->", f.g_inv, sigma.partial(), k))
        upper = [_finite(JetTensor(tuple(levels), dim),
                         f"curvature R' of {self._label}", f.point).data for levels in upper]
        return (JetTensor(self.tau.data + upper[0], dim),
                JetTensor(self.tau_star.data + upper[1], dim))

    # -- transfer components -------------------------------------------------------

    @cached_property
    def transfer(self) -> dict[str, np.ndarray | float]:
        """S', S'' and g(p,p), g(q,q), g(p,q) for the vectors p, q relating R to R'."""
        f = self.frame
        (a_p, a_t), (b_p, b_t) = self.params.wedge_coefficients(self.n)  # of th o P, th
        two_n = 2.0 * self.n
        theta = f.theta.values
        theta_pf = f.theta_p.values
        omega = f.omega.values
        p_omega = f.p.values @ omega
        nt = self.nabla_theta.values
        ntp = nt @ f.p.values

        p_vec = a_t * omega + a_p * p_omega
        q_vec = b_p * p_omega + b_t * omega
        s_prime = a_t * nt + a_p * ntp - np.outer(theta, b_p * theta_pf + b_t * theta) / two_n
        s_dprime = b_p * nt + b_t * ntp + np.outer(theta_pf, b_p * theta + b_t * theta_pf) / two_n
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
