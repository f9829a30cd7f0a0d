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
of the point structure, and each connection builds T, Gamma' and R' once, when
it is constructed; no check reads the contorsion K, built only when read.
Every jet is carried only to the derivative levels some reader takes, and a
jet that is only contracted is contracted before it is expanded: the Lee form
comes from rank-1 traces of grad P, so grad P, F, R, omega, grad theta, T and
K are values.  Every covariant derivative is ``_covariant``, the Leibniz rule
on the slots of a tensor (Kobayashi & Nomizu, Foundations I, ch. III): grad_m t
adds Gamma^c_ma t^..a.. for each upper slot and subtracts Gamma^a_mc t_..a..
for each lower one.  Gamma^m_ij = g^mk Gamma_kij, from the first kind
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
parts sums of forms, so the frame builds the rest once (``GermFrame.trace_pieces``):

    gamma   = g^jk Gamma^a_jk + (dim - 1) g^-1 a - g^-1 (b o P)
    sigma_0 = Gamma^i_ik + (1 - dim) a + b o P
    sigma_1 = Q^i_a Gamma^a_ik + a o P + (1 - dim) b

A frame evaluates each distinct metric and P entry once, at its one point.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import curvature as curv
from .exprs import Binary, Const, EvalError, Func, ScalarExpr, parse_expr
from .jetfields import JetTensor, jt_einsum, jt_inverse, jt_level
from .tensors import PointStructure, StructureError, einsum, frob


# Derivative levels kept by a connection's R' and its traces: the one
# derivative that ``nabla_curvature`` and ``scalar_system`` read.
KEPT_ORDER = 1

# Threshold of ``ConnectionParams.case``: absolute on lambda and mu, relative on the discriminant.
CASE_TOL = 1e-12


def _gamma_order(order: int) -> int:
    """The top level of Gamma, g~ and Gamma' on a frame of ``order``: the levels R and R' read.

    That is KEPT_ORDER + 1, or order - 2 where the Hessians of tau' and tau*'
    need more, and never above order - 1, the top level of d g.
    """
    return max(0, min(order - 1, max(KEPT_ORDER + 1, order - 2)))


def default_base_point(dim: int) -> np.ndarray:
    """Offset sample point (0.1, 0.2, ...) avoiding coordinate symmetries."""
    return 0.1 * np.arange(1, dim + 1)


class ConnectionParams:
    """Parameters (lambda, mu) selecting one natural connection of the family.

    Equal parameters compare and hash equal, so they key a dict of connections.
    """

    __slots__ = ("lam", "mu")

    def __init__(self, lam: float, mu: float):
        self.lam, self.mu = lam, mu

    def __eq__(self, other):
        if type(other) is not ConnectionParams:
            return NotImplemented
        return (self.lam, self.mu) == (other.lam, other.mu)

    def __hash__(self) -> int:
        return hash((self.lam, self.mu))

    def __repr__(self) -> str:
        return f"ConnectionParams(lam={self.lam!r}, mu={self.mu!r})"

    @staticmethod
    def d() -> "ConnectionParams":
        return ConnectionParams(0.0, 0.0)

    @staticmethod
    def d_tilde(n: int) -> "ConnectionParams":
        return ConnectionParams(0.0, -1.0 / (2 * n))

    def wedge_coefficients(self, n: int) -> tuple[tuple[float, float], tuple[float, float]]:
        """((1/2n + mu, lam), (lam, mu)): a and b of T = g^a + g~^b against (th o P, th)."""
        return (1.0 / (2 * n) + self.mu, self.lam), (self.lam, self.mu)

    def case(self, n: int) -> str:
        """Classify into 'D', 'D_tilde', 'generic' or 'degenerate'.

        'generic' is a discriminant lambda^2 - mu^2 - mu/(2n) above CASE_TOL
        relative to max(1, lambda^2 + mu^2).  Both sides are divided by s^2,
        s = max(1, |lambda|, |mu|), so no parameter overflows the test.
        """
        if abs(self.lam) < CASE_TOL and abs(self.mu) < CASE_TOL:
            return "D"
        if abs(self.lam) < CASE_TOL and abs(self.mu + 1.0 / (2 * n)) < CASE_TOL:
            return "D_tilde"
        s = max(1.0, abs(self.lam), abs(self.mu))
        lam, mu = self.lam / s, self.mu / s
        scale = max(1.0 / s / s, lam * lam + mu * mu)
        if abs(lam * lam - mu * mu - mu / (2 * n * s)) > CASE_TOL * scale:
            return "generic"
        return "degenerate"

    def label(self, n: int) -> str:
        case = self.case(n)
        if case in ("D", "D_tilde"):
            return case
        return f"lam={self.lam:g},mu={self.mu:g}"


class ChartGerm:
    """Local description of (M, P, g): expression grids plus a base point.

    The grids and the point are validated once, here; a germ compares by identity.
    """

    def __init__(self, dim: int, metric: tuple[tuple[ScalarExpr, ...], ...],
                 structure: tuple[tuple[ScalarExpr, ...], ...], base_point: tuple[float, ...],
                 name: str = "germ"):
        if dim % 2 != 0 or dim < 4:
            raise StructureError("germ dimension must be an even integer >= 4")
        for grid, label in ((metric, "metric"), (structure, "structure")):
            if len(grid) != dim or any(len(row) != dim for row in grid):
                raise StructureError(f"{label} grid must be {dim}x{dim}")
        if len(base_point) != dim:
            raise StructureError("base point has wrong length")
        self.dim, self.metric, self.structure = dim, metric, structure
        self.base_point, self.name = base_point, name

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


# Constant grid entries, shared by every germ: expression nodes never change.
_ZERO, _ONE, _MINUS_ONE = Const(0.0), Const(1.0), Const(-1.0)


def conformal_flat_product_germ(n: int, u, name: str | None = None) -> ChartGerm:
    """Metric e^{2u} times the flat product metric, same constant structure.

    ``u`` may be a ScalarExpr or an expression string over x1..x<2n>.
    """
    dim = 2 * n
    if not isinstance(u, ScalarExpr):
        u = parse_expr(str(u), dim)
    factor = Func("exp", Binary("*", Const(2.0), u))
    metric = tuple(
        tuple(factor if i == j else _ZERO for j in range(dim)) for i in range(dim)
    )
    structure = tuple(
        tuple((_ONE if i < n else _MINUS_ONE) if i == j else _ZERO for j in range(dim))
        for i in range(dim)
    )
    return ChartGerm(
        dim,
        metric,
        structure,
        tuple(default_base_point(dim)),
        name or f"conformal_flat_product[u={u}]",
    )


def _grid_jets(grid, point: np.ndarray, order: int, dim: int, label: str) -> JetTensor:
    """The jets of a grid of expressions at ``point``, each distinct entry evaluated once.

    The grid's degree is the largest of its entries'; the levels above it are
    fresh zeros.  A value or derivative that is not finite (an overflowing
    exponential, say) raises StructureError naming ``label`` and the point;
    an EvalError names the entry too.
    """
    distinct: dict[ScalarExpr, int] = {}
    index = np.array([[distinct.setdefault(entry, len(distinct)) for entry in row]
                      for row in grid])
    jets = []
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite instead
        for entry in distinct:
            try:
                jets.append(entry.eval_jet(point, order))
            except EvalError as exc:
                i, j = np.argwhere(index == len(jets))[0]
                raise EvalError(f"{exc} in {label}[{i}][{j}] at point "
                                f"{tuple(point.tolist())}") from None
    degree = max(jet.degree for jet in jets)
    levels = [np.stack([jet.data[k] for jet in jets])[index] for k in range(degree + 1)]
    levels += [np.zeros(index.shape + (dim,) * k) for k in range(degree + 1, order + 1)]
    return _finite(JetTensor(tuple(levels), dim, degree), label, point)


def _finite(jet: JetTensor, label: str, point: np.ndarray) -> JetTensor:
    """``jet``, or a StructureError naming ``label`` and ``point`` if a level is not finite.

    Only the levels up to the jet's degree are scanned: those above are zeros.
    """
    if not all(np.isfinite(level).all() for level in jet.data[: jet.degree + 1]):
        raise StructureError(f"{label} not finite at point {tuple(point.tolist())}")
    return jet


def exterior_derivative(form: JetTensor) -> np.ndarray:
    """(d form)_ij = d_i form_j - d_j form_i of a 1-form jet, at its point."""
    jac = form.partial().values  # jac[j, i] = d_i form_j
    return jac.T - jac


def _covariant(t: JetTensor, gamma: JetTensor, slots: str) -> JetTensor:
    """grad t for the connection Gamma^m_ij, axes (direction m, then the axes of t).

    ``slots`` marks each axis of t upper ("u"), which adds Gamma^c_ma t^..a..,
    or lower ("d"), which subtracts Gamma^a_mc t_..a..: the Leibniz rule on
    the slots of t.  The result carries the order of ``gamma``.
    """
    axes = "abcdefgh"[: len(slots)]
    out = "z" + axes
    grad = t.truncated(gamma.order + 1).partial().transpose(f"{axes}z->{out}")
    for s, (c, kind) in enumerate(zip(axes, slots)):
        moved = axes[:s] + "y" + axes[s + 1:]
        if kind == "u":
            grad = grad + jt_einsum(f"{c}zy,{moved}->{out}", gamma, t)
        else:
            grad = grad - jt_einsum(f"yz{c},{moved}->{out}", gamma, t)
    return grad


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
    curvature, the metric dual ``omega`` and ``nabla_theta``.  grad P, grad g
    and grad theta take the slot rule on Gamma.  A connection's
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
        return _covariant(self.p, self.christoffel.truncated(0), "ud")

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
        return _covariant(self.theta, self.christoffel.truncated(0), "d")

    @cached_property
    def d_theta(self) -> np.ndarray:
        return exterior_derivative(self.theta)

    @cached_property
    def d_theta_p(self) -> np.ndarray:
        return exterior_derivative(self.theta_p)

    def metric_parallel_residual(self, gamma: JetTensor) -> float:
        """|grad g| for the connection Gamma^m_{ij}, the largest over the levels of ``gamma``."""
        return max(frob(level) for level in _covariant(self.g, gamma, "dd").data)

    @cached_property
    def trace_pieces(self) -> tuple:
        """The pieces of tau'_s no connection changes, built on the first Hessian read.

        g^-1 (th o P, th), g^jk Gamma^a_jk (``christoffel_trace``) and
        (Gamma^i_ik, Q^i_a Gamma^a_ik) keep order - 1, as they are
        differentiated, the Christoffel traces from the first kind;
        g^jk d_j Q^i_a, axes (k, i, a), order - 2.  Gamma^i_ik = g^il Gamma_lik,
        and Q^i_a Gamma^a_ik = (g^in P^l_n) Gamma_lik, as Q g^-1 = g^-1 P^T.
        """
        g_inv, first = self.g_inv, self.first_kind
        raised = tuple(jt_einsum("ak,k->a", g_inv, form) for form in (self.theta_p, self.theta))
        sigma = tuple(jt_einsum("il,lik->k", left, first) for left in (g_inv, self.g_inv_p))
        return (raised, self.christoffel_trace, sigma,
                jt_einsum("jk,iaj->kia", g_inv, self.p_adjoint.partial()))

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


def _combine(jets: tuple[JetTensor, JetTensor], coefficients) -> JetTensor:
    """c_0 jets[0] + c_1 jets[1]."""
    return jets[0].scaled(coefficients[0]) + jets[1].scaled(coefficients[1])


def _contorsion_of(t: JetTensor) -> JetTensor:
    """K(x,y,z) = {T(x,y,z) - T(y,z,x) + T(z,x,y)} / 2."""
    return (t - t.transpose("jki->ijk") + t.transpose("kij->ijk")).scaled(0.5)


def _torsion_of(wedges) -> JetTensor:
    """T = sum m^w over ``wedges`` as values: outer products H, then H_ijk - H_jik."""
    h = None
    for metric, _, form in wedges:
        outer = jt_einsum("jk,i->ijk", metric.truncated(0), form.truncated(0))
        h = outer if h is None else h + outer
    return h - h.transpose("jik->ijk")


def _gamma_of(frame: GermFrame, wedges) -> JetTensor:
    """Gamma'^m_ij = Gamma^m_ij + g^mk K_ijk straight from ``wedges``, as the module says.

    It carries the levels of the frame's Christoffel symbols, ``_gamma_order``.
    """
    gamma = frame.christoffel
    order, diagonal = gamma.order, np.arange(frame.dim)
    for metric, raised, form in wedges:
        form = form.truncated(order)
        gamma = gamma + jt_einsum("ij,m->mij", metric, jt_einsum("mk,k->m", frame.g_inv, form))
        if raised is None:  # delta^m_i w_j: w_j subtracted where m = i, in the fresh sum
            for level, w in zip(gamma.data, form.data):
                level[diagonal, diagonal] -= w
        else:
            gamma = gamma - jt_einsum("mi,j->mij", raised, form)
    return gamma


class ConnectionFrame:
    """A natural connection (lambda, mu) attached to an evaluated germ frame.

    Construction builds the one chain T -> Gamma' -> R' and keeps its links
    as plain attributes: ``torsion``, T as values; ``gamma``, the values of
    Gamma'^m_ij (axes m; direction i, argument j), built straight from the
    wedges of T to the levels R' reads, and ``gamma_jet``, Gamma' to
    order - 2 where the Hessians of tau' read it, else its values;
    ``curvature``, the lowered R', with ``ricci`` = R'^i_ijk and
    ``rho_star`` = Q^i_a R'^a_ijk, to KEPT_ORDER levels: values and
    gradients.  A T or R' that is not finite (a huge lambda or mu) raises
    StructureError naming the connection and the point, here.  tau' and
    tau*' are contracted when read; on an order-4 frame ``scalar_curvatures``
    adds their Hessians when a check reads them, from the identity of the
    ``germs`` module: gamma and sigma_s are sums of the frame's
    ``trace_pieces`` and Lee forms, and eight products with ``gamma_jet`` do
    the rest: two full jets and six scalars built only above KEPT_ORDER.  No
    connection builds a level-3 Gamma' or a level-2 R'.  grad' g, grad' P,
    grad' R' and grad' theta take the slot rule on Gamma', so no check reads
    the contorsion K, which is built only when read.
    """

    def __init__(self, frame: GermFrame, params: ConnectionParams):
        self.frame = frame
        self.params = params
        self.dim = frame.dim
        self.n = frame.n
        f = frame
        # (m, g^-1 m, w) for each wedge m^w of T = g^a + g~^b, at full order,
        # a and b from ``ConnectionParams.wedge_coefficients``.  g^-1 g is the
        # identity, given as None, and g^-1 g~ is the g-adjoint Q of P.  A
        # wedge whose Lee-form coefficients are both exactly zero is left out:
        # g~^b for D, and g^a for D_tilde, where 1/2n + mu cancels.
        c_a, c_b = params.wedge_coefficients(self.n)
        wedges = [(metric, raised, _combine((f.theta_p, f.theta), c))
                  for metric, raised, c in ((f.g, None, c_a), (f.g_assoc, f.p_adjoint, c_b))
                  if c[0] or c[1]]
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite instead
            self.torsion = _finite(_torsion_of(wedges), f"torsion T of {self._label}", f.point)
            gamma = _gamma_of(f, wedges)
            up = _finite(_curvature_of(gamma.truncated(KEPT_ORDER + 1)),
                         f"curvature R' of {self._label}", f.point)
        self.gamma = gamma.truncated(0)
        self.gamma_jet = gamma if f.order - 2 > KEPT_ORDER else self.gamma
        self.curvature = jt_einsum("mijk,ml->ijkl", up, f.g)
        self.ricci = up.transpose("iijk->jk")
        self.rho_star = jt_einsum("ia,aijk->jk", f.p_adjoint, up)

    @property
    def _label(self) -> str:
        return f"connection {self.params.label(self.n)}"

    @cached_property
    def contorsion(self) -> JetTensor:
        """K(x,y,z) = {T(x,y,z) - T(y,z,x) + T(z,x,y)} / 2, as values."""
        return _contorsion_of(self.torsion)

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
        return frob(_covariant(self.frame.p, self.gamma, "ud").values)

    # -- curvature --------------------------------------------------------------

    @cached_property
    def p_tensor_residual(self) -> float:
        """Worst residual of "R' is a Riemannian P-tensor" at the frame's point."""
        return max(curv.p_tensor_residuals(self.frame.structure, self.curvature.values).values())

    @cached_property
    def p_tensor_defect(self) -> float:
        """Level 1 of "R' is a Riemannian P-tensor": the worst of the pair skews, the
        first Bianchi sum and R'(x,y,Pz,Pw) - R' (with P's jet) on the first
        derivatives of R', relative to max(1, |R'|, |d R'|).
        """
        r, p = self.curvature, self.frame.p
        d_r = r.data[1]  # with its derivative axis first, a stack of rank-4 tensors
        defects = [frob(v) for v in curv.curvature_like_residuals(d_r.transpose(4, 0, 1, 2, 3))
                   .values()]
        twisted = jt_level("ijkb,bl->ijkl", jt_einsum("ijab,ak->ijkb", r, p), p, 1)
        defects.append(frob(twisted - d_r))
        return max(defects) / max(1.0, frob(r.values), frob(d_r))

    @cached_property
    def nabla_curvature(self) -> np.ndarray:
        """(grad'_m R')(i,j,k,l) from exact jets, axes (m, i, j, k, l)."""
        return _covariant(self.curvature, self.gamma, "dddd").values

    @cached_property
    def nabla_theta(self) -> JetTensor:
        """(grad' theta)(y, z) = d_y theta_z - Gamma'^k_yz theta_k, as values."""
        return _covariant(self.frame.theta, self.gamma, "d")

    # -- scalar curvatures -------------------------------------------------------

    @cached_property
    def tau(self) -> JetTensor:
        return jt_einsum("jk,jk->", self.frame.g_inv, self.ricci)

    @cached_property
    def tau_star(self) -> JetTensor:
        """tau*' = g^jk rho*'_jk, where rho*'_jk = g^il R'_ijkm P^m_l."""
        return jt_einsum("jk,jk->", self.frame.g_inv, self.rho_star)

    @cached_property
    def scalar_curvatures(self) -> tuple[JetTensor, JetTensor]:
        """(tau', tau*') at the frame's full order, order - 2: with Hessians on order 4.

        Levels up to KEPT_ORDER are those of ``tau`` and ``tau_star``; the
        levels above come from the identity in the ``germs`` module, checked
        for finiteness as R' is.
        """
        f, dim, gamma = self.frame, self.dim, self.gamma_jet
        if f.order - 2 <= KEPT_ORDER:
            return self.tau, self.tau_star
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
            for k in range(KEPT_ORDER + 1, gamma.order + 1):
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

    @cached_property
    def transfer_psi(self) -> np.ndarray:
        """psi1(S') + psi2(S''), for the transfer tensors S' and S''."""
        ps, tr = self.frame.structure, self.transfer
        return curv.psi1(ps, tr["s_prime"]) + curv.psi2(ps, tr["s_dprime"])

    @cached_property
    def trace_scalars(self) -> dict[str, float]:
        """The eight scalars of the dim-4 trace identities.

        theta(omega) and theta(P omega), the traces of grad theta against g^-1
        and against g^-1 P, and those of S' and S''.
        """
        f = self.frame
        gi, pv, omega, nt = f.g_inv.values, f.p.values, f.omega.values, f.nabla_theta.values
        tr = self.transfer
        tr_s = lambda s: float(einsum("ij,ij->", gi, s))
        tr_s_assoc = lambda s: float(einsum("ij,im,mj->", gi, s, pv))
        return {
            "theta_omega": float(f.theta.values @ omega),
            "theta_p_omega": float(f.theta_p.values @ omega),
            "div_omega": tr_s(nt),
            "div_p_omega": tr_s_assoc(nt),
            "tr_s_prime": tr_s(tr["s_prime"]),
            "tr_s_prime_assoc": tr_s_assoc(tr["s_prime"]),
            "tr_s_dprime": tr_s(tr["s_dprime"]),
            "tr_s_dprime_assoc": tr_s_assoc(tr["s_dprime"]),
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
