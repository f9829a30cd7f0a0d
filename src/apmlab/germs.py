"""Coordinate-chart germs: connections, curvature and the Lee-form pipelines.

A ``ChartGerm`` describes (M, P, g) near a point through scalar expressions
for the metric and structure components.  ``GermFrame`` evaluates the whole
Levi-Civita pipeline at one point on exact derivative jets; attaching
``ConnectionParams`` (lambda, mu) produces a ``ConnectionFrame`` for the
two-parameter family of natural connections, whose torsion is

    T(x,y,z) = {g(y,z) th(Px) - g(x,z) th(Py)} / 2n
             + lam {g(y,z) th(x) - g(x,z) th(y) + g(y,Pz) th(Px) - g(x,Pz) th(Py)}
             + mu  {g(y,Pz) th(x) - g(x,Pz) th(y) + g(y,z) th(Px) - g(x,z) th(Py)}

with th the Lee form.  The connection itself is realized through the
contorsion K(x,y,z) = {T(x,y,z) - T(y,z,x) + T(z,x,y)} / 2, which is the
unique metric connection with that torsion; parallelism of P is then a
checked consequence on conformal-class germs, not an assumption.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exprs import Binary, Const, Func, ScalarExpr, parse_expr
from .jetfields import JetTensor, jt_einsum, jt_inverse
from .tensors import PointStructure, StructureError, frob


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

    def discriminant(self, n: int) -> float:
        """lambda^2 - mu^2 - mu/(2n); nonzero exactly for the generic case."""
        return self.lam**2 - self.mu**2 - self.mu / (2 * n)

    def case(self, n: int, eps: float = 1e-12) -> str:
        """Classify into 'D', 'D_tilde', 'generic' or 'degenerate'."""
        if abs(self.lam) < eps and abs(self.mu) < eps:
            return "D"
        if abs(self.lam) < eps and abs(self.mu + 1.0 / (2 * n)) < eps:
            return "D_tilde"
        if abs(self.discriminant(n)) > eps * max(1.0, self.lam**2 + self.mu**2):
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

    def structure_at(self, point=None) -> PointStructure:
        return self.frame(point, order=0).structure

    def validate(self, samples: int = 4, seed: int = 0, scale: float = 0.05) -> dict[str, float]:
        """Worst structure-invariant residuals at base point and nearby samples."""
        rng = np.random.default_rng(seed)
        points = [np.asarray(self.base_point, float)]
        points += [
            points[0] + rng.uniform(-scale, scale, size=self.dim) for _ in range(samples)
        ]
        worst: dict[str, float] = {}
        for pt in points:
            for key, val in self.structure_at(pt).invariant_residuals().items():
                worst[key] = max(worst.get(key, 0.0), val)
        return worst


def _const_grid(values: np.ndarray) -> tuple[tuple[ScalarExpr, ...], ...]:
    return tuple(tuple(Const(float(v)) for v in row) for row in values)


def flat_product_germ(n: int, name: str = "flat_product") -> ChartGerm:
    """Flat product metric with the constant split structure diag(+I_n, -I_n)."""
    dim = 2 * n
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return ChartGerm(
        dim,
        _const_grid(np.eye(dim)),
        _const_grid(p),
        tuple(default_base_point(dim)),
        name,
    )


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
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return ChartGerm(
        dim,
        metric,
        _const_grid(p),
        tuple(default_base_point(dim)),
        name or f"conformal_flat_product[u={u}]",
    )


def _grid_jets(grid, point: np.ndarray, order: int, dim: int) -> JetTensor:
    """Stack the jets of a grid of expressions, evaluating each distinct entry once."""
    jets: dict[ScalarExpr, JetTensor] = {}
    for row in grid:
        for entry in row:
            if entry not in jets:
                jets[entry] = entry.eval_jet(point, order)
    return JetTensor(
        tuple(
            np.array([[jets[entry].data[k] for entry in row] for row in grid])
            for k in range(order + 1)
        ),
        dim,
    )


class GermFrame:
    """Levi-Civita pipeline of a germ at one point, on derivative jets.

    Each derivative taken along the pipeline costs one jet order: the
    Christoffel symbols carry order - 1 and the curvature tensors order - 2.
    Order 3 leaves one exact derivative of curvature, so covariant derivatives
    of curvature need no finite differencing; order 4 leaves exact Hessians
    of the scalar curvatures.
    """

    def __init__(self, germ: ChartGerm, point, order: int = 3):
        self.germ = germ
        self.point = np.asarray(point, dtype=float)
        self.order = order
        self.dim = germ.dim
        self.n = germ.n
        self._connections = weakref.WeakValueDictionary()

    # -- fields ---------------------------------------------------------------

    @cached_property
    def g(self) -> JetTensor:
        return _grid_jets(self.germ.metric, self.point, self.order, self.dim)

    @cached_property
    def p(self) -> JetTensor:
        return _grid_jets(self.germ.structure, self.point, self.order, self.dim)

    @cached_property
    def g_inv(self) -> JetTensor:
        # One order below g, like g_assoc: every consumer pairs them with
        # derivatives of g or with the Lee form.
        return jt_inverse(self.g.truncated(max(self.order - 1, 0)))

    @cached_property
    def g_assoc(self) -> JetTensor:
        # g~(y, z) = g(y, Pz)
        return jt_einsum("im,mj->ij", self.g.truncated(max(self.order - 1, 0)), self.p)

    @cached_property
    def structure(self) -> PointStructure:
        return PointStructure(self.g.values, self.p.values)

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
        """Levi-Civita curvature, all indices down: R(e_i,e_j,e_k,e_l)."""
        up = _curvature_of(self.christoffel)
        return jt_einsum("mijk,ml->ijkl", up, self.g)

    @cached_property
    def nabla_p(self) -> JetTensor:
        """(grad_i P)^m_j, axes (i, m, j)."""
        dp = self.p.partial()  # dp[m, j, i] = d_i P^m_j
        return (
            dp.transpose("mji->imj")
            + jt_einsum("mik,kj->imj", self.christoffel, self.p)
            - jt_einsum("kij,mk->imj", self.christoffel, self.p)
        )

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
        """Metric dual of the Lee form."""
        return jt_einsum("kl,l->k", self.g_inv, self.theta)

    @cached_property
    def nabla_theta(self) -> JetTensor:
        """(grad theta)(y, z) with axes (direction y, argument z)."""
        dtheta = self.theta.partial()  # dtheta[j, i] = d_i theta_j
        return dtheta.transpose("ji->ij") - jt_einsum("kij,k->ij", self.christoffel, self.theta)

    @cached_property
    def d_theta(self) -> np.ndarray:
        nt = self.nabla_theta.values
        return nt - nt.T

    @cached_property
    def d_theta_p(self) -> np.ndarray:
        # full exterior derivative of theta o P, including the grad P term
        nt = self.nabla_theta.values
        ntp = nt @ self.p.values + np.einsum("m,imj->ij", self.theta.values, self.nabla_p.values)
        return ntp - ntp.T

    def closedness(self, tol: float = 1e-8) -> dict[str, bool]:
        scale = max(1.0, frob(self.theta.values))
        return {
            "theta_closed": frob(self.d_theta) / scale < tol,
            "theta_p_closed": frob(self.d_theta_p) / scale < tol,
        }

    def connection(self, params: ConnectionParams) -> "ConnectionFrame":
        """The natural connection ``params`` on this frame.

        While a caller holds the result, equal params return the same object,
        so its torsion, R' and tau' are computed once.  The frame refers to its
        connections weakly: each connection refers to its frame, and links both
        ways would form a cycle that keeps large jets alive until the garbage
        collector runs.
        """
        cf = self._connections.get(params)
        if cf is None:
            cf = ConnectionFrame(self, params)
            self._connections[params] = cf
        return cf


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


# Derivative levels kept by a connection's cached torsion, contorsion and Gamma'.
KEPT_ORDER = 1


class ConnectionFrame:
    """A natural connection (lambda, mu) attached to an evaluated germ frame.

    The cached torsion, contorsion and Gamma' keep KEPT_ORDER derivative
    levels: apart from R', their consumers read values only.  ``curvature``
    builds Gamma' at the frame's full order itself and drops it, so a frame
    holding several connections stays small.
    """

    def __init__(self, frame: GermFrame, params: ConnectionParams):
        self.frame = frame
        self.params = params
        self.dim = frame.dim
        self.n = frame.n

    # -- connection -----------------------------------------------------------

    def _torsion_at(self, order: int) -> JetTensor:
        f = self.frame
        lam, mu = self.params.lam, self.params.mu
        theta, theta_p = f.theta.truncated(order), f.theta_p.truncated(order)

        def wedge(metric: JetTensor, form: JetTensor) -> JetTensor:
            return jt_einsum("jk,i->ijk", metric, form) - jt_einsum("ik,j->ijk", metric, form)

        t = wedge(f.g, theta_p).scaled(1.0 / (2 * self.n))
        t = t + (wedge(f.g, theta) + wedge(f.g_assoc, theta_p)).scaled(lam)
        t = t + (wedge(f.g_assoc, theta) + wedge(f.g, theta_p)).scaled(mu)
        return t

    def _gamma_of(self, contorsion: JetTensor) -> JetTensor:
        """Gamma'^m_{ij} = Gamma^m_{ij} + g^{mk} K_{ijk}."""
        return self.frame.christoffel.truncated(contorsion.order) + jt_einsum(
            "mk,ijk->mij", self.frame.g_inv, contorsion
        )

    @cached_property
    def torsion(self) -> JetTensor:
        return self._torsion_at(KEPT_ORDER)

    @cached_property
    def contorsion(self) -> JetTensor:
        return _contorsion_of(self.torsion)

    @cached_property
    def gamma(self) -> JetTensor:
        """Gamma'^m_{ij}, axes (m; direction i, argument j)."""
        return self._gamma_of(self.contorsion)

    @cached_property
    def torsion_mixed(self) -> np.ndarray:
        """T^m_{ij} from the covariant torsion (values)."""
        return np.einsum("ijk,km->mij", self.torsion.values, self.frame.g_inv.values)

    def torsion_residual(self) -> float:
        gamma = self.gamma.values
        return frob(gamma - gamma.transpose(0, 2, 1) - self.torsion_mixed)

    def metric_parallel_residual(self) -> float:
        f = self.frame
        dg = f.g.partial().values  # dg[i, j, k] = d_k g_ij
        gamma = self.gamma.values
        nabla_g = (
            np.einsum("ijk->kij", dg)
            - np.einsum("mki,mj->kij", gamma, f.g.values)
            - np.einsum("mkj,im->kij", gamma, f.g.values)
        )
        return frob(nabla_g)

    def structure_parallel_residual(self) -> float:
        f = self.frame
        dp = f.p.partial().values  # dp[i, j, k] = d_k P^i_j
        gamma = self.gamma.values
        nabla_p = (
            np.einsum("ijk->kij", dp)
            + np.einsum("ikm,mj->kij", gamma, f.p.values)
            - np.einsum("mkj,im->kij", gamma, f.p.values)
        )
        return frob(nabla_p)

    # -- curvature --------------------------------------------------------------

    @cached_property
    def curvature(self) -> JetTensor:
        """Curvature of the natural connection, all indices down."""
        gamma = self._gamma_of(_contorsion_of(self._torsion_at(self.frame.theta.order)))
        return jt_einsum("mijk,ml->ijkl", _curvature_of(gamma), self.frame.g)

    @cached_property
    def nabla_curvature(self) -> np.ndarray:
        """(grad'_m R')(i,j,k,l) from exact jets, axes (m, i, j, k, l)."""
        r = self.curvature
        dr = r.partial().values  # dr[i,j,k,l,m] = d_m R'_{ijkl}
        gamma = self.gamma.values
        rv = r.values
        out = np.einsum("ijklm->mijkl", dr)
        out = out - np.einsum("ami,ajkl->mijkl", gamma, rv)
        out = out - np.einsum("amj,iakl->mijkl", gamma, rv)
        out = out - np.einsum("amk,ijal->mijkl", gamma, rv)
        out = out - np.einsum("aml,ijka->mijkl", gamma, rv)
        return out

    @cached_property
    def nabla_theta(self) -> JetTensor:
        """(grad' theta)(y, z) through the contorsion correction."""
        correction = jt_einsum("ijk,k->ij", self.contorsion, self.frame.omega)
        return self.frame.nabla_theta - correction

    # -- scalar curvatures -------------------------------------------------------

    @cached_property
    def ricci(self) -> JetTensor:
        return jt_einsum("il,ijkl->jk", self.frame.g_inv, self.curvature)

    @cached_property
    def tau(self) -> JetTensor:
        return jt_einsum("jk,jk->", self.frame.g_inv, self.ricci)

    @cached_property
    def tau_star(self) -> JetTensor:
        rho_star = jt_einsum("ijkm,ml->ijkl", self.curvature, self.frame.p)
        rho_star = jt_einsum("il,ijkl->jk", self.frame.g_inv, rho_star)
        return jt_einsum("jk,jk->", self.frame.g_inv, rho_star)

    # -- transfer components -------------------------------------------------------

    @cached_property
    def transfer(self) -> dict[str, np.ndarray | float]:
        """Vectors p, q and tensors S', S'' relating R to R'."""
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
            "p": p_vec,
            "q": q_vec,
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
