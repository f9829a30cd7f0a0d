"""Dense multilinear algebra over a 2n-dimensional real inner-product space.

All tensors are stored with every index covariant, as plain numpy arrays of
rank 1..4; an index is raised by contracting with the inverse metric where a
formula needs it.  Dimensions of interest are small (4..8), so storage is
dense row-major throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Default tolerance for pointwise algebraic identities.
DEFAULT_TOL = 1e-10


class StructureError(ValueError):
    """Raised when a (g, P) pair violates an almost product structure invariant."""


def frob(t: np.ndarray) -> float:
    """Frobenius norm of a dense tensor of any rank."""
    return float(np.sqrt(np.sum(np.asarray(t, dtype=float) ** 2)))


def metric_inverse(g: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive-definite metric.

    Raises StructureError("metric not positive definite") for symmetric inputs
    that are singular or indefinite.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise StructureError("metric must be a square matrix")
    if frob(g - g.T) > 1e-9 * max(1.0, frob(g)):
        raise StructureError("metric not symmetric")
    eigvals = np.linalg.eigvalsh(g)
    if eigvals[0] <= 0:
        raise StructureError("metric not positive definite")
    g_inv = np.linalg.inv(g)
    return 0.5 * (g_inv + g_inv.T)


@dataclass(frozen=True)
class PointStructure:
    """An almost product structure (g, P) on one tangent space.

    g is the metric, P the (1,1) product tensor with P*P = I, trace P = 0 and
    g(Px, Py) = g(x, y).  ``g_inv`` is filled in automatically.
    """

    g: np.ndarray
    p: np.ndarray
    g_inv: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "p", p)
        if g.shape != p.shape or g.ndim != 2:
            raise StructureError("g and P must be square matrices of equal shape")
        if g.shape[0] % 2 != 0 or g.shape[0] < 4:
            raise StructureError("dimension must be an even integer >= 4")
        if self.g_inv is None:
            object.__setattr__(self, "g_inv", metric_inverse(g))

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2

    @property
    def g_assoc(self) -> np.ndarray:
        """Associated metric g~(y, z) = g(y, Pz); symmetric for compatible P."""
        return self.g @ self.p

    def apply_p_form(self, omega: np.ndarray) -> np.ndarray:
        """Pullback of a 1-form through P: (omega o P)_k = omega_m P^m_k."""
        return np.asarray(omega, dtype=float) @ self.p

    def invariant_residuals(self) -> dict[str, float]:
        """Residual norms of the defining invariants (zero for a valid structure).

        The residuals in units of g are divided by max(1, |g|); the others
        carry no units.
        """
        eye = np.eye(self.dim)
        eigvals = np.linalg.eigvalsh(0.5 * (self.g + self.g.T))
        g_scale = max(1.0, frob(self.g))
        return {
            "p_squared": frob(self.p @ self.p - eye),
            "compatibility": frob(self.p.T @ self.g @ self.p - self.g) / g_scale,
            "trace_p": abs(float(np.trace(self.p))),
            "g_symmetry": frob(self.g - self.g.T) / g_scale,
            "g_positivity": max(0.0, -float(eigvals[0])) / g_scale,
            "g_inverse": frob(self.g_inv @ self.g - eye),
        }

    def is_valid(self, tol: float = DEFAULT_TOL) -> bool:
        return max(self.invariant_residuals().values()) < tol


def canonical_structure(dim: int, conformal_factor: float = 1.0) -> PointStructure:
    """Euclidean metric with the block-swap product structure e_a <-> e_{n+a}."""
    if dim % 2 != 0 or dim < 4:
        raise StructureError("dimension must be an even integer >= 4")
    n = dim // 2
    p = np.zeros((dim, dim))
    p[:n, n:] = np.eye(n)
    p[n:, :n] = np.eye(n)
    return PointStructure(conformal_factor * np.eye(dim), p)


def split_structure(dim: int, conformal_factor: float = 1.0) -> PointStructure:
    """Euclidean metric with P = diag(+I_n, -I_n) (product of two flat factors)."""
    if dim % 2 != 0 or dim < 4:
        raise StructureError("dimension must be an even integer >= 4")
    n = dim // 2
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return PointStructure(conformal_factor * np.eye(dim), p)


def random_symmetric2(dim: int, seed: int) -> np.ndarray:
    """Deterministic random symmetric (0,2)-tensor with entries in [-1, 1]."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return 0.5 * (a + a.T)


def random_tensor2(dim: int, seed: int) -> np.ndarray:
    """Deterministic random (0,2)-tensor with entries in [-1, 1], no symmetry."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(dim, dim))


def random_tensor4(dim: int, seed: int) -> np.ndarray:
    """Deterministic random (0,4)-tensor with entries in [-1, 1]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(dim, dim, dim, dim))
