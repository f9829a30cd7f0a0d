"""Dense multilinear algebra over a 2n-dimensional real inner-product space.

All tensors are stored with every index covariant, as plain numpy arrays of
rank 1..4; an index is raised by contracting with the inverse metric where a
formula needs it.  Dimensions of interest are small (4..8), so storage is
dense row-major throughout.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import inf, prod, sqrt

import numpy as np

# Default tolerance for pointwise algebraic identities.
DEFAULT_TOL = 1e-10

# The matmul/einsum crossover: a contraction whose index lengths multiply to
# fewer terms than this stays one np.einsum call, whose C loop then beats the
# transposes, reshapes and Python frame around a matmul.  Measured over every
# contraction of three bundled scenarios and of order-3 frames in dims 4, 6
# and 8, on a shared 2-core x86-64 Xeon (numpy 2.4, OpenBLAS 0.3.31, one
# thread): the median per-call speed-up of the matmul plan over np.einsum is
# 0.92 at 512-1023 terms, 1.13 at 1024-2047 and 1.78 at 4096-8191.
MATMUL_MIN_TERMS = 1024


class StructureError(ValueError):
    """Raised when a (g, P) pair violates an almost product structure invariant."""


def frob(t: np.ndarray, rank: int | None = None):
    """Frobenius norm of a dense tensor of any rank.

    With ``rank``, the norms of the trailing rank-``rank`` tensors that
    ``t`` stacks over its leading sample axes, as an array over those axes
    (a float when there are none).  Each is the plain sum of squares, unless
    it overflows: then the entries are scaled by the largest |entry| first,
    so a finite tensor has a finite norm.
    """
    t = np.asarray(t, dtype=float)
    stacked = rank is not None and t.ndim > rank
    if not stacked:
        total = float(np.vdot(t, t))
        if total < inf:  # false for NaN too
            return sqrt(total)
    samples = t.shape[: t.ndim - rank] if stacked else ()
    blocks = t.reshape(prod(samples), -1)
    norms = np.sqrt(np.einsum("si,si->s", blocks, blocks))
    if not np.isfinite(norms).all():
        scale = np.abs(blocks).max(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = blocks / scale[:, None]
            rescaled = scale * np.sqrt(np.einsum("si,si->s", scaled, scaled))
        norms = np.where(np.isfinite(norms) | ~np.isfinite(scale), norms, rescaled)
    return norms.reshape(samples) if stacked else float(norms[0])


def lead(t: np.ndarray, rank: int) -> str:
    """Einsum letters for the sample axes of ``t``: those before its trailing rank-``rank`` tensor.

    Upper-case, so they never meet a slot letter; a spec names them
    explicitly, never as an ellipsis, which ``contraction`` leaves to
    np.einsum.
    """
    return "ABCDEFGH"[: t.ndim - rank]


def einsum(spec: str, *operands: np.ndarray):
    """np.einsum(spec, *operands) for arrays, on the plan cached for their shapes."""
    return contraction(spec, tuple([op.shape for op in operands]))(*operands)


@lru_cache(maxsize=None)
def contraction(spec: str, shapes: tuple[tuple[int, ...], ...]):
    """The function of the operands that evaluates einsum(spec, *operands) for ``shapes``.

    The one rule: a two-operand product that contracts an index and keeps
    free indices on both sides, with at least MATMUL_MIN_TERMS terms (the
    product of the lengths of the spec's indices), runs as one 2-D matmul on
    transposed, reshaped operands.  Everything else -- products of three or
    more operands, outer and Hadamard products, traces, permutations,
    scalars, specs with an ellipsis -- is one plain np.einsum.  A caller
    that multiplies three factors writes it as two products.  The returned
    function works for operands of any shape with the same ranks; ``shapes``
    only picks the path.
    """
    plain = partial(np.einsum, spec)
    if "->" not in spec or "." in spec:
        return plain
    lhs, out = spec.split("->")
    terms = lhs.split(",")
    size = {c: n for term, shape in zip(terms, shapes) for c, n in zip(term, shape)}
    if len(terms) != 2 or prod(size.values()) < MATMUL_MIN_TERMS:
        return plain
    return _matmul(*terms, out) or plain


def _matmul(sa: str, sb: str, out: str):
    """einsum(f"{sa},{sb}->{out}") as one 2-D matmul, or None if it is not that shape.

    It is when every index the operands share is summed, every other one is
    kept, no operand or the output repeats an index, and each operand keeps
    at least one.  a is moved to (kept, summed) and b to (summed, kept), each
    is reshaped to a matrix (a copy when the moved view is not contiguous),
    and the product is reshaped and moved to the order of ``out``.
    """
    con = set(sa) & set(sb)
    if (not con or con & set(out) or set(sa) ^ set(sb) != set(out)
            or not set(sa) - con or not set(sb) - con
            or len(set(sa)) < len(sa) or len(set(sb)) < len(sb) or len(set(out)) < len(out)):
        return None
    summed = "".join(c for c in sa if c in con)
    fa = "".join(c for c in sa if c not in con)
    fb = "".join(c for c in sb if c not in con)
    pa = tuple(sa.index(c) for c in fa + summed)
    pb = tuple(sb.index(c) for c in summed + fb)
    po = tuple((fa + fb).index(c) for c in out)
    nfa, nc = len(fa), len(con)

    def run(a, b):
        a, b = a.transpose(pa), b.transpose(pb)
        kept_a, kept_b, k = a.shape[:nfa], b.shape[nc:], prod(b.shape[:nc])
        product = a.reshape(prod(kept_a), k) @ b.reshape(k, prod(kept_b))
        return product.reshape(kept_a + kept_b).transpose(po)

    return run


def metric_inverse(g: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive-definite metric.

    Raises StructureError("metric not positive definite") when a symmetric
    input is singular or indefinite, and "metric not symmetric" when it is
    not symmetric.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise StructureError("metric must be a square matrix")
    if frob(g - g.T) > 1e-9 * max(1.0, frob(g)):
        raise StructureError("metric not symmetric")
    if np.linalg.eigvalsh(g)[0] <= 0:
        raise StructureError("metric not positive definite")
    g_inv = np.linalg.inv(g)
    return 0.5 * (g_inv + g_inv.T)


class PointStructure:
    """An almost product structure (g, P) on one tangent space.

    g is the metric, P the (1,1) product tensor with P*P = I, trace P = 0 and
    g(Px, Py) = g(x, y).  ``g_inv`` is computed from g.  A structure
    compares and hashes by identity, and is not changed once built: the
    tensors derived from it are cached on it, read-only: ``_pi_tensors`` by
    ``curvature.pi_tensors``, ``_adapted_basis`` by
    ``structure.adapted_orthonormal_basis`` and ``_block_factors``, the
    Kronecker factors of ``p_tensor_projection``, by ``curvature._block_factors``.
    """

    def __init__(self, g: np.ndarray, p: np.ndarray):
        g = np.asarray(g, dtype=float)
        p = np.asarray(p, dtype=float)
        if g.shape != p.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise StructureError("g and P must be square matrices of equal shape")
        if g.shape[0] % 2 != 0 or g.shape[0] < 4:
            raise StructureError("dimension must be an even integer >= 4")
        self.g, self.p = g, p
        self.g_inv = metric_inverse(g)
        self._pi_tensors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._adapted_basis: np.ndarray | None = None
        self._block_factors: tuple[np.ndarray, ...] | None = None

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

    def invariant_residuals(self) -> dict[str, float]:
        """Residual norms of the defining invariants (zero for a valid structure).

        The residuals in units of g are divided by max(1, |g|); the others
        carry no units.
        """
        g, p = self.g, self.p
        eye = np.eye(self.dim)
        eigvals = np.linalg.eigvalsh(0.5 * (g + g.T))
        g_scale = max(1.0, frob(g))
        return {
            "p_squared": frob(p @ p - eye),
            "compatibility": frob(p.T @ g @ p - g) / g_scale,
            "trace_p": abs(float(np.trace(p))),
            "g_symmetry": frob(g - g.T) / g_scale,
            "g_positivity": max(0.0, -float(eigvals[0])) / g_scale,
            "g_inverse": frob(self.g_inv @ g - eye),
        }

    def require_valid(self) -> None:
        """Raise StructureError naming each invariant whose residual is not below DEFAULT_TOL."""
        failed = [k for k, v in self.invariant_residuals().items() if not v < DEFAULT_TOL]
        if failed:
            raise StructureError(f"invalid almost product structure: {', '.join(failed)}")


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


def _uniform(shape: tuple[int, ...], seed) -> np.ndarray:
    """Entries uniform in [-1, 1] drawn from default_rng(seed).

    A sequence of seeds stacks one draw per seed on a leading sample axis.
    """
    if np.ndim(seed):
        return np.stack([_uniform(shape, s) for s in seed])
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)


def random_symmetric2(dim: int, seed) -> np.ndarray:
    """Deterministic random symmetric (0,2)-tensor with entries in [-1, 1].

    A sequence of seeds gives one tensor per seed, stacked on a leading axis.
    """
    a = _uniform((dim, dim), seed)
    return 0.5 * (a + a.swapaxes(-1, -2))


def random_tensor2(dim: int, seed) -> np.ndarray:
    """Deterministic random (0,2)-tensor with entries in [-1, 1], no symmetry.

    A sequence of seeds gives one tensor per seed, stacked on a leading axis.
    """
    return _uniform((dim, dim), seed)


def random_tensor4(dim: int, seed) -> np.ndarray:
    """Deterministic random (0,4)-tensor with entries in [-1, 1].

    A sequence of seeds gives one tensor per seed, stacked on a leading axis.
    """
    return _uniform((dim, dim, dim, dim), seed)
