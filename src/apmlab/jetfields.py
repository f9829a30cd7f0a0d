"""Tensor fields carrying derivative jets of any order, vectorized over components.

A ``JetTensor`` stores a tensor field's component values at one point with
their coordinate derivatives up to a chosen order: ``data[k]`` has the
component shape followed by k derivative axes of length ``dim``, symmetric
in those axes.  Scalars are 0-d jet tensors; ``partial()`` peels one level
off.

Products follow the order-k Leibniz rule: each split of k derivatives
between the factors is one contraction, planned once per (spec, order, dim)
by ``tensors.contraction``.  Each level is one unit of work (``jt_level``),
so a reader of the top levels builds only those.  Functions of a jet extend
it level by level (Taylor arithmetic; Griewank & Walther, *Evaluating
Derivatives*, ch. 13): level k of f(u) is level k - 1 of f'(u) du, from
levels already built.  exp reads its own levels, sin and cos each other's;
ln, the reciprocal and the matrix inverse solve level k of u d(ln u) = du,
u (1/u) = 1 and A X = 1 for the split that holds the new level; u^k is
products, by repeated squaring (of 1/u when k < 0).

Each jet carries a degree bound, the highest level that can be nonzero: 0
for a constant, 1 for a coordinate, the order when unknown, -1 for the zero
jet (``partial`` of a constant).  Sums take the larger bound, products the
sum, and functions of a constant stay constant.  Levels above the bound are
exact zeros, so a product forms only the splits j + (k - j) with
j <= degree(a) and k - j <= degree(b) (the structural sparsity of Taylor
arithmetic; Griewank & Walther, ch. 13), with no test on the data: a level
with no such split is fresh zeros, as readers write into levels in place,
and full-degree operands take every split.  A sum with a zero jet adds 0.0
to the other operand's levels.  The splits of a level are summed in place
on the first one's product, copied first when that product has several
shuffles, which the later adds would otherwise read back.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from string import ascii_lowercase, ascii_uppercase

import numpy as np

from .tensors import contraction, einsum


class JetOrderError(ValueError):
    """Raised when an operation needs a higher derivative order than carried."""


class JetTensor:
    __slots__ = ("data", "dim", "degree")

    def __init__(self, data: tuple[np.ndarray, ...], dim: int, degree: int | None = None):
        # Levels are stored as given: jet arithmetic makes float levels, and
        # ``constant`` and ``jt_inverse`` convert outside values.  ``degree``
        # (the order when not given) is at most the order and at least -1.
        self.data = data
        self.dim = dim
        self.degree = len(data) - 1 if degree is None else degree

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(values, dim: int, order: int) -> "JetTensor":
        values = np.asarray(values, dtype=float)
        data = [values]
        for k in range(1, order + 1):
            data.append(np.zeros(values.shape + (dim,) * k))
        return JetTensor(tuple(data), dim, 0)

    @staticmethod
    def variable(value, index: int, dim: int, order: int) -> "JetTensor":
        """The coordinate function x_<index> (zero-based) at ``value``, a number or an array of them."""
        jet = JetTensor.constant(value, dim, order)
        if order >= 1:
            jet.data[1][..., index] = 1.0
            jet.degree = 1
        return jet

    # -- basics --------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.data) - 1

    @property
    def values(self) -> np.ndarray:
        return self.data[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data[0].shape

    def truncated(self, order: int) -> "JetTensor":
        return JetTensor(self.data[: order + 1], self.dim, min(self.degree, order))

    def partial(self) -> "JetTensor":
        """Coordinate derivative: appends one axis to the component shape.

        result.values[..., k] = d_k (self.values[...]); order drops by one.
        """
        if self.order < 1:
            raise JetOrderError("jet order insufficient for a derivative")
        return JetTensor(self.data[1:], self.dim, max(self.degree, 0) - 1)

    def _operands(self, other: "JetTensor") -> tuple:
        """Both operands' levels to the lower order, a zero jet's as 0.0 beside one that is not."""
        order = min(self.order, other.order)
        zero = (0.0,) * (order + 1)
        a = zero if self.degree < 0 <= other.degree else self.data[: order + 1]
        b = zero if other.degree < 0 <= self.degree else other.data[: order + 1]
        return a, b, max(self.degree, other.degree)

    def __add__(self, other: "JetTensor") -> "JetTensor":
        a, b, degree = self._operands(other)
        return JetTensor(tuple([x + y for x, y in zip(a, b)]), self.dim, degree)

    def __sub__(self, other: "JetTensor") -> "JetTensor":
        a, b, degree = self._operands(other)
        return JetTensor(tuple([x - y for x, y in zip(a, b)]), self.dim, degree)

    def __neg__(self) -> "JetTensor":
        return JetTensor(tuple(-a for a in self.data), self.dim, self.degree)

    def __mul__(self, other: "JetTensor") -> "JetTensor":
        """Componentwise product of two jets of the same component shape."""
        letters = ascii_lowercase[: len(self.shape)]
        return jt_einsum(f"{letters},{letters}->{letters}", self, other)

    def __truediv__(self, other: "JetTensor") -> "JetTensor":
        return self * other.reciprocal()

    def scaled(self, factor: float) -> "JetTensor":
        return JetTensor(tuple(factor * a for a in self.data), self.dim, self.degree)

    def transpose(self, spec: str) -> "JetTensor":
        """Permute or trace component axes with an einsum-style spec like 'kij->ijk'.

        A fixed permutation is an ``ndarray.transpose`` view of each level, its
        derivative axes kept last; only a trace -- a repeated letter on the
        left, as in 'iijk->jk' -- runs through einsum.
        """
        axes = _permutation_axes(spec, self.order)
        if axes is None:
            src, dst = spec.split("->")
            spec = f"{src}...->{dst}..."
            return JetTensor(tuple(einsum(spec, a) for a in self.data), self.dim, self.degree)
        return JetTensor(tuple([a.transpose(ax) for a, ax in zip(self.data, axes)]), self.dim,
                         self.degree)

    # -- componentwise functions -------------------------------------------------

    def _function_degree(self) -> int:
        """The degree of f(self) for an f that is not a polynomial: 0 when self is constant."""
        return self.order if self.degree > 0 else 0

    def _slope(self, slope: list, k: int, pair: str = "") -> np.ndarray:
        """Level k - 1 of ``slope`` du (``pair``: a leading axis of the slope)."""
        c = ascii_lowercase[: len(self.shape)]
        spec = f"{pair}{c},{c}z->{pair}{c}z"
        return _split_level(spec, _leibniz_plan(spec, k - 1, self.dim)[k - 1], slope,
                            self.data[1:], k - 1, k, self.degree - 1, self.dim)

    def _solved(self, spec: str, g: list, m: int, rhs) -> np.ndarray:
        """g_m from level m of ``spec``(self, g) = rhs, whose j = 0 split is u_0 g_m."""
        if m:
            rhs = rhs - _tail(spec, self.data, g, m, self.dim, self.degree)
        return rhs / self.values.reshape(self.shape + (1,) * (rhs.ndim - len(self.shape)))

    def exp(self) -> "JetTensor":
        e = [np.exp(self.values)]
        for k in range(1, self.order + 1):
            e.append(self._slope(e, k))
        return JetTensor(tuple(e), self.dim, self._function_degree())

    def _sin_cos(self) -> tuple["JetTensor", "JetTensor"]:
        """Level k of (sin, cos) is level k - 1 of (cos, -sin) du, one product."""
        sin, cos, slope = [np.sin(self.values)], [np.cos(self.values)], []
        for k in range(1, self.order + 1):
            slope.append(np.stack((cos[-1], -sin[-1])))
            s, c = self._slope(slope, k, "y")
            sin.append(s)
            cos.append(c)
        degree = self._function_degree()
        return JetTensor(tuple(sin), self.dim, degree), JetTensor(tuple(cos), self.dim, degree)

    def sin(self) -> "JetTensor":
        return self._sin_cos()[0]

    def cos(self) -> "JetTensor":
        return self._sin_cos()[1]

    def ln(self) -> "JetTensor":
        """Natural logarithm; the caller keeps the values positive."""
        c = ascii_lowercase[: len(self.shape)]
        l = [np.log(self.values)]
        for k in range(1, self.order + 1):
            l.append(self._solved(f"{c},{c}z->{c}z", l[1:], k - 1, self.data[k]))
        return JetTensor(tuple(l), self.dim, self._function_degree())

    def reciprocal(self) -> "JetTensor":
        """1 / self; the caller keeps the values nonzero."""
        c = ascii_lowercase[: len(self.shape)]
        r = [1 / self.values]
        for k in range(1, self.order + 1):
            r.append(self._solved(f"{c},{c}->{c}", r, k, 0.0))
        return JetTensor(tuple(r), self.dim, self._function_degree())

    def powi(self, k: int) -> "JetTensor":
        """Integer power by repeated squaring; a negative exponent needs nonzero values."""
        if k < 0:
            return self.reciprocal().powi(-k)
        if k == 0:
            return JetTensor.constant(np.ones(self.shape), self.dim, self.order)
        power = self
        for bit in bin(k)[3:]:
            power = power * power
            if bit == "1":
                power = power * self
        return power


@lru_cache(maxsize=None)
def _permutation_axes(spec: str, order: int) -> tuple | None:
    """Per level k, the transpose axes of the permutation ``spec`` followed by the k
    derivative axes; None when ``spec`` is not a permutation of its left side."""
    src, dst = spec.split("->")
    if len(set(src)) < len(src) or sorted(src) != sorted(dst):
        return None
    axes = tuple(src.index(c) for c in dst)
    return tuple(axes + tuple(range(len(src), len(src) + k)) for k in range(order + 1))


@lru_cache(maxsize=None)
def _leibniz_plan(spec: str, order: int, dim: int) -> tuple:
    """Per derivative order k: (j, product, shuffles) for each split j + (k-j).

    The product pairs a's j-th derivatives with b's (k-j)-th ones, a's
    derivative axes first; it is the contraction planned for operands whose
    every axis has length ``dim``.  Each shuffle is one of the C(k, j) placements of
    a's axes among the k output derivative axes, as a transpose (None for the
    identity); the symmetric k-th derivative is the sum of those views.
    """
    lhs, out = spec.split("->")
    sa, sb = lhs.split(",")
    free = [c for c in ascii_uppercase if c not in spec]
    lead = tuple(range(len(out)))
    plan = []
    for k in range(order + 1):
        d = "".join(free[:k])
        terms = []
        for j in range(k + 1):
            shuffles = []
            for placed in combinations(range(k), j):
                source = list(placed) + [p for p in range(k) if p not in placed]
                axes = lead + tuple(len(out) + source.index(p) for p in range(k))
                shuffles.append(None if source == list(range(k)) else axes)
            sa_j, sb_j = sa + d[:j], sb + d[j:]
            product = contraction(f"{sa_j},{sb_j}->{out}{d}",
                                  ((dim,) * len(sa_j), (dim,) * len(sb_j)))
            terms.append((j, product, tuple(shuffles)))
        plan.append(tuple(terms))
    return tuple(plan)


def _level(terms, a: tuple, b: tuple, k: int) -> np.ndarray:
    """Level k of a planned Leibniz product: the split products of ``terms`` over their shuffles.

    The later views add in place into the first term's product, a fresh array
    (an einsum output or a view of a fresh matmul output), so no add writes
    into an operand.  A first product with several shuffles is copied first,
    as its later views read it after the adds.
    """
    total = None
    for j, run, shuffles in terms:
        product = run(a[j], b[k - j])
        for axes in shuffles:
            view = product if axes is None else product.transpose(axes)
            if total is None:
                total = view.copy() if len(shuffles) > 1 else view
            else:
                total += view
    return total


def _split_level(spec: str, terms, a, b, k: int, da: int, db: int, dim: int) -> np.ndarray:
    """Level k of ``spec``(a, b) from the splits j <= ``da``, k - j <= ``db`` of ``terms``.

    ``da`` and ``db`` are the degrees of a and b, and ``terms`` level k of the
    plan; a level with no such split is fresh zeros.
    """
    kept = terms[max(0, k - db): max(0, da + 1)]
    if kept:
        return _level(kept, a, b, k)
    lhs, out = spec.split("->")
    size = dict(zip(lhs.replace(",", ""), a[0].shape + b[0].shape))
    return np.zeros(tuple(size[c] for c in out) + (dim,) * k)


def jt_einsum(spec: str, a: JetTensor, b: JetTensor) -> JetTensor:
    """Two-operand einsum with Leibniz propagation of the derivative axes."""
    order = min(a.order, b.order)
    plan = _leibniz_plan(spec, order, a.dim)
    if a.degree >= order and b.degree >= order:
        return JetTensor(tuple(_level(terms, a.data, b.data, k) for k, terms in enumerate(plan)),
                         a.dim)
    degree = min(a.degree + b.degree, order) if min(a.degree, b.degree) >= 0 else -1
    return JetTensor(tuple(_split_level(spec, terms, a.data, b.data, k, a.degree, b.degree, a.dim)
                           for k, terms in enumerate(plan)), a.dim, degree)


def jt_level(spec: str, a: JetTensor, b: JetTensor, k: int) -> np.ndarray:
    """Level k of ``jt_einsum(spec, a, b)`` alone, from the operands' levels 0..k."""
    return _split_level(spec, _leibniz_plan(spec, k, a.dim)[k], a.data, b.data, k,
                        a.degree, b.degree, a.dim)


def _tail(spec: str, a: tuple, x: list, k: int, dim: int, degree: int) -> np.ndarray:
    """The splits of level k of ``spec``(a, x) pairing a_j, 1 <= j <= ``degree``, with x below k."""
    terms = _leibniz_plan(spec, k, dim)[k]
    if degree >= k:  # j = k first: it has one shuffle, so the sum starts on a fresh product.
        return _level((terms[k],) + terms[1:k], a, x, k)
    return _split_level(spec, terms, a, x, k, degree, k - 1, dim)


def jt_inverse(a: JetTensor, inverse: np.ndarray) -> JetTensor:
    """Inverse X of a jet-valued square matrix A from X's values ``inverse``, level by level.

    Level k of A X vanishes for k >= 1, and its j = 0 split is A_0 X_k, so
    X_k = -X_0 S_k, S_k its other splits (``_tail``): k splits at level k.
    """
    x = [np.asarray(inverse, dtype=float)]
    for k in range(1, a.order + 1):
        d = ascii_uppercase[:k]
        tail = _tail("ab,bc->ac", a.data, x, k, a.dim, a.degree)
        x.append(-einsum(f"ab,bc{d}->ac{d}", x[0], tail))
    return JetTensor(tuple(x), a.dim, a._function_degree())
