"""Tensor fields carrying derivative jets of any order, vectorized over components.

A ``JetTensor`` stores the component values of a tensor field at one point
together with their coordinate derivatives up to a chosen order: ``data[k]``
has the component shape followed by k derivative axes (each of length
``dim``), symmetric in the derivative axes.  Scalars are 0-d jet tensors.

Products propagate derivatives by the order-k Leibniz rule through ordinary
float einsums, ``partial()`` peels one derivative level off (dropping the
order by one), and functions of a jet -- exp, sin, cos, ln, integer powers,
the reciprocal and the matrix inverse -- follow from the recursion

    f(u) = ( f(u0), the data of f'(u) * du one order lower ),

which needs no table of higher derivatives and is exact at every order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from string import ascii_lowercase, ascii_uppercase

import numpy as np


class JetOrderError(ValueError):
    """Raised when an operation needs a higher derivative order than carried."""


class JetTensor:
    __slots__ = ("data", "dim")

    def __init__(self, data: tuple[np.ndarray, ...], dim: int):
        self.data = tuple(np.asarray(a, dtype=float) for a in data)
        self.dim = dim

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(values, dim: int, order: int) -> "JetTensor":
        values = np.asarray(values, dtype=float)
        data = [values]
        for k in range(1, order + 1):
            data.append(np.zeros(values.shape + (dim,) * k))
        return JetTensor(tuple(data), dim)

    @staticmethod
    def variable(value: float, index: int, dim: int, order: int) -> "JetTensor":
        """The coordinate function x_<index> (zero-based) as a 0-d jet."""
        jet = JetTensor.constant(value, dim, order)
        if order >= 1:
            jet.data[1][index] = 1.0
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
        return JetTensor(self.data[: order + 1], self.dim)

    def partial(self) -> "JetTensor":
        """Coordinate derivative: appends one axis to the component shape.

        result.values[..., k] = d_k (self.values[...]); order drops by one.
        """
        if self.order < 1:
            raise JetOrderError("jet order insufficient for a derivative")
        return JetTensor(self.data[1:], self.dim)

    def __add__(self, other: "JetTensor") -> "JetTensor":
        order = min(self.order, other.order)
        return JetTensor(
            tuple(self.data[k] + other.data[k] for k in range(order + 1)), self.dim
        )

    def __sub__(self, other: "JetTensor") -> "JetTensor":
        order = min(self.order, other.order)
        return JetTensor(
            tuple(self.data[k] - other.data[k] for k in range(order + 1)), self.dim
        )

    def __neg__(self) -> "JetTensor":
        return JetTensor(tuple(-a for a in self.data), self.dim)

    def __mul__(self, other: "JetTensor") -> "JetTensor":
        """Componentwise product of two jets of the same component shape."""
        letters = ascii_lowercase[: len(self.shape)]
        return jt_einsum(f"{letters},{letters}->{letters}", self, other)

    def __truediv__(self, other: "JetTensor") -> "JetTensor":
        return self * other.reciprocal()

    def scaled(self, factor: float) -> "JetTensor":
        return JetTensor(tuple(factor * a for a in self.data), self.dim)

    def transpose(self, spec: str) -> "JetTensor":
        """Permute component axes with an einsum-style spec like 'kij->ijk'."""
        src, dst = spec.split("->")
        return JetTensor(
            tuple(np.einsum(f"{src}...->{dst}...", a) for a in self.data), self.dim
        )

    # -- componentwise functions -------------------------------------------------

    def _chain(self, value: np.ndarray, derivative) -> "JetTensor":
        """Jet of f(self) from f's values and f' as a map of jets one order lower."""
        if self.order == 0:
            return JetTensor((value,), self.dim)
        letters = ascii_lowercase[: len(self.shape)]
        slope = derivative(self.truncated(self.order - 1))
        rest = jt_einsum(f"{letters},{letters}z->{letters}z", slope, self.partial())
        return JetTensor((value,) + rest.data, self.dim)

    def exp(self) -> "JetTensor":
        return self._chain(np.exp(self.values), JetTensor.exp)

    def sin(self) -> "JetTensor":
        return self._chain(np.sin(self.values), JetTensor.cos)

    def cos(self) -> "JetTensor":
        return self._chain(np.cos(self.values), lambda u: -u.sin())

    def ln(self) -> "JetTensor":
        """Natural logarithm; the caller keeps the values positive."""
        return self._chain(np.log(self.values), JetTensor.reciprocal)

    def reciprocal(self) -> "JetTensor":
        """1 / self; the caller keeps the values nonzero."""

        def derivative(u: JetTensor) -> JetTensor:
            r = u.reciprocal()
            return -(r * r)

        return self._chain(1.0 / self.values, derivative)

    def powi(self, k: int) -> "JetTensor":
        """Integer power; a negative exponent needs nonzero values."""
        if k == 0:
            return JetTensor.constant(np.ones(self.shape), self.dim, self.order)
        return self._chain(self.values**k, lambda u: u.powi(k - 1).scaled(k))


@lru_cache(maxsize=None)
def _leibniz_plan(spec: str, order: int) -> tuple:
    """Per derivative order k: (j, einsum spec, shuffles) for each split j + (k-j).

    The einsum pairs a's j-th derivatives with b's (k-j)-th ones, a's
    derivative axes first.  Each shuffle is one of the C(k, j) placements of
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
            terms.append((j, f"{sa}{d[:j]},{sb}{d[j:]}->{out}{d}", tuple(shuffles)))
        plan.append(tuple(terms))
    return tuple(plan)


def jt_einsum(spec: str, a: JetTensor, b: JetTensor) -> JetTensor:
    """Two-operand einsum with Leibniz propagation of the derivative axes."""
    plan = _leibniz_plan(spec, min(a.order, b.order))
    data = []
    for k, terms in enumerate(plan):
        total = None
        for j, es, shuffles in terms:
            product = np.einsum(es, a.data[j], b.data[k - j])
            for axes in shuffles:
                view = product if axes is None else product.transpose(axes)
                # The first term is a fresh einsum output, so adding in place
                # never writes into an array that a later view reads.
                if total is None:
                    total = view
                else:
                    total += view
        data.append(total)
    return JetTensor(tuple(data), a.dim)


def jt_inverse(a: JetTensor) -> JetTensor:
    """Inverse X of a jet-valued square matrix A, by d X = -X (d A) X."""
    values = a.values
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("jet inverse needs a square matrix of components")
    inverse = np.linalg.inv(values)
    if a.order == 0:
        return JetTensor((inverse,), a.dim)
    x = jt_inverse(a.truncated(a.order - 1))
    rest = -jt_einsum("ab,bcz->acz", x, jt_einsum("abz,bc->acz", a.partial(), x))
    return JetTensor((inverse,) + rest.data, a.dim)
