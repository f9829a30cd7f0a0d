"""Tensor fields carrying derivative jets of any order, vectorized over components.

A ``JetTensor`` stores the component values of a tensor field at one point
together with their coordinate derivatives up to a chosen order: ``data[k]``
has the component shape followed by k derivative axes (each of length
``dim``), symmetric in the derivative axes.  Scalars are 0-d jet tensors.

Products propagate derivatives by the order-k Leibniz rule: each split of k
derivatives between the two factors is one float contraction, planned once
per (spec, order, dim) by ``tensors.contraction``.  A contraction with at
least ``tensors.MATMUL_MIN_TERMS`` terms (the product of its index lengths)
that sums an index and keeps indices of both factors runs as one matmul on
transposed, reshaped operands; smaller ones, and outer or Hadamard products,
stay one np.einsum call.  That crossover was measured per call against
np.einsum on a 2-core x86-64 machine with OpenBLAS, as its comment in
``tensors`` states.  ``partial()`` peels one derivative level off (dropping
the order by one), and functions of a jet -- exp, sin, cos, ln, integer
powers and the reciprocal -- follow from the recursion

    f(u) = ( f(u0), the data of f'(u) * du one order lower ),

which needs no table of higher derivatives and is exact at every order.  Each
level of a product is one unit of work (``jt_level``), so a reader that
takes only the top levels of a product builds only those.  The matrix
inverse extends the inverse of the values, which its caller supplies, one
level at a time: level k of A X = 1 vanishes for k >= 1, which gives
X_k = -X_0 (the splits of that level that pair A_j, j >= 1, with lower
levels of X), k products at level k.
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
    __slots__ = ("data", "dim")

    def __init__(self, data: tuple[np.ndarray, ...], dim: int):
        # Levels are stored as given: jet arithmetic makes float levels, and
        # ``constant``, ``_compose`` and ``jt_inverse`` convert outside values.
        self.data = data
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
    def variable(value, index: int, dim: int, order: int) -> "JetTensor":
        """The coordinate function x_<index> (zero-based) at ``value``, a number or an array of them."""
        jet = JetTensor.constant(value, dim, order)
        if order >= 1:
            jet.data[1][..., index] = 1.0
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
        """Permute or trace component axes with an einsum-style spec like 'kij->ijk'.

        A repeated letter on the left ('iijk->jk') takes the trace over those axes.
        """
        src, dst = spec.split("->")
        spec = f"{src}...->{dst}..."
        return JetTensor(tuple(einsum(spec, a) for a in self.data), self.dim)

    # -- componentwise functions -------------------------------------------------

    def _compose(self, value: np.ndarray, derivative) -> "JetTensor":
        """Jet of f(self) from f's values and f' as a map of jets one order lower."""
        value = np.asarray(value, dtype=float)  # np.exp of a 0-d array is a NumPy scalar
        if self.order == 0:
            return JetTensor((value,), self.dim)
        letters = ascii_lowercase[: len(self.shape)]
        slope = derivative(self.truncated(self.order - 1))
        rest = jt_einsum(f"{letters},{letters}z->{letters}z", slope, self.partial())
        return JetTensor((value,) + rest.data, self.dim)

    def exp(self) -> "JetTensor":
        return self._compose(np.exp(self.values), JetTensor.exp)

    def sin(self) -> "JetTensor":
        return self._compose(np.sin(self.values), JetTensor.cos)

    def cos(self) -> "JetTensor":
        return self._compose(np.cos(self.values), lambda u: -u.sin())

    def ln(self) -> "JetTensor":
        """Natural logarithm; the caller keeps the values positive."""
        return self._compose(np.log(self.values), JetTensor.reciprocal)

    def reciprocal(self) -> "JetTensor":
        """1 / self; the caller keeps the values nonzero."""

        def derivative(u: JetTensor) -> JetTensor:
            r = u.reciprocal()
            return -(r * r)

        return self._compose(1.0 / self.values, derivative)

    def powi(self, k: int) -> "JetTensor":
        """Integer power; a negative exponent needs nonzero values."""
        if k == 0:
            return JetTensor.constant(np.ones(self.shape), self.dim, self.order)
        return self._compose(self.values**k, lambda u: u.powi(k - 1).scaled(k))


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

    The first term must have one shuffle (j = 0, or j = k): its product is a
    fresh array (an einsum output or a view of a fresh matmul output) and the
    later views add into it in place, so no add writes into an operand or
    into an array that a later view of the same product reads.
    """
    total = None
    for j, run, shuffles in terms:
        product = run(a[j], b[k - j])
        for axes in shuffles:
            view = product if axes is None else product.transpose(axes)
            if total is None:
                total = view
            else:
                total += view
    return total


def jt_einsum(spec: str, a: JetTensor, b: JetTensor) -> JetTensor:
    """Two-operand einsum with Leibniz propagation of the derivative axes."""
    plan = _leibniz_plan(spec, min(a.order, b.order), a.dim)
    return JetTensor(tuple(_level(terms, a.data, b.data, k) for k, terms in enumerate(plan)),
                     a.dim)


def jt_level(spec: str, a: JetTensor, b: JetTensor, k: int) -> np.ndarray:
    """Level k of ``jt_einsum(spec, a, b)`` alone, from the operands' levels 0..k."""
    return _level(_leibniz_plan(spec, k, a.dim)[k], a.data, b.data, k)


def jt_inverse(a: JetTensor, inverse: np.ndarray) -> JetTensor:
    """Inverse X of a jet-valued square matrix A from X's values ``inverse``, level by level.

    Level k of A X vanishes for k >= 1, and its j = 0 split is A_0 X_k, so
    X_k = -X_0 S_k, where S_k sums the splits of that level that pair A_j,
    j >= 1, with the lower levels of X: k splits at level k.
    """
    x = [np.asarray(inverse, dtype=float)]
    for k in range(1, a.order + 1):
        terms = _leibniz_plan("ab,bc->ac", k, a.dim)[k]
        # j = k first: it has one shuffle, so the sum starts on a fresh product.
        rest = _level((terms[k],) + terms[1:k], a.data, x, k)
        d = ascii_uppercase[:k]
        x.append(-einsum(f"ab,bc{d}->ac{d}", x[0], rest))
    return JetTensor(tuple(x), a.dim)
