"""Scalar coordinate expressions with exact forward-mode derivative jets.

Grammar (recursive descent, standard precedence ^ > unary - > *,/ > +,-):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' int)?
    base   := number | ident | func '(' expr ')' | '(' expr ')'
    func   := 'exp' | 'sin' | 'cos' | 'ln'
    ident  := 'x1' .. 'x<dim>'

Each operator, unary minus or call is one level above its operands (a sum
of n terms is n - 1 levels).  A tree deeper than MAX_DEPTH = 100 levels, or
parentheses, calls and unary minuses nested deeper, is a ParseError, so
parsing, comparing, evaluating and printing stay well below Python's
recursion limit; hashing does not recurse at all.

Evaluation gives a ``JetTensor``: the value and every derivative up to the
requested order, by jet arithmetic.  An operand with no variable
(``constant``) stays out of it: its value shifts or scales the other
operand's jet.  A point array of shape (..., dim) evaluates every point at
once, its leading shape becoming the jet's component shape.
"""

from __future__ import annotations

import re

import numpy as np

from .jetfields import JetTensor

FUNCTIONS = ("exp", "sin", "cos", "ln")
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax or identifier error, carrying the offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalError(ValueError):
    """Domain error while evaluating an expression (division by zero, ln <= 0)."""


# ---------------------------------------------------------------------------
# Expression trees


class ScalarExpr:
    """Expression node, never changed once built; subclasses implement _eval and _fmt.

    Each subclass names its fields in ``__slots__`` and passes their values to
    this ``__init__``.  Nodes are equal when class and fields are, so
    ``Const(0.0) != Var(0)``; the hash of (class, fields) is computed once,
    from the children's cached hashes, so hashing never recurses.
    """

    __slots__ = ("_key", "_hash", "constant")

    def __init__(self, *fields):
        self._key = fields
        self._hash = hash((type(self), fields))
        self.constant = all([f.constant for f in fields if isinstance(f, ScalarExpr)])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (self._hash == other._hash and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__name__}({fields})"

    def eval_jet(self, point: np.ndarray, order: int = 3) -> JetTensor:
        """The jet at ``point``, or at each row of a point array of shape (..., dim)."""
        if order < 0:
            raise ValueError("jet order must be non-negative")
        point = np.asarray(point, dtype=float)
        return self._eval(point, order)

    def __call__(self, point: np.ndarray) -> float:
        return float(self.eval_jet(point, order=0).values)

    def _eval(self, point: np.ndarray, order: int) -> JetTensor:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._fmt(0)

    def _fmt(self, parent_prec: int) -> str:
        raise NotImplementedError


def _wrap(text: str, prec: int, parent_prec: int) -> str:
    return f"({text})" if prec < parent_prec else text


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value
        super().__init__(value)

    def _eval(self, point, order):
        return JetTensor.constant(np.full(point.shape[:-1], self.value), point.shape[-1], order)

    def _fmt(self, parent_prec):
        v = self.value
        text = str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))
        if v < 0:
            return _wrap(text, 3, parent_prec)
        return text


class Var(ScalarExpr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index  # zero-based; prints as x<index+1>
        super().__init__(index)
        self.constant = False

    def _eval(self, point, order):
        if self.index >= point.shape[-1]:
            raise EvalError(f"coordinate x{self.index + 1} out of range for point")
        return JetTensor.variable(point[..., self.index], self.index, point.shape[-1], order)

    def _fmt(self, parent_prec):
        return f"x{self.index + 1}"


class Binary(ScalarExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: ScalarExpr, right: ScalarExpr):
        self.op, self.left, self.right = op, left, right
        super().__init__(op, left, right)

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2}

    def _eval(self, point, order):
        left, right, op = self.left, self.right, self.op
        if not (left.constant or right.constant):
            a, b = left._eval(point, order), right._eval(point, order)
            if op == "/" and np.any(b.values == 0.0):
                raise EvalError("division by zero")
            return a + b if op == "+" else a - b if op == "-" else a * b if op == "*" else a / b
        # An operand with no variable stays out of jet arithmetic: its value c
        # shifts the other operand's values or scales its levels.
        const, u = (right, left) if right.constant else (left, right)
        c = const.value if isinstance(const, Const) else const(np.zeros(point.shape[-1]))
        u = u._eval(point, order)
        if op == "/":
            if np.any((c if const is right else u.values) == 0.0):
                raise EvalError("division by zero")
            c, u = (1 / c, u) if const is right else (c, u.reciprocal())
        if op in "*/":  # + 0 turns -0 into +0, as the sums of a jet product do
            return JetTensor(tuple(c * a + 0.0 for a in u.data), u.dim, u.degree)
        if op == "-" and const is left:  # 0 - level, as from the constant's zero levels
            return JetTensor((c - u.values,) + tuple(0.0 - a for a in u.data[1:]), u.dim, u.degree)
        return JetTensor((u.values + (-c if op == "-" else c),) + u.data[1:], u.dim, u.degree)

    def _fmt(self, parent_prec):
        prec = self._PREC[self.op]
        left = self.left._fmt(prec)
        # Subtraction and division do not associate on the right.
        right = self.right._fmt(prec + (1 if self.op in "-/" else 0))
        return _wrap(f"{left} {self.op} {right}", prec, parent_prec)


class Neg(ScalarExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: ScalarExpr):
        self.operand = operand
        super().__init__(operand)

    def _eval(self, point, order):
        return -self.operand._eval(point, order)

    def _fmt(self, parent_prec):
        return _wrap(f"-{self.operand._fmt(3)}", 3, parent_prec)


class Pow(ScalarExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: ScalarExpr, exponent: int):
        self.base, self.exponent = base, exponent
        super().__init__(base, exponent)

    def _eval(self, point, order):
        base = self.base._eval(point, order)
        if self.exponent < 0 and np.any(base.values == 0.0):
            raise EvalError("division by zero")
        return base.powi(self.exponent)

    def _fmt(self, parent_prec):
        return _wrap(f"{self.base._fmt(5)}^{self.exponent}", 4, parent_prec)


class Func(ScalarExpr):
    __slots__ = ("name", "argument")

    def __init__(self, name: str, argument: ScalarExpr):
        self.name, self.argument = name, argument
        super().__init__(name, argument)

    def _eval(self, point, order):
        argument = self.argument._eval(point, order)
        if self.name == "ln" and np.any(argument.values <= 0.0):
            raise EvalError("ln of non-positive value")
        return getattr(argument, self.name)()

    def _fmt(self, parent_prec):
        return f"{self.name}({self.argument._fmt(0)})"


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Parser:
    def __init__(self, src: str, dim: int | None):
        self.src = src
        self.dim = dim
        self.pos = 0

    def error(self, message: str, position: int | None = None):
        raise ParseError(message, self.pos if position is None else position)

    def peek(self) -> tuple[str, str, int, int]:
        m = _TOKEN_RE.match(self.src, self.pos)
        if m is None:
            stripped = self.src[self.pos :].lstrip()
            if not stripped:
                return ("eof", "", len(self.src), len(self.src))
            at = self.pos + (len(self.src[self.pos :]) - len(stripped))
            self.error(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup or "op"
        return (kind, m.group(kind), m.start(kind), m.end())

    def take(self) -> tuple[str, str, int]:
        kind, text, start, end = self.peek()
        self.pos = end
        return (kind, text, start)

    def expect_op(self, op: str):
        kind, text, _, _ = self.peek()
        if kind != "op" or text != op:
            self.error(f"expected {op!r}")
        self.take()

    def level(self, depth: int) -> int:
        """``depth``, or a ParseError once it passes MAX_DEPTH."""
        if depth > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        return depth

    # Each rule returns its tree and the tree's depth; ``nest`` counts the
    # parentheses, calls and unary minuses open around it.

    def parse(self) -> ScalarExpr:
        node, _ = self.expr(0)
        kind, text, _, _ = self.peek()
        if kind != "eof":
            self.error(f"unexpected trailing input {text!r}")
        return node

    def expr(self, nest: int) -> tuple[ScalarExpr, int]:
        return self.chain("+-", self.term, nest)

    def term(self, nest: int) -> tuple[ScalarExpr, int]:
        return self.chain("*/", self.unary, nest)

    def chain(self, ops: str, operand, nest: int) -> tuple[ScalarExpr, int]:
        """operand ((op in ``ops``) operand)*, associating to the left."""
        node, depth = operand(nest)
        while True:
            kind, text, _, _ = self.peek()
            if kind == "op" and text in ops:
                self.take()
                right, right_depth = operand(nest)
                node, depth = Binary(text, node, right), self.level(1 + max(depth, right_depth))
            else:
                return node, depth

    def unary(self, nest: int) -> tuple[ScalarExpr, int]:
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            node, depth = self.unary(self.level(nest + 1))
            return Neg(node), self.level(depth + 1)
        return self.factor(nest)

    def factor(self, nest: int) -> tuple[ScalarExpr, int]:
        node, depth = self.base(nest)
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            node, depth = Pow(node, self.int_literal()), self.level(depth + 1)
        return node, depth

    def int_literal(self) -> int:
        sign = 1
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            sign = -1
        kind, text, start, _ = self.peek()
        if kind != "number" or any(c in text for c in ".eE"):
            self.error("expected integer exponent", start)
        self.take()
        return sign * int(text)

    def base(self, nest: int) -> tuple[ScalarExpr, int]:
        kind, text, start = self.take()
        if kind == "number":
            return Const(float(text)), 0
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.expr(self.level(nest + 1))
                self.expect_op(")")
                return Func(text, arg), self.level(depth + 1)
            m = re.fullmatch(r"x(\d+)", text)
            if m is None:
                self.error(f"unknown identifier {text!r}", start)
            index = int(m.group(1))
            if index < 1 or (self.dim is not None and index > self.dim):
                self.error(f"coordinate {text!r} out of range", start)
            return Var(index - 1), 0
        if kind == "op" and text == "(":
            node = self.expr(self.level(nest + 1))
            self.expect_op(")")
            return node
        if kind == "eof":
            self.error("unexpected end of input")
        self.error(f"unexpected token {text!r}", start)


def parse_expr(src: str, dim: int | None = None) -> ScalarExpr:
    """Parse an expression; identifiers are limited to x1..x<dim> when given."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(src, dim).parse()
