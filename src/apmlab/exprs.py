"""Scalar coordinate expressions with exact forward-mode derivative jets.

Grammar (recursive descent, standard precedence ^ > unary - > *,/ > +,-):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' int)?
    base   := number | ident | func '(' expr ')' | '(' expr ')'
    func   := 'exp' | 'sin' | 'cos' | 'ln'
    ident  := 'x1' .. 'x<dim>'

An expression is at most MAX_DEPTH = 100 levels deep: each operator, unary
minus or function call is one level above its operands (a sum of n terms is
n - 1 levels), and parentheses, calls and unary minuses nest at most that
deep.  A deeper one is a ParseError, so parsing, hashing, evaluating and
printing a parsed tree stay well below Python's recursion limit.

Evaluation produces a ``JetTensor`` carrying the value together with the
derivatives up to any requested order, computed by jet arithmetic rather
than finite differencing.  A point array of shape (..., dim) evaluates the
expression at every point at once: the jet's component shape is then the
points' leading shape, and a single point gives a 0-d jet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    """Immutable expression node; subclasses implement _eval and _fmt."""

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


@dataclass(frozen=True)
class Const(ScalarExpr):
    value: float

    def _eval(self, point, order):
        return JetTensor.constant(np.full(point.shape[:-1], self.value), point.shape[-1], order)

    def _fmt(self, parent_prec):
        v = self.value
        text = str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))
        if v < 0:
            return _wrap(text, 3, parent_prec)
        return text


@dataclass(frozen=True)
class Var(ScalarExpr):
    index: int  # zero-based; prints as x<index+1>

    def _eval(self, point, order):
        if self.index >= point.shape[-1]:
            raise EvalError(f"coordinate x{self.index + 1} out of range for point")
        return JetTensor.variable(point[..., self.index], self.index, point.shape[-1], order)

    def _fmt(self, parent_prec):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Binary(ScalarExpr):
    op: str
    left: ScalarExpr
    right: ScalarExpr

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2}

    def _eval(self, point, order):
        if self.op == "*":
            # A constant factor scales the other jet: no Leibniz product with its zero levels.
            if isinstance(self.left, Const):
                return self.right._eval(point, order).scaled(self.left.value)
            if isinstance(self.right, Const):
                return self.left._eval(point, order).scaled(self.right.value)
        a = self.left._eval(point, order)
        b = self.right._eval(point, order)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if np.any(b.values == 0.0):
            raise EvalError("division by zero")
        return a / b

    def _fmt(self, parent_prec):
        prec = self._PREC[self.op]
        left = self.left._fmt(prec)
        # Subtraction and division do not associate on the right.
        right = self.right._fmt(prec + (1 if self.op in "-/" else 0))
        return _wrap(f"{left} {self.op} {right}", prec, parent_prec)


@dataclass(frozen=True)
class Neg(ScalarExpr):
    operand: ScalarExpr

    def _eval(self, point, order):
        return -self.operand._eval(point, order)

    def _fmt(self, parent_prec):
        return _wrap(f"-{self.operand._fmt(3)}", 3, parent_prec)


@dataclass(frozen=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int

    def _eval(self, point, order):
        base = self.base._eval(point, order)
        if self.exponent < 0 and np.any(base.values == 0.0):
            raise EvalError("division by zero")
        return base.powi(self.exponent)

    def _fmt(self, parent_prec):
        return _wrap(f"{self.base._fmt(5)}^{self.exponent}", 4, parent_prec)


@dataclass(frozen=True)
class Func(ScalarExpr):
    name: str
    argument: ScalarExpr

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


def eval_jet(expr: ScalarExpr, point: np.ndarray, order: int = 3) -> JetTensor:
    """Evaluate with exact derivatives up to ``order`` (any order >= 0)."""
    return expr.eval_jet(point, order)
