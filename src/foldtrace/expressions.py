"""Minimal arithmetic-expression evaluator for user-supplied f(x, y).

Grammar: + - * / ^ with unary minus, parentheses, the variables x and y,
and the functions sin, cos, abs, cbrt, sqrt, exp, log. Deliberately tiny;
anything richer belongs in user code.
"""

from __future__ import annotations

import math
import re
from typing import Callable, List, Tuple

from .errors import ExpressionError, FieldEvaluationError
from .geometry import cbrt
from .turnpoint import ResidualField

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "abs": abs,
    "cbrt": cbrt,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
}

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()])"
    r")"
)

Evaluator = Callable[[float, float], float]


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ExpressionError(f"expected {op!r} at position {tok[2]}")

    def parse(self) -> Evaluator:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExpressionError(f"trailing input {tok[1]!r} at position {tok[2]}")
        return e

    def expr(self) -> Evaluator:
        left = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.take()
            right = self.term()
            if tok[1] == "+":
                left = (lambda a, b: lambda x, y: a(x, y) + b(x, y))(left, right)
            else:
                left = (lambda a, b: lambda x, y: a(x, y) - b(x, y))(left, right)
        return left

    def term(self) -> Evaluator:
        left = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.take()
            right = self.unary()
            if tok[1] == "*":
                left = (lambda a, b: lambda x, y: a(x, y) * b(x, y))(left, right)
            else:
                left = (lambda a, b: lambda x, y: a(x, y) / b(x, y))(left, right)
        return left

    def unary(self) -> Evaluator:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            inner = self.unary()
            if tok[1] == "-":
                return lambda x, y: -inner(x, y)
            return inner
        return self.power()

    def power(self) -> Evaluator:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ("^", "**"):
            self.take()
            exponent = self.unary()  # right-associative
            return lambda x, y: base(x, y) ** exponent(x, y)
        return base

    def atom(self) -> Evaluator:
        tok = self.take()
        kind, value, where = tok
        if kind == "num":
            const = float(value)
            return lambda x, y: const
        if kind == "name":
            if value == "x":
                return lambda x, y: x
            if value == "y":
                return lambda x, y: y
            if value in _FUNCTIONS:
                fn = _FUNCTIONS[value]
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return lambda x, y: fn(arg(x, y))
            raise ExpressionError(f"unknown name {value!r} at position {where}")
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError(f"unexpected token {value!r} at position {where}")


def parse_expression(text: str) -> Evaluator:
    """Compile a formula in x and y to a plain callable."""
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()


def expression_field(text: str) -> ResidualField:
    """Wrap a formula as a residual field; evaluation errors and non-real
    values (a negative base under a fractional power) become
    FieldEvaluationError so the tracer can treat bad regions as stalls."""
    evaluator = parse_expression(text)

    def f(x: float, y: float) -> float:
        try:
            value = evaluator(x, y)
        except (ArithmeticError, ValueError) as exc:
            raise FieldEvaluationError(f"expression undefined at ({x}, {y}): {exc}") from exc
        if isinstance(value, complex):
            raise FieldEvaluationError(f"expression not real at ({x}, {y}): {value}")
        return value

    return f
