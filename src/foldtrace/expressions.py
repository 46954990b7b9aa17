"""Minimal arithmetic-expression evaluator for user-supplied f(x, y).

Grammar: + - * / ^ (or **) with unary minus, parentheses, x and y, decimal
numbers, and the functions sin, cos, abs, cbrt, sqrt, exp, log. Python's
parser reads the formula; a node whitelist enforces the grammar.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Callable

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

_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY_OPS = (ast.UAdd, ast.USub)
# Decimal literals only: Python's 0x10, 1_000, 1j and True stay rejected.
_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")

Evaluator = Callable[[float, float], float]


def _check(node: ast.AST, text: str) -> None:
    """Raise ExpressionError unless every node under `node` is whitelisted;
    turn each number into a float so the arithmetic stays in floats."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY_OPS):
        children = [node.left, node.right]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY_OPS):
        children = [node.operand]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
        children = node.args
    elif isinstance(node, ast.Name) and node.id in ("x", "y"):
        children = []
    elif isinstance(node, ast.Constant) and _NUMBER.fullmatch(
            segment := ast.get_source_segment(text, node) or ""):
        node.value = float(segment)
        children = []
    else:
        raise ExpressionError(f"not allowed in a formula: {ast.get_source_segment(text, node)!r}")
    for child in children:
        _check(child, text)


def parse_expression(text: str) -> Evaluator:
    """Compile a formula in x and y to a plain callable."""
    # Python's ^ is XOR and binds more loosely than +; no other token uses ^.
    text = " ".join(text.split()).replace("^", "**")
    if not text:
        raise ExpressionError("empty expression")
    if "#" in text:  # a comment would silently drop the rest of the formula
        raise ExpressionError("unexpected character '#'")
    try:
        tree = ast.parse(text, "<formula>", "eval")
        _check(tree.body, text)
        wrapper = ast.parse("lambda x, y: 0", mode="eval")
        wrapper.body.body = tree.body
        code = compile(wrapper, "<formula>", "eval")
    except (SyntaxError, ValueError) as exc:  # ValueError: a lone surrogate
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
    except RecursionError as exc:
        raise ExpressionError("formula is nested too deeply") from exc
    return eval(code, {"__builtins__": {}, **_FUNCTIONS})


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
