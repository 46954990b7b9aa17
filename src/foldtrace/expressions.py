"""Minimal arithmetic-expression evaluator for user-supplied f(x, y).

Grammar: + - * / ^ (or **) with unary minus, parentheses, x and y, decimal
numbers, and the functions sin, cos, abs, cbrt, sqrt, exp, log. Python's
parser reads the formula; a node whitelist enforces the grammar.
"""

from __future__ import annotations

import ast
import math
import re

from .errors import ExpressionError, FieldEvaluationError
from .geometry import cbrt
from .turnpoint import ResidualField

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "abs": abs,
    "cbrt": cbrt,  # never called: _check writes out its arithmetic in place
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
}

_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY_OPS = (ast.UAdd, ast.USub)
# Decimal literals only: Python's 0x10, 1_000, 1j and True stay rejected.
_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")

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
        if node.func.id == "cbrt":  # geometry.cbrt's own arithmetic, without its frame
            t = f"_cbrt{node.col_offset}"  # unique: the formula is one line
            inline = ast.parse(f"copysign(abs({t} := X) ** (1.0 / 3.0), {t})", mode="eval").body
            inline.args[0].left.args[0].value = node.args[0]  # X
            node.func, node.args = inline.func, inline.args
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


# A field is one function: the formula, its error wrapping and its real-value check.
_FIELD = """def formula(x, y):
    try:
        value = FORMULA
    except (ArithmeticError, ValueError, TypeError) as exc:  # TypeError: a complex argument
        raise FieldEvaluationError(f"expression undefined at ({x}, {y}): {exc}") from exc
    if isinstance(value, complex):
        raise FieldEvaluationError(f"expression not real at ({x}, {y}): {value}")
    return value"""
# A compiled formula's only globals: the whitelisted functions and the names of _FIELD.
_GLOBALS = dict(_FUNCTIONS, __builtins__={}, copysign=math.copysign, isinstance=isinstance,
                complex=complex, ArithmeticError=ArithmeticError, ValueError=ValueError,
                TypeError=TypeError, FieldEvaluationError=FieldEvaluationError)


def expression_field(text: str) -> ResidualField:
    """Compile a formula as a residual field: one function, one frame per call,
    that raises FieldEvaluationError on an evaluation error or a non-real value
    (a negative base under a fractional power, or a real function of one), so
    the tracer can treat bad regions as stalls."""
    # Python's ^ is XOR and binds more loosely than +; no other token uses ^.
    text = " ".join(text.split()).replace("^", "**")
    if not text:
        raise ExpressionError("empty expression")
    if "#" in text:  # a comment would silently drop the rest of the formula
        raise ExpressionError("unexpected character '#'")
    try:
        tree = ast.parse(text, "<formula>", "eval")
        _check(tree.body, text)
        module = ast.parse(_FIELD)
        for node in ast.walk(module):  # the Assign of the placeholder
            if isinstance(getattr(node, "value", None), ast.Name) and node.value.id == "FORMULA":
                node.value = tree.body
        code = compile(module, "<formula>", "exec")
    except (SyntaxError, ValueError) as exc:  # ValueError: a lone surrogate
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
    except RecursionError as exc:
        raise ExpressionError("formula is nested too deeply") from exc
    exec(code, _GLOBALS, scope := {})
    return scope["formula"]
