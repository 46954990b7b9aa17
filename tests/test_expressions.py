import math

import pytest

from foldtrace.errors import ExpressionError, FieldEvaluationError
from foldtrace.expressions import expression_field, parse_expression


class TestParsing:
    @pytest.mark.parametrize("text,x,y,expected", [
        ("x + y", 2.0, 3.0, 5.0),
        ("x*x + y*y - 1", 0.6, 0.8, 0.0),
        ("2*x - y/4", 1.0, 8.0, 0.0),
        ("-x", 3.0, 0.0, -3.0),
        ("--x", 3.0, 0.0, 3.0),
        ("x^2 + 1", 3.0, 0.0, 10.0),
        ("2^x^2", 2.0, 0.0, 16.0),       # right-associative: 2^(x^2)
        ("(x + y)*(x - y)", 5.0, 2.0, 21.0),
        ("1e2 + .5", 0.0, 0.0, 100.5),
        ("x ** 3", 2.0, 0.0, 8.0),
    ])
    def test_arithmetic(self, text, x, y, expected):
        assert parse_expression(text)(x, y) == pytest.approx(expected, abs=1e-12)

    def test_precedence(self):
        assert parse_expression("2 + 3 * 4 ^ 2")(0, 0) == 50.0
        assert parse_expression("-x^2")(2.0, 0.0) == -4.0  # unary binds outside the power

    @pytest.mark.parametrize("text,x,y,expected", [
        ("sin(x)", 1.2, 0.0, math.sin(1.2)),
        ("cos(x*y)", 0.5, 2.0, math.cos(1.0)),
        ("abs(x - y)", 1.0, 4.0, 3.0),
        ("sqrt(x)", 9.0, 0.0, 3.0),
        ("cbrt(x)", -8.0, 0.0, -2.0),
        ("exp(x) - 1", 0.0, 0.0, 0.0),
        ("log(x)", math.e, 0.0, 1.0),
    ])
    def test_functions(self, text, x, y, expected):
        assert parse_expression(text)(x, y) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("text", [
        "", "   ", "x +", "(x", "x)", "1 2", "frob(x)", "z + 1", "x @ y", "sin x",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)


class TestExpressionField:
    def test_evaluation_error_wrapped(self):
        field = expression_field("log(x)")
        with pytest.raises(FieldEvaluationError):
            field(-1.0, 0.0)
        field2 = expression_field("1/x")
        with pytest.raises(FieldEvaluationError):
            field2(0.0, 0.0)

    def test_non_real_result_is_evaluation_error(self):
        # a negative base under a fractional power gives a complex number
        field = expression_field("x^0.5 - y")
        assert field(4.0, 1.0) == 1.0
        with pytest.raises(FieldEvaluationError, match="not real"):
            field(-1.0, 0.0)

    def test_astroid_via_expression(self):
        field = expression_field("cbrt(x)^2 + cbrt(y)^2 - 1")
        assert abs(field(math.cos(0.7) ** 3, math.sin(0.7) ** 3)) < 1e-14
