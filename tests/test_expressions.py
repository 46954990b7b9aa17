import math

import pytest

from foldtrace.errors import ExpressionError, FieldEvaluationError
from foldtrace.expressions import expression_field, parse_expression
from foldtrace.geometry import cbrt


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
        "0x10", "1_000", "1j", "True", "abs", "2(x)", "x(2)", "x // y", "x % y",
        "x < y", "(x, y)", "sin(x, y)", "sin(x=1)", "x.real", "[x][0]", "x if y else 1",
        "lambda: 1", "__import__('os')", "sin(*x)", "~x", "x # + y", "x\0",
        pytest.param("+".join(["x"] * 100_000), id="nested-too-deeply"),
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    def test_formula_may_span_lines(self):
        assert parse_expression("x +\n y")(1.0, 2.0) == 3.0

    @pytest.mark.parametrize("text,reference", [
        ("x + y", lambda x, y: x + y),
        ("x*x + y*y - 1", lambda x, y: x * x + y * y - 1.0),
        ("2*x - y/4", lambda x, y: 2.0 * x - y / 4.0),
        ("-x", lambda x, y: -x),
        ("--x", lambda x, y: x),
        ("x^2 + 1", lambda x, y: x ** 2.0 + 1.0),
        ("2^x^2", lambda x, y: 2.0 ** x ** 2.0),
        ("(x + y)*(x - y)", lambda x, y: (x + y) * (x - y)),
        ("1e2 + .5", lambda x, y: 100.0 + 0.5),
        ("x ** 3", lambda x, y: x ** 3.0),
        ("((x*0.7373688780783196 + y*0.675490294261524)/0.887874162664502)^2"
         " + ((y*0.7373688780783196 - x*0.675490294261524)/1.3794580794954512)^2 - 1",
         lambda x, y: (((x * 0.7373688780783196 + y * 0.675490294261524) / 0.887874162664502) ** 2.0
                       + ((y * 0.7373688780783196 - x * 0.675490294261524)
                          / 1.3794580794954512) ** 2.0 - 1.0)),
        ("abs(x/0.5517687378207691)^3 + abs(y/1.2487702524288642)^3 - 1",
         lambda x, y: abs(x / 0.5517687378207691) ** 3.0 + abs(y / 1.2487702524288642) ** 3.0 - 1.0),
        ("cbrt(x/1.371585086439172)^2 + cbrt(y/1.1304635976481592)^2 - 1",
         lambda x, y: cbrt(x / 1.371585086439172) ** 2.0 + cbrt(y / 1.1304635976481592) ** 2.0 - 1.0),
    ])
    def test_bit_identical_to_python_float_arithmetic(self, text, reference):
        # the formula runs the same IEEE operations, in the same order, as
        # the hand-written float expression
        f = parse_expression(text)
        grid = [-1.7, -1.0, -0.3, 0.0, 0.2, 0.9, 1.3]
        for x in grid:
            for y in grid:
                assert f(x, y) == reference(x, y), (x, y)


class TestExpressionField:
    def test_evaluation_error_wrapped(self):
        field = expression_field("log(x)")
        with pytest.raises(FieldEvaluationError):
            field(-1.0, 0.0)
        field2 = expression_field("1/x")
        with pytest.raises(FieldEvaluationError):
            field2(0.0, 0.0)

    def test_overflow_is_evaluation_error(self):
        # numbers are floats, so 9^9^9 overflows at once instead of
        # computing a huge integer
        with pytest.raises(FieldEvaluationError):
            expression_field("9^9^9")(0.0, 0.0)

    def test_non_real_result_is_evaluation_error(self):
        # a negative base under a fractional power gives a complex number
        field = expression_field("x^0.5 - y")
        assert field(4.0, 1.0) == 1.0
        with pytest.raises(FieldEvaluationError, match="not real"):
            field(-1.0, 0.0)

    def test_astroid_via_expression(self):
        field = expression_field("cbrt(x)^2 + cbrt(y)^2 - 1")
        assert abs(field(math.cos(0.7) ** 3, math.sin(0.7) ** 3)) < 1e-14
