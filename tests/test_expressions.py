import math

import pytest

from foldtrace.errors import ExpressionError, FieldEvaluationError
from foldtrace.expressions import expression_field
from foldtrace.geometry import MINUS_X, Point2, cbrt
from foldtrace.tracer import Termination, TraceConfig, polish_transverse, trace


# formulas with the hand-written float expressions they must equal bit for bit
_FLOAT_FORMULAS = [
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
]
# the grid of test_bit_identical_to_python_float_arithmetic, with both signed zeros
_GRID = [-1.7, -1.0, -0.3, -0.0, 0.0, 0.2, 0.9, 1.3]


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
        assert expression_field(text)(x, y) == pytest.approx(expected, abs=1e-12)

    def test_precedence(self):
        assert expression_field("2 + 3 * 4 ^ 2")(0, 0) == 50.0
        assert expression_field("-x^2")(2.0, 0.0) == -4.0  # unary binds outside the power

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
        assert expression_field(text)(x, y) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("text", [
        "", "   ", "x +", "(x", "x)", "1 2", "frob(x)", "z + 1", "x @ y", "sin x",
        "0x10", "1_000", "1j", "True", "abs", "2(x)", "x(2)", "x // y", "x % y",
        "x < y", "(x, y)", "sin(x, y)", "sin(x=1)", "x.real", "[x][0]", "x if y else 1",
        "lambda: 1", "__import__('os')", "sin(*x)", "~x", "x # + y", "x\0",
        pytest.param("+".join(["x"] * 100_000), id="nested-too-deeply"),
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpressionError):
            expression_field(text)

    def test_formula_may_span_lines(self):
        assert expression_field("x +\n y")(1.0, 2.0) == 3.0

    @pytest.mark.parametrize("text,reference", _FLOAT_FORMULAS)
    def test_bit_identical_to_python_float_arithmetic(self, text, reference):
        # the formula, inside its error checks, runs the same IEEE operations
        # in the same order as the hand-written float expression, signed zeros
        # included
        f = expression_field(text)
        for x in _GRID:
            for y in _GRID:
                assert f(x, y).hex() == reference(x, y).hex(), (x, y)


class TestExpressionField:
    def test_cbrt_keeps_the_sign_of_zero(self):
        assert expression_field("cbrt(x)")(-0.0, 1.0).hex() == "-0x0.0p+0"
        nested = expression_field("cbrt(cbrt(x) * cbrt(y))")
        assert nested(-27.0, 8.0) == cbrt(cbrt(-27.0) * cbrt(8.0))

    @pytest.mark.parametrize("text,x,y,message,cause", [
        ("log(x)", -1.0, 0.0, "expression undefined at (-1.0, 0.0): math domain error", ValueError),
        ("1/x", 0.0, 0.0, "expression undefined at (0.0, 0.0): float division by zero",
         ZeroDivisionError),
        ("9^9^9", 0.0, 0.0, "expression undefined at (0.0, 0.0): (34, 'Numerical result out of "
         "range')", OverflowError),
        ("x^0.5 - y", -1.0, 0.0, "expression not real at (-1.0, 0.0): (6.123233995736766e-17+1j)",
         type(None)),
        # a complex value fed to a real function raised a raw TypeError
        ("sqrt(x^0.5)", -1.0, 0.0, "expression undefined at (-1.0, 0.0): must be real number, "
         "not complex", TypeError),
    ])
    def test_error_messages(self, text, x, y, message, cause):
        with pytest.raises(FieldEvaluationError) as info:
            expression_field(text)(x, y)
        assert str(info.value) == message
        assert type(info.value.__cause__) is cause

    def test_trace_matches_the_hand_written_field(self):
        # curve 8 of perfbench's curve zoo, an astroid with semi-axes a and b
        a, b = 1.371585086439172, 1.1304635976481592

        def hand_written(x, y):
            return cbrt(x / a) ** 2.0 + cbrt(y / b) ** 2.0 - 1.0

        seed = Point2(a * math.cos(0.7) ** 3, b * math.sin(0.7) ** 3)
        start = polish_transverse(hand_written, seed, MINUS_X)
        cfg = TraceConfig(step=0.01, max_points=2000)
        expected = trace(hand_written, start, MINUS_X, cfg)
        assert expected.termination is Termination.CLOSED and len(expected.events) == 2
        field = expression_field(f"cbrt(x/{a!r})^2 + cbrt(y/{b!r})^2 - 1")
        path = trace(field, start, MINUS_X, cfg)
        assert [(p.x.hex(), p.y.hex()) for p in path.points] \
            == [(p.x.hex(), p.y.hex()) for p in expected.points]
        assert (path.flags, path.events, path.termination) \
            == (expected.flags, expected.events, expected.termination)

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
