import math
import pickle

import pytest

from foldtrace.geometry import Axis, Box, Point2, StepDirection


class TestPoint2:
    @pytest.mark.parametrize("x, y", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
        (-math.inf, math.inf),
    ])
    def test_non_finite_coordinate_rejected(self, x, y):
        with pytest.raises(ValueError, match="non-finite coordinates"):
            Point2(x, y)

    def test_keyword_construction(self):
        p = Point2(y=2.0, x=1.0)
        assert (p.x, p.y) == (1.0, 2.0)
        with pytest.raises(ValueError):
            Point2(x=1.0, y=math.nan)

    def test_equality_and_hashing(self):
        assert Point2(1.0, 2.0) == Point2(1.0, 2.0)
        assert Point2(1.0, 2.0) != Point2(2.0, 1.0)
        assert hash(Point2(0.5, -0.25)) == hash(Point2(0.5, -0.25))
        assert len({Point2(1.0, 2.0), Point2(1.0, 2.0), Point2(2.0, 1.0)}) == 2

    def test_immutable(self):
        p = Point2(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 3.0
        with pytest.raises(AttributeError):
            p.z = 3.0
        assert p == Point2(1.0, 2.0)

    def test_repr(self):
        assert repr(Point2(1.0, -0.5)) == "Point2(x=1.0, y=-0.5)"

    def test_pickle_round_trip(self):
        p = Point2(0.1, -3e-310)
        q = pickle.loads(pickle.dumps(p))
        assert type(q) is Point2
        assert q == p and q.x.hex() == p.x.hex() and q.y.hex() == p.y.hex()


@pytest.mark.parametrize("sign", [0, 2, -1.5])
def test_step_direction_sign_must_be_unit(sign):
    with pytest.raises(ValueError, match="sign must be"):
        StepDirection(Axis.X, sign)


@pytest.mark.parametrize("bounds", [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0),
                                    (math.nan, 1.0, 0.0, 1.0)])
def test_box_bounds_must_be_ordered(bounds):
    with pytest.raises(ValueError, match="out of order"):
        Box(*bounds)
