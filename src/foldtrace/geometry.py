"""Plane geometry primitives: points, axis directions, turning-point kinds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


def cbrt(v: float) -> float:
    """Real cube root, defined for negative arguments."""
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


class _XY(NamedTuple):
    x: float
    y: float


class Point2(_XY):
    """A coordinate pair in the trace plane: an immutable (x, y) tuple."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "Point2":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinates ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Axis(Enum):
    X = "x"
    Y = "y"

    @property
    def other(self) -> "Axis":
        return Axis.Y if self is Axis.X else Axis.X


@dataclass(frozen=True)
class StepDirection:
    """A signed axis direction for continuation stepping."""

    axis: Axis
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + self.axis.value

    @classmethod
    def parse(cls, text: str) -> "StepDirection":
        """Parse '+x', '-y', etc. (case-insensitive, sign optional for '+')."""
        t = text.strip().lower()
        sign = 1
        if t and t[0] in "+-":
            sign = 1 if t[0] == "+" else -1
            t = t[1:]
        if t not in ("x", "y"):
            raise ValueError(f"cannot parse direction {text!r}")
        return cls(Axis(t), sign)


PLUS_X = StepDirection(Axis.X, 1)
MINUS_X = StepDirection(Axis.X, -1)
PLUS_Y = StepDirection(Axis.Y, 1)
MINUS_Y = StepDirection(Axis.Y, -1)


class TurningPointKind(Enum):
    """Which open half-plane around a turning point contains no solutions.

    Each kind's value is the direction it blocks, so `TurningPointKind(d)`
    classifies a stall while stepping in d; the boundary scan samples the
    opposite half-disk.
    """

    TYPE1 = PLUS_X
    TYPE2 = PLUS_Y
    TYPE3 = MINUS_X
    TYPE4 = MINUS_Y


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle used as an optional tracing domain."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min <= self.x_max and self.y_min <= self.y_max):  # NaN fails too
            raise ValueError("box bounds out of order or NaN")

    def contains(self, p: Point2) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max

