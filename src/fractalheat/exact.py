"""Exact arithmetic over the quadratic field Q(sqrt 3).

Vertex coordinates of the shipped fractals live in Q(sqrt 3)^2, so point
identification (deduplication, folding consistency, cell incidence) is done
with exact comparisons and never depends on a floating-point tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt as _fsqrt

_SQRT3 = _fsqrt(3.0)

RationalLike = int | Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class Q3:
    """Field element a + b*sqrt(3) with rational a, b."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    @staticmethod
    def of(a: RationalLike = 0, b: RationalLike = 0) -> "Q3":
        return Q3(_as_fraction(a), _as_fraction(b))

    def __add__(self, other: "Q3 | RationalLike") -> "Q3":
        other = _coerce(other)
        return Q3(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: "Q3 | RationalLike") -> "Q3":
        other = _coerce(other)
        return Q3(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: "Q3 | RationalLike") -> "Q3":
        return _coerce(other) - self

    def __neg__(self) -> "Q3":
        return Q3(-self.a, -self.b)

    def __mul__(self, other: "Q3 | RationalLike") -> "Q3":
        other = _coerce(other)
        # (a + b r)(c + d r) = ac + 3bd + (ad + bc) r,  r^2 = 3
        return Q3(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Q3":
        # 1/(a + b r) = (a - b r)/(a^2 - 3 b^2); the norm vanishes only at 0
        norm = self.a * self.a - 3 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 3)")
        return Q3(self.a / norm, -self.b / norm)

    def __truediv__(self, other: "Q3 | RationalLike") -> "Q3":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other: "Q3 | RationalLike") -> "Q3":
        return _coerce(other) * self.inverse()

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(3)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: compare a^2 against 3 b^2.  sqrt(3) is irrational,
        # so equality would force a = b = 0.
        diff = a * a - 3 * b * b
        return (1 if diff > 0 else -1) * (1 if a > 0 else -1)

    def __lt__(self, other: "Q3 | RationalLike") -> bool:
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other: "Q3 | RationalLike") -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other: "Q3 | RationalLike") -> bool:
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other: "Q3 | RationalLike") -> bool:
        return (self - _coerce(other)).sign() >= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT3

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt3"
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{abs(self.b)}*sqrt3"


Q3.ZERO = Q3()
Q3.ONE = Q3(Fraction(1), Fraction(0))


def _coerce(value) -> Q3:
    if isinstance(value, Q3):
        return value
    return Q3(_as_fraction(value), Fraction(0))


_TERM_RE = re.compile(
    r"""^\s*
        (?P<sign>[+-]?)\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<root1>sqrt3)(?:/(?P<div1>\d+))?)?
          | (?P<root2>sqrt3)(?:/(?P<div2>\d+))?
        )\s*$""",
    re.VERBOSE,
)


def parse_q3(text: str) -> Q3:
    """Parse expressions like ``-1/4``, ``1/4*sqrt3``, ``sqrt3/4``, ``1+1/2*sqrt3``.

    Terms are separated by ``+``/``-`` at the top level.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty coordinate")
    # split into signed terms, keeping signs attached
    parts: list[str] = []
    depth_start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > depth_start and s[i - 1] not in "+-*/ ":
            parts.append(s[depth_start:i])
            depth_start = i
    parts.append(s[depth_start:])

    total = Q3.ZERO
    for part in parts:
        m = _TERM_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse coordinate term {part!r} in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("root2"):
            coef = Fraction(1)
            div = m.group("div2")
            root = True
        else:
            coef = Fraction(m.group("coef"))
            root = m.group("root1") is not None
            div = m.group("div1")
        if div:
            coef /= int(div)
        term = Q3(Fraction(0), sign * coef) if root else Q3(sign * coef, Fraction(0))
        total = total + term
    return total


@dataclass(frozen=True, slots=True)
class Vec2:
    """Exact point/vector in the plane with Q(sqrt 3) coordinates."""

    x: Q3
    y: Q3

    @staticmethod
    def of(x, y) -> "Vec2":
        return Vec2(_coerce(x), _coerce(y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scaled(self, factor: "Q3 | RationalLike") -> "Vec2":
        f = _coerce(factor)
        return Vec2(self.x * f, self.y * f)

    def dot(self, other: "Vec2") -> Q3:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Q3:
        return self.x * other.y - self.y * other.x

    def norm2(self) -> Q3:
        return self.dot(self)

    def to_floats(self) -> tuple[float, float]:
        return (float(self.x), float(self.y))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


Vec2.ZERO = Vec2(Q3.ZERO, Q3.ZERO)


@dataclass(frozen=True, slots=True)
class LinearMap2:
    """Exact 2x2 linear map over Q(sqrt 3)."""

    m00: Q3
    m01: Q3
    m10: Q3
    m11: Q3

    @staticmethod
    def identity() -> "LinearMap2":
        return LinearMap2(Q3.ONE, Q3.ZERO, Q3.ZERO, Q3.ONE)

    @staticmethod
    def rotation(cos: Q3, sin: Q3) -> "LinearMap2":
        return LinearMap2(cos, -sin, sin, cos)

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.m00 * v.x + self.m01 * v.y, self.m10 * v.x + self.m11 * v.y)

    def __matmul__(self, other: "LinearMap2") -> "LinearMap2":
        return LinearMap2(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    def transpose(self) -> "LinearMap2":
        return LinearMap2(self.m00, self.m10, self.m01, self.m11)

    def is_identity(self) -> bool:
        return self == LinearMap2.identity()


def barycenter(points) -> Vec2:
    pts = list(points)
    if not pts:
        raise ValueError("barycenter of empty point set")
    acc = Vec2.ZERO
    for p in pts:
        acc = acc + p
    return acc.scaled(Fraction(1, len(pts)))


def sort_points(points) -> list[Vec2]:
    """Deterministic total order on exact points (x then y)."""
    return sorted(points, key=_point_key)


class _point_key:
    __slots__ = ("p",)

    def __init__(self, p: Vec2):
        self.p = p

    def __lt__(self, other: "_point_key") -> bool:
        if self.p.x != other.p.x:
            return self.p.x < other.p.x
        return self.p.y < other.p.y
