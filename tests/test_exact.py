import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fractalheat.exact import LinearMap2, Q3, Vec2, barycenter, parse_q3, sort_points

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


def q3s():
    return st.builds(Q3, rationals, rationals)


@given(q3s(), q3s(), q3s())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@given(q3s())
def test_inverse_roundtrip(a):
    if a == Q3.ZERO:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == Q3.ONE


@given(q3s(), q3s())
def test_order_matches_floats(a, b):
    if a < b:
        assert float(a) <= float(b) + 1e-9
    if a == b:
        assert a.a == b.a and a.b == b.b


def test_sign_cases():
    assert Q3.of(1, -1).sign() == -1  # 1 - sqrt(3) < 0
    assert Q3.of(2, -1).sign() == 1  # 2 - sqrt(3) > 0
    assert Q3.of(-1, 1).sign() == 1
    assert Q3.of(0, 0).sign() == 0
    assert Q3.of(0, -3).sign() == -1


def test_float_value():
    assert math.isclose(float(Q3.of(Fraction(1, 4), Fraction(1, 4))), 0.25 + math.sqrt(3) / 4)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1/2", Q3.of(Fraction(1, 2))),
        ("-3/4", Q3.of(Fraction(-3, 4))),
        ("1/4*sqrt3", Q3.of(0, Fraction(1, 4))),
        ("sqrt3/4", Q3.of(0, Fraction(1, 4))),
        ("sqrt3", Q3.of(0, 1)),
        ("-sqrt3", Q3.of(0, -1)),
        ("1+1/2*sqrt3", Q3.of(1, Fraction(1, 2))),
        ("1/4-1/4*sqrt3", Q3.of(Fraction(1, 4), Fraction(-1, 4))),
        ("0", Q3.ZERO),
    ],
)
def test_parse_q3(text, expected):
    assert parse_q3(text) == expected


@pytest.mark.parametrize("bad", ["", "sqrt2", "1//2", "x+1", "1*2*sqrt3*"])
def test_parse_q3_rejects(bad):
    with pytest.raises(ValueError):
        parse_q3(bad)


def test_vec_ops():
    v = Vec2.of(1, 2)
    w = Vec2.of(Fraction(1, 2), -1)
    assert v + w == Vec2.of(Fraction(3, 2), 1)
    assert (v - w).scaled(2) == Vec2.of(1, 6)
    assert v.dot(w) == Q3.of(Fraction(-3, 2))
    assert v.cross(w) == Q3.of(-2)


def test_rotation_matrix_exact():
    cos = Q3.of(Fraction(-1, 2))
    sin = Q3.of(0, Fraction(1, 2))
    rot = LinearMap2.rotation(cos, sin)
    assert (rot.transpose() @ rot).is_identity()
    third = rot @ rot @ rot
    assert third.is_identity()


def test_barycenter_and_sort():
    pts = [Vec2.of(0, 0), Vec2.of(Fraction(1, 2), Fraction(3, 2)), Vec2.of(1, 0)]
    b = barycenter(pts)
    assert b == Vec2.of(Fraction(1, 2), Fraction(1, 2))
    assert sort_points(reversed(pts)) == pts
    with pytest.raises(ValueError):
        barycenter([])
