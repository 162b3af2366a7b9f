"""The parameter-to-class-group pipeline and the auxiliary sextic curve."""

from fractions import Fraction
from math import gcd

import pytest

from x16class import arith, quadfield, x16
from x16class.errors import NotImaginary, NotOnCurve, SupportCollision
from x16class.poly import MPolyZ
from x16class.quadform import class_number, reduce_form
from x16class.x16 import (
    CUSPS,
    cl5_pullback,
    census,
    census_parameters,
    corollary15_check,
    divisibility_check,
    f16_eval,
    g_eval,
    point_from_t,
    verify_prop34_points,
    y16_membership,
    y16_x_image,
)


def test_f16_and_cusps():
    assert f16_eval(Fraction(-3)) == -60  # -15 * 2^2
    assert f16_eval(Fraction(0)) == 0
    assert f16_eval(Fraction(1)) == 4 and f16_eval(Fraction(-1)) == 4
    for t in CUSPS:
        assert point_from_t(t).cusp


def test_point_from_t_field_constants():
    cases = {
        Fraction(-3): -15,
        Fraction(1, 3): -15,
        Fraction(-242, 29): -2030,
        Fraction(29, 242): -2030,
        Fraction(-5): -455,
        Fraction(-4): -119,
    }
    for t, d in cases.items():
        p = point_from_t(t)
        assert p.d == d, t
        assert p.fval == d * p.mrat**2


def test_g_eval_guards():
    """g_eval and cl5_pullback refuse cusps, t = 1 and real fields alike."""
    for fn in (g_eval, cl5_pullback):
        with pytest.raises(ValueError):
            fn(point_from_t(Fraction(0)))
        with pytest.raises(SupportCollision):
            fn(x16.X16Point(Fraction(1), Fraction(0), 1, Fraction(0), False))
        with pytest.raises(NotImaginary):
            fn(point_from_t(Fraction(2)))  # f16(2) > 0


def test_g_norm_identity():
    """g(x, y) g(x, -y) = (x - 1)^10 / (x - 1)^10 ... i.e. the numerator
    identity B^2 - A^2 f16 = (x - 1)^10 that makes the ideal (g) a unit at
    every prime away from (x - 1)."""
    x = MPolyZ.var("x")
    A = -6 * x * x - 4 * x + 2
    B = x**5 + 13 * x**4 - 2 * x**3 + 10 * x * x - 7 * x + 1
    f16 = x * (x * x + 1) * (x * x + 2 * x - 1)
    assert B * B - A * A * f16 == (x - 1) ** 10


def _is_fifth_power(n: int) -> bool:
    r = round(abs(n) ** (1 / 5))
    return any((r + k) ** 5 == abs(n) for k in (-2, -1, 0, 1, 2))


def test_g_norm_is_a_fifth_power():
    for t in (Fraction(-5), Fraction(-3), Fraction(2, 7)):
        n = g_eval(point_from_t(t)).norm()
        assert _is_fifth_power(n.numerator) and _is_fifth_power(n.denominator), t


def test_pullback_orders_pinned():
    expected = {
        Fraction(-3): 1,
        Fraction(1, 3): 1,
        Fraction(-242, 29): 1,
        Fraction(29, 242): 1,
        Fraction(-5): 5,
        Fraction(-7): 5,
        Fraction(2, 7): 5,
        Fraction(-9, 2): 5,
    }
    for t, order in expected.items():
        res = cl5_pullback(point_from_t(t))
        assert res.order == order, t


def test_pullback_matches_ideal_factorisation():
    """The closed form gives the reduced form of the fifth root of (g(P))
    computed by ideal factorisation, on both parities of r - s."""
    ts = census_parameters(60)
    odd = sum((t.numerator - t.denominator) % 2 for t in ts)
    assert (odd, len(ts) - odd) == (610, 302)
    for t in ts + [Fraction(-3), Fraction(1, 3), Fraction(-242, 29), Fraction(29, 242)]:
        p = point_from_t(t)
        e = g_eval(p)
        I = quadfield.nth_root_ideal(quadfield.factor_principal(e), 5)
        res = cl5_pullback(p)
        assert res.disc == e.disc, t
        assert res.ideal_class_form == reduce_form(quadfield.ideal_to_form(I)), t


def test_pullback_valuations_divisible_by_5():
    for t in (Fraction(-5), Fraction(-7), Fraction(-242, 29)):
        e = g_eval(point_from_t(t))
        F = quadfield.factor_principal(e)
        assert all(v % 5 == 0 for _, v in F.entries), t


def test_divisibility_check_t_minus_5(monkeypatch):
    p = point_from_t(Fraction(-5))
    class_number(-455)  # caches the class number and its discriminant check
    factored = []
    real_factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n, *a: factored.append(n) or real_factor(n, *a))
    rec = divisibility_check(p)
    assert factored == []  # d is factored once, by point_from_t
    assert (rec.d, rec.disc, rec.h, rec.two_rank) == (-455, -455, 20, 2)
    assert rec.five_order == 5 and rec.div10


def test_census_parameters_order_and_content():
    ts = census_parameters(5)
    assert all(f16_eval(t) < 0 and t not in CUSPS for t in ts)
    keys = [(abs(t.numerator) + t.denominator, t.numerator, t.denominator) for t in ts]
    assert keys == sorted(keys)
    # the integer sign test keeps exactly the t that the Fraction f16 keeps
    by_fraction = {
        Fraction(r, s)
        for s in range(1, 21)
        for r in range(-20, 21)
        if gcd(r, s) == 1 and Fraction(r, s) not in CUSPS and f16_eval(Fraction(r, s)) < 0
    }
    ts = census_parameters(20)
    assert len(ts) == len(by_fraction) and set(ts) == by_fraction


def test_census_height_10():
    records = []
    summary = census(10, records.append)
    assert summary.records == 26 and len(records) == 26
    assert sorted(summary.exceptions) == [Fraction(-3), Fraction(1, 3)]
    assert summary.violations == [] and summary.errors == []
    assert all(r.div10 for r in records if r.d != -15)


def test_y16_membership_and_images():
    assert y16_membership(Fraction(3), Fraction(29))
    assert not y16_membership(Fraction(3), Fraction(28))
    assert y16_x_image(Fraction(3), Fraction(29)) is None  # pole
    assert y16_x_image(Fraction(3), Fraction(-29)) == Fraction(-242, 29)
    assert y16_x_image(Fraction(0), Fraction(1)) == -1
    assert y16_x_image(Fraction(0), Fraction(-1)) == Fraction(1, 3)
    assert y16_x_image(Fraction(1, 3), Fraction(29, 27)) == 0
    assert y16_x_image(Fraction(1, 3), Fraction(-29, 27)) == Fraction(29, 242)
    with pytest.raises(NotOnCurve):
        y16_x_image(Fraction(1), Fraction(1))


def test_prop34_and_corollary15():
    assert verify_prop34_points()
    assert corollary15_check()
