"""Exact polynomial arithmetic over Z and over the cubic field."""

import random
from fractions import Fraction

import pytest

from x16class.poly import (
    MPolyZ,
    NFElem,
    UPolyNF,
    parse_prefix,
    verify_identity,
)


def _random_poly(rng, variables=("r", "s"), max_terms=5, max_deg=4):
    terms = {}
    n = len(variables)
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        terms[e] = rng.randrange(-9, 10)
    return MPolyZ(variables, terms)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(300):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == 0


def test_power_and_evaluate():
    r, s = MPolyZ.var("r"), MPolyZ.var("s")
    p = (r + s) ** 3
    assert p == r**3 + 3 * r**2 * s + 3 * r * s**2 + s**3
    assert p.evaluate({"r": 2, "s": Fraction(1, 2)}) == Fraction(125, 8)


def test_mixed_variable_alignment():
    r, s = MPolyZ.var("r"), MPolyZ.var("s")
    assert (r * s).variables == ("r", "s")
    assert r + 0 == r and (r - r).is_zero()
    # multiplying by one in the extended ring keeps values
    one = MPolyZ.const(1, ("r", "s"))
    assert (r * r + s * s) * one == r * r + s * s


def test_parse_prefix():
    p = parse_prefix("(+ (^ r 2) (* 2 r s) (- (^ s 2)))")
    r, s = MPolyZ.var("r"), MPolyZ.var("s")
    assert p == r * r + 2 * r * s - s * s
    assert parse_prefix("(- x)") == -MPolyZ.var("x")
    assert parse_prefix("(- x y z)") == MPolyZ.var("x") - MPolyZ.var("y") - MPolyZ.var("z")
    assert parse_prefix("7") == MPolyZ.const(7)
    with pytest.raises(ValueError):
        parse_prefix("(? a b)")


def test_verify_identity():
    lhs = parse_prefix("(* 4 (^ m 3))")
    rhs = parse_prefix(
        "(+ (* (- (* 2 m) n) (- (^ m 2) (* 2 m n) (^ n 2)))"
        "   (* (+ (* 2 m) n) (+ (^ m 2) (* 2 m n) (- (^ n 2)))))"
    )
    assert verify_identity(lhs, rhs)
    assert not verify_identity(lhs, rhs + 1)


MP = (2, 2, -1, 1)  # alpha^3 - alpha^2 + 2 alpha + 2


def test_nfelem_arithmetic():
    a = NFElem.gen(MP)
    # alpha^3 = alpha^2 - 2 alpha - 2
    assert a * a * a == NFElem.make(MP, [-2, -2, 1])
    x = NFElem.make(MP, [Fraction(1, 2), 3, -1])
    assert x * x.inverse() == NFElem.rational(MP, 1)
    assert (x + a) - a == x


def test_nfelem_inverse_randomized():
    rng = random.Random(11)
    one = NFElem.rational(MP, 1)
    for _ in range(100):
        coords = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(3)]
        x = NFElem.make(MP, coords)
        if x.is_zero():
            continue
        assert x * x.inverse() == one


def test_upoly_product_is_the_sextic():
    g1 = UPolyNF.make(MP, [1, (-1, 1, -1), 1])
    g2 = UPolyNF.make(MP, [1, (2, -1, 1), (3, -3, 1), (2, -1, 1), 1])
    prod = g1 * g2
    assert prod.is_rational()
    assert prod.rational_coeffs() == (1, 1, 0, -5, 0, 1, 1)
