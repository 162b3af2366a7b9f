"""Exact polynomial arithmetic over Z and modulo a monic polynomial."""

import random

import pytest

from x16class.poly import MPolyZ, parse_prefix, verify_identity


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


def test_power_is_the_repeated_product(monkeypatch):
    """p**k is the k-fold product for k = 0..9, and squares only up to k's
    top bit: bit_length(k) - 1 squarings and one product per set bit."""
    r, s, t = MPolyZ.var("r"), MPolyZ.var("s"), MPolyZ.var("t")
    p = 2 * r * s - t**2 + 3 * s - 1
    product = MPolyZ.const(1, p.variables)
    for k in range(10):
        assert p**k == product, k
        product = product * p
    products, mul = [], MPolyZ.__mul__
    monkeypatch.setattr(MPolyZ, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for k in range(1, 10):
        products.clear()
        p**k
        assert len(products) == k.bit_length() - 1 + bin(k).count("1"), k


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


def test_rem_monic_product_is_the_sextic():
    a, z = MPolyZ.var("a"), MPolyZ.var("z")
    m = a**3 - a**2 + 2 * a + 2
    assert (a**3).rem_monic("a", m) == a**2 - 2 * a - 2
    g1 = z**2 + (-1 + a - a**2) * z + 1
    c3, c2 = a**2 - a + 2, a**2 - 3 * a + 3
    sextic = z**6 + z**5 - 5 * z**3 + z + 1
    assert (g1 * (z**4 + c3 * z**3 + c2 * z**2 + c3 * z + 1)).rem_monic("a", m) == sextic
    # one perturbed coefficient of g2 and the product is no longer the sextic
    for g2 in (
        z**4 + c3 * z**3 + (c2 + 1) * z**2 + c3 * z + 1,
        z**4 + (c3 + a) * z**3 + c2 * z**2 + c3 * z + 1,
    ):
        assert (g1 * g2).rem_monic("a", m) != sextic
    with pytest.raises(ValueError):
        a.rem_monic("a", 2 * a**3 + 1)
    # the remainder of q m + r with deg_a r < 3 is r
    rng = random.Random(13)
    for _ in range(200):
        q = _random_poly(rng, ("a", "z"))
        r = MPolyZ(("a", "z"), {(i, j): rng.randrange(-9, 10) for i in range(3) for j in range(3)})
        assert (q * m + r).rem_monic("a", m) == r
