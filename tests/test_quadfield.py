"""Field elements, fractional ideals, prime splitting, valuations."""

import random
from fractions import Fraction
from math import gcd

import pytest

from x16class import arith, quadfield, quadform
from x16class.errors import ExponentNotDivisible
from x16class.quadfield import (
    FactoredIdeal,
    QFieldElem,
    QIdeal,
    factor_principal,
    ideal_to_form,
    nth_root_ideal,
    primes_above,
    valuation,
)
from x16class.quadform import principal_form, reduce_form

DISCS = (-15, -8120, -4, -3, -455, -2059, -84)


def _random_elem(rng, disc):
    while True:
        u = Fraction(rng.randrange(-20, 21), rng.randrange(1, 6))
        v = Fraction(rng.randrange(-20, 21), rng.randrange(1, 6))
        e = QFieldElem.make(disc, u, v)
        if not e.is_zero():
            return e


def test_field_arithmetic():
    a = QFieldElem.make(-15, 1, Fraction(1, 2))
    b = QFieldElem.make(-15, -2, 3)
    assert (a + b) - b == a
    assert (a * b / b) == a
    assert a.norm() == 1 - (-15) * Fraction(1, 4)
    assert (a * a.conj()).u == a.norm() and (a * a.conj()).v == 0


def test_norm_is_multiplicative_randomized():
    rng = random.Random(21)
    for _ in range(300):
        disc = rng.choice(DISCS)
        a, b = _random_elem(rng, disc), _random_elem(rng, disc)
        assert (a * b).norm() == a.norm() * b.norm()


def test_primes_above_split_ramified_inert():
    s = primes_above(-15, 2)
    assert s.kind == "split" and len(s.primes) == 2
    P, Pbar = s.primes
    assert P.norm() == 2 and Pbar == P.conj()
    assert (P * Pbar).norm() == 4
    assert reduce_form(ideal_to_form(P * Pbar)) == principal_form(-15)

    s = primes_above(-15, 3)
    assert s.kind == "ramified"
    (P,) = s.primes
    assert P.norm() == 3 and (P * P).norm() == 9
    assert reduce_form(ideal_to_form(P * P)) == principal_form(-15)

    s = primes_above(-4, 3)
    assert s.kind == "inert" and s.primes[0].norm() == 9

    s = primes_above(-8120, 2)
    assert s.kind == "ramified" and s.primes[0].norm() == 2


def test_prime_ideal_contains_p():
    rng = random.Random(22)
    for disc in DISCS:
        for p in (2, 3, 5, 7, 11, 13):
            s = primes_above(disc, p)
            for P in s.primes:
                assert P.contains(QFieldElem.make(disc, p, 0))


def test_ideal_product_contains_products():
    """Products of lattice members lie in the product ideal."""
    rng = random.Random(23)
    checked = 0
    for disc in DISCS:
        ideals = []
        for a in range(1, 25):
            for b in range(0, 2 * a):
                if (b * b - disc) % (4 * a) == 0:
                    ideals.append(QIdeal.make(disc, a, b))
        for _ in range(40):
            I, J = rng.choice(ideals), rng.choice(ideals)
            IJ = I * J
            assert IJ.norm() == I.norm() * J.norm()
            # generators of I: a and (b + sqrt(disc))/2
            for x in (
                QFieldElem.make(disc, I.a, 0),
                QFieldElem.make(disc, Fraction(I.b, 2), Fraction(1, 2)),
            ):
                for y in (
                    QFieldElem.make(disc, J.a, 0),
                    QFieldElem.make(disc, Fraction(J.b, 2), Fraction(1, 2)),
                ):
                    assert IJ.contains(x * y)
                    checked += 1
    assert checked >= 1000


def test_inverse_and_pow():
    I = QIdeal.make(-8120, 271, 458)
    assert (I * I.inverse()).norm() == 1
    assert reduce_form(ideal_to_form(I * I.inverse())) == principal_form(-8120)
    assert (I**3).norm() == I.norm() ** 3
    assert (I**-2).norm() == Fraction(1, I.norm() ** 2)


def test_valuation_against_norm():
    rng = random.Random(24)
    for disc in (-15, -8120, -455):
        for _ in range(60):
            e = _random_elem(rng, disc)
            n = e.norm()
            for p in (2, 3, 5, 7):
                s = primes_above(disc, p)
                vp = arith.valuation_int(n.numerator, p) - arith.valuation_int(
                    n.denominator, p
                )
                if s.kind == "inert":
                    assert valuation(e, s.primes[0]) * 2 == vp
                elif s.kind == "ramified":
                    assert valuation(e, s.primes[0]) == vp
                else:
                    P, Pbar = s.primes
                    assert valuation(e, P) + valuation(e, Pbar) == vp


def test_factor_principal_reassembles():
    rng = random.Random(25)
    cases = 0
    for disc in (-15, -8120, -455, -4):
        for _ in range(25):
            e = _random_elem(rng, disc)
            F = factor_principal(e)
            assert F.norm() == abs(e.norm())
            I = F.product()
            assert I.norm() == abs(e.norm())
            assert I.contains(e)
            cases += 1
    assert cases == 100


def test_factor_principal_unit_norm_element():
    # norm 1 but non-unit ideal content: (2 + sqrt(-15))/ (2 - sqrt(-15))
    num = QFieldElem.make(-15, 2, 1)
    e = num / num.conj()
    assert e.norm() == 1
    F = factor_principal(e)
    assert F.entries, "denominator primes must be found despite unit norm"
    assert F.product().contains(e)


def test_nth_root_ideal():
    P = primes_above(-15, 2).primes[0]
    F = FactoredIdeal(-15, ((P, 10),))
    R = nth_root_ideal(F, 5)
    assert R.norm() == 4
    with pytest.raises(ExponentNotDivisible):
        nth_root_ideal(FactoredIdeal(-15, ((P, 7),)), 5)


def test_ideal_to_form_and_class_order():
    h = quadform.class_number(-8120)
    P = primes_above(-8120, 3).primes[0]
    k = quadform.form_order(ideal_to_form(P), h)
    assert h % k == 0
    # P^k lands in the principal class
    assert reduce_form(ideal_to_form(P**k)) == principal_form(-8120) or k == 1
    f = ideal_to_form(P)
    assert f.disc == -8120 and f.a == 3
