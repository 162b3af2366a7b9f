"""Integer arithmetic: factoring, primality, squarefree parts, modular roots."""

import random

import pytest

from x16class import arith
from x16class.arith import FactorBudget
from x16class.errors import NotSquarefree


def test_factor_small_composite():
    f = arith.factor(8120)
    assert f.complete
    assert f.sign == 1
    assert f.factors == ((2, 3), (5, 1), (7, 1), (29, 1))
    assert f.value() == 8120


def test_factor_units_and_sign():
    assert arith.factor(1).factors == ()
    f = arith.factor(-12)
    assert f.sign == -1 and f.factors == ((2, 2), (3, 1)) and f.value() == -12


def test_factor_prime_and_perfect_power():
    f = arith.factor(2**61 - 1)  # Mersenne prime
    assert f.complete and f.factors == ((2**61 - 1, 1),)
    f = arith.factor(3**40)
    assert f.complete and f.factors == ((3, 40),)
    # a square above 1024 bits, past the range of a float root
    m607 = 2**607 - 1
    f = arith.factor(m607**2)
    assert f.complete and f.factors == ((m607, 2),)
    # powers of a prime above trial_bound with a prime exponent k >= 11
    p = 1_099_511_627_791  # the first prime above 2^40
    for k in (11, 13):
        f = arith.factor(p**k)
        assert f.complete and f.factors == ((p, k),)
    # a base just above trial_bound, with rho too short to split the power
    for k in (2, 13):
        f = arith.factor(10007**k, arith.FactorBudget(rho_iterations=1))
        assert f.complete and f.factors == ((10007, k),)


def test_factor_semiprime_via_rho():
    p, q = 1000003, 1000033
    f = arith.factor(p * q)
    assert f.complete and f.factors == ((p, 1), (q, 1))


def test_factor_incomplete_within_budget():
    # two large Mersenne primes; rho cannot split this in 1000 iterations
    n = (2**89 - 1) * (2**107 - 1)
    f = arith.factor(n, FactorBudget(trial_bound=100, rho_iterations=1000))
    assert not f.complete
    assert f.cofactor > 1 and f.value() == n
    # an unsplit cofactor above 1024 bits is returned, not raised on
    n = (2**521 - 1) * (2**607 - 1)
    f = arith.factor(n, FactorBudget(rho_iterations=1000))
    assert not f.complete and f.cofactor == n


def test_is_probable_prime():
    assert arith.is_probable_prime(2) and arith.is_probable_prime(3)
    assert not arith.is_probable_prime(1) and not arith.is_probable_prime(561)
    assert arith.is_probable_prime(2**89 - 1)
    assert not arith.is_probable_prime((2**89 - 1) * (2**107 - 1))


def test_squarefree_part():
    sf = arith.squarefree_part(50)  # 50 = 2 * 5^2
    assert (sf.d, sf.m) == (2, 5) and sf.fd.value() == 2
    sf = arith.squarefree_part(-45)
    assert (sf.d, sf.m) == (-5, 3) and sf.fd.value() == -5
    assert arith.squarefree_part(1).d == 1
    assert arith.squarefree_part(7).d == 7


def test_fundamental_discriminant():
    assert arith.fundamental_discriminant(-15) == -15
    assert arith.fundamental_discriminant(-2030) == -8120
    assert arith.fundamental_discriminant(-1) == -4
    assert arith.fundamental_discriminant(-5) == -20
    with pytest.raises(NotSquarefree):
        arith.fundamental_discriminant(-12)


def test_kronecker_matches_euler_criterion():
    rng = random.Random(1)
    primes = [3, 5, 7, 11, 13, 101, 103]
    for p in primes:
        for _ in range(50):
            a = rng.randrange(-200, 200)
            expected = pow(a % p, (p - 1) // 2, p)
            expected = {0: 0, 1: 1, p - 1: -1}[expected]
            assert arith.kronecker(a, p) == expected, (a, p)


def test_kronecker_multiplicative_in_bottom():
    rng = random.Random(2)
    for _ in range(200):
        a = rng.randrange(-100, 100)
        m = rng.randrange(1, 60)
        n = rng.randrange(1, 60)
        assert arith.kronecker(a, m * n) == arith.kronecker(a, m) * arith.kronecker(a, n)


def test_sqrt_mod_prime():
    rng = random.Random(3)
    for p in (3, 5, 13, 17, 97, 10007):
        for _ in range(20):
            x = rng.randrange(p)
            r = arith.sqrt_mod_prime(x * x % p, p)
            assert r is not None and r * r % p == x * x % p


def test_lift_sqrt_odd():
    for a, p, k in ((2, 7, 5), (2, 17, 4), (4, 5, 6), (-455, 3, 5)):
        assert arith.kronecker(a, p) == 1  # sanity on the fixtures
        r = arith.lift_sqrt_odd(a, p, k)
        assert (r * r - a) % p**k == 0


def test_lift_sqrt_2():
    for a in (17, 41, 73, 105, (-15) % 2**9):
        assert a % 8 == 1  # sanity on the fixtures
        r = arith.lift_sqrt_2(a, 9)
        assert (r * r - a) % 2**9 == 0


def test_valuation_int():
    assert arith.valuation_int(48, 2) == 4
    assert arith.valuation_int(-27, 3) == 3
    assert arith.valuation_int(7, 5) == 0
