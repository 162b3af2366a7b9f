"""Integer arithmetic: factoring, primality, squarefree parts, modular roots."""

import math
import random

import pytest

from x16class import arith, ecq
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
    m89, m107 = 2**89 - 1, 2**107 - 1
    assert m89 > arith.DETERMINISTIC_BOUND  # every case below takes the BPSW path
    assert arith.is_probable_prime(m89) and arith.is_probable_prime(m89, rounds=3)
    assert not arith.is_probable_prime(m89 * m107)
    assert not arith.is_probable_prime(m89**2)
    assert not arith._strong_lucas(m89**2)  # a square has no D with (D|n) = -1
    assert not arith._strong_lucas(5 * m89)  # (5|n) = 0 with n != 5
    # a composite Mersenne number 2^q - 1 (q prime) is a strong base-2
    # pseudoprime, so above the bound only the Lucas half rejects it
    m83 = 2**83 - 1  # 167 * 57912614113275649087721
    assert _strong_mr_base2(m83) and not arith.is_probable_prime(m83)


# OEIS A217255: strong Lucas pseudoprimes for Selfridge's parameters
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
)
# OEIS A001262: strong pseudoprimes to base 2
STRONG_BASE2_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633)


def _strong_mr_base2(n):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return arith._strong_mr(n, 2, d, s)


def test_bpsw_halves_against_known_pseudoprimes():
    # each half of BPSW is fooled by its own pseudoprimes, never by the other's
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert arith._strong_lucas(n) and not _strong_mr_base2(n), n
    for n in STRONG_BASE2_PSEUDOPRIMES:
        assert _strong_mr_base2(n) and not arith._strong_lucas(n), n
    # the Lucas helper passes every odd prime, including n = 5 and 7, where
    # the search meets |D| = n with (D|n) = 0
    for n in range(5, 2000, 2):
        assert arith._strong_lucas(n) == all(n % q for q in range(3, math.isqrt(n) + 1, 2)), n


def _strong_lucas_uv(n):
    """The U/V chain that _strong_lucas's V-only ladder replaced: the same
    test, with U_k kept beside V_k and halved mod n at each odd step."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = arith.kronecker(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x if x % 2 == 0 else x + n) // 2 % n

    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def test_strong_lucas_ladder_matches_uv_chain():
    """The V-only ladder decides U_d = 0 from 2 V_{d+1} - V_d = D U_d; on
    10 000 seeded odd n below 10^12, the pseudoprimes, and Example 6's p
    and a multiple of it, it agrees with the U/V chain."""
    rng = random.Random(28)
    cases = [rng.randrange(3, 10**12) | 1 for _ in range(10000)]
    r, s = ecq.EXAMPLE6_U**2, ecq.EXAMPLE6_V**2
    p = (r * r + s * s) // 2
    cases += [*STRONG_LUCAS_PSEUDOPRIMES, *STRONG_BASE2_PSEUDOPRIMES, 2**89 - 1, 2**83 - 1, p, p * (2**89 - 1)]
    for n in cases:
        assert arith._strong_lucas(n) == _strong_lucas_uv(n), n


def test_is_probable_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(10)
    for _ in range(150):
        bits = rng.randrange(82, 2049)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        assert arith.is_probable_prime(n) == sympy.isprime(n), n
    for _ in range(40):
        p = sympy.nextprime(rng.getrandbits(rng.randrange(82, 513)))
        q = sympy.nextprime(rng.getrandbits(rng.randrange(20, 513)))
        assert arith.is_probable_prime(p), p
        assert not arith.is_probable_prime(p * q), (p, q)


def _fuzz_composites(rng, nextprime):
    """Perfect powers and products of medium primes times a prime above 2^81."""
    for _ in range(12):
        big = nextprime(rng.getrandbits(rng.randrange(82, 200)))
        medium = [nextprime(rng.getrandbits(rng.randrange(15, 31))) for _ in range(rng.randrange(1, 4))]
        yield big ** rng.randrange(2, 5)
        yield (medium[0] * big) ** 2
        yield math.prod(medium) * big


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in _fuzz_composites(random.Random(11), sympy.nextprime):
        f = arith.factor(n)
        assert f.complete and f.value() == n, n
        assert all(sympy.isprime(p) for p in f.primes()), f


def test_factor_is_seed_independent():
    sympy = pytest.importorskip("sympy")
    for n in _fuzz_composites(random.Random(12), sympy.nextprime):
        results = {arith.factor(n, FactorBudget(rng_seed=k)) for k in range(1, 6)}
        assert len(results) == 1, n


def test_squarefree_part():
    sf = arith.squarefree_part(50)  # 50 = 2 * 5^2
    assert (sf.d, sf.m) == (2, 5)
    sf = arith.squarefree_part(-45)
    assert (sf.d, sf.m) == (-5, 3)
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
    assert arith.sqrt_mod_prime(3, 7) is None  # 3 is not a square mod 7
    # every nonzero square, for p = 3 (mod 4), 5 (mod 8) and 1 (mod 8)
    for p in (7, 13, 29, 41, 73, 113, 10007, 10009):
        for x in range(1, p):
            r = arith.sqrt_of_residue(x * x % p, p)
            assert r * r % p == x * x % p


def test_lift_sqrt_2():
    for a in (17, 41, 73, 105, (-15) % 2**9):
        assert a % 8 == 1  # sanity on the fixtures
        r = arith.lift_sqrt_2(a, 9)
        assert (r * r - a) % 2**9 == 0


def test_valuation_int():
    assert arith.valuation_int(48, 2) == 4
    assert arith.valuation_int(-27, 3) == 3
    assert arith.valuation_int(7, 5) == 0
