"""Elliptic curve group law, quartic transport, heuristic, pi2 counting."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from x16class import arith, ecq
from x16class.ecq import (
    E4_GENERATOR,
    E4_TORSION,
    E4_WEIERSTRASS,
    ECPoint,
    QuarticPoint,
    WeierstrassCurve,
    ec_add,
    ec_mul,
    heuristic_search,
    pi2_count,
    quartic_rhs,
    quartic_to_weierstrass,
    section6_checks,
    weierstrass_to_quartic,
)
from x16class.errors import BudgetExceeded, NotOnCurve
from x16class.poly import MPolyZ

# the auxiliary curve y^2 = x^3 - x^2 + 17x - 13 with rational point (1, 2)
E_AUX = WeierstrassCurve.make(a2=-1, a4=17, a6=-13)


def test_curve_construction_and_membership():
    assert E_AUX.contains(Fraction(1), Fraction(2))
    P = ECPoint.make(E_AUX, 1, 2)
    Q = ec_add(P, P)
    assert E_AUX.contains(Q.x, Q.y)
    with pytest.raises(NotOnCurve):
        ECPoint.make(E_AUX, 1, 3)
    with pytest.raises(ValueError):
        WeierstrassCurve.make(a4=0, a6=0)  # singular


def test_identity_and_negation():
    P = ECPoint.make(E_AUX, 1, 2)
    O = ECPoint.infinity(E_AUX)
    assert ec_add(P, O) == P and ec_add(O, P) == P
    assert ec_add(P, -P).is_infinity
    assert ec_mul(2, P) == ec_add(P, P)
    assert ec_mul(-3, P) == -ec_mul(3, P)


def test_group_law_associativity_randomized():
    """>= 1000 associativity cases across two curves under a fixed seed."""
    rng = random.Random(31)
    G = ECPoint.make(E4_WEIERSTRASS, *E4_GENERATOR)
    T = ECPoint.make(E4_WEIERSTRASS, *E4_TORSION)
    base_aux = ECPoint.make(E_AUX, 1, 2)
    cases = 0
    for _ in range(500):
        a, b, c = (rng.randrange(-6, 7) for _ in range(3))
        ta, tb, tc = (rng.randrange(2) for _ in range(3))
        P = ec_add(ec_mul(a, G), ec_mul(ta, T))
        Q = ec_add(ec_mul(b, G), ec_mul(tb, T))
        R = ec_add(ec_mul(c, G), ec_mul(tc, T))
        assert ec_add(ec_add(P, Q), R) == ec_add(P, ec_add(Q, R))
        P2 = ec_mul(a, base_aux)
        Q2 = ec_mul(b, base_aux)
        R2 = ec_mul(c, base_aux)
        assert ec_add(ec_add(P2, Q2), R2) == ec_add(P2, ec_add(Q2, R2))
        cases += 2
    assert cases >= 1000


def test_torsion_point():
    T = ECPoint.make(E4_WEIERSTRASS, *E4_TORSION)
    assert ec_mul(2, T).is_infinity


def quartic_transport(m: int) -> QuarticPoint:
    """Primitive quartic representative of m times the pinned generator."""
    G = ECPoint.make(E4_WEIERSTRASS, *E4_GENERATOR)
    return weierstrass_to_quartic(ec_mul(m, G))


def _reduce_V(p: MPolyZ) -> MPolyZ:
    """Reduce powers of V >= 2 using V^2 = X^3 + 4X^2 + 6X + 4."""
    X, V = MPolyZ.var("X"), MPolyZ.var("V")
    rhs = X**3 + 4 * X**2 + 6 * X + 4
    p = p.remap(("V", "X"))
    while True:
        vdeg = max((e[0] for e in p.terms), default=0)
        if vdeg < 2:
            return p
        out = MPolyZ.const(0, ("V", "X"))
        for e, c in p.terms.items():
            term = c * MPolyZ(("V", "X"), {(e[0] % 2, e[1]): 1})
            term = term * rhs ** (e[0] // 2)
            out = out + term
        p = out.remap(("V", "X"))


def test_transport_map_is_an_exact_identity():
    """The affine transport satisfies the quartic equation identically
    modulo the curve relation: with d = X^2 - 2, U = X^2 + 4X + 2V + 2,
    Y = 4X(V+2X+2)^2 - 2d^2 - 8d(V+2X+2), one has
    Y^2 = 2(U^4 + 2U^2 d^2 - d^4) mod (V^2 - (X^3+4X^2+6X+4))."""
    X, V = MPolyZ.var("X"), MPolyZ.var("V")
    d = X * X - 2
    w_num = 2 * (V + 2 * X + 2)  # w = w_num / d
    U = X * X + 4 * X + 2 * V + 2  # u * d
    Y = X * w_num * w_num - 2 * d * d - 4 * w_num * d  # y * d^2
    lhs = _reduce_V(Y * Y)
    rhs = _reduce_V(2 * (U**4 + 2 * U * U * d * d - d**4))
    assert lhs == rhs


def test_quartic_transport_pinned_values():
    assert quartic_transport(0) == QuarticPoint(1, 2, 1)
    assert quartic_transport(1) == QuarticPoint(-3, 14, 1)
    q = quartic_transport(15)
    assert abs(q.u) == ecq.EXAMPLE6_U and abs(q.v) == ecq.EXAMPLE6_V


def test_transport_round_trip_and_primitivity():
    G = ECPoint.make(E4_WEIERSTRASS, *E4_GENERATOR)
    for m in range(0, 9):
        P = ec_mul(m, G)
        q = weierstrass_to_quartic(P)
        assert gcd(q.u, q.v) == 1
        assert q.y * q.y == quartic_rhs(q.u, q.v)
        assert quartic_to_weierstrass(q) == P


def test_height_growth_is_quadratic_in_m():
    digits = [len(str(abs(quartic_transport(m).u))) for m in (4, 8, 16)]
    # doubling m roughly quadruples the digit count
    assert 3.0 < digits[1] / digits[0] < 5.0
    assert 3.0 < digits[2] / digits[1] < 5.0


def test_pz2():
    classify = ecq._classify_pz2
    assert classify(arith.factor(164)) == ("hit_certified", 41, 2)  # 164 = 41 * 2^2
    assert classify(arith.factor(4)) == ("non_hit", 0, 0)  # squarefree part 1
    assert classify(arith.factor(12)) == ("hit_certified", 3, 2)
    assert classify(arith.factor(30)) == ("non_hit", 0, 0)  # 30 squarefree composite
    # with a cofactor C left, exponent parity decides first, and a C that
    # parity leaves open is decided only when it is a probable prime
    assert classify(arith.FactoredInt(1, ((2, 1),), 41)) == ("non_hit", 0, 0)
    assert classify(arith.FactoredInt(1, ((2, 2),), 10007 * 10009)) == ("untested", 0, 0)
    assert classify(arith.FactoredInt(1, ((3, 1),), 10007 * 10009)) == ("non_hit", 0, 0)
    assert classify(arith.FactoredInt(1, ((3, 1), (5, 3)), 10007 * 10009)) == ("non_hit", 0, 0)
    assert classify(arith.FactoredInt(1, ((3, 1),), 10007**2)) == ("hit_certified", 3, 10007)
    assert classify(arith.FactoredInt(1, ((3, 2),), 10007**2)) == ("non_hit", 0, 0)
    # C may still hold a found prime: 41 * 41^2 = 41^3 is 41 * 41^2
    assert classify(arith.FactoredInt(1, ((41, 1),), 41**2)) == ("hit_certified", 41, 41)
    assert classify(arith.FactoredInt(1, ((41, 2),), 41 * 10007)) == ("non_hit", 0, 0)


def test_pz2_certified_by_the_primality_proof():
    """A hit is certified exactly when p is below the bound under which the
    primality test is deterministic, whatever the size of n."""
    classify = ecq._classify_pz2
    # a prime cofactor C left by parity: proven, so certified
    assert classify(arith.FactoredInt(1, ((2, 2),), 41)) == ("hit_certified", 41, 2)
    assert classify(arith.FactoredInt(1, ((41, 1),), 41 * 10007)) == ("hit_certified", 10007, 41)
    p61, p89 = 2**61 - 1, 2**89 - 1  # Mersenne primes below and above the bound
    assert p61 < arith.DETERMINISTIC_BOUND < p89
    f = arith.FactoredInt(1, ((2, 2), (p61, 1)))
    assert f.value() > 10**12 and classify(f) == ("hit_certified", p61, 2)
    assert classify(arith.FactoredInt(1, ((2, 2),), p61)) == ("hit_certified", p61, 2)
    assert classify(arith.FactoredInt(1, ((2, 2), (p89, 1)))) == ("hit_probable", p89, 2)
    assert classify(arith.FactoredInt(1, ((2, 2),), p89)) == ("hit_probable", p89, 2)


def _heuristic_values(m_max: int) -> list[int]:
    values = []
    for m in range(m_max + 1):
        q = quartic_transport(m)
        values.append(2 * (q.u**4 + q.v**4))
    return values


@pytest.fixture(scope="module")
def heuristic_m15():
    """heuristic_search(15) and the (value, budget) pairs it passed to
    arith.factor, shared by the tests below."""
    calls = []
    factor = arith.factor

    def counting_factor(n, effort=arith.DEFAULT_BUDGET):
        calls.append((n, effort))
        return factor(n, effort)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "factor", counting_factor)
        return heuristic_search(15), calls


def test_heuristic_factors_each_value_once(heuristic_m15):
    """Every value is factored once without rho, in order of m."""
    quick = [n for n, effort in heuristic_m15[1] if effort.rho_iterations == 0]
    assert quick == _heuristic_values(15)


def test_heuristic_runs_rho_only_where_parity_is_open(heuristic_m15):
    """Trial division and parity decide every value up to m = 15 but those
    at m = 5 and 6, and only those two are factored with the full budget."""
    values = _heuristic_values(15)
    full = [n for n, effort in heuristic_m15[1] if effort == arith.DEFAULT_BUDGET]
    assert full == [values[5], values[6]]
    assert len(heuristic_m15[1]) == 16 + 2


def test_heuristic_search_statuses():
    recs = heuristic_search(5)
    assert [r.m for r in recs] == [0, 1, 2, 3, 4, 5]
    assert recs[0].status == "non_hit"  # value 4 at the base point
    assert recs[1].status == "hit_certified" and recs[1].p_digits == 2 and recs[1].z == 2
    assert all(r.status in ("hit_certified", "hit_probable", "non_hit", "untested") for r in recs)


def test_heuristic_search_statuses_to_m15(heuristic_m15):
    """Parity decides every value up to m = 15 that rho leaves unfactored."""
    recs = heuristic_m15[0]
    hits = {r.m: (r.status, r.p_digits, r.z) for r in recs if r.is_hit}
    assert hits == {
        1: ("hit_certified", 2, 2),
        2: ("hit_certified", 5, 2),
        3: ("hit_certified", 10, 2),
        15: ("hit_probable", 181, 2),
    }
    assert all(r.status == "non_hit" for r in recs if r.m not in hits)


def test_section6_example():
    assert all(ok for _, ok in section6_checks())
    names = [n for n, ok in section6_checks(rounds=5)]
    assert any("181" in n for n in names)


def test_section6_negative_control():
    u, v = ecq.EXAMPLE6_U, ecq.EXAMPLE6_V
    y = ecq.EXAMPLE6_Y
    assert (y + 2) ** 2 != 2 * ((u + 2) ** 4 + 2 * (u + 2) ** 2 * v * v - v**4)


def test_pi2_counts():
    assert pi2_count(20) == 11
    assert pi2_count(300) == ecq._pi2_brute(300)
    # pi2(n) counts k < n, so k = n enters the running count only at n + 1
    count = 0
    for n in range(2001):
        assert pi2_count(n) == count, n
        if n >= 2 and arith.is_probable_prime(arith.squarefree_part(n).d):
            count += 1
    pinned = {
        10**4: 2459, 10**5: 18628, 10**6: 147677, 10**7: 1218118,
        5 * 10**7: 5423946, 10**8: 10359298,
    }
    assert {n: pi2_count(n) for n in pinned} == pinned


def _pi2_one_array(n: int) -> int:
    """pi2(n) from one bool sieve over all the odd numbers below n (n/2
    bytes), kept as pi2_count's oracle."""
    if n <= 2:
        return 0
    m = n - 1
    odd = np.ones((m + 1) // 2, dtype=bool)  # odd[i]: 2i + 1 is prime
    odd[0] = False
    for i in range(1, (isqrt(m) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return sum(
        1 + int(np.count_nonzero(odd[: (m // (z * z) + 1) // 2]))
        for z in range(1, isqrt(m // 2) + 1)
    )


def test_pi2_matches_one_array_sieve():
    """The recurrence against the one-array sieve on every small n, on the
    twelve sizes 2k * 2^19 + delta, on 50 seeded random n up to 2 * 10^6,
    and where r = isqrt(n - 1), the last z with 2 z^2 <= n - 1 and
    c = icbrt(n - 1) step up: n = k^2, 2k^2, k^3 and the two after each."""
    rng = random.Random(13)
    sizes = [2 * k * (1 << 19) + delta for k in (1, 2) for delta in range(-2, 4)]
    sizes += [rng.randrange(3, 2 * 10**6 + 1) for _ in range(50)]
    assert [pi2_count(n) for n in sizes] == [_pi2_one_array(n) for n in sizes]
    for n in range(3000):
        assert pi2_count(n) == _pi2_one_array(n), n
    edges = [e for k in range(1, 400) for e in (k * k, 2 * k * k)]
    edges += [k**3 for k in range(1, 101)]
    for edge in edges:
        for n in range(edge, edge + 3):
            assert pi2_count(n) == _pi2_one_array(n), n


def test_pi2_cube_root_is_exact():
    """Phase 1 of pi2_count stops at the integer cube root of n - 1."""
    for k in range(2, 1001):
        assert [arith._iroot(k**3 + d, 3) for d in (-1, 0, 1)] == [k - 1, k, k]


def test_pi2_memory_cap():
    with pytest.raises(BudgetExceeded):
        pi2_count(10**9)


@pytest.mark.parametrize("n", [10**6, 10**7, ecq.PI2_MEMORY_CAP])
def test_pi2_peak_memory(n):
    """The arrays grow as sqrt(n): under 10^6 B up to the cap."""
    tracemalloc.start()
    try:
        pi2_count(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10**6
