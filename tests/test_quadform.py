"""Binary quadratic forms: reduction, composition, class numbers, structure."""

import random
from math import isqrt

from x16class import arith
from x16class.quadform import (
    QuadForm,
    class_group,
    class_number,
    compose,
    enumerate_reduced,
    form_order,
    form_pow,
    group_structure,
    principal_form,
    reduce_form,
    two_rank_genus,
    two_rank_of_group,
)

# complete classical lists: all fundamental discriminants with h = 1 and h = 2
H1_DISCS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)
H2_DISCS = (-15, -20, -24, -35, -40, -51, -52, -88, -91, -115, -123, -148,
            -187, -232, -235, -267, -403, -427)


def _transform(f: QuadForm, a, b, c, d) -> QuadForm:
    """f(ax+by, cx+dy) for an SL2(Z) matrix [[a,b],[c,d]]."""
    A = f.a * a * a + f.b * a * c + f.c * c * c
    B = 2 * f.a * a * b + f.b * (a * d + b * c) + 2 * f.c * c * d
    C = f.a * b * b + f.b * b * d + f.c * d * d
    return QuadForm(A, B, C)


def _random_sl2(rng):
    # random word in S = [[0,-1],[1,0]] and T = [[1,1],[0,1]]
    m = (1, 0, 0, 1)
    for _ in range(rng.randrange(1, 8)):
        a, b, c, d = m
        if rng.random() < 0.5:
            m = (-c, -d, a, b)  # S * m
        else:
            k = rng.randrange(-3, 4)
            m = (a + k * c, b + k * d, c, d)  # T^k * m
    return m


def test_reduce_is_orbit_invariant():
    rng = random.Random(5)
    for disc in (-15, -23, -47, -455, -8120, -2059):
        for f0 in enumerate_reduced(disc):
            for _ in range(5):
                g = _transform(f0, *_random_sl2(rng))
                assert g.disc == disc
                assert reduce_form(g) == f0


def test_reduce_form_output_is_reduced():
    rng = random.Random(6)
    for _ in range(500):
        a = rng.randrange(1, 50)
        b = rng.randrange(-100, 100)
        c = rng.randrange(1, 200)
        if b * b - 4 * a * c >= 0:
            continue
        r = reduce_form(QuadForm(a, b, c))
        assert r.is_reduced and r.disc == b * b - 4 * a * c


def test_known_class_numbers():
    for disc in H1_DISCS:
        assert class_number(disc) == 1, disc
    for disc in H2_DISCS:
        assert class_number(disc) == 2, disc
    assert class_number(-23) == 3
    assert class_number(-47) == 5
    assert class_number(-71) == 7
    assert class_number(-8120) == 40


def _fundamental_discs(rng, hi, want):
    """Random sample of fundamental discriminants in (-hi, -3]."""
    out = []
    while len(out) < want:
        d = -rng.randrange(2, hi)
        try:
            out.append(arith.fundamental_discriminant(arith.squarefree_part(d).d))
        except Exception:
            continue
    return out


def test_class_number_matches_enumeration():
    rng = random.Random(8)
    for disc in _fundamental_discs(rng, 40000, 60):
        assert class_number(disc) == len(enumerate_reduced(disc)), disc


def test_rejects_non_fundamental_discriminant():
    import pytest

    with pytest.raises(ValueError):
        class_number(-12)  # -12 = 4 * (-3), -3 = 1 mod 4 already fundamental
    with pytest.raises(ValueError):
        class_number(-16219)  # 7^2 * (-331)


def test_kernel_matches_enumeration():
    """The sieve and its band root count against the reduced-form oracle:
    every fundamental discriminant in (-5000, -3], then random ones up to 10^6."""
    fundamental = {
        arith.fundamental_discriminant(d)
        for d in range(-1, -5000, -1)
        if arith.squarefree_part(d).m == 1
    }
    small = sorted(disc for disc in fundamental if disc > -5000)
    assert len(small) == 1524
    rng = random.Random(9)
    for disc in small + _fundamental_discs(rng, 10**6, 25):
        assert class_number(disc) == len(enumerate_reduced(disc)), disc


def test_band_paths_match_enumeration():
    """Each path of the band root count, on discriminants found by a scan:
    the band sqrt(|disc|)/2 < a <= sqrt(|disc|/3) holds a reduced form whose
    a takes that path, and h agrees with the oracle."""

    def band(disc):
        return {f.a for f in enumerate_reduced(disc) if 4 * f.a * f.a > -disc}

    def amax(disc):
        return isqrt(-disc // 3)

    tiny = (-3, -4, -7, -8)  # amax = 1: no sieve primes at all
    assert all(amax(disc) == 1 for disc in tiny)
    # a = s*q, the large prime q (q^2 > amax) ramified: q | disc
    ramified = ((-132, 2, 3), (-100036, 2, 89))
    for disc, s, q in ramified:
        assert q * q > amax(disc) and disc % q == 0 and s * q in band(disc)
    # a with 4 | a for disc = 1 (mod 8): the 2-adic lift
    two_adic = ((-55, 4), (-100007, 164))
    for disc, a in two_adic:
        assert disc % 8 == 1 and a % 4 == 0 and a in band(disc)
    # a with an odd p^k, k >= 2: Newton steps from the root mod p
    prime_power = ((-260, 9, 3, 2), (-100004, 162, 3, 4))
    for disc, a, p, k in prime_power:
        assert a % p**k == 0 and a in band(disc)
    # a = s*q, q = 1 (mod 8): Tonelli-Shanks; q = 5 (mod 8): Atkin
    large_q = ((-1012, 1, 17), (-100020, 2, 89), (-84, 1, 5), (-100004, 3, 53))
    for disc, s, q in large_q:
        assert q % 4 == 1 and q * q > amax(disc) and s * q in band(disc)
    for disc in {*tiny, *(c[0] for c in ramified + two_adic + prime_power + large_q)}:
        assert class_number(disc) == len(enumerate_reduced(disc)), disc
    # the census-h36 discriminants with the largest band, h from the
    # per-a root count that preceded the cached band
    assert class_number(-635236280) == 15520
    assert class_number(-548282504) == 16160
    assert class_number(-723857960) == 11520


def test_enumerate_reduced_minus_15():
    assert [(f.a, f.b, f.c) for f in enumerate_reduced(-15)] == [(1, 1, 4), (2, 1, 2)]


def test_compose_group_axioms_randomized():
    """Identity, inverse, commutativity, associativity: >= 1000 cases."""
    rng = random.Random(10)
    cases = 0
    for disc in _fundamental_discs(rng, 5000, 40):
        forms = enumerate_reduced(disc)
        one = principal_form(disc)
        for _ in range(10):
            f, g, h = (rng.choice(forms) for _ in range(3))
            assert compose(one, f) == f
            assert compose(f, reduce_form(f.inverse())) == one
            assert compose(f, g) == compose(g, f)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))
            cases += 4
    assert cases >= 1000


def test_form_pow_and_order():
    h = class_number(-8120)
    for f in enumerate_reduced(-8120):
        k = form_order(f, h)
        assert h % k == 0
        assert form_pow(f, k) == principal_form(-8120)


def test_group_structure():
    assert class_group(-3).elementary_divisors == []
    assert class_group(-15).elementary_divisors == [2]
    assert class_group(-23).elementary_divisors == [3]
    assert class_group(-8120).elementary_divisors == [2, 2, 10]
    # structure is a divisibility chain whose product is h
    cg = class_group(-4280)
    eds = cg.elementary_divisors
    prod = 1
    for i in range(len(eds) - 1):
        assert eds[i + 1] % eds[i] == 0
    for e in eds:
        prod *= e
    assert prod == cg.h


def test_two_rank_agreement():
    for d in (-15, -105, -455, -2030, -1155, -4847):
        cg = class_group(d if d % 4 == 1 else 4 * d)
        assert two_rank_genus(d) == two_rank_of_group(cg), d
