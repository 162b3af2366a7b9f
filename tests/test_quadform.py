"""Binary quadratic forms: reduction, composition, class numbers, structure."""

import random
from math import isqrt

from x16class import arith, quadform
from x16class.errors import BudgetExceeded
from x16class.quadform import (
    QuadForm,
    _fundamental_primes,
    _sqrt_mod_primes,
    class_group,
    class_number,
    class_numbers,
    compose,
    enumerate_reduced,
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

    cases = [-12, -16219]  # -12 = 4 * (-3), -3 = 1 mod 4 already fundamental; 7^2 * (-331)
    # the boundary of the sieve's check: -3p^2 has amax = isqrt(|disc| // 3) = p
    for p in (3, 5, 7, 11, 101, 1009, 10007):
        assert isqrt(3 * p * p // 3) == p
        cases += [-3 * p * p, -4 * p * p, -8 * p * p]
    for disc in cases:
        for fn in (class_number, class_group):
            with pytest.raises(ValueError, match="not a fundamental discriminant"):
                fn(disc)


def test_fundamental_check_matches_squarefree_rule():
    """The sieve's check against the factoring rule it replaced, on every
    disc in (-2*10^4, -3]; the primes it returns are those up to amax."""
    for disc in range(-3, -20000, -1):
        d = disc if disc % 4 == 1 else disc // 4
        expected = (
            disc % 4 == 1 or (disc % 4 == 0 and d % 4 in (2, 3))
        ) and arith.squarefree_part(d).m == 1
        try:
            primes = _fundamental_primes(disc)
        except ValueError:
            assert not expected, disc
            continue
        assert expected, disc
        if -disc % 997 == 0:
            amax = isqrt(-disc // 3)
            assert primes.tolist() == [p for p in range(2, amax + 1) if arith.is_probable_prime(p)]


def test_class_number_factors_nothing(monkeypatch):
    """Neither the class number nor the class group factors or tests
    primality: the sieve decides the discriminant."""

    def refuse(*args, **kwargs):
        raise AssertionError("the class-number path must not factor")

    for name in ("factor", "squarefree_part", "is_probable_prime"):
        monkeypatch.setattr(arith, name, refuse)
    assert class_number(-8120) == 40
    assert class_group(-4280).h == 36


def test_size_cap_raises_before_allocating(monkeypatch):
    """Above CLASS_NUMBER_DISC_CAP both entry points raise BudgetExceeded
    before any numpy call; below it the mod-4 rule still comes first."""
    import pytest

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used before the size cap")

    monkeypatch.setattr(quadform, "np", NoNumpy())
    cap = quadform.CLASS_NUMBER_DISC_CAP
    for disc in (-(cap + 3), -(cap + 4), -(4 * cap + 4)):
        for fn in (class_number, class_group, lambda disc: class_numbers([disc])):
            with pytest.raises(BudgetExceeded):
                fn(disc)
        # a batch checks every discriminant before it sieves any
        with pytest.raises(BudgetExceeded):
            class_numbers([-3, -4, disc, -7])
    with pytest.raises(ValueError, match="not a negative discriminant"):
        class_number(-(cap + 1))
    with pytest.raises(ValueError, match="not a fundamental discriminant"):
        class_number(-(cap + 16))  # 4d with d = 0 (mod 4)
    with pytest.raises(ValueError, match="not a negative discriminant"):
        class_numbers([-3, 5])


def test_class_number_keeps_nothing(monkeypatch):
    """class_number sieves on every call: a class number computed before the
    cap is lowered is not returned after it."""
    import pytest

    assert class_number(-8120) == 40
    monkeypatch.setattr(quadform, "CLASS_NUMBER_DISC_CAP", 2**10)
    with pytest.raises(BudgetExceeded):
        class_number(-8120)


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
    # a = s*q, q in every class mod 8: Tonelli-Shanks with s = 1 (q = 3
    # mod 4, no non-residue), s = 2 (q = 5 mod 8) and s >= 3 (q = 1 mod 8)
    large_q = (
        (-1012, 1, 17), (-100020, 2, 89), (-84, 1, 5), (-100004, 3, 53),
        (-1272, 1, 19), (-35, 1, 3), (-1364, 3, 7), (-696, 2, 7),
    )
    assert {q % 8 for _, _, q in large_q} == {1, 3, 5, 7}
    for disc, s, q in large_q:
        assert q * q > amax(disc) and disc % q and s * q in band(disc)
    discs = sorted({*tiny, *(c[0] for c in ramified + two_adic + prime_power + large_q)})
    expected = [len(enumerate_reduced(disc)) for disc in discs]
    assert [class_number(disc) for disc in discs] == expected
    assert class_numbers(discs) == expected
    # the census-h36 discriminants with the largest band, h from the
    # per-a root count that preceded the cached band
    assert class_number(-635236280) == 15520
    assert class_number(-548282504) == 16160
    assert class_number(-723857960) == 11520


def test_class_numbers_batch_matches_enumeration():
    """Every fundamental discriminant in (-5000, -3] in one shuffled call,
    with duplicates, against the reduced-form oracle."""
    small = [
        disc
        for disc in range(-3, -5000, -1)
        if disc % 4 in (0, 1) and arith.fundamental_discriminant(arith.squarefree_part(disc).d) == disc
    ]
    assert len(small) == 1524
    rng = random.Random(11)
    batch = small + rng.sample(small, 300)
    rng.shuffle(batch)
    h = {disc: len(enumerate_reduced(disc)) for disc in small}
    assert class_numbers(batch) == [h[disc] for disc in batch]


def test_class_numbers_tiny_and_mixed():
    """amax = 1, where a = 1 has no sieve prime at all, alone and in a batch
    with a 36-bit discriminant: the batch shares one table of primes, rem and
    lpf up to the largest amax, and gives the single calls' class numbers."""
    tiny = [-3, -4, -7, -8]
    assert class_numbers(tiny) == [1, 1, 1, 1]
    assert class_numbers([]) == []
    big = -68719476731  # prime; h from the per-discriminant sieve before batching
    mixed = [-4, big, -3, -8120, -7, -8, -15, big]
    assert class_numbers(mixed) == [1, 98601, 1, 40, 1, 1, 2, 98601]
    assert class_numbers(mixed) == [class_number(disc) for disc in mixed]


def test_class_numbers_census_h36_pinned():
    """The census-h36 discriminants with the largest band, in one call."""
    assert class_numbers([-635236280, -548282504, -723857960]) == [15520, 16160, 11520]


def test_class_numbers_rejects_any_non_fundamental():
    import pytest

    with pytest.raises(ValueError, match="-16219 is not a fundamental"):
        class_numbers([-3, -8120, -16219, -4])  # 7^2 * (-331)
    with pytest.raises(ValueError, match="-12 is not a fundamental"):
        class_numbers([-15, -12])


def test_band_memory_per_a():
    """The band of one 40-bit discriminant is counted in one call, so its
    candidates must stay few: under tracemalloc the peak stays within 40
    bytes per a <= amax (about 26 are used; a band scanned without the CRT
    bound breaks this limit)."""
    import tracemalloc

    disc = -1071645487559
    amax = isqrt(-disc // 3)
    assert amax == 597674
    tracemalloc.start()
    try:
        h = class_number(disc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == 1308306
    assert peak <= 40 * amax, peak / amax


def test_sqrt_mod_primes_matches_arith():
    """The vectorised square roots mod primes in every class mod 8,
    including p = 1 (mod 8) with a long power of 2 in p - 1 (12289 =
    3*2^12 + 1, 65537 = 2^16 + 1), started from u = n^((q-1)/2) as the sieve
    hands it over, and arith.sqrt_of_residue, its scalar twin: u and c = z^q
    are the powers they claim to be, each root squares to n, and the two
    agree up to sign."""
    import numpy as np

    rng = random.Random(12)
    ps = [p for p in range(3, 3000) if arith.is_probable_prime(p)] + [12289, 65537, 1000003]
    ps = [p for p in ps for _ in range(3)]
    ns = [rng.randrange(0, p) ** 2 % p for p in ps]
    n, p = np.array(ns, dtype=np.int64), np.array(ps, dtype=np.int64)
    half_q, s, c = quadform._tonelli_tables(p)
    u = quadform._powmod(n, half_q, p)
    for n_, p_, h, s_, c_, u_ in zip(ns, ps, half_q.tolist(), s.tolist(), c.tolist(), u.tolist()):
        assert (2 * h + 1) << s_ == p_ - 1 and u_ == pow(n_, h, p_), (n_, p_)
        assert s_ == 1 or pow(c_, 1 << (s_ - 1), p_) == p_ - 1, p_  # order 2^s
    roots = _sqrt_mod_primes(n, p, u, s, c).tolist()
    for n, p, r in zip(ns, ps, roots):
        assert r * r % p == n, (n, p)
        if n:
            s = arith.sqrt_of_residue(n, p)
            assert s * s % p == n and r in (s, p - s), (n, p)


def test_sqrt_mod_primes_refuses_bad_input():
    """Tonelli-Shanks raises, rather than loops for ever, on a non-square n
    (3 mod 17, where s = 4) and on a c not of order 2^s (c = 1 with n = 2,
    a square mod 17), with u as the sieve builds it."""
    import numpy as np
    import pytest

    p = np.array([17], dtype=np.int64)
    half_q, s, c = quadform._tonelli_tables(p)
    for n, c in ((3, c), (2, np.ones_like(c))):
        n = np.array([n], dtype=np.int64)
        with pytest.raises(AssertionError):
            _sqrt_mod_primes(n, p, quadform._powmod(n, half_q, p), s, c)


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
    """Cl(-8120) = Z/2 x Z/2 x Z/10: 8 classes are killed by 2, 5 by 5 and
    all 40 by 10, and f^-1 f is the principal class."""
    one = principal_form(-8120)
    forms = enumerate_reduced(-8120)
    assert len(forms) == class_number(-8120) == 40
    killed = {k: sum(form_pow(f, k) == one for f in forms) for k in (2, 5, 10)}
    assert killed == {2: 8, 5: 5, 10: 40}
    assert all(compose(form_pow(f, -1), f) == one for f in forms)


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
