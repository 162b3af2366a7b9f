"""Binary quadratic forms of negative discriminant.

Reduction, Gauss/Dirichlet composition, enumeration of reduced forms, class
numbers, abelian group structure (elementary divisors) and the genus-theory
2-rank.  Everything is exact.  class_number, the only performance-sensitive
entry point, counts reduced forms with a numpy sieve over the primes up to
sqrt(|disc|/3); enumerate_reduced lists them directly and serves as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from . import arith
from .arith import FactorBudget, DEFAULT_BUDGET
from .errors import DiscriminantMismatch, IncompleteFactorization


@dataclass(frozen=True)
class QuadForm:
    """Positive definite form a x^2 + b xy + c y^2 with b^2 - 4ac < 0."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.disc >= 0:
            raise ValueError(f"form {self} is not positive definite")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return abs(b) <= a <= c and (b >= 0 or (abs(b) < a and a < c))

    def inverse(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def principal_form(disc: int) -> QuadForm:
    b0 = disc & 1
    return QuadForm(1, b0, (b0 * b0 - disc) // 4)


def reduce_form(f: QuadForm) -> QuadForm:
    """Gauss reduction: normalize b into (-a, a], swap while a > c."""
    a, b, c = f.a, f.b, f.c
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            b2 = b + 2 * k * a
            c = c + k * b + k * k * a
            b = b2
            continue
        break
    if (b == -a) or (a == c and b < 0):
        b = -b
    return QuadForm(a, b, c)


def solve_linear_mod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solutions of a*x = b (mod m) as x0 + m0*Z; requires gcd(a,m) | b."""
    g = gcd(a, m)
    if b % g:
        raise ValueError(f"{a}*x = {b} (mod {m}) has no solution")
    m0 = m // g
    x0 = (b // g) * pow((a // g) % m0, -1, m0) % m0 if m0 > 1 else 0
    return x0, m0


def _compose_raw(f: QuadForm, g: QuadForm) -> tuple[int, int, int]:
    """Gauss composition without the final reduction.

    Returns (a3, b3, w): the (not necessarily reduced) form (a3, b3, *) is
    the primitive part of the product of the corresponding ideal lattices
    a Z + ((b+sqrt(disc))/2) Z, and w = gcd(a1, a2, (b1+b2)/2) is the
    integer content, so the lattice product is exactly
    w * (a3 Z + ((b3+sqrt(disc))/2) Z) with a3 = a1*a2/w^2.
    """
    if f.disc != g.disc:
        raise DiscriminantMismatch(f"{f.disc} != {g.disc}")
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2 = g.a, g.b
    gg = (b2 + b1) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), gg)
    s = a1 // w
    t = a2 // w
    u = gg // w
    k0, step = solve_linear_mod(t * u, h * u + s * c1, s * t)
    n, _ = solve_linear_mod(t * step, h - t * k0, s)
    k = k0 + step * n
    l = (t * k - h) // s
    m = (t * u * k - h * u - s * c1) // (s * t)
    a3 = s * t
    b3 = (w * u - k * t - l * s) % (2 * a3)
    return a3, b3, w


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Reduced representative of the product class."""
    a3, b3, _ = _compose_raw(f, g)
    if b3 > a3:
        b3 -= 2 * a3
    return reduce_form(QuadForm(a3, b3, (b3 * b3 - f.disc) // (4 * a3)))


def form_pow(f: QuadForm, k: int) -> QuadForm:
    """k-th power in the class group (k may be negative)."""
    if k < 0:
        return form_pow(f.inverse(), -k)
    result = principal_form(f.disc)
    base = reduce_form(f)
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def _check_disc(disc: int):
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative discriminant")


@lru_cache(maxsize=65536)
def _check_fundamental_disc(disc: int):
    """Counting and composition assume a maximal order: disc = 1 mod 4
    squarefree, or 4d with d = 2, 3 mod 4 squarefree."""
    _check_disc(disc)
    d = disc if disc % 4 == 1 else disc // 4
    if disc % 4 == 0 and d % 4 not in (2, 3):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    if arith.squarefree_part(d).m != 1:
        raise ValueError(f"{disc} is not a fundamental discriminant")


def enumerate_reduced(disc: int) -> list[QuadForm]:
    """All reduced forms of the given negative discriminant.

    Loops over b of the right parity and splits (b^2 - disc)/4 = a*c over
    divisor pairs; intended for |disc| up to ~10^7 (class_number scales
    further).
    """
    _check_disc(disc)
    D = -disc
    forms = []
    bmax = isqrt(D // 3)
    for b in range(disc & 1, bmax + 1, 2):
        m = (b * b + D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                # reduced: |b| <= a <= c with sign convention
                forms.append(QuadForm(a, b, c))
                if b != 0 and a != b and a != c:
                    forms.append(QuadForm(a, -b, c))
            a += 1
    forms.sort(key=lambda f: (f.a, f.b))
    return forms


def _root_counts(disc: int, amax: int) -> tuple[np.ndarray, list[int]]:
    """g[a] = #{b mod 2a : b^2 = disc (mod 4a)} for 0 < a <= amax, and the
    odd primes up to sqrt(amax).

    g is multiplicative.  g(p^e) is 2 for a split p and 0 for an inert p; for
    a ramified p it is 1 when e = 1 and 0 when e >= 2.  Dividing out the
    primes up to sqrt(amax) leaves in rem[a] either 1 or one larger prime,
    whose factor is looked up.
    """
    sieve = np.ones(amax + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(amax) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    # Euler's criterion, vectorised: r = disc^((p-1)/2) mod p is 1, p-1 or 0
    base, r, e = np.int64(disc) % primes, np.ones_like(primes), (primes - 1) // 2
    while e.any():
        r = np.where(e & 1, r * base % primes, r)
        base, e = base * base % primes, e >> 1
    gp = np.ones(amax + 1, dtype=np.int64)
    gp[primes] = np.where(r == 1, 2, np.where(r == 0, 1, 0))
    gp[2:3] = {1: 2, 5: 0}.get(disc % 8, 1)  # p = 2 is read from disc mod 8
    small = [int(p) for p in primes[primes * primes <= amax]]
    g = np.ones(amax + 1, dtype=np.int64)
    rem = np.arange(amax + 1)
    for p in small:
        g[p::p] *= gp[p]
        if gp[p] == 1:
            g[p * p :: p * p] = 0
        pk = p
        while pk <= amax:
            rem[pk::pk] //= p
            pk *= p
    g *= gp[rem]
    return g, small[1:]


def _band_count(disc: int, a: int, odd_primes: list[int]) -> int:
    """Reduced forms (a, b, c) with this a, for a with g(a) > 0: the roots
    b mod 2a of b^2 = disc (mod 4a), built by CRT from prime-power roots,
    that give c > a, or c = a and b >= 0.  odd_primes covers sqrt(a)."""
    e = (a & -a).bit_length() - 1
    mod = 2 << e  # first b mod 2^(e+1) with b^2 = disc (mod 2^(e+2))
    if e == 0:
        roots = [disc & 1]
    elif disc % 4 == 0:  # e == 1, as g(a) > 0
        roots = [2 * ((disc >> 2) & 1)]
    else:  # disc = 1 (mod 8)
        r = arith.lift_sqrt_2(disc % (2 * mod), e + 2)
        roots = [r % mod, -r % mod]
    rest = a >> e
    while rest > 1:
        # with no prime factor up to sqrt(rest), rest itself is prime
        p = next((q for q in odd_primes if rest % q == 0), rest)
        k = arith.valuation_int(rest, p)
        pk = p**k
        rest //= pk
        if disc % p == 0:
            prts = [0]  # k == 1, as g(a) > 0
        else:
            r = arith.lift_sqrt_odd(disc, p, k)
            prts = [r, pk - r]
        inv = pow(mod, -1, pk)
        roots = [x + mod * ((s - x) * inv % pk) for x in roots for s in prts]
        mod *= pk
    lim = 4 * a * a + disc  # c > a  <=>  b^2 > 4a^2 - |disc|
    bs = (x if x <= a else x - 2 * a for x in roots)
    return sum(1 for b in bs if b * b > lim or (b * b == lim and b >= 0))


@lru_cache(maxsize=65536)
def class_number(disc: int) -> int:
    """Class number h(disc) for a fundamental negative discriminant.

    Counts the reduced forms (a, b, c) by a <= sqrt(|disc|/3).  While
    4a^2 < |disc|, each of the g(a) roots b mod 2a of b^2 = disc (mod 4a)
    gives one with c > a, so that range is a sum over the sieve; only the
    band beyond needs the roots themselves (Cohen, GTM 138, section 5.3).
    """
    _check_fundamental_disc(disc)
    amax = isqrt(-disc // 3)
    amid = isqrt((-disc - 1) // 4)  # the largest a with 4a^2 < |disc|
    g, odd_primes = _root_counts(disc, amax)
    band = np.flatnonzero(g[amid + 1 :]) + amid + 1
    return int(g[1 : amid + 1].sum()) + sum(_band_count(disc, int(a), odd_primes) for a in band)


@dataclass
class ClassGroup:
    disc: int
    reduced_forms: list[QuadForm]
    h: int
    elementary_divisors: list[int] = field(default_factory=list)


def class_group(disc: int) -> ClassGroup:
    _check_fundamental_disc(disc)
    forms = enumerate_reduced(disc)
    cg = ClassGroup(disc, forms, len(forms))
    cg.elementary_divisors = group_structure(cg)
    return cg


def form_order(f: QuadForm, h: int) -> int:
    """Order of the class of f in a group of order h."""
    one = principal_form(f.disc)
    f = reduce_form(f)
    for k in sorted(_divisors(h)):
        if form_pow(f, k) == one:
            return k
    raise AssertionError("element order does not divide group order")


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def group_structure(cg: ClassGroup) -> list[int]:
    """Elementary divisors d1 | d2 | ... of the class group.

    For each prime p | h the p-Sylow type is read off from the counts
    #{x : x^(p^k) = 1}; the partitions are then merged into one chain.
    """
    h = cg.h
    if h == 1:
        return []
    one = principal_form(cg.disc)
    hfac = arith.factor(h)
    if not hfac.complete:
        raise IncompleteFactorization(f"cannot factor group order {h}")
    partitions: dict[int, list[int]] = {}
    for p, e in hfac.factors:
        # counts[k] = number of classes killed by p^k
        counts = [1]
        for k in range(1, e + 1):
            pk = p**k
            counts.append(sum(1 for f in cg.reduced_forms if form_pow(f, pk) == one))
        # lam[k-1] = #{cyclic p-factors of order >= p^k} (conjugate partition)
        lam = [_plog(counts[k], p) - _plog(counts[k - 1], p) for k in range(1, e + 1)]
        sizes = [p ** sum(1 for r in lam if r > i) for i in range(lam[0] if lam else 0)]
        partitions[p] = sorted(sizes, reverse=True)
    nfac = max((len(v) for v in partitions.values()), default=0)
    chain = []
    for i in range(nfac):
        d = 1
        for p, sizes in partitions.items():
            if i < len(sizes):
                d *= sizes[i]
        chain.append(d)
    chain.reverse()  # ascending divisibility chain d1 | d2 | ...
    assert _prod(chain) == h
    return chain


def _plog(n: int, p: int) -> int:
    v = 0
    while n % p == 0 and n > 1:
        n //= p
        v += 1
    return v


def _prod(xs) -> int:
    r = 1
    for x in xs:
        r *= x
    return r


def two_rank_genus(d: int, effort: FactorBudget = DEFAULT_BUDGET) -> int:
    """Genus-theory 2-rank of the (narrow = ordinary) class group of
    Q(sqrt(d)) for squarefree d < 0: one less than the number of ramified
    primes, i.e. the distinct primes of the fundamental discriminant.

    For d = 1 mod 4 and even d these are exactly the primes of d; for
    d = 3 mod 4 the prime 2 ramifies as well and must be counted.
    """
    if d >= 0:
        raise ValueError("d must be negative")
    f = arith.factor(d, effort)
    if not f.complete:
        raise IncompleteFactorization(f"cannot factor {d}")
    if any(e > 1 for _, e in f.factors):
        raise ValueError(f"{d} is not squarefree")
    n = len(f.factors)
    if d % 4 == 3:  # negative d = 3 mod 4 in Python is d % 4 == 3
        n += 1
    return n - 1


def two_rank_of_group(cg: ClassGroup) -> int:
    """Exact 2-rank via counting ambiguous classes (order dividing 2)."""
    one = principal_form(cg.disc)
    amb = sum(1 for f in cg.reduced_forms if compose(f, f) == one)
    r = amb.bit_length() - 1
    assert 1 << r == amb, "ambiguous class count must be a power of 2"
    return r
