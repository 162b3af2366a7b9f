"""Binary quadratic forms of negative discriminant.

Reduction, Gauss/Dirichlet composition, enumeration of reduced forms, class
numbers, abelian group structure (elementary divisors) and the genus-theory
2-rank.  Everything is exact.  class_number, the only performance-sensitive
entry point, counts reduced forms with a numpy sieve over the primes up to
sqrt(|disc|/3); the band sqrt(|disc|)/2 < a <= sqrt(|disc|/3), where the
roots themselves are needed, takes each a as s*q split from the sieve's rem,
with cached roots mod 2s.  enumerate_reduced lists the forms directly and
serves as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt, prod

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


def _root_counts(disc: int, amax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g[a] = #{b mod 2a : b^2 = disc (mod 4a)} for 0 < a <= amax, and the
    sieve's factorisation of each a with g(a) > 0: rem[a] and lpf[a].

    g is multiplicative.  g(p^e) is 2 for a split p and 0 for an inert p; for
    a ramified p it is 1 when e = 1 and 0 when e >= 2.  Dividing out the
    split and ramified primes up to sqrt(amax) leaves in rem[a], wherever
    g(a) > 0, either 1 or one larger prime, whose factor is looked up;
    lpf[a] is the largest of the divided-out primes (0 when there is none).
    An inert p zeroes g on its multiples, so it is not divided out.
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
    g = np.ones(amax + 1, dtype=np.int64)
    # int32 holds every a: at amax = 2^31, g and gp alone would take 32 GB
    rem = np.arange(amax + 1, dtype=np.int32)
    lpf = np.zeros(amax + 1, dtype=np.int32)
    for p in primes[primes * primes <= amax].tolist():
        if gp[p] == 0:  # inert: g = 0 on every multiple, whatever rem holds there
            g[p::p] = 0
            continue
        if gp[p] == 2:
            g[p::p] *= 2
        else:
            g[p * p :: p * p] = 0
        lpf[p::p] = p
        pk = p
        while pk <= amax:
            rem[pk::pk] //= p
            pk *= p
    g *= gp[rem]
    return g, rem, lpf


class _BandRoots:
    """Roots of disc mod 2s and mod odd prime powers, for the divisors s of
    band values a with g(a) > 0, each found once and cached.

    s splits as (s / p^k) * p^k, where p = rem[s] when that is one prime
    above sqrt(amax), else p = lpf[s], the largest sieved prime of s; the
    roots mod 2s then come by one CRT step from those mod 2s/p^k and mod
    p^k, down to the power of 2.  (A class, not recursive closures: those
    form a reference cycle that keeps each call's sieve arrays alive until
    the cyclic garbage collector runs, which raised the census's peak RSS.)
    """

    def __init__(self, disc: int, rem: np.ndarray, lpf: np.ndarray):
        self.disc, self.rem, self.lpf = disc, rem, lpf
        self.pk_root: dict[int, int] = {}  # p^k -> a root of disc mod p^k
        self.s_roots: dict[int, list[int]] = {}  # s -> the roots b mod 2s

    def root(self, p: int, pk: int) -> int:
        """A root of disc mod p^k, p odd."""
        r = self.pk_root.get(pk)
        if r is None:
            disc = self.disc
            if pk == p:  # g(a) > 0, so disc is a square mod p
                r = arith.sqrt_of_residue(disc % p, p) if disc % p else 0
            else:  # unramified, as g(a) > 0: one Newton step from p^(k-1)
                r = self.root(p, pk // p)
                r = (r - (r * r - disc) * pow(2 * r, -1, pk)) % pk
            self.pk_root[pk] = r
        return r

    def mod_2s(self, s: int) -> list[int]:
        """The roots b mod 2s of b^2 = disc (mod 4s)."""
        out = self.s_roots.get(s)
        if out is not None:
            return out
        disc = self.disc
        if s & (s - 1) == 0:  # s = 2^e: b mod 2^(e+1) with b^2 = disc (mod 2^(e+2))
            if s == 1:
                out = [disc & 1]
            elif disc % 4 == 0:  # e == 1, as g(a) > 0
                out = [2 * ((disc >> 2) & 1)]
            else:  # disc = 1 (mod 8)
                r = arith.lift_sqrt_2(disc % (4 * s), s.bit_length() + 1)
                out = [r % (2 * s), -r % (2 * s)]
        else:  # rem[s] is 2 only when s = 2 (amax < 4), handled above
            p = pk = int(self.rem[s])
            if p == 1:
                p = pk = int(self.lpf[s])
                while s % (pk * p) == 0:
                    pk *= p
            r = self.root(p, pk)
            m = 2 * s // pk
            inv = pow(m, -1, pk)
            ys = (r, pk - r) if r else (0,)
            out = [x + m * ((y - x) * inv % pk) for x in self.mod_2s(s // pk) for y in ys]
        self.s_roots[s] = out
        return out


def _band_forms(disc: int, band: list[int], rem: np.ndarray, lpf: np.ndarray) -> int:
    """Reduced forms (a, b, c) with a in the band, for band values a with
    g(a) > 0: the roots b mod 2a of b^2 = disc (mod 4a) that give c > a, or
    c = a and b >= 0.  Each a is s*q, with q = rem[a] one prime above
    sqrt(amax) or 1, so its roots take one CRT step from the cached roots
    mod 2s and one square root mod q."""
    roots = _BandRoots(disc, rem, lpf).mod_2s
    count = 0
    for a in band:
        lim = 4 * a * a + disc  # c > a  <=>  b^2 > 4a^2 - |disc|
        for x in roots(a):
            b = x if x <= a else x - 2 * a
            if b * b > lim or (b * b == lim and b >= 0):
                count += 1
    return count


@lru_cache(maxsize=65536)
def class_number(disc: int) -> int:
    """Class number h(disc) for a fundamental negative discriminant.

    Counts the reduced forms (a, b, c) by a <= sqrt(|disc|/3).  While
    4a^2 < |disc|, each of the g(a) roots b mod 2a of b^2 = disc (mod 4a)
    gives one with c > a, so that range is a sum over the sieve; only the
    band beyond needs the roots themselves (Cohen, GTM 138, section 5.3).
    There each a is s*q split from the sieve's rem, with cached roots mod 2s
    and one square root per large prime q.
    """
    _check_fundamental_disc(disc)
    amax = isqrt(-disc // 3)
    amid = isqrt((-disc - 1) // 4)  # the largest a with 4a^2 < |disc|
    g, rem, lpf = _root_counts(disc, amax)
    band = np.flatnonzero(g[amid + 1 :]) + amid + 1
    return int(g[1 : amid + 1].sum()) + _band_forms(disc, band.tolist(), rem, lpf)


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
    for k in _divisors(h):
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
    assert prod(chain) == h
    return chain


def _plog(n: int, p: int) -> int:
    v = 0
    while n % p == 0 and n > 1:
        n //= p
        v += 1
    return v


def two_rank_genus(d: int, effort: FactorBudget = DEFAULT_BUDGET) -> int:
    """Genus-theory 2-rank of the (narrow = ordinary) class group of
    Q(sqrt(d)) for squarefree d < 0; see two_rank_from_factors."""
    if d >= 0:
        raise ValueError("d must be negative")
    return two_rank_from_factors(d, arith.factor(d, effort))


def two_rank_from_factors(d: int, fd: arith.FactoredInt) -> int:
    """Genus 2-rank of Q(sqrt(d)) from the factorisation fd of squarefree
    d < 0: one less than the number of ramified primes, i.e. the distinct
    primes of the fundamental discriminant.

    For d = 1 mod 4 and even d these are exactly the primes of d; for
    d = 3 mod 4 the prime 2 ramifies as well and must be counted.
    """
    if not fd.complete:
        raise IncompleteFactorization(f"cannot factor {d}")
    if any(e > 1 for _, e in fd.factors):
        raise ValueError(f"{d} is not squarefree")
    n = len(fd.factors)
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
