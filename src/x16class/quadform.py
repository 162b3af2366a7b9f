"""Binary quadratic forms of negative discriminant.

Reduction, Gauss/Dirichlet composition, enumeration of reduced forms, class
numbers, abelian group structure (elementary divisors) and the genus-theory
2-rank.  Everything is exact; reduction and composition run on (a, b, c)
tuples, which the QuadForm API wraps.  class_numbers, the only
performance-sensitive entry point, counts the reduced forms of many
discriminants at once with a numpy sieve over the primes up to
amax = sqrt(|disc|/3), in 2-D blocks with one row per discriminant; one
modular exponentiation per (disc, p) serves Euler's criterion and the
square roots.  Each block's band sqrt(|disc|)/2 < a <= amax, where the roots
themselves are needed, is counted right after the block is sieved: square
roots mod the prime powers of each a, largest prime first, joined by CRT
while a scan would be long, then a direct test of the candidates b.
class_number is one class_numbers call and keeps nothing between calls.
The same primes decide that disc is fundamental, so class_numbers and
class_group factor nothing; class_numbers refuses |disc| above
CLASS_NUMBER_DISC_CAP, and class_group, which lists every reduced form,
above CLASS_GROUP_DISC_CAP.  enumerate_reduced lists the forms as the
oracle.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt, prod

import numpy as np

from . import arith
from .errors import BudgetExceeded, DiscriminantMismatch, IncompleteFactorization


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


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss reduction on (a, b, c): normalize b into (-a, a], swap while a > c."""
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
    return a, b, c


def reduce_form(f: QuadForm) -> QuadForm:
    """Gauss reduction (_reduce)."""
    return QuadForm(*_reduce(f.a, f.b, f.c))


def solve_linear_mod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solutions of a*x = b (mod m) as x0 + m0*Z; requires gcd(a,m) | b."""
    g = gcd(a, m)
    if b % g:
        raise ValueError(f"{a}*x = {b} (mod {m}) has no solution")
    m0 = m // g
    x0 = (b // g) * pow((a // g) % m0, -1, m0) % m0 if m0 > 1 else 0
    return x0, m0


def _compose_raw(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss composition of two (a, b, c) of one discriminant, without the
    final reduction.

    Returns (a3, b3, w): the (not necessarily reduced) form (a3, b3, *) is
    the primitive part of the product of the corresponding ideal lattices
    a Z + ((b+sqrt(disc))/2) Z, and w = gcd(a1, a2, (b1+b2)/2) is the
    integer content, so the lattice product is exactly
    w * (a3 Z + ((b3+sqrt(disc))/2) Z) with a3 = a1*a2/w^2.
    """
    (a1, b1, c1), (a2, b2, _) = f, g
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


def _compose(f: tuple[int, int, int], g: tuple[int, int, int], disc: int) -> tuple[int, int, int]:
    """Reduced (a, b, c) of the product class of f and g, of discriminant disc."""
    a3, b3, _ = _compose_raw(f, g)
    if b3 > a3:
        b3 -= 2 * a3
    return _reduce(a3, b3, (b3 * b3 - disc) // (4 * a3))


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Reduced representative of the product class."""
    if f.disc != g.disc:
        raise DiscriminantMismatch(f"{f.disc} != {g.disc}")
    return QuadForm(*_compose((f.a, f.b, f.c), (g.a, g.b, g.c), f.disc))


def form_pow(f: QuadForm, k: int) -> QuadForm:
    """k-th power in the class group (k may be negative)."""
    if k < 0:
        return form_pow(f.inverse(), -k)
    if k == 0:
        return principal_form(f.disc)
    base, result = reduce_form(f), None
    while True:
        if k & 1:
            result = base if result is None else compose(result, base)
        k >>= 1
        if not k:
            return result
        base = compose(base, base)


def _check_disc(disc: int):
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative discriminant")


# the sieve holds ~18 bytes per a <= sqrt(|disc|/3) (18.3 at -2^48 - 3), 2.8 GB
# at this cap, and its int64 products stay exact; height 300 reaches 49 bits
CLASS_NUMBER_DISC_CAP = 2**56

# class_group lists all h forms in an O(|disc|) Python loop; on a 2-core
# machine, at disc = -134217731 (h = 4350) listing them takes ~1 s and the
# elementary divisors ~1.3 s more, at -10^9 - 3 ~9 s and ~8 s
CLASS_GROUP_DISC_CAP = 2**27

# class_numbers sieves about _BLOCK (disc, a) entries at a time, a block of
# one row when its amax is larger, and counts each block's band at once
_BLOCK = 2**16
# a band root is scanned once at most _SCAN candidates b stand behind it
_SCAN = 4


def _check_fundamental_shape(disc: int):
    """The checks that need no sieve: a negative discriminant, 4d with
    d = 2, 3 (mod 4) when even, and |disc| <= CLASS_NUMBER_DISC_CAP
    (BudgetExceeded, raised before any array is allocated)."""
    _check_disc(disc)
    if disc % 4 == 0 and (disc // 4) % 4 not in (2, 3):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    if -disc > CLASS_NUMBER_DISC_CAP:
        raise BudgetExceeded(f"|disc| = {-disc} is above the sieve's cap {CLASS_NUMBER_DISC_CAP}")


def _primes_upto(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def _check_squarefree(discs: np.ndarray, odd: np.ndarray, dm: np.ndarray):
    """ValueError if p^2 divides d = disc or disc/4 for an odd prime p in
    odd; dm = discs mod odd, one row per disc.  odd must reach the largest
    amax = isqrt(|disc| // 3).

    The sieved primes decide squarefreeness exactly.  p = 2 is settled by
    the mod-4 rules (4 does not divide d), and an odd p^2 divides d only if
    p divides disc.  Let p^2 | d.  If disc = 4d, p^2 <= |disc|/4 <= |disc| // 3,
    so p <= amax.  If disc = d = 1 (mod 4) and p > amax, then p^2 > |disc|/3
    and d/p^2 is -1 or -2: d = -p^2 = 3 (mod 4) or d is even, impossible.
    The bound is tight: disc = -3p^2 has amax = p."""
    rows, i = np.nonzero(dm == 0)
    p = odd[i]
    bad = rows[discs[rows] % (p * p) == 0]
    if bad.size:
        raise ValueError(f"{int(discs[bad[0]])} is not a fundamental discriminant")


def _fundamental_primes(disc: int) -> np.ndarray:
    """The primes up to amax = isqrt(|disc| // 3), once disc is checked to be
    fundamental (the order is maximal): disc = 1 (mod 4) squarefree, or 4d
    with d = 2, 3 (mod 4) squarefree (proof at _check_squarefree)."""
    _check_fundamental_shape(disc)
    primes = _primes_upto(isqrt(-disc // 3))
    d = np.array([disc], dtype=np.int64)
    _check_squarefree(d, primes[1:], d[:, None] % primes[1:])
    return primes


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


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod mod elementwise (broadcasting), for 0 <= base < mod: in
    int32, which is faster, while mod^2 < 2^31, else in int64 (exact for
    mod < 2^31.5); the result has that dtype."""
    dtype = np.int32 if mod.size and mod.max() < 46341 else np.int64
    base, mod = base.astype(dtype), mod.astype(dtype)
    out = np.ones(np.broadcast_shapes(base.shape, exp.shape), dtype)
    for i in range(int(exp.max(initial=0)).bit_length()):
        if i:
            base = base * base % mod
        out = np.where((exp >> i) & 1, out * base % mod, out)
    return out


# odd primes to search for a non-residue mod p = 1 (mod 4): the least one is
# at most 101 for every p < 2^31
_NONRESIDUE_CANDIDATES = tuple(p for p in range(3, 300) if all(p % k for k in range(2, isqrt(p) + 1)))


def _tonelli_tables(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For odd primes p, with p - 1 = q 2^s, q odd: the exponent (q-1)/2 of
    the sieve's u, s, and c = z^q for a non-residue z where s >= 2 (0 where
    s = 1), so c has order 2^s."""
    low = (p - 1) & (1 - p)  # 2^s
    q, s = (p - 1) // low, np.frexp(low.astype(float))[1] - 1
    j = np.flatnonzero(s >= 2)
    c = np.zeros(len(p), dtype=np.int32)  # p < 2^31, as for u
    c[j] = _powmod(_nonresidues(p[j]), q[j], p[j])
    return ((q - 1) >> 1).astype(np.int32), s.astype(np.int8), c


def _sqrt_mod_primes(n: np.ndarray, p: np.ndarray, u: np.ndarray, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A square root of each n mod the odd prime p, for n a square mod p
    (else AssertionError), 0 for n = 0: Tonelli-Shanks (Cohen, GTM 138, Alg.
    1.5.1), the twin of arith.sqrt_of_residue, started from the sieve's
    u = n^((q-1)/2), p - 1 = q 2^s: r = u n and t = u r = n^q, so t = 1 at
    once when s = 1; s and c = z^q, of order 2^s, come from _tonelli_tables."""
    u, c = u.astype(np.int64), c.astype(np.int64)
    r, t, m = u * n % p, u * u % p * n % p, s.copy()
    act = np.flatnonzero(t > 1)  # t = 0 only for n = 0, where r = 0
    while act.size:  # m falls on every pass, so at most s passes
        pa, ta, ma = p[act], t[act], m[act]
        i = np.zeros_like(ta)
        for _ in range(int(ma.max())):  # the least i with t^(2^i) = 1
            if not (go := ta != 1).any():
                break
            ta = np.where(go, ta * ta % pa, ta)
            i += go
        assert (i < ma).all(), "n must be a square mod p and c of order 2^s"
        b, e = c[act], ma - i - 1
        for k in range(int(e.max())):  # b = c^(2^(m-i-1))
            b = np.where(k < e, b * b % pa, b)
        b2 = b * b % pa
        m[act], c[act], t[act], r[act] = i, b2, t[act] * b2 % pa, r[act] * b % pa
        act = act[t[act] != 1]
    return r


def _nonresidues(p: np.ndarray) -> np.ndarray:
    """A quadratic non-residue mod each prime p = 1 (mod 4): for an odd
    prime z, (z/p) = (p/z), read off the squares mod z."""
    z, left = np.zeros_like(p), np.arange(len(p))
    for c in _NONRESIDUE_CANDIDATES:
        if not left.size:
            return z
        squares = np.zeros(c, dtype=bool)
        squares[np.arange(c) ** 2 % c] = True
        hit = ~squares[p[left] % c]
        z[left[hit]] = c
        left = left[~hit]
    assert not left.size, "no non-residue below 300"
    return z


def _smooth_tables(amax: int, small: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rem[a], a with the small primes (p^2 <= amax) divided out, is 1 or one
    prime above sqrt(amax); lpf[a] is the largest small prime of a (0 when
    there is none) and lpe[a] its exponent in a.  None depends on the
    discriminant: class_numbers reads them up to its largest amax, and the
    census (x16._census_points) factors the pieces of h16 with them up to
    2H^2.  int16 lpf holds the small primes below 2^15, so amax < 2^30, a
    census height up to 23 170, where these tables alone take ~7.5 GB."""
    rem = np.arange(amax + 1, dtype=np.int32)  # int32 holds every a
    lpf = np.zeros(amax + 1, dtype=np.int16)  # small primes are below 2^14 at the cap
    lpe = np.zeros(amax + 1, dtype=np.int8)
    for p in small:
        lpf[p::p] = p
        pk, e = p, 1
        while pk <= amax:
            rem[pk::pk] //= p
            lpe[pk::pk] = e
            pk, e = pk * p, e + 1
    return rem, lpf, lpe


# what class_numbers shares between its blocks, up to the largest amax: the
# primes, the small ones (p^2 <= amax), rem, lpf and lpe (_smooth_tables),
# and the _tonelli_tables (half_q, s, c) of the odd primes, primes[1:]
_Tables = namedtuple("_Tables", "primes small rem lpf lpe half_q s c")


def _sieve_block(
    discs: np.ndarray, amax: np.ndarray, amid: np.ndarray, tab: _Tables
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One block of rows, one per discriminant (amax ascending), over
    0 <= a <= W = the last amax: g[row, a] = #{b mod 2a : b^2 = disc (mod 4a)}.
    Returns the sums of g over 0 < a <= amid, the band entries
    amid < a <= amax with g > 0 as (row, a), and u[row, i] =
    disc^((q-1)/2) mod the odd prime p = primes[i + 1] <= W, p - 1 = q 2^s
    (int32), from which _sqrt_mod_primes starts.

    g is multiplicative.  g(p^e) is 2 for a split p and 0 for an inert p; for
    a ramified p it is 1 when e = 1 and 0 when e >= 2.  Each row's symbols
    gp[row, p] come from Euler's criterion over all primes up to W at once,
    disc^((p-1)/2) = (u^2 disc)^(2^(s-1)), 2 from disc mod 8; the large prime
    rem[a] contributes gp[row, rem[a]] and each small prime one strided
    update of all rows.
    """
    R, W = len(discs), int(amax[-1])
    n = np.searchsorted(tab.primes, W, "right")
    odd = tab.primes[1:n]
    dm = discs[:, None] % odd
    _check_squarefree(discs, odd, dm)
    u = _powmod(dm, tab.half_q[: n - 1], odd)
    odd, dm, s = odd.astype(u.dtype), dm.astype(u.dtype), tab.s[: n - 1]
    v = u * u % odd * dm % odd  # disc^q
    for k in range(1, int(s.max(initial=1))):
        j = np.flatnonzero(s > k)
        v[:, j] = v[:, j] ** 2 % odd[j]
    gp = np.ones((R, W + 1), dtype=np.int8)
    gp[:, odd] = (v + 1) % odd  # v = (disc/p) mod p, so 2 split, 1 ramified, 0 inert
    if W >= 2:
        m8 = discs % 8
        gp[:, 2] = np.where(m8 == 1, 2, np.where(m8 == 5, 0, 1))
    g = gp[:, tab.rem[: W + 1]].astype(np.int16)  # g(a) <= 2^omega(a) <= 2^9 for a < 2^31
    for p in tab.small:
        if p > W:
            break
        m = gp[:, p, None]
        g[:, p::p] *= m
        g[:, p * p :: p * p] *= m != 1  # ramified: g(p^e) = 0 for e >= 2
    g[:, 0] = 0
    cols = np.arange(W + 1, dtype=np.int32)
    h_lo = np.add.reduce(g, axis=1, dtype=np.int64, where=cols <= amid[:, None])
    a0 = int(amid[0]) + 1  # the band starts after the least amid
    band = cols[a0:]
    rows, a = np.nonzero((g[:, a0:] > 0) & (band > amid[:, None]) & (band <= amax[:, None]))
    return h_lo, rows, a + a0, u.astype(np.int32, copy=False)


def _crt_step(ent, x, M, disc, idx, p, pk, r):
    """One step of _band_counts' CRT loop: joins to the roots x mod M[ent] of
    each entry in idx the roots of disc mod the prime power pk = p^k prime to
    M: +-r, r a root mod p (_sqrt_mod_primes) lifted by Hensel's lemma, or 0
    when p | disc (then k = 1, as g(a) > 0).  Returns the new (ent, x); M
    grows in place."""
    d = disc[idx]
    lift = np.flatnonzero(pk > p)
    if lift.size:  # Hensel: p splits, so 2r is a unit mod p
        rl, pl, dl, kl = r[lift], p[lift], d[lift], pk[lift]
        inv = _powmod(2 * rl % pl, pl - 2, pl)
        pe = pl.copy()
        while (go := pe < kl).any():
            t = (rl * rl - dl) // pe % pl * inv % pl
            rl = np.where(go, (rl - t * pe) % (pe * pl), rl)
            pe = np.where(go, pe * pl, pe)
        r[lift] = rl
    Mi = M[idx]
    if not (Mi & (Mi - 1)).any():  # the first step: M = 2^j, and 1/2 = (pk+1)/2 mod pk
        inv = _powmod((pk + 1) >> 1, np.frexp(Mi.astype(float))[1] - 1, pk)
    else:
        inv = _powmod(Mi % pk, pk // p * (p - 1) - 1, pk)  # M^-1 mod pk, by Euler
    pos = np.full(len(M), -1)
    pos[idx] = np.arange(len(idx))
    rr = np.flatnonzero(pos[ent] >= 0)
    k = pos[ent[rr]]
    xr, mk, pkk = x[rr], Mi[k], pk[k]
    x[rr] = xr + mk * ((r[k] - xr) % pkk * inv[k] % pkk)
    two = np.flatnonzero(r[k] != 0)
    x2 = xr[two] + mk[two] * ((-r[k[two]] - xr[two]) % pkk[two] * inv[k[two]] % pkk[two])
    M[idx] *= pk
    return np.concatenate([ent, ent[rr[two]]]), np.concatenate([x, x2])


def _band_counts(disc, a, x2, rows, u, tab: _Tables) -> np.ndarray:
    """Reduced forms (a, b, c) of each band entry (disc, a) of a block, g(a) >
    0: the roots b in (-a, a] of b^2 = disc (mod 4a) with c > a, or c = a and
    b >= 0, i.e. |b| >= L = sqrt(4a^2 - |disc|).  x2 is a 2-adic root of disc
    (disc = 1 mod 8); rows and u are the block's (_sieve_block).

    The roots mod M | 2a start from those mod the power of 2 in 2a; the
    prime powers of the odd cofactor c join by CRT (_crt_step), largest prime
    first (rem[c] while it is > 1, then lpf[c] to the power lpe[c]), while
    more than _SCAN candidates stand behind a root.  Each root x mod M then
    stands for the b' = x (mod M) in [L, a], tested directly against
    4a | b'^2 - disc: as the roots mod M are closed under negation, these are
    the |b| of the roots b."""
    n = len(a)
    lim = 4 * a * a + disc  # c >= a  <=>  b^2 >= lim
    lo = np.maximum(np.floor(np.sqrt(lim.astype(float))).astype(np.int64) - 1, 0)
    span = a - lo + 1
    low = a & -a
    M, cof = 2 * low, a // low
    # b mod 2^(e+1) with b^2 = disc (mod 2^(e+2)), 2^e || a
    x = np.where(disc & 1, np.where(low == 1, 1, x2 % M), np.where(low == 1, 0, 2 * ((disc >> 2) & 1)))
    pair = np.flatnonzero((low > 1) & (disc & 7 == 1))
    ent, x = np.concatenate([np.arange(n), pair]), np.concatenate([x, -x[pair] % M[pair]])
    while (idx := np.flatnonzero((cof > 1) & (span > _SCAN * M))).size:
        c = cof[idx]
        big = tab.rem[c] > 1
        p = np.where(big, tab.rem[c], tab.lpf[c]).astype(np.int64)  # the largest prime of c
        e = np.where(big, 1, tab.lpe[c])
        pk = p**e
        cof[idx] = c // pk
        i = np.searchsorted(tab.primes, p) - 1  # p's index among the odd primes
        r = _sqrt_mod_primes(disc[idx] % p, p, u[rows[idx], i], tab.s[i], tab.c[i])
        ent, x = _crt_step(ent, x, M, disc, idx, p, pk, r)
    del span, low, cof, x2  # the scan's arrays then fit where these were
    Me = M[ent]
    first = lo[ent] + (x - lo[ent]) % Me  # the least b' = x (mod M) with b' >= lo
    cnt = np.maximum((a[ent] - first) // Me + 1, 0)
    row = np.repeat(np.arange(len(ent)), cnt)
    b = first[row] + Me[row] * (np.arange(len(row)) - (np.cumsum(cnt) - cnt)[row])
    del x, first, Me, cnt
    e = ent[row]
    del row
    bb, le = b * b, lim[e]
    ok = ((bb - disc[e]) % (4 * a[e]) == 0) & (bb >= le)
    neg = ok & (b > 0) & (b < a[e]) & (bb > le)  # -b, too
    return np.bincount(e[ok], minlength=n) + np.bincount(e[neg], minlength=n)


def class_numbers(discs) -> list[int]:
    """Class numbers h(disc) of many fundamental negative discriminants, in
    the order given.

    Counts the reduced forms (a, b, c) by a <= amax = sqrt(|disc|/3).  While
    4a^2 < |disc|, each of the g(a) roots b mod 2a of b^2 = disc (mod 4a)
    gives one with c > a, so that range is a sum over a sieve; only the band
    beyond needs the roots themselves (Cohen, GTM 138, section 5.3).  The
    distinct discriminants, sorted by amax, are sieved in 2-D blocks of about
    _BLOCK entries, one row each, over one set of _Tables up to the largest
    amax; each block's band is counted right after its sieve, in one
    _band_counts call that takes its square roots from the sieve's powers.

    The count is h only for a fundamental disc, which the sieve's primes
    decide exactly, with no factoring (proof at _check_squarefree): else
    ValueError.  BudgetExceeded for |disc| > CLASS_NUMBER_DISC_CAP, like the
    mod-4 rules, is checked for every disc before any array is allocated.
    """
    discs = [int(disc) for disc in discs]
    distinct = sorted(set(discs), reverse=True)  # amax ascending
    for disc in distinct:
        _check_fundamental_shape(disc)
    if not distinct:
        return []
    amax = [isqrt(-disc // 3) for disc in distinct]
    top = amax[-1]
    primes = _primes_upto(top)
    small = primes[primes * primes <= top].tolist()
    tab = _Tables(primes, small, *_smooth_tables(top, small), *_tonelli_tables(primes[1:]))
    bits = top.bit_length() + 2  # b mod 2^(e+1) needs a root mod 2^(e+2), 2^e <= amax
    x2 = np.array([arith.lift_sqrt_2(disc % (1 << bits), bits) or 0 for disc in distinct], dtype=np.int64)
    dv, av = np.array(distinct, dtype=np.int64), np.array(amax, dtype=np.int64)
    mid = np.array([isqrt((-disc - 1) // 4) for disc in distinct], dtype=np.int64)
    h, i = [], 0
    while i < len(distinct):
        j = i + 1  # rows while the block, padded to its last amax, stays within _BLOCK
        while j < len(distinct) and (j - i + 1) * (amax[j] + 1) <= _BLOCK:
            j += 1
        h_lo, rows, a, u = _sieve_block(dv[i:j], av[i:j], mid[i:j], tab)
        np.add.at(h_lo, rows, _band_counts(dv[i:j][rows], a, x2[i:j][rows], rows, u, tab))
        h += h_lo.tolist()
        i = j
    hs = dict(zip(distinct, h))
    return [hs[disc] for disc in discs]


def class_number(disc: int) -> int:
    """Class number h(disc) for a fundamental negative discriminant: one
    class_numbers call (the exceptions are its), kept nowhere."""
    return class_numbers((disc,))[0]


@dataclass
class ClassGroup:
    disc: int
    reduced_forms: list[QuadForm]
    h: int

    @cached_property
    def elementary_divisors(self) -> list[int]:
        """Computed on first read: it costs a form power per class and prime."""
        return group_structure(self)


def class_group(disc: int) -> ClassGroup:
    """The reduced forms; BudgetExceeded for |disc| > CLASS_GROUP_DISC_CAP."""
    _fundamental_primes(disc)
    if -disc > CLASS_GROUP_DISC_CAP:
        raise BudgetExceeded(f"|disc| = {-disc} is above the class-group cap {CLASS_GROUP_DISC_CAP}")
    forms = enumerate_reduced(disc)
    return ClassGroup(disc, forms, len(forms))


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
        logs = [arith.valuation_int(c, p) for c in counts]
        lam = [logs[k] - logs[k - 1] for k in range(1, e + 1)]
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


def two_rank_genus(d: int) -> int:
    """Genus-theory 2-rank of the (narrow = ordinary) class group of
    Q(sqrt(d)) for squarefree d < 0; see two_rank_from_factors."""
    if d >= 0:
        raise ValueError("d must be negative")
    return two_rank_from_factors(d, arith.factor(d))


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
    """Exact 2-rank via counting ambiguous classes (order dividing 2).

    Acceptance criterion 3's genus oracle: it reads the 2-rank off the
    enumerated class group, independently of the genus count of
    two_rank_genus and two_rank_from_factors."""
    one = principal_form(cg.disc)
    amb = sum(1 for f in cg.reduced_forms if compose(f, f) == one)
    r = amb.bit_length() - 1
    assert 1 << r == amb, "ambiguous class count must be a power of 2"
    return r
