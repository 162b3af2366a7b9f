"""Exact elliptic curve arithmetic over Q and the rank-1 heuristic search.

The quartic y^2 = 2(u^4 + 2u^2 v^2 - v^4) has the Weierstrass model
V^2 = X^3 + 4X^2 + 6X + 4 with free part generated by G = (0, 2) and
2-torsion T = (-2, 0); the birational maps are pinned below and re-verified
symbolically by the test suite.  The search walks the multiples of G and
asks when 2(u^4 + v^4) is a prime times a square.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional

import numpy as np

from . import arith
from .arith import FactorBudget, DEFAULT_BUDGET
from .errors import BudgetExceeded, NotOnCurve


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a2 x^2 + a4 x + a6."""

    a2: Fraction
    a4: Fraction
    a6: Fraction

    @staticmethod
    def make(a2=0, a4=0, a6=0) -> "WeierstrassCurve":
        c = WeierstrassCurve(Fraction(a2), Fraction(a4), Fraction(a6))
        if c.discriminant() == 0:
            raise ValueError("singular curve")
        return c

    def discriminant(self) -> Fraction:
        a2, a4, a6 = self.a2, self.a4, self.a6
        b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def contains(self, x: Fraction, y: Fraction) -> bool:
        return y * y == x**3 + self.a2 * x * x + self.a4 * x + self.a6


@dataclass(frozen=True)
class ECPoint:
    curve: WeierstrassCurve
    x: Optional[Fraction]  # None encodes the point at infinity
    y: Optional[Fraction]

    @staticmethod
    def make(curve: WeierstrassCurve, x, y) -> "ECPoint":
        x, y = Fraction(x), Fraction(y)
        if not curve.contains(x, y):
            raise NotOnCurve(f"({x}, {y}) is not on the curve")
        return ECPoint(curve, x, y)

    @staticmethod
    def infinity(curve: WeierstrassCurve) -> "ECPoint":
        return ECPoint(curve, None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "ECPoint":
        if self.is_infinity:
            return self
        return ECPoint(self.curve, self.x, -self.y)


def ec_add(P: ECPoint, Q: ECPoint) -> ECPoint:
    if P.curve != Q.curve:
        raise ValueError("points on different curves")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    c = P.curve
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2 and y2 == -y1:
        return ECPoint.infinity(c)
    if x1 == x2:
        lam = (3 * x1 * x1 + 2 * c.a2 * x1 + c.a4) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - c.a2 - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return ECPoint(c, x3, y3)


def ec_mul(m: int, P: ECPoint) -> ECPoint:
    if m < 0:
        return ec_mul(-m, -P)
    R = ECPoint.infinity(P.curve)
    base = P
    while m:
        if m & 1:
            R = ec_add(R, base)
        base = ec_add(base, base)
        m >>= 1
    return R


# ---------------------------------------------------------------------------
# the rank-1 quartic and its pinned Weierstrass model
# ---------------------------------------------------------------------------

# quartic: y^2 = 2(u^4 + 2 u^2 v^2 - v^4)
E4_WEIERSTRASS = WeierstrassCurve.make(a2=4, a4=6, a6=4)
E4_GENERATOR = (Fraction(0), Fraction(2))
E4_TORSION = (Fraction(-2), Fraction(0))


def quartic_rhs(u: int, v: int) -> int:
    return 2 * (u**4 + 2 * u * u * v * v - v**4)


@dataclass(frozen=True)
class QuarticPoint:
    u: int
    y: int
    v: int

    def __post_init__(self):
        if gcd(self.u, self.v) != 1:
            raise ValueError("quartic point must be primitive")
        if self.y * self.y != quartic_rhs(self.u, self.v):
            raise NotOnCurve(f"({self.u} : {self.y} : {self.v}) is not on the quartic")


def weierstrass_to_quartic(P: ECPoint) -> QuarticPoint:
    """Transport a point of the pinned model to the primitive quartic point.

    The affine map is u = w + 1, y = X w^2 - 2 - 4w with
    w = 2(V + 2X + 2)/(X^2 - 2); the denominator X^2 - 2 never vanishes
    rationally, so the only patch needed is infinity -> (1 : 2 : 1).
    """
    if P.curve != E4_WEIERSTRASS:
        raise ValueError("expected a point on the pinned model")
    if P.is_infinity:
        return QuarticPoint(1, 2, 1)
    X, V = P.x, P.y
    w = 2 * (V + 2 * X + 2) / (X * X - 2)
    u = w + 1
    yq = X * w * w - 2 - 4 * w
    num, den = u.numerator, u.denominator
    yz = yq * den * den
    assert yz.denominator == 1
    return QuarticPoint(num, int(yz), den)


def quartic_to_weierstrass(q: QuarticPoint) -> ECPoint:
    """Inverse transport; (1 : 2 : 1) goes to the point at infinity."""
    if q.v == 0:
        raise NotOnCurve("no rational points at infinity on the quartic")
    u = Fraction(q.u, q.v)
    y = Fraction(q.y, q.v * q.v)
    if (u, y) == (1, 2):
        return ECPoint.infinity(E4_WEIERSTRASS)
    w = u - 1
    if w == 0:
        # (1, -2) is the image of -G
        return ECPoint.make(E4_WEIERSTRASS, 0, -2)
    X = (y + 2 + 4 * w) / (w * w)
    V = 2 * X / w + 2 * X + 2
    return ECPoint.make(E4_WEIERSTRASS, X, V)


# ---------------------------------------------------------------------------
# p z^2 testing and the heuristic sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeuristicRecord:
    m: int
    u_digits: int
    v_digits: int
    status: str  # hit_certified | hit_probable | non_hit | untested
    p_digits: int = 0
    z: int = 0

    @property
    def is_hit(self) -> bool:
        return self.status.startswith("hit")


def _classify_pz2(f: arith.FactoredInt) -> tuple[str, int, int]:
    """(status, p, z) for n = f.value() > 0: is n a prime p times z^2?

    n = p z^2 exactly when the squarefree part of n is one prime, so
    exponent parity decides most values without a primality test.  The
    cofactor C (1 when f is complete) is first made coprime to the found
    primes, whose exponents absorb what it held of them.  Then n is a hit
    when one found prime has odd exponent and C is a square, and a non-hit
    when two or more have, when one has and C is not a square, or when none
    has and C is a square.  Otherwise n is a hit when C is a probable prime,
    and untested when it is not.  A hit is certified when p is below
    arith.DETERMINISTIC_BOUND, where primality is proven, else probable."""
    exps = dict(f.factors)
    C = f.cofactor or 1
    for p in exps:
        while C % p == 0:
            C //= p
            exps[p] += 1
    odd = [p for p, e in exps.items() if e % 2]
    z = 1
    for p, e in exps.items():
        z *= p ** (e // 2)
    c_root = isqrt(C)
    c_square = c_root * c_root == C
    if len(odd) == 1 and c_square:
        p, z = odd[0], z * c_root
    elif odd or c_square:
        return "non_hit", 0, 0
    elif arith.is_probable_prime(C):
        p = C
    else:
        return "untested", 0, 0
    return ("hit_certified" if p < arith.DETERMINISTIC_BOUND else "hit_probable"), p, z


def heuristic_search(m_max: int, effort: FactorBudget = DEFAULT_BUDGET) -> list[HeuristicRecord]:
    """Test 2(u^4+v^4) at the multiples m = 0..m_max of the generator.

    Each value is first factored without rho (trial division and the
    primality test) and classified by _classify_pz2.  A parity verdict is
    exact, since the found primes' exponents are exact once the cofactor is
    coprime to them, and a complete factorisation is what rho would give
    too.  Only a value whose factorisation is incomplete and which is left
    untested or probable is factored again with the full budget.  A hit is
    certified when its prime is proven (_classify_pz2), else probable; a
    non-hit rests on exponent parity alone.  A value that parity leaves open
    and whose cofactor is not a probable prime is reported untested.
    Torsion translates and sign changes of m permute u and v signs only, so
    one representative per |m| suffices.
    """
    out = []
    trial_only = replace(effort, rho_iterations=0)
    G = ECPoint.make(E4_WEIERSTRASS, *E4_GENERATOR)
    P = ECPoint.infinity(E4_WEIERSTRASS)
    for m in range(0, m_max + 1):
        if m > 0:
            P = ec_add(P, G)
        q = weierstrass_to_quartic(P)
        n = 2 * (q.u**4 + q.v**4)
        f = arith.factor(n, trial_only)
        status, p, z = _classify_pz2(f)
        if not f.complete and status in ("untested", "hit_probable"):
            status, p, z = _classify_pz2(arith.factor(n, effort))
        digits = len(str(p)) if p else 0
        out.append(HeuristicRecord(m, len(str(abs(q.u))), len(str(abs(q.v))), status, digits, z))
    return out


# ---------------------------------------------------------------------------
# the pinned large example
# ---------------------------------------------------------------------------

EXAMPLE6_U = 1383308224231610113228232741369733180270315041
EXAMPLE6_V = 702229330665242264680897734882798122886724801
EXAMPLE6_Y = 2 * int(
    "162875761464289218878723159174898919197655635215733128961834"
    "3575391414712185591538941481919"
)
EXAMPLE6_Z = 2


def section6_checks(rounds: int = 0) -> list[tuple[str, bool]]:
    """Each sub-check of the pinned example, by name.  p is a BPSW probable
    prime; ``rounds`` adds random-base Miller-Rabin rounds."""
    u, v, y, z = EXAMPLE6_U, EXAMPLE6_V, EXAMPLE6_Y, EXAMPLE6_Z
    r, s = u * u, v * v
    h1 = r * r + s * s
    h2 = r * r + 2 * r * s - s * s
    h16 = r * s * h1 * h2
    p, prem = divmod(h1, 2)
    checks = [
        ("gcd(u, v) = 1", gcd(u, v) == 1),
        ("y^2 = 2(u^4 + 2u^2v^2 - v^4)", y * y == quartic_rhs(u, v)),
        ("h1(u^2, v^2) is even", prem == 0),
        ("p has 181 digits", len(str(p)) == 181),
        ("p is probably prime", arith.is_probable_prime(p, rounds)),
        ("2 h1(u^2, v^2) = p z^2", 2 * h1 == p * z * z),
        ("p (y u v)^2 = h16(u^2, v^2)", p * (y * u * v) ** 2 == h16),
    ]
    return checks


# ---------------------------------------------------------------------------
# pi_2 counting
# ---------------------------------------------------------------------------

# pi2_count needs pi only at the values m // k, m = n - 1.  Phase 1 runs
# Legendre's recurrence in three int64 arrays of isqrt(m) + 1 entries, for
# the primes up to icbrt(m) only.  Phase 2 adds the larger primes at the
# few values pi2 reads, from entries phase 1 left final.  So the memory
# grows as sqrt(n), and the cap bounds the time.
PI2_MEMORY_CAP = 10**8


def pi2_count(n: int) -> int:
    """Number of integers k in (0, n) of the form p z^2, p prime.

    Such a k determines p (its squarefree part) and z, so
    pi2(n) = sum over z >= 1 with 2 z^2 <= m = n - 1 of pi(m // z^2).
    Every m // z^2 is one of the values m // k, and Legendre's recurrence
    on exactly those values gives pi at all of them in O(n^(3/4)) time and
    O(sqrt(n)) memory (Lagarias, Miller & Odlyzko, Math. Comp. 44, 1985;
    Deleglise & Rivat, Math. Comp. 65, 1996).
    S(v) starts as v - 1, and each prime p in turn subtracts
    S(v // p) - S(p - 1) from every S(v) with v >= p^2, which strikes the
    numbers whose least prime factor is p.  small[v] holds S(v) for
    v <= r = isqrt(m), large[k] holds S(m // k).

    Phase 1 runs the recurrence for the primes p <= c = icbrt(m).  Then
    small is final, since r < (c + 1)^2, and so is every large[k] with
    m // k < (c + 1)^2.  Phase 2 finishes only pi(m // z^2) for z^2 <= r:
    it subtracts S(m // (z^2 p)) - pi(p - 1) over the primes
    c < p <= sqrt(m // z^2), all pairs at once.  The recurrence wants
    S(w), w = m // (z^2 p), as it stood before p's step: that is pi(w),
    since w < p^2, and phase 1 already left pi(w) there, since
    w < (c + 1)^2.  It is large[z^2 p] when z^2 p <= r and small[w]
    otherwise.  PI2_MEMORY_CAP bounds the time."""
    if n > PI2_MEMORY_CAP:
        raise BudgetExceeded(f"pi2 limited to n <= {PI2_MEMORY_CAP}, which bounds its time")
    if n <= 2:
        return 0
    m = n - 1
    r = isqrt(m)
    c = arith._iroot(m, 3)
    small = np.arange(-1, r)
    q = m // np.maximum(np.arange(r + 1), 1)  # q[k] = m // k
    large = q - 1
    for p in range(2, c + 1):
        if small[p] == small[p - 1]:
            continue  # p is struck, so not prime
        sp = small[p - 1]
        # every right-hand side is read before its step writes, as the
        # recurrence asks; m // (k p) = q[k] // p is large[k p] while k p <= r
        top = min(r, m // (p * p))
        mid = min(top, r // p)
        large[1 : mid + 1] -= large[p : mid * p + 1 : p] - sp
        large[mid + 1 : top + 1] -= small[q[mid + 1 : top + 1] // p] - sp
        small[p * p :] -= small[np.arange(p * p, r + 1) // p] - sp
    del q  # phase 2's arrays then fit where q was, so the peak stays phase 1's
    z2 = np.arange(1, isqrt(m // 2) + 1) ** 2
    head = z2[z2 <= r]
    total = int(large[head].sum() + small[m // z2[z2 > r]].sum())
    del z2
    primes = np.flatnonzero(np.diff(small[c:])) + c + 1  # the primes in (c, r]
    # pair each z^2 in head with the count[i] primes c < p <= sqrt(m // z^2)
    count = np.searchsorted(primes * primes, m // head, side="right")
    p = primes[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)]
    total += int(small[p - 1].sum())
    k = np.repeat(head, count) * p
    del p
    near = k <= r
    return total - int(large[k[near]].sum() + small[m // k[~near]].sum())


def _pi2_brute(n: int) -> int:
    count = 0
    for k in range(2, n):
        m = k
        for p in range(2, isqrt(k) + 1):
            while m % (p * p) == 0:
                m //= p * p
        if arith.is_probable_prime(m):
            count += 1
    return count
