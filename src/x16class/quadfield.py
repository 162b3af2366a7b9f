"""Elements and fractional ideals of imaginary quadratic maximal orders.

Ideals are kept as a positive rational multiple of a primitive lattice
a Z + ((b + sqrt(disc))/2) Z.  Products go through form composition with the
reduction step omitted and the integer content tracked, so norms stay
exactly multiplicative and factorizations reassemble on the nose; reduction
happens only when a class-level question (order, principality) is asked.

factor_principal, valuation and nth_root_ideal are the oracle for the
census's order-5 pullback: x16.cl5_pullback finds the class by a closed
form, and the tests (acceptance criterion 4 among them) check it, and the
valuations, against the ideal factorisation of g(P) computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import arith, quadform
from .arith import FactorBudget, DEFAULT_BUDGET
from .errors import (
    DiscriminantMismatch,
    ExponentNotDivisible,
    IncompleteFactorization,
)
from .quadform import QuadForm, _check_disc
from .quadform import reduce_form  # noqa: F401  (perfbench/spans.py traces this name here)


@dataclass(frozen=True)
class QFieldElem:
    """u + v*sqrt(disc) with rational u, v."""

    disc: int
    u: Fraction
    v: Fraction

    @staticmethod
    def make(disc: int, u, v) -> "QFieldElem":
        _check_disc(disc)
        return QFieldElem(disc, Fraction(u), Fraction(v))

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def conj(self) -> "QFieldElem":
        return QFieldElem(self.disc, self.u, -self.v)

    def norm(self) -> Fraction:
        return self.u * self.u - self.disc * self.v * self.v

    def __add__(self, other: "QFieldElem") -> "QFieldElem":
        self._check(other)
        return QFieldElem(self.disc, self.u + other.u, self.v + other.v)

    def __sub__(self, other: "QFieldElem") -> "QFieldElem":
        self._check(other)
        return QFieldElem(self.disc, self.u - other.u, self.v - other.v)

    def __mul__(self, other: "QFieldElem") -> "QFieldElem":
        self._check(other)
        return QFieldElem(
            self.disc,
            self.u * other.u + self.disc * self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    def __truediv__(self, other: "QFieldElem") -> "QFieldElem":
        self._check(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        num = self * other.conj()
        return QFieldElem(self.disc, num.u / n, num.v / n)

    def _check(self, other: "QFieldElem"):
        if self.disc != other.disc:
            raise DiscriminantMismatch(f"{self.disc} != {other.disc}")

    def __str__(self) -> str:
        return f"{self.u} + {self.v}*sqrt({self.disc})"


@dataclass(frozen=True)
class QIdeal:
    """scal * ( a Z + ((b + sqrt(disc))/2) Z ), scal a positive rational.

    The primitive part is canonical: a > 0, 0 <= b < 2a, 4a | b^2 - disc.
    Norm is a * scal^2.
    """

    disc: int
    a: int
    b: int
    scal: Fraction = Fraction(1)

    def __post_init__(self):
        _check_disc(self.disc)
        if self.a <= 0 or not (0 <= self.b < 2 * self.a):
            raise ValueError(f"non-canonical ideal basis ({self.a}, {self.b})")
        if (self.b * self.b - self.disc) % (4 * self.a):
            raise ValueError(f"b^2 != disc mod 4a for ({self.a}, {self.b})")
        if self.scal <= 0:
            raise ValueError("scal must be positive")

    @staticmethod
    def make(disc: int, a: int, b: int, scal=1) -> "QIdeal":
        return QIdeal(disc, a, b % (2 * a), Fraction(scal))

    @staticmethod
    def unit(disc: int) -> "QIdeal":
        return QIdeal.make(disc, 1, disc & 1)

    def norm(self) -> Fraction:
        return self.a * self.scal * self.scal

    def conj(self) -> "QIdeal":
        return QIdeal.make(self.disc, self.a, -self.b, self.scal)

    def __mul__(self, other: "QIdeal") -> "QIdeal":
        if self.disc != other.disc:
            raise DiscriminantMismatch(f"{self.disc} != {other.disc}")
        f = ideal_to_form(self)
        g = ideal_to_form(other)
        a3, b3, w = quadform._compose_raw(f, g)
        return QIdeal.make(self.disc, a3, b3, self.scal * other.scal * w)

    def inverse(self) -> "QIdeal":
        # primitive L satisfies L * conj(L) = (a), so I^-1 = conj(L)/(scal*a)
        return QIdeal.make(self.disc, self.a, -self.b, 1 / (self.scal * self.a))

    def __pow__(self, k: int) -> "QIdeal":
        if k < 0:
            return self.inverse() ** (-k)
        result = QIdeal.unit(self.disc)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def contains(self, e: QFieldElem) -> bool:
        """Exact membership test for a field element."""
        # e/scal = x + y*sqrt(disc) is a*m + k*(b+sqrt(disc))/2 for integers
        # m, k  <=>  k = 2y is integral and x - b*y is in a*Z
        x = e.u / self.scal
        y = e.v / self.scal
        if (2 * y).denominator != 1:
            return False
        t = x - self.b * y
        return t.denominator == 1 and int(t) % self.a == 0

    def __str__(self) -> str:
        s = f"({self.a}, {self.b})_{self.disc}"
        return s if self.scal == 1 else f"{self.scal}*{s}"


@dataclass(frozen=True)
class Splitting:
    p: int
    kind: str  # "split" | "ramified" | "inert"
    primes: tuple[QIdeal, ...]


def primes_above(disc: int, p: int) -> Splitting:
    """Splitting of a rational prime in the maximal order of disc."""
    _check_disc(disc)
    sym = arith.kronecker(disc, p)
    if sym == -1:
        return Splitting(p, "inert", (QIdeal.make(disc, 1, disc & 1, p),))
    if sym == 0:
        # ramified
        if p == 2:
            d = disc // 4
            b = 0 if d % 2 == 0 else 2
        else:
            b = 0 if disc % 2 == 0 else p
            # need b^2 = disc (mod 4p) with b = 0 (mod p) of the right parity
            if (b * b - disc) % (4 * p):
                b = p if b == 0 else 0
        P = QIdeal.make(disc, p, b)
        return Splitting(p, "ramified", (P,))
    # split
    if p == 2:
        assert disc % 8 == 1, "split at 2 requires disc = 1 mod 8"
        b = 1
    else:
        r = arith.sqrt_mod_prime(disc % p, p)
        # lift to the root mod 2p whose parity matches disc
        b = r if (r - disc) % 2 == 0 else r + p
        b %= 2 * p
    assert (b * b - disc) % (4 * p) == 0
    P = QIdeal.make(disc, p, b)
    return Splitting(p, "split", (P, P.conj()))


def _split_root(disc: int, p: int, b: int, precision: int) -> int:
    """rho with rho^2 = disc (mod p^precision) picking the branch of the
    prime (p, b): rho = -b (mod p), or (mod 4) when p = 2."""
    if p == 2:
        k = max(precision, 3)
        rho = arith.lift_sqrt_2(disc % (1 << k), k)
        if (rho + b) % 4 != 0:
            rho = (1 << k) - rho
        assert (rho + b) % 4 == 0
        return rho % (1 << precision)
    rho = arith.lift_sqrt_odd(disc, p, precision)
    if (rho + b) % p != 0:
        rho = p**precision - rho
    assert (rho + b) % p == 0
    return rho


def valuation(e: QFieldElem, P: QIdeal) -> int:
    """Exact P-adic valuation of a nonzero element at a prime ideal."""
    if e.is_zero():
        raise ValueError("valuation of zero")
    disc = e.disc
    if P.disc != disc:
        raise DiscriminantMismatch(f"{P.disc} != {disc}")
    # classify the prime
    if P.a == 1 and P.scal != 1:
        kind, p = "inert", int(P.scal)
    else:
        p = P.a
        kind = "ramified" if disc % p == 0 else "split"
    n = e.norm()
    vn = arith.valuation_int(n.numerator, p) - arith.valuation_int(n.denominator, p)
    if kind == "inert":
        assert vn % 2 == 0, "odd norm valuation at an inert prime"
        return vn // 2
    if kind == "ramified":
        return vn
    # split: clear denominators, e = (A + B sqrt(disc)) / W
    W = (e.u.denominator * e.v.denominator) // gcd(e.u.denominator, e.v.denominator)
    A = int(e.u * W)
    B = int(e.v * W)
    wv = arith.valuation_int(W, p) if W % p == 0 else 0
    nint = A * A - disc * B * B
    M = arith.valuation_int(nint, p) if nint else 0
    L = M + 1
    rho = _split_root(disc, p, P.b, L)
    t = A + B * rho
    if t == 0:
        vt = M  # exact representative of the conjugate root
    else:
        vt = arith.valuation_int(t, p)
    v = min(vt, M)
    return v - wv


@dataclass(frozen=True)
class FactoredIdeal:
    disc: int
    entries: tuple[tuple[QIdeal, int], ...]

    def norm(self) -> Fraction:
        n = Fraction(1)
        for P, e in self.entries:
            n *= Fraction(P.norm()) ** e
        return n

    def product(self) -> QIdeal:
        I = QIdeal.unit(self.disc)
        for P, e in self.entries:
            I = I * P**e
        return I

    def __str__(self) -> str:
        if not self.entries:
            return "(1)"
        return " * ".join(f"{P}^{e}" if e != 1 else str(P) for P, e in self.entries)


def factor_principal(
    e: QFieldElem, effort: FactorBudget = DEFAULT_BUDGET
) -> FactoredIdeal:
    """Prime-ideal factorization of the principal fractional ideal (e)."""
    if e.is_zero():
        raise ValueError("cannot factor the zero ideal")
    n = e.norm()
    # candidate primes: the norm alone misses primes where the conjugate
    # valuations cancel (v at P, -v at Pbar), so the coordinate common
    # denominator W must contribute as well
    W = (e.u.denominator * e.v.denominator) // gcd(e.u.denominator, e.v.denominator)
    ps = set()
    for m in (n.numerator, n.denominator, W):
        if m == 1:
            continue
        fm = arith.factor(m, effort)
        if not fm.complete:
            raise IncompleteFactorization(f"{m} did not factor completely")
        ps |= set(fm.primes())
    entries = []
    check = Fraction(1)
    for p in sorted(ps):
        sp = primes_above(e.disc, p)
        for P in sp.primes:
            v = valuation(e, P)
            if v:
                entries.append((P, v))
                check *= Fraction(P.norm()) ** v
    assert check == n, f"norm bookkeeping failed: {check} != {n}"
    return FactoredIdeal(e.disc, tuple(entries))


def nth_root_ideal(F: FactoredIdeal, n: int) -> QIdeal:
    """The ideal I with I^n = product(F); exponents must be divisible by n."""
    I = QIdeal.unit(F.disc)
    for P, e in F.entries:
        if e % n:
            raise ExponentNotDivisible(P.norm(), e, n)
        I = I * P ** (e // n)
    return I


def ideal_to_form(I: QIdeal) -> QuadForm:
    """Form of the primitive part (the fractional scaling is class-trivial)."""
    b = I.b if I.b <= I.a else I.b - 2 * I.a
    return QuadForm(I.a, b, (b * b - I.disc) // (4 * I.a))
