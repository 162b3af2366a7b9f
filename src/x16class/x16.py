"""The modular-curve-specific pipeline.

f16(x) = x(x^2+1)(x^2+2x-1) defines the hyperelliptic model; a rational
non-cusp t with f16(t) < 0 gives a quadratic point over Q(sqrt(d)) where d
is the squarefree part of f16(t).  The function

    g(x, y) = (A(x) y + B(x)) / (x-1)^5,
    A = -6x^2-4x+2,  B = x^5+13x^4-2x^3+10x^2-7x+1,

has divisor 5(P1bar - omega(P1bar)) on the integral model, so the ideal
(g(P)) is a fifth power and its fifth root is a 5-torsion ideal class.  The
census runs this pipeline over all t of bounded height.

The census does not factor g(P).  Two polynomial facts pin the fifth root
down: B^2 - A^2 f16 = (x-1)^10, and U A + V B = 64 for integer polynomials
U, V, so no odd prime divides both A and B.  With t = r/s this makes the
fifth root the primitive ideal of norm (r-s)^2 (2-part removed) that
contains the numerator of g(P); cl5_pullback reads it off by one modular
inverse.  g_eval with quadfield.factor_principal and nth_root_ideal computes
the same class by ideal factorisation and is kept as its oracle.  The
subcommand `x16class verify-lemmas` checks both facts.

The auxiliary sextic curve y^2 = z^6+z^5-5z^3+z+1 catalogues the possible
exceptions; its x-image function needs a function-field normalization at
one point where the printed formula degenerates to 0/0.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable, Optional

from . import arith, quadform
from .arith import FactorBudget, DEFAULT_BUDGET
from .errors import NotImaginary, NotOnCurve, SupportCollision
from .poly import MPolyZ
from .quadfield import QFieldElem
from .quadform import QuadForm


# h16, A_h and B_h are s^6 f16(r/s), s^2 A(r/s) and s^5 B(r/s); they take
# ints, Fractions (with s = 1) or MPolyZ variables (verify_lemmas)
def h16_homogeneous(r, s):
    return r * s * (r * r + s * s) * (r * r + 2 * r * s - s * s)


def f16_eval(t: Fraction) -> Fraction:
    return h16_homogeneous(Fraction(t), 1)


def _a_h(r, s):
    return -6 * r * r - 4 * r * s + 2 * s * s


def _b_h(r, s):
    return (
        r**5 + 13 * r**4 * s - 2 * r**3 * s**2 + 10 * r**2 * s**3 - 7 * r * s**4 + s**5
    )


CUSPS = (Fraction(0), Fraction(1), Fraction(-1))


@dataclass(frozen=True)
class X16Point:
    t: Fraction
    fval: Fraction
    d: int  # squarefree field constant; fval = d * mrat^2 (1 when rational)
    mrat: Fraction
    cusp: bool
    fd: Optional[arith.FactoredInt] = None  # factorisation of d

    @property
    def disc(self) -> int:
        """Discriminant of the maximal order of Q(sqrt(d))."""
        return self.d if self.d % 4 == 1 else 4 * self.d


def point_from_t(t: Fraction, effort: FactorBudget = DEFAULT_BUDGET) -> X16Point:
    t = Fraction(t)
    fval = f16_eval(t)
    if t in CUSPS:
        return X16Point(t, fval, 1, Fraction(0), True)
    # fval = n/q in lowest terms = (n*q)/q^2, so d = squarefree part of n*q
    n, q = fval.numerator, fval.denominator
    sf = arith.squarefree_part(n * q, effort)
    mrat = Fraction(sf.m, q)
    assert fval == sf.d * mrat * mrat
    return X16Point(t, fval, sf.d, mrat, False, sf.fd)


def _check_pullback_point(p: X16Point):
    if p.cusp:
        raise ValueError("g is not evaluated at cusps")
    if p.t == 1:
        raise SupportCollision("t = 1 lies in the support of div(g)")
    if p.d >= 0:
        raise NotImaginary(f"field constant {p.d} is not negative")


def g_eval(p: X16Point) -> QFieldElem:
    """g at the point (t, +sqrt(f16(t))) as an element of Q(sqrt(d))."""
    _check_pullback_point(p)
    t = p.t
    A, B, den = _a_h(t, 1), _b_h(t, 1), (t - 1) ** 5
    disc = arith.fundamental_discriminant(p.d)
    # y = mrat * sqrt(d); sqrt(d) = sqrt(disc) (disc odd) or sqrt(disc)/2
    vcoef = A * p.mrat / den
    if disc != p.d:
        vcoef /= 2
    return QFieldElem.make(disc, B / den, vcoef)


@dataclass(frozen=True)
class PullbackResult:
    t: Fraction
    disc: int
    ideal_class_form: QuadForm
    order: int


def cl5_pullback(p: X16Point) -> PullbackResult:
    """Fifth-root ideal class of (g(P)) and its order (1 or 5).

    Write t = r/s (s > 0) and h16(r, s) = d m^2 with m = mrat s^3.  Then
    g(P) = alpha/(r-s)^5 with alpha = B_h + A_h m sqrt(d), and over the
    field discriminant D, alpha = (x + y sqrt(D))/2 with x = 2 B_h and
    y = 2 A_h m (D = d) or A_h m (D = 4d).  The class is that of the fifth
    root of (alpha), since (r-s) is principal.

    - N(alpha) = B_h^2 - A_h^2 h16 = (r-s)^10.
    - Let p be an odd prime with p^e || r-s.  Then h16 = 4 s^6 and
      A_h = -8 s^2 (mod p), so p divides neither m nor y, hence not alpha
      (U A + V B = 64 says the same for all odd p: no odd prime divides
      both A_h and B_h).  As p | N(alpha) but p does not divide alpha, p
      splits and p^(10e) lies in one prime P above p: the p-part of
      (alpha) is P^(10e), with fifth root P^(2e).
    - r-s odd: no prime above 2 divides alpha.  v2(r-s) = 1: v2(B_h) = 5
      and v2(A_h m) >= 7, so alpha = 32 alpha' with alpha' prime to 2.
      v2(r-s) >= 2: v2(A_h) = 3, v2(m) = 1 and, from
      B_h^2 = (r-s)^10 + A_h^2 h16, v2(B_h) = 4; then d = 1 (mod 8),
      alpha = 32 alpha' with odd y', and (alpha')'s 2-part lies in one prime
      above 2.  (32) = (2)^5 is a principal fifth power.

    So with M = |r-s| (r-s odd) or |r-s|/2 (r-s even, x and y divided by
    32), the fifth root is the primitive ideal (N, b) of norm N = M^2 that
    contains (x + y sqrt(D))/2, i.e. y b = x (mod 2N), b = D (mod 2): the
    form (N, b, (b^2-D)/4N).  N = 1 gives the principal class; t = 1/3,
    where A_h = 0, is such a case.  The divisions by 32, b^2 = D (mod 4N) and
    f^5 = 1 are asserted, so a broken lemma raises rather than answers;
    g_eval with quadfield.factor_principal/nth_root_ideal is the oracle.
    """
    _check_pullback_point(p)
    r, s = p.t.numerator, p.t.denominator
    m = p.mrat * s**3
    assert m.denominator == 1, "h16(r, s) = d m^2 needs an integer m"
    a_m = _a_h(r, s) * m.numerator
    D = p.disc
    x, y = 2 * _b_h(r, s), 2 * a_m if D == p.d else a_m
    M = abs(r - s)
    if M % 2 == 0:
        assert x % 32 == 0 and y % 32 == 0, "alpha must be 32 alpha'"
        x, y, M = x // 32, y // 32, M // 2
    N = M * M
    one = quadform.principal_form(D)
    if N == 1:
        f = one
    else:
        if y % 2:
            b = x * pow(y, -1, 2 * N) % (2 * N)
        else:
            b = (x // 2) * pow(y // 2, -1, N) % N
            if (b - D) % 2:
                b += N
        assert (b * b - D) % (4 * N) == 0, "b^2 = D (mod 4N) must hold"
        f = quadform.reduce_form(QuadForm(N, b, (b * b - D) // (4 * N)))
    if f == one:
        order = 1
    else:
        assert quadform.form_pow(f, 5) == one, "pullback class order must divide 5"
        order = 5
    return PullbackResult(p.t, D, f, order)


def verify_lemmas() -> list[tuple[str, bool]]:
    """The two polynomial facts cl5_pullback rests on, by name."""
    r, s, x = MPolyZ.var("r"), MPolyZ.var("s"), MPolyZ.var("x")
    U = -61 * x**4 - 813 * x**3 - 145 * x**2 - 663 * x + 214
    V = -366 * x - 364
    return [
        (
            "B_h^2 - A_h^2 h16 = (r - s)^10",
            _b_h(r, s) ** 2 - _a_h(r, s) ** 2 * h16_homogeneous(r, s) == (r - s) ** 10,
        ),
        ("U A + V B = 64", U * _a_h(x, 1) + V * _b_h(x, 1) == 64),
    ]


@dataclass(frozen=True)
class CensusRecord:
    t: Fraction
    d: int
    disc: int
    h: int
    two_rank: int
    five_order: int
    div10: bool


def divisibility_check(p: X16Point) -> CensusRecord:
    """Census record of a point built by point_from_t: h, the genus 2-rank
    from the carried factorisation of d, and the pullback order."""
    if p.cusp or p.d >= 0 or p.fd is None:
        raise ValueError("divisibility check needs an imaginary non-cusp point with d factored")
    h = quadform.class_number(p.disc)
    tr = quadform.two_rank_from_factors(p.d, p.fd)
    five = cl5_pullback(p).order
    return CensusRecord(p.t, p.d, p.disc, h, tr, five, h % 10 == 0)


@dataclass
class CensusSummary:
    height_bound: int
    records: int = 0
    exceptions: list = field(default_factory=list)  # t with d = -15
    violations: list = field(default_factory=list)  # t with d != -15, 10 !| h
    errors: list = field(default_factory=list)  # (t, message)


def census_parameters(height_bound: int) -> list[Fraction]:
    """All candidate t = r/s in canonical order (|r|+|s|, r, s)."""
    ts = []
    for s in range(1, height_bound + 1):
        for r in range(-height_bound, height_bound + 1):
            # s^6 f16(r/s) has the sign of f16(r/s); f16 is 0 or 4 at the cusps
            if h16_homogeneous(r, s) < 0 and gcd(r, s) == 1:
                ts.append(Fraction(r, s))
    ts.sort(key=lambda t: (abs(t.numerator) + t.denominator, t.numerator, t.denominator))
    return ts


def census_check(t: Fraction, effort: FactorBudget = DEFAULT_BUDGET) -> CensusRecord | str:
    """divisibility_check at t, or the error it raised as "Type: message":
    in a census, per-record failures are recorded, not fatal."""
    try:
        return divisibility_check(point_from_t(t, effort))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def census(
    height_bound: int,
    sink: Optional[Callable[[CensusRecord], None]] = None,
    effort: FactorBudget = DEFAULT_BUDGET,
    workers: int = 1,
) -> CensusSummary:
    """Run divisibility_check on every non-cusp imaginary t of bounded height,
    in this process or in a pool of `workers` processes.  Either way, records
    reach `sink` as they are made, in canonical order."""
    summary = CensusSummary(height_bound)
    params = census_parameters(height_bound)
    check = partial(census_check, effort=effort)
    with ExitStack() as stack:
        if workers == 1:
            results = map(check, params)
        else:
            import multiprocessing  # here, not at the top: it slows start-up

            results = stack.enter_context(multiprocessing.Pool(workers)).imap(check, params)
        for t, rec in zip(params, results):
            if isinstance(rec, str):
                summary.errors.append((t, rec))
                continue
            summary.records += 1
            if rec.d == -15:
                summary.exceptions.append(t)
            elif not rec.div10:
                summary.violations.append(t)
            if sink is not None:
                sink(rec)
    return summary


# ---------------------------------------------------------------------------
# the auxiliary sextic curve
# ---------------------------------------------------------------------------

def _sextic(z: Fraction) -> Fraction:
    return z**6 + z**5 - 5 * z**3 + z + 1


def y16_membership(z: Fraction, y: Fraction) -> bool:
    z, y = Fraction(z), Fraction(y)
    return y * y == _sextic(z)


def y16_x_image(z: Fraction, y: Fraction) -> Optional[Fraction]:
    """x-coordinate image of an affine point; None encodes infinity.

    The printed formula N/D - 1 hits 0/0 at (3, -29); there the value is
    computed from the conjugate-normalized representation
    N/D = -4 z (z^4 - 5z + 5) / N(z, -y), which uses
    N(z,y) N(z,-y) = -4 z (z-3) (z^2-z-1)^2 (z^4-5z+5) and
    D = (z-3)(z^2-z-1)^2.
    """
    z, y = Fraction(z), Fraction(y)
    if not y16_membership(z, y):
        raise NotOnCurve(f"({z}, {y}) is not on the sextic curve")
    N = (2 * z * z - 6 * z + 2) * y + (10 * z * z - 10 * z - 2)
    D = z**5 - 5 * z**4 + 5 * z**3 + 5 * z * z - 5 * z - 3
    if D != 0:
        return N / D - 1
    if N != 0:
        return None  # pole of the x-image
    Nbar = (2 * z * z - 6 * z + 2) * (-y) + (10 * z * z - 10 * z - 2)
    assert Nbar != 0
    return -4 * z * (z**4 - 5 * z + 5) / Nbar - 1


# x-images of the two points at infinity, from the chart w = 1/z, Y = y/z^3:
# N' = (2 - 6w + 2w^2) Y + (10 - 10w - 2w^2) w^3 and D' = 1 - 5w + ... give
# N'/D' - 1 = 2Y - 1 at w = 0.
X_IMAGE_AT_INFINITY = {1: Fraction(1), -1: Fraction(-3)}

# the full rational point list with expected x-images (None = infinity)
Y16_POINTS = (
    ((Fraction(0), Fraction(1)), Fraction(-1)),
    ((Fraction(0), Fraction(-1)), Fraction(1, 3)),
    ((Fraction(1, 3), Fraction(29, 27)), Fraction(0)),
    ((Fraction(1, 3), Fraction(-29, 27)), Fraction(29, 242)),
    ((Fraction(3), Fraction(29)), None),
    ((Fraction(3), Fraction(-29)), Fraction(-242, 29)),
)


def verify_prop34_points() -> bool:
    """All 8 rational points of the sextic curve with matching x-images."""
    for (z, y), expected in Y16_POINTS:
        if not y16_membership(z, y):
            return False
        if y16_x_image(z, y) != expected:
            return False
    if X_IMAGE_AT_INFINITY[1] != 1 or X_IMAGE_AT_INFINITY[-1] != -3:
        return False
    # the finite x-images must hit the expected fields of the point table
    expected_fields = {
        Fraction(1): 1,
        Fraction(-1): 1,
        Fraction(0): 1,
        Fraction(-3): -15,
        Fraction(1, 3): -15,
        Fraction(-242, 29): -2030,
        Fraction(29, 242): -2030,
    }
    for x, d in expected_fields.items():
        if x in CUSPS:
            continue
        if point_from_t(x).d != d:
            return False
    return True


COROLLARY15_FIELDS = (-7161, -6711, -6503, -6095, -6005, -4847, -3503, -3199)


def corollary15_check() -> bool:
    """5 does not divide h for the eight listed field constants."""
    for d in COROLLARY15_FIELDS:
        disc = arith.fundamental_discriminant(d)
        if quadform.class_number(disc) % 5 == 0:
            return False
    return True
