"""The modular-curve-specific pipeline.

f16(x) = x(x^2+1)(x^2+2x-1) defines the hyperelliptic model; a rational
non-cusp t with f16(t) < 0 gives a quadratic point over Q(sqrt(d)) where d
is the squarefree part of f16(t).  The function

    g(x, y) = ((-6x^2-4x+2) y + (x^5+13x^4-2x^3+10x^2-7x+1)) / (x-1)^5

has divisor 5(P1bar - omega(P1bar)) on the integral model, so the ideal
(g(P)) is a fifth power and its fifth root is a 5-torsion ideal class.  The
census runs this pipeline over all t of bounded height.

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

from . import arith, quadfield, quadform
from .arith import FactorBudget, DEFAULT_BUDGET
from .errors import NotImaginary, NotOnCurve, SupportCollision
from .quadfield import QFieldElem, QIdeal
from .quadform import QuadForm


def f16_eval(t: Fraction) -> Fraction:
    t = Fraction(t)
    return t * (t * t + 1) * (t * t + 2 * t - 1)


def h16_homogeneous(r: int, s: int) -> int:
    return r * s * (r * r + s * s) * (r * r + 2 * r * s - s * s)


CUSPS = (Fraction(0), Fraction(1), Fraction(-1))


@dataclass(frozen=True)
class X16Point:
    t: Fraction
    fval: Fraction
    d: int  # squarefree field constant; fval = d * mrat^2 (1 when rational)
    mrat: Fraction
    cusp: bool


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
    return X16Point(t, fval, sf.d, mrat, False)


# numerator and denominator data of g
def _g_parts(t: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    A = -6 * t * t - 4 * t + 2
    B = t**5 + 13 * t**4 - 2 * t**3 + 10 * t * t - 7 * t + 1
    den = (t - 1) ** 5
    return A, B, den


def g_eval(p: X16Point) -> QFieldElem:
    """g at the point (t, +sqrt(f16(t))) as an element of Q(sqrt(d))."""
    if p.cusp:
        raise ValueError("g is not evaluated at cusps")
    if p.t == 1:
        raise SupportCollision("t = 1 lies in the support of div(g)")
    if p.d >= 0:
        raise NotImaginary(f"field constant {p.d} is not negative")
    A, B, den = _g_parts(p.t)
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


def cl5_pullback(p: X16Point, effort: FactorBudget = DEFAULT_BUDGET) -> PullbackResult:
    """Fifth-root ideal class of (g(P)) and its order (1 or 5)."""
    e = g_eval(p)
    F = quadfield.factor_principal(e, effort)
    I = quadfield.nth_root_ideal(F, 5)  # raises ExponentNotDivisible on 5 | e_i failure
    f = quadform.reduce_form(quadfield.ideal_to_form(I))
    one = quadform.principal_form(e.disc)
    if f == one:
        order = 1
    else:
        assert quadform.form_pow(f, 5) == one, "pullback class order must divide 5"
        order = 5
    return PullbackResult(p.t, e.disc, f, order)


@dataclass(frozen=True)
class CensusRecord:
    t: Fraction
    d: int
    disc: int
    h: int
    two_rank: int
    five_order: int
    div10: bool


def divisibility_check(
    p: X16Point, effort: FactorBudget = DEFAULT_BUDGET
) -> CensusRecord:
    if p.cusp or p.d >= 0:
        raise ValueError("divisibility check needs an imaginary non-cusp point")
    disc = arith.fundamental_discriminant(p.d)
    h = quadform.class_number(disc)
    tr = quadform.two_rank_genus(p.d, effort)
    five = cl5_pullback(p, effort).order
    return CensusRecord(p.t, p.d, disc, h, tr, five, h % 10 == 0)


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
        return divisibility_check(point_from_t(t, effort), effort)
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
