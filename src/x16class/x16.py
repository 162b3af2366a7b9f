"""The modular-curve-specific pipeline.

f16(x) = x(x^2+1)(x^2+2x-1) defines the hyperelliptic model.  A rational
non-cusp t = r/s in lowest terms with f16(t) < 0 gives a quadratic point
over Q(sqrt(d)), where h16(r, s) = s^6 f16(r/s) = d m^2 with d squarefree;
the census works with these integers.  point_from_t factors h16 with
arith.factor; the census reads the pieces r, s, r^2+s^2 and r^2+2rs-s^2 of
h16 off quadform's factor tables (_smooth_tables) instead and calls no
arith.factor, so the factoring budget does not reach it.  The function

    g(x, y) = (A(x) y + B(x)) / (x-1)^5,
    A = -6x^2-4x+2,  B = x^5+13x^4-2x^3+10x^2-7x+1,

has divisor 5(P1bar - omega(P1bar)) on the integral model, so the ideal
(g(P)) is a fifth power and its fifth root is a 5-torsion ideal class.  The
census runs this pipeline over all t of bounded height; its class numbers
come from quadform.class_numbers, with the fields cut into one contiguous
share per process: this one computes share 0, forked children the rest.

The census does not factor g(P).  Two polynomial facts pin the fifth root
down: B^2 - A^2 f16 = (x-1)^10, and U A + V B = 64 for integer polynomials
U, V, so no odd prime divides both A and B.  With t = r/s this makes the
fifth root the primitive ideal of norm (r-s)^2 (2-part removed) that
contains the numerator of g(P); cl5_pullback reads it off by one modular
inverse, with the form arithmetic on (a, b, c) tuples.  g_eval with
quadfield.factor_principal and nth_root_ideal computes the same class by
ideal factorisation and is kept as its oracle.  The subcommand
`x16class verify-lemmas` checks both facts.

The auxiliary sextic curve y^2 = z^6+z^5-5z^3+z+1 catalogues the possible
exceptions; its x-image function needs a function-field normalization at
one point where the printed formula degenerates to 0/0.
"""

from __future__ import annotations

import os
import pickle
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, isqrt, prod
from typing import BinaryIO, Callable, Optional

from . import arith, quadform
from .arith import FactorBudget, DEFAULT_BUDGET
from .errors import BudgetExceeded, NotImaginary, NotOnCurve, SupportCollision
from .poly import MPolyZ
from .quadfield import QFieldElem
from .quadform import QuadForm


# h16, A_h and B_h are s^6 f16(r/s), s^2 A(r/s) and s^5 B(r/s); they take
# ints, Fractions (with s = 1) or MPolyZ variables (verify_lemmas)
def h16_homogeneous(r, s):
    return r * s * (r * r + s * s) * (r * r + 2 * r * s - s * s)


def _a_h(r, s):
    return -6 * r * r - 4 * r * s + 2 * s * s


def _b_h(r, s):
    return (
        r**5 + 13 * r**4 * s - 2 * r**3 * s**2 + 10 * r**2 * s**3 - 7 * r * s**4 + s**5
    )


CUSPS = (Fraction(0), Fraction(1), Fraction(-1))


@dataclass(frozen=True)
class X16Point:
    """The parameter t = r/s in lowest terms (s > 0) with h16(r, s) = d m^2,
    d squarefree: the point (t, m/s^3 sqrt(d)) over Q(sqrt(d)).  Cusps carry
    d = 1, m = 0."""

    t: Fraction
    d: int
    m: int
    cusp: bool
    fd: Optional[arith.FactoredInt] = None  # factorisation of d

    @property
    def disc(self) -> int:
        """Discriminant of the maximal order of Q(sqrt(d))."""
        return self.d if self.d % 4 == 1 else 4 * self.d


def point_from_t(t: Fraction, effort: FactorBudget = DEFAULT_BUDGET) -> X16Point:
    t = Fraction(t)
    if t in CUSPS:
        return X16Point(t, 1, 0, True)
    sf = arith.squarefree_part(h16_homogeneous(t.numerator, t.denominator), effort)
    return X16Point(t, sf.d, sf.m, False, sf.fd)


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
    D = p.disc
    # y = m/s^3 sqrt(d); sqrt(d) = sqrt(D) (D odd) or sqrt(D)/2
    vcoef = A * Fraction(p.m, t.denominator**3) / den
    if D != p.d:
        vcoef /= 2
    return QFieldElem.make(D, B / den, vcoef)


@dataclass(frozen=True)
class PullbackResult:
    t: Fraction
    disc: int
    ideal_class_form: QuadForm
    order: int


def cl5_pullback(p: X16Point) -> PullbackResult:
    """Fifth-root ideal class of (g(P)) and its order (1 or 5).

    Write t = r/s (s > 0) and h16(r, s) = d m^2 as carried by p.  Then
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
    f^5 = 1 (as f^4 = f^-1) are asserted, so a broken lemma raises rather
    than answers; g_eval with quadfield.factor_principal/nth_root_ideal is
    the oracle.  The forms are (a, b, c) tuples until the QuadForm of the
    result.
    """
    _check_pullback_point(p)
    r, s = p.t.numerator, p.t.denominator
    a_m = _a_h(r, s) * p.m
    D = p.disc
    x, y = 2 * _b_h(r, s), 2 * a_m if D == p.d else a_m
    M = abs(r - s)
    if M % 2 == 0:
        assert x % 32 == 0 and y % 32 == 0, "alpha must be 32 alpha'"
        x, y, M = x // 32, y // 32, M // 2
    N = M * M
    one = (1, D & 1, ((D & 1) - D) // 4)  # the principal form
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
        f = quadform._reduce(N, b, (b * b - D) // (4 * N))
    if f == one:
        order = 1
    else:  # f^5 = 1 as f^4 = f^-1: two squarings
        f2 = quadform._compose(f, f, D)
        assert quadform._compose(f2, f2, D) == quadform._reduce(f[0], -f[1], f[2]), "pullback class order must divide 5"
        order = 5
    return PullbackResult(p.t, D, QuadForm(*f), order)


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


def divisibility_check(p: X16Point, h: int) -> CensusRecord:
    """Census record of a point built by point_from_t, with the class number
    h of its field from the caller: the genus 2-rank from the carried
    factorisation of d, and the pullback order."""
    if p.cusp or p.d >= 0 or p.fd is None:
        raise ValueError("divisibility check needs an imaginary non-cusp point with d factored")
    tr = quadform.two_rank_from_factors(p.d, p.fd)
    five = cl5_pullback(p).order
    return CensusRecord(p.t, p.d, p.disc, h, tr, five, h % 10 == 0)


@dataclass
class CensusSummary:
    records: int = 0
    exceptions: list = field(default_factory=list)  # t with d = -15
    violations: list = field(default_factory=list)  # t with d != -15, 10 !| h
    errors: list = field(default_factory=list)  # (t, message)


def census_parameters(height_bound: int) -> list[Fraction]:
    """All candidate t = r/s in canonical order (|r|+s, r, s), generated in
    that order.  With n = |r| + s, h16(r, s) < 0 exactly when r < 0 and
    -r > n/sqrt(2), or r > 0 and s > n/sqrt(2) (the roots of x^2+2x-1 are
    -1 +- sqrt(2)); the smaller of |r| and s is then below (sqrt(2)-1) H, so
    only the larger needs the bound H.  gcd(r, s) = gcd(r, n)."""
    H, ts = height_bound, []
    for n in range(2, 2 * H):
        k = isqrt(n * n // 2)  # x > n/sqrt(2) <=> x > k
        for r in chain(range(max(1 - n, -H), -k), range(max(1, n - H), n - k)):
            if gcd(r, n) == 1:
                ts.append(Fraction(r, n - abs(r)))
    return ts


def _census_points(ts: list[Fraction], height_bound: int) -> list[X16Point]:
    """The points of point_from_t at census parameters (h16 < 0) of height
    at most H = height_bound, with no arith.factor call: the pieces r, s,
    r^2+s^2 and r^2+2rs-s^2 of h16(r, s), at most n = 2H^2 in absolute value,
    are factored by quadform's tables up to n (_smooth_tables, with the primes
    up to sqrt(n) as its small ones; freed on return), and their exponents
    added (the pieces need not be coprime): rem gives the one prime above
    sqrt(n), if any, then lpf and lpe the largest small prime and its power,
    until 1 is left."""
    n = 2 * height_bound * height_bound
    rem, lpf, lpe = map(memoryview, quadform._smooth_tables(n, quadform._primes_upto(isqrt(n)).tolist()))
    points = []
    for t in ts:
        r, s = t.numerator, t.denominator
        q = r * r + 2 * r * s - s * s
        if r * q >= 0:
            raise ValueError(f"census parameter {t} must have h16 < 0")
        exps: dict[int, int] = {}
        for k in (abs(r), s, r * r + s * s, abs(q)):
            if (p := rem[k]) > 1:
                exps[p] = exps.get(p, 0) + 1
                k //= p
            while k > 1:
                p, e = lpf[k], lpe[k]
                exps[p] = exps.get(p, 0) + e
                k //= p**e
        fd = sorted(p for p, e in exps.items() if e % 2)
        m = prod(p ** (e // 2) for p, e in exps.items())
        points.append(X16Point(t, -prod(fd), m, False, arith.FactoredInt(-1, tuple((p, 1) for p in fd))))
    return points


# the most fields one class_numbers call of the calling census process is
# sent: it computes its share in batches of this size, each one when a
# record first needs it
CENSUS_CHUNK = 512

# the least summed isqrt(|D| // 3) of the fields (class_numbers' sieve cost)
# that each census process is given.  On a 2-vCPU machine a second process
# lost 6-11 ms at heights 12-25 (shares up to 33 000), won or lost ~3 ms at
# height 30 (81 000 each) and won ~10 ms at heights 33-34 (131 000-166 000
# each).  150 000 puts height 36 (394 592) on two processes on any host, the
# one count measured there.
CENSUS_MIN_WORK = 150_000

# where os.fork is missing the census runs in one process
FORK = hasattr(os, "fork")


def census_processes() -> int:
    """The most processes a census runs on: the CPUs this process may use
    (all of them where the OS reports no affinity), 1 where os.fork is
    missing."""
    if not FORK:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _census_shares(discs: list[int], workers: int) -> list[list[int]]:
    """discs cut into w contiguous shares, in order, share k for process k,
    process 0 being the calling one.  w is at most workers,
    census_processes() and len(discs), and gives each process at least
    CENSUS_MIN_WORK of the summed isqrt(|D| // 3), what class_numbers' sieve
    costs (w = 1 if the census is smaller).  The cuts fall at the cost
    quantiles k/w, each share keeping at least one field."""
    n = len(discs)
    cost = list(accumulate(isqrt(-D // 3) for D in discs)) or [0]
    w = max(1, min(workers, census_processes(), n, cost[-1] // CENSUS_MIN_WORK))
    cuts = [0]
    for k in range(1, w):
        cuts.append(bisect_left(cost, cost[-1] * k / w, cuts[-1] + 1, n - (w - k)))
    cuts.append(n)
    return [discs[i:j] for i, j in zip(cuts, cuts[1:])]


def _fork_worker(share: list[int]) -> tuple[int, BinaryIO]:
    """A child process that sends (True, class_numbers(share)), pickled over
    a pipe, or (False, exception) if it raises, and ends; returns its pid and
    the pipe's read end.  The child leaves only through os._exit, so it never
    flushes the parent's buffered output or runs its atexit handlers."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns at a fork with threads running (OpenBLAS
            # starts idle ones at numpy import); the child needs no lock of
            # theirs: class_numbers' numpy sieve calls no BLAS
            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    code = 1
    try:
        os.close(r)
        try:
            result = True, quadform.class_numbers(share)
        except Exception as exc:
            result = False, exc
        with open(w, "wb") as out:
            pickle.dump(result, out)
        code = 0
    finally:
        os._exit(code)


def _class_numbers_by_share(shares: list[list[int]]):
    """(discs, quadform.class_numbers(discs)) for every field of the shares,
    yielded in order.  Share 0 is computed by this process in batches of
    CENSUS_CHUNK fields, each when it is asked for; each other share by a
    forked child (_fork_worker) in one call while this one works.  A child's
    exception is raised here; a child that ends without a result raises
    RuntimeError.  Closing the generator, or its raising, kills and reaps
    every child."""
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork_worker(share))
        own = shares[0]
        for i in range(0, len(own), CENSUS_CHUNK):
            batch = own[i : i + CENSUS_CHUNK]
            yield batch, quadform.class_numbers(batch)
        for k, (share, (pid, pipe)) in enumerate(zip(shares[1:], children), 1):
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise RuntimeError(f"census worker {pid} ended without the class numbers of share {k}") from exc
            if not ok:
                raise value
            yield share, value
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL (9 in POSIX); importing signal costs ~1 ms
            os.waitpid(pid, 0)


def census(
    height_bound: int,
    sink: Optional[Callable[[CensusRecord], None]] = None,
    workers: int = 1,
) -> CensusSummary:
    """Run divisibility_check on every non-cusp imaginary t of bounded height;
    each record reaches `sink` in canonical order as soon as its h is known.

    The points are built once, here.  The distinct discriminants up to
    quadform.CLASS_NUMBER_DISC_CAP, in order of first appearance, are cut
    into contiguous shares of about equal cost (_census_shares), one for each
    of w processes, w at most `workers` and census_processes(), as many as
    the fields' cost repays (CENSUS_MIN_WORK each): this process computes
    share 0 in batches of CENSUS_CHUNK fields, each when a record first
    needs it, and w - 1 forked children the other shares at the same time,
    one quadform.class_numbers call each (_class_numbers_by_share).  So each
    field is sieved once, and the records do not depend on w.  The default
    forks nothing, as forking a threaded caller is not safe; the CLI passes
    census_processes().  No child outlives the call.  A record over the cap
    becomes an error row "Type: message": the census asks
    quadform.class_number for its h, whose cap check raises BudgetExceeded
    before it allocates.  A census discriminant is fundamental (d is
    squarefree, D = d or 4d), so any exception from class_numbers is a bug
    and propagates."""
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    summary = CensusSummary()
    points = _census_points(census_parameters(height_bound), height_bound)
    distinct = dict.fromkeys(p.disc for p in points)  # share 0 serves the first records
    hs = {D: None for D in distinct if -D > quadform.CLASS_NUMBER_DISC_CAP}
    results = _class_numbers_by_share(_census_shares([D for D in distinct if D not in hs], workers))
    try:
        for p in points:
            while p.disc not in hs:
                hs.update(zip(*next(results)))
            if (h := hs[p.disc]) is None:  # over the cap, where class_number raises
                try:
                    h = quadform.class_number(p.disc)
                except BudgetExceeded as exc:
                    summary.errors.append((p.t, f"{type(exc).__name__}: {exc}"))
                    continue
            rec = divisibility_check(p, h)
            summary.records += 1
            if rec.d == -15:
                summary.exceptions.append(p.t)
            elif not rec.div10:
                summary.violations.append(p.t)
            if sink is not None:
                sink(rec)
    finally:
        results.close()
    return summary


# ---------------------------------------------------------------------------
# the auxiliary sextic curve
# ---------------------------------------------------------------------------

def _sextic(z: Fraction) -> Fraction:
    return z**6 + z**5 - 5 * z**3 + z + 1


def y16_membership(z: Fraction, y: Fraction) -> bool:
    z, y = Fraction(z), Fraction(y)
    return y * y == _sextic(z)


def _x_num(z, y):  # the x-image is N(z, y)/D(z) - 1
    return (2 * z * z - 6 * z + 2) * y + (10 * z * z - 10 * z - 2)


def _x_den(z):
    return z**5 - 5 * z**4 + 5 * z**3 + 5 * z * z - 5 * z - 3


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
    N, D = _x_num(z, y), _x_den(z)
    if D != 0:
        return N / D - 1
    if N != 0:
        return None  # pole of the x-image
    Nbar = _x_num(z, -y)
    assert Nbar != 0
    return -4 * z * (z**4 - 5 * z + 5) / Nbar - 1


def _x_images_at_infinity() -> Optional[dict[int, Fraction]]:
    """x-images of the points at infinity, where y/z^3 -> +-Y, Y^2 the
    sextic's leading coefficient: N(z, +-Y z^3)/D(z) - 1 tends to the ratio
    of the leading coefficients, less 1, when the degrees agree.  None when
    they differ or Y is not rational."""
    z = MPolyZ.var("z")
    lc, D = _sextic(z).leading_coefficient(), _x_den(z)
    Y, images = isqrt(lc), {}
    for sign in (1, -1):
        N = _x_num(z, sign * Y * z**3)
        if Y * Y != lc or N.degree() != D.degree():
            return None
        images[sign] = Fraction(N.leading_coefficient(), D.leading_coefficient()) - 1
    return images


# the x-images at infinity that _x_images_at_infinity must derive: 2Y - 1
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
    if _x_images_at_infinity() != X_IMAGE_AT_INFINITY:
        return False
    # the finite x-images must hit the expected fields of the point table
    expected_fields = {
        Fraction(-3): -15,
        Fraction(1, 3): -15,
        Fraction(-242, 29): -2030,
        Fraction(29, 242): -2030,
    }
    for x, d in expected_fields.items():
        if point_from_t(x).d != d:
            return False
    return True


COROLLARY15_FIELDS = (-7161, -6711, -6503, -6095, -6005, -4847, -3503, -3199)


def corollary15_check(hs: dict[int, int]) -> bool:
    """5 does not divide h for the eight listed field constants; hs maps
    their discriminants to class numbers."""
    return all(hs[arith.fundamental_discriminant(d)] % 5 for d in COROLLARY15_FIELDS)
