"""The parameter-to-class-group pipeline and the auxiliary sextic curve."""

import os
import pickle
import random
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from math import gcd, isqrt

import pytest

from x16class import arith, quadfield, quadform, x16
from x16class.errors import NotImaginary, NotOnCurve, SupportCollision
from x16class.poly import MPolyZ
from x16class.quadform import reduce_form
from x16class.x16 import (
    CUSPS,
    cl5_pullback,
    census,
    census_parameters,
    corollary15_check,
    divisibility_check,
    g_eval,
    h16_homogeneous,
    point_from_t,
    verify_prop34_points,
    y16_membership,
    y16_x_image,
)


def test_f16_and_cusps():
    assert h16_homogeneous(Fraction(-3), 1) == -60  # -15 * 2^2
    assert h16_homogeneous(Fraction(0), 1) == 0
    assert h16_homogeneous(Fraction(1), 1) == 4 and h16_homogeneous(Fraction(-1), 1) == 4
    for t in CUSPS:
        assert point_from_t(t).cusp


def test_point_from_t_field_constants():
    cases = {
        Fraction(-3): -15,
        Fraction(1, 3): -15,
        Fraction(-242, 29): -2030,
        Fraction(29, 242): -2030,
        Fraction(-5): -455,
        Fraction(-4): -119,
    }
    for t, d in cases.items():
        p = point_from_t(t)
        assert p.d == d, t
        assert h16_homogeneous(t.numerator, t.denominator) == d * p.m**2


def test_point_from_t_factors_h16(monkeypatch):
    """t = r/s is taken to Q(sqrt(d)) by factoring the pieces |r|, s,
    r^2+s^2 and |r^2+2rs-s^2| of h16(r, s), never h16 itself."""
    factored = []
    real_factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n, *a: factored.append(n) or real_factor(n, *a))
    p = point_from_t(Fraction(1, 3))
    assert factored == [1, 3, 10, 2]  # h16(1, 3) = 1 * 3 * 10 * (-2) = -60
    assert (p.d, p.m, p.fd.value()) == (-15, 2, -15)


def _fuzz_parameters(bits: int, count: int = 20) -> list[Fraction]:
    """count seeded census-style t = r/s: |r|, s below 2^bits, gcd(r, s) = 1
    and h16(r, s) < 0."""
    rng, ts = random.Random(bits), []
    while len(ts) < count:
        r, s = rng.randrange(1 - 2**bits, 2**bits), rng.randrange(1, 2**bits)
        if r and gcd(r, s) == 1 and h16_homogeneous(r, s) < 0:
            ts.append(Fraction(r, s))
    return ts


@pytest.mark.parametrize("bits", [30, 40])
def test_point_from_t_at_large_heights(bits):
    """Where h16 itself is out of the factoring budget's reach, its pieces
    are not: every point is built, and its pullback class is the one ideal
    factorisation gives."""
    for t in _fuzz_parameters(bits):
        p = point_from_t(t)
        assert h16_homogeneous(t.numerator, t.denominator) == p.d * p.m**2 and p.fd.value() == p.d, t
        e = g_eval(p)
        I = quadfield.nth_root_ideal(quadfield.factor_principal(e), 5)
        assert cl5_pullback(p).ideal_class_form == reduce_form(quadfield.ideal_to_form(I)), t


def test_points_carry_h16_as_d_m2():
    ts = census_parameters(60)
    assert len(ts) == 912
    for t in ts:
        p = point_from_t(t)
        assert h16_homogeneous(t.numerator, t.denominator) == p.d * p.m**2, t
        assert p.m > 0 and p.fd.value() == p.d, t
        assert arith.squarefree_part(p.d).m == 1, t


def test_g_eval_guards():
    """g_eval and cl5_pullback refuse cusps, t = 1 and real fields alike."""
    for fn in (g_eval, cl5_pullback):
        with pytest.raises(ValueError):
            fn(point_from_t(Fraction(0)))
        with pytest.raises(SupportCollision):
            fn(x16.X16Point(Fraction(1), 1, 0, False))
        with pytest.raises(NotImaginary):
            fn(point_from_t(Fraction(2)))  # f16(2) > 0


def test_g_norm_identity():
    """g(x, y) g(x, -y) = (x - 1)^10 / (x - 1)^10 ... i.e. the numerator
    identity B^2 - A^2 f16 = (x - 1)^10 that makes the ideal (g) a unit at
    every prime away from (x - 1)."""
    x = MPolyZ.var("x")
    A = -6 * x * x - 4 * x + 2
    B = x**5 + 13 * x**4 - 2 * x**3 + 10 * x * x - 7 * x + 1
    f16 = x * (x * x + 1) * (x * x + 2 * x - 1)
    assert B * B - A * A * f16 == (x - 1) ** 10


def _is_fifth_power(n: int) -> bool:
    r = round(abs(n) ** (1 / 5))
    return any((r + k) ** 5 == abs(n) for k in (-2, -1, 0, 1, 2))


def test_g_norm_is_a_fifth_power():
    for t in (Fraction(-5), Fraction(-3), Fraction(2, 7)):
        n = g_eval(point_from_t(t)).norm()
        assert _is_fifth_power(n.numerator) and _is_fifth_power(n.denominator), t


def test_pullback_orders_pinned():
    expected = {
        Fraction(-3): 1,
        Fraction(1, 3): 1,
        Fraction(-242, 29): 1,
        Fraction(29, 242): 1,
        Fraction(-5): 5,
        Fraction(-7): 5,
        Fraction(2, 7): 5,
        Fraction(-9, 2): 5,
    }
    for t, order in expected.items():
        res = cl5_pullback(point_from_t(t))
        assert res.order == order, t


BROKEN_UNDER_O = """
from x16class import quadfield, quadform, x16
assert False, "python -O strips assert statements"
p = x16.point_from_t(-5)
quadform._compose = lambda f, g, D: f  # f^4 = f, not f^-1
quadfield.valuation = lambda e, P: 1  # every prime above 3 counted once
checks = {"cl5_pullback": x16.cl5_pullback, "factor_principal": lambda p: quadfield.factor_principal(x16.g_eval(p))}
for name, check in checks.items():
    try:
        check(p)
    except AssertionError as exc:
        print(name, exc)
"""


def test_pullback_checks_survive_python_dash_O():
    """The checks a broken lemma must trip are not assert statements: with
    form composition and valuations broken, cl5_pullback and
    factor_principal raise AssertionError under python -O too."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(x16.__file__)), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-O", "-c", BROKEN_UNDER_O], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "cl5_pullback pullback class order must divide 5",
        "factor_principal norm bookkeeping failed: 9 != 1",
    ]


def test_pullback_matches_ideal_factorisation():
    """The closed form gives the reduced form of the fifth root of (g(P))
    computed by ideal factorisation, on both parities of r - s."""
    ts = census_parameters(60)
    odd = sum((t.numerator - t.denominator) % 2 for t in ts)
    assert (odd, len(ts) - odd) == (610, 302)
    for t in ts + [Fraction(-3), Fraction(1, 3), Fraction(-242, 29), Fraction(29, 242)]:
        p = point_from_t(t)
        e = g_eval(p)
        I = quadfield.nth_root_ideal(quadfield.factor_principal(e), 5)
        res = cl5_pullback(p)
        assert res.disc == e.disc, t
        assert res.ideal_class_form == reduce_form(quadfield.ideal_to_form(I)), t


def test_pullback_valuations_divisible_by_5():
    for t in (Fraction(-5), Fraction(-7), Fraction(-242, 29)):
        e = g_eval(point_from_t(t))
        F = quadfield.factor_principal(e)
        assert all(v % 5 == 0 for _, v in F.entries), t


def test_divisibility_check_t_minus_5(monkeypatch):
    p = point_from_t(Fraction(-5))
    # class_number decides the discriminant from its own sieve, so once
    # point_from_t has factored d, the check factors nothing
    factored = []
    real_factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n, *a: factored.append(n) or real_factor(n, *a))
    rec = divisibility_check(p, quadform.class_number(p.disc))
    assert factored == []  # d is factored once, by point_from_t
    assert (rec.d, rec.disc, rec.h, rec.two_rank) == (-455, -455, 20, 2)
    assert rec.five_order == 5 and rec.div10


def test_divisibility_check_rejects_what_cl5_pullback_rejects():
    """cl5_pullback's guard decides cusps, t = 1 and real fields, with its
    own errors; a point built without the factorisation of d (X16Point is
    public) is a ValueError."""
    with pytest.raises(ValueError):
        divisibility_check(point_from_t(Fraction(-1)), 1)
    with pytest.raises(NotImaginary):
        divisibility_check(point_from_t(Fraction(2)), 1)  # d = 70
    p = point_from_t(Fraction(-5))
    with pytest.raises(ValueError, match="d factored"):
        divisibility_check(x16.X16Point(p.t, p.d, p.m, False), 20)


def test_census_parameters_order_and_content():
    ts = census_parameters(5)
    assert all(h16_homogeneous(t, 1) < 0 and t not in CUSPS for t in ts)
    keys = [(abs(t.numerator) + t.denominator, t.numerator, t.denominator) for t in ts]
    assert keys == sorted(keys)
    # the integer bounds keep exactly the t that the Fraction f16 keeps, in
    # canonical order, at every height
    key = lambda t: (abs(t.numerator) + t.denominator, t.numerator, t.denominator)
    for height in (1, 2, 3, 7, 20, 33):
        by_fraction = {
            Fraction(r, s)
            for s in range(1, height + 1)
            for r in range(-height, height + 1)
            if gcd(r, s) == 1 and Fraction(r, s) not in CUSPS and h16_homogeneous(Fraction(r, s), 1) < 0
        }
        assert census_parameters(height) == sorted(by_fraction, key=key), height


def test_census_points_match_point_from_t():
    """The census reads the pieces of h16 off quadform's factor tables and
    carries point_from_t's d, m and fd on every parameter of heights 60 and
    100, with prime powers and primes above sqrt(2H^2) among the pieces'
    factors."""
    for height, count in ((60, 912), (100, 2522)):
        ts = census_parameters(height)
        assert len(ts) == count
        assert x16._census_points(ts, height) == [point_from_t(t) for t in ts], height


def test_census_factors_nothing(monkeypatch):
    """census(36) calls arith.factor zero times."""
    factored = []
    real_factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n, *a: factored.append(n) or real_factor(n, *a))
    summary = census(36)
    assert factored == [] and summary.records == 328


def test_census_height_10():
    records = []
    summary = census(10, records.append)
    assert summary.records == 26 and len(records) == 26
    assert sorted(summary.exceptions) == [Fraction(-3), Fraction(1, 3)]
    assert summary.violations == [] and summary.errors == []
    assert all(r.div10 for r in records if r.d != -15)


def _count_class_numbers(monkeypatch, stub=False):
    """Replace quadform.class_numbers by a wrapper that logs each batch it is
    sent; with stub, every h it returns is 0, for a census that only counts."""
    batches = []
    real = quadform.class_numbers

    def counting(discs):
        batches.append(list(discs))
        return [0] * len(discs) if stub else real(discs)

    monkeypatch.setattr(quadform, "class_numbers", counting)
    return batches


def test_census_sieves_each_field_once(monkeypatch):
    """class_numbers is sent every field of the census once: the serial
    census of height <= 100 makes one call of its 1 259 fields (h stubbed to
    0, as only the rows count)."""
    monkeypatch.setattr(x16, "census_processes", lambda: 1)
    batches = _count_class_numbers(monkeypatch, stub=True)
    census(100)
    fields = {p.disc for p in x16._census_points(census_parameters(100), 100)}
    assert [len(batch) for batch in batches] == [len(fields)] == [1259] and set(batches[0]) == fields


def test_census_over_cap_records_only_become_errors(monkeypatch):
    """With the cap at 2^20, the 35 fields of height <= 20 below it go to
    class_numbers in one batch, and exactly the 30 records whose field is
    above it become BudgetExceeded rows: each asks class_number, whose
    one-field call raises at the cap check."""
    monkeypatch.setattr(quadform, "CLASS_NUMBER_DISC_CAP", 2**20)
    batches = _count_class_numbers(monkeypatch)
    summary = census(20)
    first, *single = batches
    assert len(first) == 35 and max(-D for D in first) <= 2**20
    over = [p for p in x16._census_points(census_parameters(20), 20) if -p.disc > 2**20]
    assert single == [[p.disc] for p in over] and len(over) == 30
    assert summary.records == 74 and [t for t, _ in summary.errors] == [p.t for p in over]
    assert all(msg.startswith("BudgetExceeded: |disc| = ") for _, msg in summary.errors)


def test_census_streams_records(monkeypatch):
    """A record reaches the sink as soon as its class number is known: on 2
    processes, the first record arrives before the child's result is read,
    and the records come in census_parameters order."""
    monkeypatch.setattr(x16, "census_processes", lambda: 2)
    monkeypatch.setattr(x16, "CENSUS_MIN_WORK", 1)
    events, real_load = [], pickle.load
    monkeypatch.setattr(pickle, "load", lambda f: events.append("load") or real_load(f))
    records = []
    census(20, lambda rec: records.append(rec) or events.append("record"))
    _no_child_left()
    assert events.index("record") < events.index("load") and events.count("load") == 1
    assert [rec.t for rec in records] == census_parameters(20)


def test_census_processes(monkeypatch):
    """The CPUs this process may use; os.cpu_count() where the OS reports no
    affinity (macOS), 1 if that is unknown too, os.fork is missing or
    another thread runs.  On 2 CPUs, census(36) forks nothing while a
    second thread waits, and one child once it has ended; the records are
    the same, and no child is left."""
    if hasattr(os, "sched_getaffinity"):
        assert x16.census_processes() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    serial, records = [], []
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert x16.census_processes() == 1
        census(36, serial.append)
    finally:
        release.set()
        waiting.join()
    assert forks == [] and x16.census_processes() == 2
    census(36, records.append)
    _no_child_left()
    assert len(forks) == 1 and records == serial and len(records) == 328
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert x16.census_processes() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert x16.census_processes() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.setattr(x16, "FORK", False)  # as where os.fork is missing
    assert x16.census_processes() == 1


@pytest.mark.parametrize(
    "height, processes, min_work, sizes",
    [
        (36, 2, None, [118, 44]),
        (36, 8, None, [118, 44]),  # 394 592 of cost repays 2 processes
        (50, 3, None, [186, 65, 68]),
        (8, 4, None, [8]),  # 403 repays no fork
        (100, 2, None, [901, 358]),
        (20, 3, 1, [29, 12, 9]),
    ],
)
def test_census_shares(monkeypatch, height, processes, min_work, sizes):
    """_census_shares puts every field in exactly one share, in order of
    first appearance (so share 0 holds the first fields), at least one each.
    There is one share per process, up to `processes`, as many as give each
    CENSUS_MIN_WORK of the summed isqrt(|D| // 3), and each is within two
    fields' cost of an equal share."""
    if min_work is not None:
        monkeypatch.setattr(x16, "CENSUS_MIN_WORK", min_work)
    discs = list(dict.fromkeys(p.disc for p in x16._census_points(census_parameters(height), height)))
    shares = x16._census_shares(discs, processes)
    assert [D for share in shares for D in share] == discs
    assert [len(share) for share in shares] == sizes
    cost = {D: isqrt(-D // 3) for D in discs}
    total, n = sum(cost.values()), len(discs)
    assert len(shares) == max(1, min(processes, n, total // x16.CENSUS_MIN_WORK))
    for share in shares:
        assert abs(sum(cost[D] for D in share) - total / len(shares)) <= 2 * max(cost.values())
    assert x16._census_shares(discs[:1], processes) == [discs[:1]]
    assert x16._census_shares([], processes) == [[]]
    assert len(x16._census_shares(discs, 2)) == min(len(sizes), 2)
    assert x16._census_shares(discs, 1) == [discs]  # one CPU, no os.fork, or another thread running


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_census_workers(monkeypatch):
    """On c CPUs the census forks at most c - 1 children, one per share
    after the first, and only for fields whose cost repays them (none where
    os.fork is missing); it gives the records of the serial census,
    and leaves no child, whether it returns or raises.  An exception in a
    child is raised in the parent with its type; a child that ends without a
    result is a RuntimeError naming its share.  The warning that Python >=
    3.12 gives at a fork with threads running is not raised."""
    real_processes = x16.census_processes
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    cases = ((20, 2, 1, 1), (20, 4, 1, 3), (4, 4, 1, 1), (3, 4, 1, 0), (20, 4, None, 0), (36, 4, None, 1))
    for height, cpus, min_work, children in cases:
        monkeypatch.setattr(x16, "CENSUS_MIN_WORK", min_work or 150_000)
        serial, records = [], []
        monkeypatch.setattr(x16, "census_processes", lambda: 1)
        census(height, serial.append)
        monkeypatch.setattr(x16, "census_processes", lambda: cpus)
        forks.clear()
        census(height, records.append)
        _no_child_left()
        assert len(forks) == children and records == serial, (height, cpus)

    def warning_fork():
        pid = real_fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)  # as Python >= 3.12 with OpenBLAS threads
    assert census(36).records == 328
    _no_child_left()

    parent, real = os.getpid(), quadform.class_numbers

    def failing(discs):
        if os.getpid() != parent:
            raise ZeroDivisionError("in the child")
        return real(discs)

    monkeypatch.setattr(quadform, "class_numbers", failing)
    with pytest.raises(ZeroDivisionError, match="in the child"):
        census(36)
    _no_child_left()

    def dying(discs):
        if os.getpid() != parent:
            os._exit(3)
        return real(discs)

    monkeypatch.setattr(quadform, "class_numbers", dying)
    with pytest.raises(RuntimeError, match="share 1"):
        census(36)
    _no_child_left()

    monkeypatch.setattr(x16, "census_processes", real_processes)
    monkeypatch.setattr(x16, "FORK", False)  # as where os.fork is missing
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    forks.clear()
    assert census(36).records == 328 and forks == []  # no share met `dying` in a child


def test_census_call_pattern(tmp_path, monkeypatch):
    """At height 100 on 2 processes, this one computes share 0 (901 fields)
    and one child share 1 (358 fields), each in one class_numbers call.  Each call appends "pid n" to a
    file, the one way a child can report it (h stubbed to 0)."""
    monkeypatch.setattr(x16, "census_processes", lambda: 2)
    log = tmp_path / "calls"

    def logged(discs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {len(discs)}\n")
        return [0] * len(discs)

    monkeypatch.setattr(quadform, "class_numbers", logged)
    census(100)
    _no_child_left()
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert [n for pid, n in calls if pid == os.getpid()] == [901]
    assert [n for pid, n in calls if pid != os.getpid()] == [358]


def test_census_child_result_beyond_pipe_buffer(monkeypatch):
    """A child's one pickle may exceed the pipe's buffer: with every h
    stubbed to 10^1000, share 1 at height 100 (358 fields) pickles to about
    150 kB, and the child blocks on its write until this process reads it.
    The census completes with those class numbers and leaves no child."""
    monkeypatch.setattr(x16, "census_processes", lambda: 2)
    monkeypatch.setattr(quadform, "class_numbers", lambda discs: [10**1000] * len(discs))
    records = []
    summary = census(100, records.append)
    _no_child_left()
    assert summary.records == len(records) == len(census_parameters(100))
    assert all(rec.h == 10**1000 for rec in records)


def test_y16_membership_and_images():
    assert y16_membership(Fraction(3), Fraction(29))
    assert not y16_membership(Fraction(3), Fraction(28))
    assert y16_x_image(Fraction(3), Fraction(29)) is None  # pole
    assert y16_x_image(Fraction(3), Fraction(-29)) == Fraction(-242, 29)
    assert y16_x_image(Fraction(0), Fraction(1)) == -1
    assert y16_x_image(Fraction(0), Fraction(-1)) == Fraction(1, 3)
    assert y16_x_image(Fraction(1, 3), Fraction(29, 27)) == 0
    assert y16_x_image(Fraction(1, 3), Fraction(-29, 27)) == Fraction(29, 242)
    with pytest.raises(NotOnCurve):
        y16_x_image(Fraction(1), Fraction(1))


def test_prop34_and_corollary15():
    assert verify_prop34_points()
    discs = [arith.fundamental_discriminant(d) for d in x16.COROLLARY15_FIELDS]
    assert corollary15_check(dict(zip(discs, quadform.class_numbers(discs))))


def test_x_images_at_infinity_are_derived(monkeypatch):
    """The images at infinity come from the leading coefficients of N and D,
    so a wrong table entry fails the point check.  Along y = +-z^3, which
    the curve approaches, N/D - 1 tends to them."""
    assert x16._x_images_at_infinity() == {1: 1, -1: -3}
    z = Fraction(10**9)
    for sign, image in x16.X_IMAGE_AT_INFINITY.items():
        assert abs(x16._x_num(z, sign * z**3) / x16._x_den(z) - 1 - image) < Fraction(1, 10**8)
    monkeypatch.setattr(x16, "X_IMAGE_AT_INFINITY", {1: Fraction(1), -1: Fraction(-1)})
    assert not verify_prop34_points()
