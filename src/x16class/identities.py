"""Registry of the algebraic claims behind the even-part descent.

Every claim that is decidable by exact polynomial or residue arithmetic is
re-proved here from scratch: polynomial identities (read verbatim from
data/identities.txt), the parametrization substitutions, the two congruence
obstructions, and every printed rational point membership.  Claims that rest
on a Mordell-Weil rank computation or Chabauty's method are registered with
status "external" so they are never silently skipped and never reported as
a pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

from .errors import UnknownClaim
from .poly import MPolyZ, parse_prefix, verify_identity


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str  # identity | substitution | congruence | membership | external
    description: str
    check: Optional[Callable[[], bool]] = None  # None for external claims


@dataclass(frozen=True)
class ClaimResult:
    id: str
    kind: str
    status: str  # pass | fail | external
    description: str
    elapsed: float


# ---------------------------------------------------------------------------
# shared polynomial data (the printed curve equations)
# ---------------------------------------------------------------------------

def _oct9(v):
    return v**8 + 8 * v**7 - 20 * v**6 - 8 * v**5 - 26 * v**4 - 8 * v**3 - 20 * v**2 + 8 * v + 1


def _oct11(v, w):
    return v**8 - 8 * v**6 * w**2 - 24 * v**4 * w**4 + 32 * v**2 * w**6 + 16 * w**8


def _oct13(v, w):
    return 16 * v**8 - 32 * v**6 * w**2 - 24 * v**4 * w**4 + 8 * v**2 * w**6 + w**8


def _oct15(v, w):
    return (
        v**8 - 8 * v**7 * w - 12 * v**6 * w**2 + 56 * v**5 * w**3 - 122 * v**4 * w**4
        + 136 * v**3 * w**5 - 76 * v**2 * w**6 + 72 * v * w**7 - 31 * w**8
    )


def _oct17(v, w):
    return (
        -17 * v**8 - 104 * v**7 * w - 132 * v**6 * w**2 - 72 * v**5 * w**3
        - 22 * v**4 * w**4 + 40 * v**3 * w**5 + 28 * v**2 * w**6 + 8 * v * w**7 - w**8
    )


def _h1h2(r, s):
    return (r * r + s * s) * (r * r + 2 * r * s - s * s)


# ---------------------------------------------------------------------------
# substitution claims
# ---------------------------------------------------------------------------

def _check_claim9() -> bool:
    """Pythagorean branch r = m^2-n^2, s = 2mn with m = k(v^2+1), n = 2kv:
    the remaining quadric h2(r, s) becomes exactly k^4 times the degree-8
    target curve."""
    k, v = MPolyZ.var("k"), MPolyZ.var("v")
    m = k * (v**2 + 1)
    n = 2 * k * v
    r = m * m - n * n
    s = 2 * m * n
    h2 = r * r + 2 * r * s - s * s
    return h2 == k**4 * _oct9(v)


def _check_claim15() -> bool:
    """Branch r = 2mn, s = m^2-n^2 with u^2 = 2mn: writing {m, n} as
    {v^2, 2w^2} in the two possible orders turns -h2(r, s) into the two
    degree-8 targets, which the scaling v -> 2v identifies."""
    v, w = MPolyZ.var("v"), MPolyZ.var("w")
    ok = True
    for mm, nn, target in ((v * v, 2 * w * w, _oct11(v, w)), (2 * v * v, w * w, _oct13(v, w))):
        r = 2 * mm * nn
        s = mm * mm - nn * nn
        h2 = r * r + 2 * r * s - s * s
        ok = ok and (h2 == -1 * target)
    # the scaling map identifying the two targets, as an exact identity
    two_v = 2 * MPolyZ.var("v")
    ok = ok and (_oct11(two_v, MPolyZ.const(1)) == 16 * _oct13(MPolyZ.var("v"), MPolyZ.const(1)))
    return ok


def _check_claim21() -> bool:
    """Branch r = f1, s = f2 with u = k(v^2-2vw-w^2), n = k(2vw-2w^2),
    m = k(v^2+w^2): h1 h2 becomes exactly 4 (m^2+n^2)^2 k^4 times the
    degree-8 target."""
    k, v, w = MPolyZ.var("k"), MPolyZ.var("v"), MPolyZ.var("w")
    m = k * (v * v + w * w)
    n = k * (2 * v * w - 2 * w * w)
    f1 = m * m - 2 * m * n - n * n
    f2 = m * m + 2 * m * n - n * n
    Z = m * m + n * n
    return _h1h2(f1, f2) == 4 * Z * Z * k**4 * _oct15(v, w)


def _check_claim27() -> bool:
    """Branch r = f1/2, s = f2/2 with n = k(v^2+2vw-w^2) and
    m = n + 2k(v^2+w^2): before dividing by 2, h1 h2 at (f1, f2) becomes
    exactly 16 (m^2+n^2)^2 k^4 times the degree-8 target, which is the
    printed 4 z^2 k^4 statement for r, s themselves."""
    k, v, w = MPolyZ.var("k"), MPolyZ.var("v"), MPolyZ.var("w")
    n = k * (v * v + 2 * v * w - w * w)
    m = n + 2 * k * (v * v + w * w)
    f1 = m * m - 2 * m * n - n * n
    f2 = m * m + 2 * m * n - n * n
    Z = m * m + n * n
    return _h1h2(f1, f2) == 16 * Z * Z * k**4 * _oct17(v, w)


def _check_g1g2() -> bool:
    """The degree-6 curve polynomial factors over Q(alpha) with
    alpha^3 - alpha^2 + 2 alpha + 2 = 0 as the product of the printed
    quadratic and quartic.  Both factors lie in Z[alpha][z] = Z[a, z]/(m),
    and the remainder on division by the monic m is unique, so the identity
    holds exactly when the product's remainder is the sextic itself."""
    a, z = MPolyZ.var("a"), MPolyZ.var("z")
    g1 = z**2 + (-1 + a - a**2) * z + 1
    c3 = a**2 - a + 2
    c2 = a**2 - 3 * a + 3
    g2 = z**4 + c3 * z**3 + c2 * z**2 + c3 * z + 1
    m = a**3 - a**2 + 2 * a + 2
    return (g1 * g2).rem_monic("a", m) == z**6 + z**5 - 5 * z**3 + z + 1


# ---------------------------------------------------------------------------
# congruence claims
# ---------------------------------------------------------------------------

def _e6_residues(modulus: int) -> tuple[set, set]:
    lhs = {(y * y) % modulus for y in range(modulus)}
    rhs = set()
    for u in range(modulus):
        for v in range(modulus):
            if u % 2 == 0 and v % 2 == 0:
                continue
            rhs.add((2 * (u**4 - 2 * u * u * v * v - v**4)) % modulus)
    return lhs, rhs


def _check_claim4() -> bool:
    """y^2 = 2(u^4 - 2u^2v^2 - v^4) is insoluble mod 16 for 2 not dividing
    gcd(u, v): squares are {0,1,4,9} while the right side is {2,12,14}."""
    lhs, rhs = _e6_residues(16)
    return lhs == {0, 1, 4, 9} and rhs == {2, 12, 14} and not (lhs & rhs)


def _check_f1_mod4() -> bool:
    """4 never divides m^2 - 2mn - n^2 for coprime m, n."""
    for m in range(4):
        for n in range(4):
            if m % 2 == 0 and n % 2 == 0:
                continue  # coprime m, n cannot both be even
            if (m * m - 2 * m * n - n * n) % 4 == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# membership claims
# ---------------------------------------------------------------------------

def _on(points, rhs) -> bool:
    return all(y * y == rhs(x) for x, y in points)


_MEMBERSHIPS: dict[str, tuple[str, Callable[[], bool]]] = {
    "claim3": (
        "listed points lie on the two quartics y^2 = (u^4+v^4) and 2(u^4+v^4)",
        lambda: all(
            y * y == u**4 + v**4 for u, y, v in ((0, 1, 1), (0, -1, 1), (1, 1, 0), (1, -1, 0))
        )
        and all(
            y * y == 2 * (u**4 + v**4)
            for u, y, v in ((1, 2, 1), (1, -2, 1), (-1, 2, 1), (-1, -2, 1))
        ),
    ),
    "claim7": (
        "(1 : +-1 : 0) lies on y^2 = u^4 + 2u^2v^2 - v^4 and u^4 - 2u^2v^2 - v^4",
        lambda: all(
            y * y == u**4 + 2 * u * u * v * v - v**4 for u, y, v in ((1, 1, 0), (1, -1, 0))
        )
        and all(
            y * y == u**4 - 2 * u * u * v * v - v**4 for u, y, v in ((1, 1, 0), (1, -1, 0))
        ),
    ),
    "sec5.base_points": (
        "base points (1:1:0), (1:2:1), (1:1:0) on the three remaining quartics",
        lambda: 1 == 1**4 + 2 * 1 * 0 - 0**4
        and 4 == 2 * (1**4 + 2 * 1 * 1 - 1**4)
        and 1 == 1**4 - 2 * 1 * 0 - 0**4,
    ),
    "claim12": (
        "(0,0), (-1,+-2) lie on y^2 = x^5 + 4x^4 - 6x^3 - 4x^2 + x",
        lambda: _on(
            [(0, 0), (-1, 2), (-1, -2)],
            lambda x: x**5 + 4 * x**4 - 6 * x**3 - 4 * x**2 + x,
        ),
    ),
    "sec5.c9_points": (
        "(0, +-1) lie on the first degree-8 curve",
        lambda: _on([(0, 1), (0, -1)], _oct9),
    ),
    "sec5.c10_points": (
        "(+-1, +-8) lie on the negated first degree-8 curve",
        lambda: _on([(1, 8), (1, -8), (-1, 8), (-1, -8)], lambda v: -_oct9(v)),
    ),
    "claim18": (
        "(0,0) lies on y^2 = 2x^5 - 8x^4 - 12x^3 + 8x^2 + 2x",
        lambda: _on([(0, 0)], lambda x: 2 * x**5 - 8 * x**4 - 12 * x**3 + 8 * x**2 + 2 * x),
    ),
    "claim19": (
        "(0, +-4) lie on the second degree-8 curve",
        lambda: _on([(0, 4), (0, -4)], lambda v: _oct11(v, 1)),
    ),
    "claim25": (
        "(1, +-4) lie on the third degree-8 curve",
        lambda: _on([(1, 4), (1, -4)], lambda v: _oct15(v, 1)),
    ),
    "claim32": (
        "(0, +-1) and (-1, +-4) lie on the negated fourth degree-8 curve",
        lambda: _on([(0, 1), (0, -1), (-1, 4), (-1, -4)], lambda v: -_oct17(v, 1)),
    ),
}


# ---------------------------------------------------------------------------
# external claims (Mordell-Weil rank / Chabauty dependent; never "pass")
# ---------------------------------------------------------------------------

_EXTERNAL: dict[str, str] = {
    "claim1": "rank 0 of the two quartic curves (Mordell-Weil computation)",
    "claim2": "torsion subgroups (Z/2)^2 of the two quartic curves",
    "claim5": "ranks 0, 1, 0 of the three remaining quartic curves",
    "claim6": "torsion subgroup Z/2 of the three remaining quartic curves",
    "claim8": "rank 1 of both degree-8 Jacobian quotients",
    "claim10": "degree-2 maps from the first pair of degree-8 curves to the genus-2 quintic",
    "claim11": "Mordell-Weil group Z/2 x Z of the first genus-2 Jacobian",
    "claim16": "degree-2 maps from the second pair of degree-8 curves to their genus-2 quintic",
    "claim17": "rank 0 of the second genus-2 Jacobian",
    "claim20": "the two pulled-back points on the negated curve have degree 2",
    "claim22": "degree-2 maps from the third pair of degree-8 curves to their genus-2 sextic",
    "claim23": "Mordell-Weil group Z/2 x Z of the third genus-2 Jacobian",
    "claim24": "Chabauty point list of the third genus-2 curve (two points at infinity)",
    "claim26": "the third negated degree-8 curve has no rational points",
    "claim28": "degree-2 maps from the fourth pair of degree-8 curves to their genus-2 sextic",
    "claim29": "Mordell-Weil group Z/2 x Z of the fourth genus-2 Jacobian",
    "claim30": "Chabauty point list of the fourth genus-2 curve (two points at infinity)",
    "claim31": "the fourth degree-8 curve has no rational points (Chabauty-dependent)",
}


# ---------------------------------------------------------------------------
# registry assembly
# ---------------------------------------------------------------------------

def _load_identity_file() -> list[tuple[str, str, str]]:
    text = resources.files("x16class").joinpath("data/identities.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cid, lhs, rhs = (part.strip() for part in line.split("|"))
        rows.append((cid, lhs, rhs))
    return rows


def _identity_check(lhs: str, rhs: str) -> Callable[[], bool]:
    return lambda: verify_identity(parse_prefix(lhs), parse_prefix(rhs))


def registry() -> list[Claim]:
    claims = []
    for cid, lhs, rhs in _load_identity_file():
        claims.append(Claim(cid, "identity", f"{lhs} = {rhs}", _identity_check(lhs, rhs)))
    claims += [
        Claim("claim4", "congruence", "mod-16 obstruction for the sixth quartic", _check_claim4),
        Claim("sec5.f1_mod4", "congruence", "4 never divides f1 for coprime m, n", _check_f1_mod4),
        Claim("claim9", "substitution", "Pythagorean branch i reproduces the first degree-8 curve", _check_claim9),
        Claim("claim15", "substitution", "Pythagorean branch ii reproduces the second pair of degree-8 curves", _check_claim15),
        Claim("claim21", "substitution", "half-integer branch i reproduces the third degree-8 curve", _check_claim21),
        Claim("claim27", "substitution", "half-integer branch ii reproduces the fourth degree-8 curve", _check_claim27),
        Claim("sec3.g1g2", "substitution", "the auxiliary sextic factors over the cubic field", _check_g1g2),
    ]
    for cid, (desc, check) in _MEMBERSHIPS.items():
        claims.append(Claim(cid, "membership", desc, check))
    for cid, desc in sorted(_EXTERNAL.items()):
        claims.append(Claim(cid, "external", desc, None))
    return claims


def find_claim(cid: str) -> Claim:
    for c in registry():
        if c.id == cid:
            return c
    raise UnknownClaim(f"no registered claim with id {cid!r}")


def verify_claim(c: Claim) -> ClaimResult:
    start = time.perf_counter()
    if c.check is None:
        status = "external"
    else:
        status = "pass" if c.check() else "fail"
    return ClaimResult(c.id, c.kind, status, c.description, time.perf_counter() - start)


def verify_all(only: Optional[str] = None) -> list[ClaimResult]:
    if only is not None:
        return [verify_claim(find_claim(only))]
    return [verify_claim(c) for c in registry()]

