"""Exact sparse multivariate polynomials over Z and arithmetic in Q(alpha).

MPolyZ is a dict from exponent vectors to integer coefficients with a fixed
graded-lexicographic term order; this is all the computer algebra the
identity suite needs (degree <= 8, <= 4 variables), so no modular tricks.

NFElem/UPolyNF provide Q[x]/(m(x)) and univariate polynomials over it, used
to multiply out the factorization of the hyperelliptic sextic over Q(alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class MPolyZ:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], int]):
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors -----------------------------------------------------
    @staticmethod
    def const(c: int, variables: Sequence[str] = ()) -> "MPolyZ":
        n = len(variables)
        return MPolyZ(variables, {(0,) * n: int(c)} if c else {})

    @staticmethod
    def var(name: str) -> "MPolyZ":
        return MPolyZ((name,), {(1,): 1})

    # -- canonicalization --------------------------------------------------
    def _aligned(self, other: "MPolyZ") -> tuple["MPolyZ", "MPolyZ"]:
        if self.variables == other.variables:
            return self, other
        allvars = tuple(sorted(set(self.variables) | set(other.variables)))
        return self.remap(allvars), other.remap(allvars)

    def remap(self, variables: Sequence[str]) -> "MPolyZ":
        variables = tuple(variables)
        if variables == self.variables:
            return self
        idx = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v} missing from target")
            idx.append(variables.index(v))
        n = len(variables)
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for i, exp in enumerate(e):
                ne[idx[i]] = exp
            key = tuple(ne)
            terms[key] = terms.get(key, 0) + c
        return MPolyZ(variables, terms)

    # -- ring operations ---------------------------------------------------
    def __add__(self, other) -> "MPolyZ":
        if isinstance(other, int):
            other = MPolyZ.const(other, self.variables)
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPolyZ(a.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "MPolyZ":
        return MPolyZ(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPolyZ":
        if isinstance(other, int):
            other = MPolyZ.const(other, self.variables)
        return self + (-other)

    def __rsub__(self, other) -> "MPolyZ":
        return (-self) + other

    def __mul__(self, other) -> "MPolyZ":
        if isinstance(other, int):
            return MPolyZ(self.variables, {e: c * other for e, c in self.terms.items()})
        a, b = self._aligned(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MPolyZ(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPolyZ":
        if k < 0:
            raise ValueError("negative power")
        result = MPolyZ.const(1, self.variables)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MPolyZ.const(other, self.variables)
        if not isinstance(other, MPolyZ):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def leading_coefficient(self) -> int:
        """Coefficient of the graded-lex leading term (0 for zero poly)."""
        if not self.terms:
            return 0
        e = max(self.terms, key=_grlex_key)
        return self.terms[e]

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            t = Fraction(c)
            for v, exp in zip(self.variables, e):
                if exp:
                    t *= Fraction(values[v]) ** exp
            total += t
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e)
                if k
            )
            if mono:
                coef = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                bits.append(f"{coef}{mono}")
            else:
                bits.append(str(c))
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    __repr__ = __str__


def verify_identity(lhs: MPolyZ, rhs: MPolyZ) -> bool:
    return (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# prefix-syntax expression parser for the claim registry
# ---------------------------------------------------------------------------

def parse_prefix(text: str) -> MPolyZ:
    """Parse a prefix expression like ``(+ (^ r 2) (* 2 r s))`` into MPolyZ.

    Grammar: atom = integer | symbol; form = (op arg...) with op in + - * ^;
    ``-`` with one argument negates.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> MPolyZ:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            op = tokens[pos]
            pos += 1
            args = []
            while tokens[pos] != ")":
                args.append(parse())
            pos += 1
            if op == "+":
                r = args[0]
                for a in args[1:]:
                    r = r + a
                return r
            if op == "-":
                if len(args) == 1:
                    return -args[0]
                r = args[0]
                for a in args[1:]:
                    r = r - a
                return r
            if op == "*":
                r = args[0]
                for a in args[1:]:
                    r = r * a
                return r
            if op == "^":
                base, expo = args
                if expo.degree() != 0:
                    raise ValueError("exponent must be a constant")
                k = expo.leading_coefficient() if expo.terms else 0
                return base**k
            raise ValueError(f"unknown operator {op!r}")
        if tok == ")":
            raise ValueError("unexpected )")
        try:
            return MPolyZ.const(int(tok))
        except ValueError:
            return MPolyZ.var(tok)

    result = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return result


# ---------------------------------------------------------------------------
# number field Q[x]/(m(x)) and univariate polynomials over it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NFElem:
    """Element of Q[x]/(m(x)) for a monic integer minimal polynomial m.

    minpoly lists the coefficients of m from constant to leading 1;
    coords are the rational coefficients of 1, alpha, ..., alpha^(n-1).
    """

    minpoly: tuple[int, ...]
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.minpoly) - 1
        if self.minpoly[-1] != 1:
            raise ValueError("minpoly must be monic")
        if len(self.coords) != n:
            raise ValueError("coords length must equal degree of minpoly")

    @staticmethod
    def make(minpoly: Sequence[int], coords: Sequence[Scalar]) -> "NFElem":
        n = len(minpoly) - 1
        cs = [Fraction(c) for c in coords]
        cs += [Fraction(0)] * (n - len(cs))
        return NFElem(tuple(minpoly), tuple(cs[:n]))

    @staticmethod
    def rational(minpoly: Sequence[int], q: Scalar) -> "NFElem":
        return NFElem.make(minpoly, [Fraction(q)])

    @staticmethod
    def gen(minpoly: Sequence[int]) -> "NFElem":
        return NFElem.make(minpoly, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: "NFElem"):
        if self.minpoly != other.minpoly:
            raise ValueError("minpoly mismatch")

    def __add__(self, other: "NFElem") -> "NFElem":
        self._check(other)
        return NFElem(self.minpoly, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "NFElem") -> "NFElem":
        self._check(other)
        return NFElem(self.minpoly, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "NFElem":
        return NFElem(self.minpoly, tuple(-a for a in self.coords))

    def __mul__(self, other: "NFElem") -> "NFElem":
        self._check(other)
        n = self.degree
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    prod[i + j] += a * b
        # reduce degrees >= n using x^n = -(m_0 + m_1 x + ... + m_{n-1}x^{n-1})
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c == 0:
                continue
            prod[k] = Fraction(0)
            for i in range(n):
                prod[k - n + i] -= c * self.minpoly[i]
        return NFElem(self.minpoly, tuple(prod[:n]))

    def inverse(self) -> "NFElem":
        """Extended Euclid in Q[x] against the (irreducible) minpoly."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in number field")
        # polynomials as coefficient lists, constant first
        a = [Fraction(c) for c in self.minpoly]
        b = list(self.coords)
        while b and b[-1] == 0:
            b.pop()
        # invariants: s*self = b (mod minpoly)
        s_prev: list[Fraction] = []
        s_cur: list[Fraction] = [Fraction(1)]

        def polydivmod(u, v):
            u = list(u)
            q = [Fraction(0)] * max(len(u) - len(v) + 1, 0)
            while len(u) >= len(v) and any(u):
                while u and u[-1] == 0:
                    u.pop()
                if len(u) < len(v):
                    break
                c = u[-1] / v[-1]
                d = len(u) - len(v)
                q[d] = c
                for i, vc in enumerate(v):
                    u[i + d] -= c * vc
                u.pop()
            return q, u

        def polysub(u, v):
            out = list(u) + [Fraction(0)] * max(0, len(v) - len(u))
            for i, c in enumerate(v):
                out[i] -= c
            while out and out[-1] == 0:
                out.pop()
            return out

        def polymul(u, v):
            out = [Fraction(0)] * (len(u) + len(v) - 1) if u and v else []
            for i, uc in enumerate(u):
                if uc:
                    for j, vc in enumerate(v):
                        out[i + j] += uc * vc
            return out

        while b:
            q, r = polydivmod(a, b)
            a, b = b, r
            while b and b[-1] == 0:
                b.pop()
            s_prev, s_cur = s_cur, polysub(s_prev, polymul(q, s_cur))
        # now a = gcd (a nonzero constant since minpoly is irreducible)
        if len(a) != 1:
            raise ValueError("minpoly is not irreducible over Q")
        inv = [c / a[0] for c in s_prev]
        return NFElem.make(self.minpoly, inv)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class UPolyNF:
    """Univariate polynomial over a shared number field, constant term first."""

    minpoly: tuple[int, ...]
    coeffs: tuple[NFElem, ...]

    @staticmethod
    def make(minpoly: Sequence[int], coeffs: Sequence) -> "UPolyNF":
        mp = tuple(minpoly)
        cs = []
        for c in coeffs:
            if isinstance(c, NFElem):
                cs.append(c)
            elif isinstance(c, (list, tuple)):
                cs.append(NFElem.make(mp, c))
            else:
                cs.append(NFElem.rational(mp, c))
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        return UPolyNF(mp, tuple(cs))

    def __mul__(self, other: "UPolyNF") -> "UPolyNF":
        if self.minpoly != other.minpoly:
            raise ValueError("minpoly mismatch")
        zero = NFElem.rational(self.minpoly, 0)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPolyNF.make(self.minpoly, out)

    def is_rational(self) -> bool:
        return all(all(c == 0 for c in e.coords[1:]) for e in self.coeffs)

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        if not self.is_rational():
            raise ValueError("polynomial has irrational coefficients")
        return tuple(e.coords[0] for e in self.coeffs)
