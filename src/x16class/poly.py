"""Exact sparse multivariate polynomials over Z.

MPolyZ is a dict from exponent vectors to integer coefficients with a fixed
graded-lexicographic term order; this is all the computer algebra the
identity suite needs (degree <= 8, <= 4 variables), so no modular tricks.
Arithmetic in Z[alpha] = Z[a]/(m(a)), m monic, is MPolyZ arithmetic followed
by one remainder step, rem_monic.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Mapping, Sequence


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
                e = tuple(map(operator.add, e1, e2))
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
            k >>= 1
            if k:  # no square beyond the top bit
                base = base * base
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

    def rem_monic(self, var: str, m: "MPolyZ") -> "MPolyZ":
        """Remainder on division by m, monic in var with no other variables.

        Each var^k with k >= n = deg m is rewritten through var^n = var^n - m,
        highest k first, until every exponent of var is below n.  Over Z the
        remainder on division by a monic m is unique, so two polynomials agree
        modulo m exactly when their remainders are equal.
        """
        m = m.remap((var,))
        n = m.degree()
        if m.terms.get((n,)) != 1:
            raise ValueError(f"{m} is not monic in {var}")
        p = self._aligned(m)[0]
        i = p.variables.index(var)
        tail = [(e[0], -c) for e, c in m.terms.items() if e[0] < n]
        terms = dict(p.terms)
        for d in range(max((e[i] for e in terms), default=-1), n - 1, -1):
            for e in [e for e in terms if e[i] == d]:
                c = terms.pop(e)
                for k, t in tail:
                    f = e[:i] + (d - n + k,) + e[i + 1 :]
                    terms[f] = terms.get(f, 0) + c * t
        return MPolyZ(p.variables, terms)

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

# the n-ary operators of parse_prefix, each a left fold of its arguments
_FOLDS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


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
            if op == "-" and len(args) == 1:
                return -args[0]
            if op in _FOLDS:
                return reduce(_FOLDS[op], args)
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
