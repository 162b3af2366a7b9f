"""Integer factorization, primality, squarefree parts and modular square roots.

Everything downstream (form enumeration, ideal factorization, the height
census) sits on these primitives, so they are kept exact and deterministic:
Brent rho draws from an RNG seeded through the effort budget.  Primality is
deterministic Miller-Rabin below DETERMINISTIC_BOUND and BPSW above it;
``rounds`` adds random-base Miller-Rabin rounds after BPSW.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple, Optional

from .errors import IncompleteFactorization, NotSquarefree

# Miller-Rabin with this witness set is deterministic below this bound
# (Sorenson & Webster).
DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class FactorBudget:
    """Effort descriptor for the factorization pipeline."""

    trial_bound: int = 10_000
    rho_iterations: int = 500_000
    rng_seed: int = 1

    def rng(self) -> random.Random:
        return random.Random(self.rng_seed)


DEFAULT_BUDGET = FactorBudget()


@dataclass(frozen=True)
class FactoredInt:
    """A nonzero integer as sign * prod(p^e) (* cofactor when incomplete)."""

    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.cofactor is None

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        if self.cofactor is not None:
            n *= self.cofactor
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor is not None:
            parts.append(f"C{self.cofactor}")
        body = " * ".join(parts) if parts else "1"
        return ("-" if self.sign < 0 else "") + body


def _strong_mr(n: int, a: int, d: int, s: int) -> bool:
    """One strong Miller-Rabin round to base a, for odd n - 1 = d * 2^s."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2 with Selfridge's
    parameters (method A): D is the first of 5, -7, 9, -11, ... with
    (D|n) = -1, P = 1 and Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D|n) = -1 exists
    D = 5
    while True:
        j = kronecker(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    # V_k, V_{k+1} and Q^k for the prefixes k of d's binary expansion, from
    # V_{2k} = V_k^2 - 2Q^k and V_{2k+1} = V_k V_{k+1} - Q^k (Baillie and
    # Wagstaff, Lucas pseudoprimes, 1980)
    v, w, qk = 1, (1 - 2 * Q) % n, Q % n
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w, qk = (v * w - qk) % n, (w * w - 2 * qk * Q) % n, qk * qk * Q % n
        else:
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    # U_d = 0 mod n tested as D U_d = 2 V_{d+1} - V_d: (D|n) = -1, so D is prime to n
    if (2 * w - v) % n == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 0) -> bool:
    """Deterministic Miller-Rabin below DETERMINISTIC_BOUND, BPSW above
    (one strong round to base 2, then a strong Lucas test); ``rounds`` adds
    random-base Miller-Rabin rounds after BPSW, seeded from n, as GMP's
    mpz_probab_prime_p does.  No composite is known to pass BPSW."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < DETERMINISTIC_BOUND:
        return all(_strong_mr(n, a, d, s) for a in _DETERMINISTIC_WITNESSES)
    if not (_strong_mr(n, 2, d, s) and _strong_lucas(n)):
        return False
    rng = random.Random(n)
    return all(_strong_mr(n, rng.randrange(2, n - 1), d, s) for _ in range(rounds))


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, in exact integer arithmetic."""
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # an upper bound; Newton descends to the floor
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int, base_floor: int) -> Optional[tuple[int, int]]:
    """Return (b, k) with n = b^k, k >= 2 prime, or None.

    Every prime factor of n must exceed base_floor, so b > base_floor and
    only the prime k with (base_floor + 1)^k <= n can occur."""
    k = 2
    while (base_floor + 1) ** k <= n:
        if all(k % q for q in range(2, isqrt(k) + 1)):
            b = _iroot(n, k)
            if b**k == n:
                return b, k
        k += 1
    return None


def _pollard_brent(n: int, rng: random.Random, max_iters: int) -> Optional[int]:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        iters = 0
        x = ys = y
        while g == 1 and iters < max_iters:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            iters += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                iters += 1
                if iters >= max_iters:
                    return None
        if g is not None and 1 < g < n:
            return g
        if iters >= max_iters:
            return None


def factor(n: int, effort: FactorBudget = DEFAULT_BUDGET) -> FactoredInt:
    """Factor a nonzero integer: trial division, then Brent rho with
    perfect-power splitting.  Raises ValueError for n = 0 and nothing else:
    a composite the budget cannot split lands in the cofactor field with
    complete=False."""
    if n == 0:
        raise ValueError("factor(0) is undefined")
    sign = -1 if n < 0 else 1
    n = abs(n)
    found: dict[int, int] = {}

    def _strip(m: int, p: int) -> int:
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
        return m

    n = _strip(_strip(n, 2), 3)
    p = 5
    while p <= effort.trial_bound and p * p <= n:
        n = _strip(n, p)
        n = _strip(n, p + 2)
        p += 6

    rng = effort.rng()
    stack = [n] if n > 1 else []
    cofactor = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m <= effort.trial_bound * effort.trial_bound or is_probable_prime(m):
            # below trial_bound^2 an unfactored survivor of trial division
            # is prime
            found[m] = found.get(m, 0) + 1
            continue
        # trial division has removed every prime up to trial_bound
        pk = _perfect_power(m, effort.trial_bound)
        if pk is not None:
            b, k = pk
            stack.extend([b] * k)
            continue
        d = _pollard_brent(m, rng, effort.rho_iterations)
        if d is None:
            cofactor *= m
            continue
        stack.append(d)
        stack.append(m // d)

    factors = tuple(sorted(found.items()))
    return FactoredInt(sign, factors, None if cofactor == 1 else cofactor)


class SquarefreePart(NamedTuple):
    d: int  # squarefree, sign(d) = sign(n)
    m: int  # positive, n = d * m^2


def squarefree_part(n: int, effort: FactorBudget = DEFAULT_BUDGET) -> SquarefreePart:
    """Write n = d * m^2 with d squarefree."""
    if n == 0:
        raise ValueError("squarefree_part(0) is undefined")
    f = factor(n, effort)
    if not f.complete:
        raise IncompleteFactorization(f"cannot certify squarefree part of {n}: {f}")
    d = f.sign
    m = 1
    for p, e in f.factors:
        m *= p ** (e // 2)
        if e % 2:
            d *= p
    return SquarefreePart(d, m)


def fundamental_discriminant(d: int) -> int:
    """Discriminant of the maximal order of Q(sqrt(d)) for squarefree d."""
    if d in (0, 1):
        raise ValueError("d must differ from 0 and 1")
    sf = squarefree_part(d)
    if sf.m != 1:
        raise NotSquarefree(f"{d} is not squarefree")
    return d if d % 4 == 1 else 4 * d


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> Optional[int]:
    """A square root of a mod prime p, or None."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    return sqrt_of_residue(a, p)


def sqrt_of_residue(a: int, p: int) -> int:
    """A square root of a mod an odd prime p, for a that is known to be a
    nonzero square mod p (nothing checks it): Tonelli-Shanks (Cohen, GTM 138,
    Alg. 1.5.1), the scalar twin of quadform._sqrt_mod_primes.  With
    p - 1 = q 2^s, q odd, t = a^q is 1 at once when s = 1, so a non-residue
    z is looked up only where s >= 2."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while s >= 2 and pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = c
        for _ in range(m - i - 1):
            b = b * b % p
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def lift_sqrt_2(a: int, k: int) -> Optional[int]:
    """x with x^2 = a (mod 2^k) for odd a = 1 (mod 8), k >= 3."""
    if a % 8 != 1:
        return None
    x = 1
    for j in range(3, k):
        if (x * x - a) % (1 << (j + 1)) != 0:
            x += 1 << (j - 1)
    return x % (1 << k)


def valuation_int(n: int, p: int) -> int:
    """Exact p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v
