"""Shared exception types."""


class X16Error(Exception):
    """Base class for all package-specific errors."""


class IncompleteFactorization(X16Error):
    """An operation needed a complete factorization but the budget ran out."""


class NotSquarefree(X16Error):
    """A squarefree integer was required."""


class DiscriminantMismatch(X16Error):
    """Two objects with different discriminants were combined."""


class NotOnCurve(X16Error):
    """A point failed its curve-membership check."""


class SupportCollision(X16Error):
    """Evaluation point lies in the support of the divisor of g (t = 1)."""


class NotImaginary(X16Error):
    """The field constant d is positive; only imaginary fields are handled."""


class ExponentNotDivisible(X16Error):
    """An ideal exponent was not divisible by the requested root degree."""

    def __init__(self, prime, exponent, n):
        self.prime = prime
        self.exponent = exponent
        self.n = n
        super().__init__(
            f"exponent {exponent} at prime of norm {prime} not divisible by {n}"
        )


class BudgetExceeded(X16Error):
    """A memory or time budget was exceeded."""


class UnknownClaim(X16Error):
    """The claim registry has no entry with the requested id."""
