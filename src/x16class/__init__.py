"""Class-number divisibility toolkit for imaginary quadratic fields.

Implements exact binary quadratic form arithmetic, class groups, prime-ideal
factorization with valuations, the order-5 divisor-class pullback pipeline
for the degree-16 modular parameter family, a registry of the descent's
algebraic claims, and the rank-1 elliptic curve heuristic.
"""

__version__ = "0.1.0"

from .arith import DEFAULT_BUDGET, FactorBudget, factor, squarefree_part
from .quadform import QuadForm, class_group, class_number
from .quadfield import QFieldElem, QIdeal, factor_principal
from .x16 import census, cl5_pullback, divisibility_check, point_from_t

__all__ = [
    "DEFAULT_BUDGET",
    "FactorBudget",
    "factor",
    "squarefree_part",
    "QuadForm",
    "class_group",
    "class_number",
    "QFieldElem",
    "QIdeal",
    "factor_principal",
    "census",
    "cl5_pullback",
    "divisibility_check",
    "point_from_t",
]
