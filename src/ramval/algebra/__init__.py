"""Coefficient fields, sparse bivariate polynomials, local-ring pairs."""

from .field import Fq, is_prime
from .local import LocalElem
from .parse import ParseError, parse_poly
from .poly import IndeterminateOrder, NotMonic, Poly2

__all__ = [
    "Fq",
    "is_prime",
    "LocalElem",
    "ParseError",
    "parse_poly",
    "IndeterminateOrder",
    "NotMonic",
    "Poly2",
]
