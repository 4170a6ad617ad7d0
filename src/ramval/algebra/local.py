"""Elements of the local ring at the origin as numerator / unit-denominator pairs.

Localization at (x, y) is never materialized: the only denominators that
occur are units (nonzero constant term).  Pairs multiply and divide exactly.
Substituting a polynomial for x and a pair for y runs ``Poly2.compose``, the
one substitution kernel, on the numerator and on the denominator.
"""

from __future__ import annotations

from .field import Fq
from .poly import Poly2


class NotAUnitDenominator(ArithmeticError):
    pass


class LocalElem:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2 | None = None):
        fld = num.field
        if den is None:
            den = Poly2.one(fld)
        if not den.is_unit():
            raise NotAUnitDenominator("denominator must have a nonzero constant term")
        self.num = num
        self.den = den

    @property
    def field(self) -> Fq:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return set(self.den.terms) == {(0, 0)}

    def as_poly(self) -> Poly2:
        """The numerator rescaled when the denominator is a constant."""
        if not self.is_polynomial():
            raise ArithmeticError("element has a non-constant denominator")
        c = self.den.constant_term()
        if c == self.field.one:
            return self.num
        return self.num.scale(self.field.inv(c))

    def __add__(self, other: "LocalElem") -> "LocalElem":
        return LocalElem(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "LocalElem", prec: int | None = None) -> "LocalElem":
        """The difference; with ``prec``, modulo x^prec (as in ``__mul__``)."""
        return LocalElem(self.num.__mul__(other.den, prec) - other.num.__mul__(self.den, prec),
                         self.den.__mul__(other.den, prec))

    def __neg__(self) -> "LocalElem":
        return LocalElem(-self.num, self.den)

    def __mul__(self, other: "LocalElem", prec: int | None = None) -> "LocalElem":
        """The product; with ``prec``, modulo x^prec (both parts truncated,
        as in ``truncate``)."""
        return LocalElem(self.num.__mul__(other.num, prec), self.den.__mul__(other.den, prec))

    def __pow__(self, e: int, prec: int | None = None) -> "LocalElem":
        """self^e, where e < 0 needs a unit; ``pow(f, e, K)`` is f^e modulo
        x^K, each part raised with ``Poly2``'s truncated power."""
        base = self if e >= 0 else self.invert()
        return LocalElem(pow(base.num, abs(e), prec), pow(base.den, abs(e), prec))

    def invert(self) -> "LocalElem":
        """Inverse, defined only for units."""
        if not self.num.is_unit():
            raise NotAUnitDenominator("inverting a non-unit local element")
        return LocalElem(self.den, self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalElem):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def x_order(self) -> int:
        return self.num.x_order() - self.den.x_order()

    def divexact_xpow(self, m: int) -> "LocalElem":
        return LocalElem(self.num.divexact_xpow(m), self.den)

    def truncate(self, prec: int | None) -> "LocalElem":
        """The element modulo x^prec, both parts truncated (the denominator
        stays a unit for prec >= 1); the element itself for None."""
        if prec is None:
            return self
        return LocalElem(self.num.truncate(prec), self.den.truncate(prec))

    def compose(self, sub_x: Poly2, sub_y: "LocalElem", prec: int | None = None) -> "LocalElem":
        """Substitute x -> sub_x, a polynomial, and y -> sub_y, a pair; the
        result is again a pair, modulo x^prec when ``prec`` is given.

        ``Poly2.compose`` clears sub_y's denominator from the numerator and
        from the denominator, each up to its own y-degree (0 for a zero
        numerator); the part with the lower one then takes the missing
        powers, so the quotient is unchanged.  The substituted denominator
        must remain a unit, which holds for substitutions fixing the origin.
        """
        yn, yd = sub_y.num, sub_y.den
        num = self.num.compose(sub_x, yn, yd, prec)
        den = self.den.compose(sub_x, yn, yd, prec)
        ny, dy = max(self.num.deg_y(), 0), self.den.deg_y()
        num = num.times_pow(yd, max(dy - ny, 0), prec)
        den = den.times_pow(yd, max(ny - dy, 0), prec)
        # the constructor rejects a non-unit denominator image
        return LocalElem(num, den)

    def to_str(self, xname="x", yname="y") -> str:
        n = self.num.to_str(xname, yname)
        if self.is_polynomial() and self.den.constant_term() == self.field.one:
            return n
        return f"({n}) / ({self.den.to_str(xname, yname)})"

    def __repr__(self):
        return f"LocalElem({self.to_str()})"

