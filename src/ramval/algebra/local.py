"""Elements of the local ring at the origin as numerator / unit-denominator pairs.

Localization at (x, y) is never materialized: the only denominators that
occur are units (nonzero constant term).  Pairs multiply and divide exactly.
"""

from __future__ import annotations

from .field import Fq
from .poly import Poly2, _rows


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

    def __sub__(self, other: "LocalElem") -> "LocalElem":
        return LocalElem(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "LocalElem":
        return LocalElem(-self.num, self.den)

    def __mul__(self, other: "LocalElem") -> "LocalElem":
        return LocalElem(self.num * other.num, self.den * other.den)

    def __pow__(self, e: int) -> "LocalElem":
        if e >= 0:
            return LocalElem(self.num**e, self.den**e)
        inv = self.invert()
        return LocalElem(inv.num ** (-e), inv.den ** (-e))

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

    def truncate(self, prec: int) -> "LocalElem":
        """The element modulo x^prec: both parts truncated, which keeps the
        denominator a unit."""
        return LocalElem(self.num.truncate(prec), self.den.truncate(prec))

    def compose(self, sub_x: "LocalElem", sub_y: "LocalElem", prec: int | None = None) -> "LocalElem":
        """Substitute x -> sub_x, y -> sub_y; the result is again a pair,
        modulo x^prec when ``prec`` is given.

        The substituted denominator must remain a unit, which holds for
        substitutions fixing the origin.
        """
        num_img = _compose_poly_pair(self.num, sub_x, sub_y, prec)
        den_img = _compose_poly_pair(self.den, sub_x, sub_y, prec)
        # num_img / den_img; the constructor rejects a non-unit den_img.num
        return LocalElem(num_img.num.__mul__(den_img.den, prec),
                         num_img.den.__mul__(den_img.num, prec))

    def to_str(self, xname="x", yname="y") -> str:
        n = self.num.to_str(xname, yname)
        if self.is_polynomial() and self.den.constant_term() == self.field.one:
            return n
        return f"({n}) / ({self.den.to_str(xname, yname)})"

    def __repr__(self):
        return f"LocalElem({self.to_str()})"


def _compose_poly_pair(poly: Poly2, sub_x: LocalElem, sub_y: LocalElem,
                       prec: int | None = None) -> LocalElem:
    """poly(sub_x, sub_y) for pair-valued substitutions, homogenized over the
    denominators so every intermediate stays polynomial; modulo x^prec when
    ``prec`` is given.

    The terms are grouped by y-row.  The x-image xn^i * xd^(dx-i) of each
    x-exponent is formed once, each row is one combination of x-images, and
    each row is multiplied once by its y-image yn^j * yd^(dy-j); the rows are
    summed in one accumulator.  With ``prec``, a row whose x-part starts at
    x^o takes its y-image modulo x^(prec - o), and an image that vanishes
    drops its terms or its row."""
    fld = poly.field
    if poly.is_zero():
        return LocalElem(Poly2.zero(fld))
    dy = max(j for _, j in poly.terms)
    dx = max(i for i, _ in poly.terms)
    x_images: dict = {}

    def x_image(i):
        if i not in x_images:
            xn = pow(sub_x.num, i, prec)
            x_images[i] = xn and xn.__mul__(pow(sub_x.den, dx - i, prec), prec)
        return x_images[i]

    def rows():
        for j, row in _rows(poly.terms).items():
            x_part = Poly2.combination(fld, ((c, x_image(i)) for i, c in row.items() if x_image(i)))
            if not x_part:
                continue
            y_prec = None if prec is None else prec - x_part.x_order()
            yn = pow(sub_y.num, j, y_prec)
            if yn:
                y_image = yn.__mul__(pow(sub_y.den, dy - j, y_prec), y_prec)
                yield fld.one, x_part.__mul__(y_image, prec)

    num = Poly2.combination(fld, rows())
    den = x_image(0).__mul__(pow(sub_y.den, dy, prec), prec)
    return LocalElem(num, den)
