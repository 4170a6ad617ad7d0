"""x-adically truncated series with polynomial coefficients in y.

An XSeries is a Poly2 kept modulo x^prec.  Arithmetic results carry the
minimum of the operand precisions (product precision also accounts for the
x-orders of the factors).
"""

from __future__ import annotations

from .field import Fq
from .poly import IndeterminateOrder, Poly2


class NotAUnit(ArithmeticError):
    """Inversion requested for a non-unit of k[y][[x]]."""


class PrecisionTooLow(ArithmeticError):
    """The requested computation cannot be decided at the stated precision."""


class XSeries:
    __slots__ = ("poly", "prec")

    def __init__(self, poly: Poly2, prec: int):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.prec = prec
        self.poly = Poly2(poly.field, {e: c for e, c in poly.terms.items() if e[0] < prec})

    @property
    def field(self) -> Fq:
        return self.poly.field

    def is_zero(self) -> bool:
        """Zero to the stored precision."""
        return self.poly.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, XSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        return self.truncate(prec).poly == other.truncate(prec).poly

    def truncate(self, prec: int) -> "XSeries":
        return XSeries(self.poly, min(self.prec, prec))

    def __add__(self, other: "XSeries") -> "XSeries":
        return XSeries(self.poly + other.poly, min(self.prec, other.prec))

    def __sub__(self, other: "XSeries") -> "XSeries":
        return XSeries(self.poly - other.poly, min(self.prec, other.prec))

    def __neg__(self) -> "XSeries":
        return XSeries(-self.poly, self.prec)

    def __mul__(self, other: "XSeries") -> "XSeries":
        # f known mod x^a with x-order of, g mod x^b with order og:
        # fg is known mod x^min(a+og, b+of).
        of = self.poly.x_order() if self.poly else self.prec
        og = other.poly.x_order() if other.poly else other.prec
        prec = min(self.prec + og, other.prec + of)
        return XSeries(self.poly * other.poly, prec)

    def x_order(self) -> int:
        """x-order; raises IndeterminateOrder if zero to precision."""
        if self.poly.is_zero():
            raise IndeterminateOrder(f"series is 0 mod x^{self.prec}")
        return self.poly.x_order()

    def to_str(self, xname="x", yname="y") -> str:
        body = self.poly.to_str(xname, yname)
        return f"{body} + O({xname}^{self.prec})"

    def __repr__(self):
        return f"XSeries({self.to_str()})"


def invert_unit(u, prec: int) -> XSeries:
    """Inverse of a unit of k[y][[x]] modulo x^prec.

    The x^0 coefficient must be a nonzero constant (that is what invertibility
    means in k[y][[x]]); otherwise NotAUnit is raised.
    """
    if isinstance(u, XSeries):
        if u.prec < prec:
            raise PrecisionTooLow(f"operand known mod x^{u.prec} < x^{prec}")
        upoly = u.poly
    else:
        upoly = u
    fld = upoly.field
    c0 = upoly.x_coefficient(0)
    if upoly.constant_term() == fld.zero:
        raise NotAUnit("constant term is zero")
    if set(c0) != {0}:
        raise NotAUnit("x^0 coefficient involves y; not invertible in k[y][[x]]")
    c0_inv = fld.inv(c0[0])

    # Solve u * v = 1 row by row in x.
    u_rows: dict[int, dict] = {}
    for (i, j), c in upoly.terms.items():
        if i < prec:
            u_rows.setdefault(i, {})[j] = c
    v_rows: dict[int, dict] = {0: {0: c0_inv}}
    for i in range(1, prec):
        acc: dict = {}
        for t, vrow in v_rows.items():
            urow = u_rows.get(i - t)
            if not urow:
                continue
            for j1, cu in urow.items():
                for j2, cv in vrow.items():
                    j = j1 + j2
                    s = fld.add(acc.get(j, fld.zero), fld.mul(cu, cv))
                    if s == fld.zero:
                        acc.pop(j, None)
                    else:
                        acc[j] = s
        if acc:
            v_rows[i] = {j: fld.mul(fld.neg(c), c0_inv) for j, c in acc.items()}
    terms = {(i, j): c for i, row in v_rows.items() for j, c in row.items()}
    return XSeries(Poly2(fld, terms), prec)
