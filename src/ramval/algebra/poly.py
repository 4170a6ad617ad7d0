"""Sparse bivariate polynomials over a finite field.

A Poly2 is a dict mapping exponent pairs (i, j) -> nonzero coefficient,
(i, j) meaning x^i * y^j.  The variable names are fixed abstractly as x, y;
charts rename them for display (u/v in the base chart, x/v in the middle
chart).

Powers have one kernel, ``_times_pow``, on raw term dicts, so a power is
wrapped in one Poly2 however many products and twists it takes: f * g^e for
a one-term g is a shift and a scale of f, formed in one step.  Otherwise e is
read in base p, and the p^i-th power of g is its i-th Frobenius twist
(exponents scaled by p^i, coefficients through i Frobenius steps), so each
unit of digit i is one product with that twist, folded once, and a run of
zero digits is crossed by a single twist ``_twist(s)`` of the last one.  This
keeps the tower polynomials sparse in characteristic p, and a two-term g
stays two terms.  ``times_pow``, ``**`` (the kernel applied to 1) and the
images of ``compose`` all call it.

Coefficients are the packed ints of ``Fq``, so the integer product of two
coefficients is their unreduced convolution.  Products, substitutions and
divisions sum such raw products per exponent and fold each output
coefficient once (``Fq.fold``), after checking that the number of products
a sum can collect fits the field's slot capacity; a product with a factor
that is exactly 1 sums nothing and returns the other factor.  Division by a
polynomial monic in y works on y-rows {j: {i: c}}: each step peels the top
row of the remainder and adds the quotient row times every row of the
negated divisor.  The next live row comes from a max-heap of row degrees, so
the empty degrees of sparse operands (tower keys reach y-degree p^(2N) with
a handful of terms) are skipped, never stepped through.

Substitution has one kernel, ``compose``, with one x-image per x-exponent
and one raw accumulator for the whole result, folded once at the end.  When
the substituted y and its denominator are one term each, as in the chart
maps y = x' / A with A constant, every term's image is its x-image shifted
and scaled, and goes into the accumulator on its own.  Otherwise it works on
y-rows as well: a row's x-part is the raw sum of its terms' x-images, folded
once, and its products with the row's y-image go into the accumulator.  It
takes the shape of a chart map, a polynomial x-image and an optional
denominator for the substituted y, which it clears with ``_times_pow``,
spending no product on a denominator that is exactly 1, so polynomial
substitutions and the numerator / denominator pairs of ``LocalElem.compose``
run the same code.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from itertools import islice
from math import inf
from operator import itemgetter

from .field import Fq


# The terms of 1, shared like every term dict (never changed in place):
# ``Fq.one`` is the int 1 in every field.
_ONE = {(0, 0): 1}


class NotMonic(ArithmeticError):
    """Divisor is not monic (unit constant leading y-coefficient required)."""


class IndeterminateOrder(ArithmeticError):
    """Order of the zero polynomial."""


def _rows(terms: dict) -> dict:
    """Regroup {(i, j): c} by y-degree as {j: {i: c}}."""
    rows: dict = {}
    for (i, j), c in terms.items():
        row = rows.get(j)
        if row is None:
            rows[j] = {i: c}
        else:
            row[i] = c
    return rows


def _add_product(acc: dict, a: dict, b: dict, prec: int | None) -> int:
    """Add the products of the terms of a and b into the raw sums ``acc``,
    without multiplying the pairs whose x-exponents sum to prec or more;
    return the most products this adds to one exponent: one per term of the
    smaller factor."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    if prec is not None and len(a) <= 2:
        # a factor of one or two terms checks each pair, cheaper than a sort
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                if i1 + i2 < prec:
                    e = (i1 + i2, j1 + j2)
                    acc[e] = get(e, 0) + c1 * c2
        return len(a)
    if prec is None:
        b_items = list(b.items())
    else:
        # the partners of an x^i1 term are the prefix of b, sorted by
        # exponent, below ((prec - i1,),): (t,) sorts before every (t, j)
        b_items = sorted(b.items())
    for (i1, j1), c1 in a.items():
        row = b_items if prec is None else islice(b_items, bisect_left(b_items, ((prec - i1,),)))
        for (i2, j2), c2 in row:
            e = (i1 + i2, j1 + j2)
            acc[e] = get(e, 0) + c1 * c2
    return len(a)


def _twist(fld: Fq, terms: dict, s: int, prec: int | None) -> dict:
    """The p^s-th power (the s-th Frobenius twist) of ``terms`` modulo
    x^prec: exponents scale by p^s and each coefficient takes s mod m
    Frobenius steps (F_q has q = p^m); a term that lands at x^prec or above
    is never built."""
    ps, top, frob = fld.p**s, inf if prec is None else prec, fld.frob
    out = {(i * ps, j * ps): c for (i, j), c in terms.items() if i * ps < top}
    for _ in range(s % fld.m):
        out = {t: frob(c) for t, c in out.items()}
    return out


def _times_pow(fld: Fq, terms: dict, base: dict, e: int, prec: int | None) -> dict:
    """The terms of terms * base^e (``Poly2.times_pow``), terms itself when
    e = 0 or base is 1 modulo x^prec."""
    if e < 0:
        raise ArithmeticError("negative polynomial power")
    if e and prec is not None and base and max(base)[0] >= prec:
        base = {t: c for t, c in base.items() if t[0] < prec}
    if not e or base == _ONE:
        return terms
    if len(base) == 1:
        ((i, j), c), = base.items()
        i, j, c, fold, top = i * e, j * e, fld.pow_(c, e), fld.fold, inf if prec is None else prec
        return {(a + i, b + j): fold(c * v) for (a, b), v in terms.items() if a + i < top}
    if not base or prec is not None and e * min(base)[0] >= prec:
        return {}
    p, fold, twist = fld.p, fld.fold, base
    while True:
        e, d = divmod(e, p)
        for _ in range(d):
            if terms is _ONE:
                # a power proper (``**``, ``compose``'s images): 1 * twist
                terms = twist
                continue
            acc: dict = {}
            fld.check_capacity(_add_product(acc, terms, twist, prec))
            terms = {t: c for t, s in acc.items() if (c := fold(s))}
        if not e or not terms:
            return terms
        s = 1
        while not e % p:
            e //= p
            s += 1
        twist = _twist(fld, twist, s, prec)
        if twist == _ONE:
            return terms


class Poly2:
    __slots__ = ("field", "terms", "_as_divisor")

    def __init__(self, field: Fq, terms: dict | None = None):
        self.field = field
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Fq) -> "Poly2":
        return cls(field)

    @classmethod
    def const(cls, field: Fq, c) -> "Poly2":
        return cls.monomial(field, 0, 0, c)

    @classmethod
    def one(cls, field: Fq) -> "Poly2":
        return cls(field, {(0, 0): field.one})

    @classmethod
    def monomial(cls, field: Fq, i: int, j: int, c=1) -> "Poly2":
        """c x^i y^j for a field element c (1, the default, is the unit of
        every field; use ``field.of_int`` for an integer)."""
        return cls(field, {(i, j): c} if c else None)

    @classmethod
    def x(cls, field: Fq) -> "Poly2":
        return cls.monomial(field, 1, 0)

    @classmethod
    def y(cls, field: Fq) -> "Poly2":
        return cls.monomial(field, 0, 1)

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def deg_y(self) -> int:
        if not self.terms:
            return -1
        return max(map(itemgetter(1), self.terms))

    def constant_term(self):
        return self.terms.get((0, 0), self.field.zero)

    def is_unit(self) -> bool:
        """Unit of the local ring at (x, y): nonzero constant term."""
        return (0, 0) in self.terms

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        fld = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = fld.add(out.get(e, 0), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly2(fld, out)

    def __neg__(self) -> "Poly2":
        fld = self.field
        return Poly2(fld, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly2", prec: int | None = None) -> "Poly2":
        """The difference; with ``prec``, modulo x^prec, in one pass."""
        fld = self.field
        fold, neg_one, top = fld.fold, fld.p - 1, inf if prec is None else prec
        out = {e: c for e, c in self.terms.items() if e[0] < top}
        get = out.get
        for e, c in other.terms.items():
            if e[0] < top:
                # a nonzero c leaves a zero only where e was already present
                if d := fold(get(e, 0) + neg_one * c):
                    out[e] = d
                else:
                    del out[e]
        return Poly2(fld, out)

    def __mul__(self, other: "Poly2", prec: int | None = None) -> "Poly2":
        """The product; with ``prec``, the product modulo x^prec, formed
        without the term pairs whose x-exponents sum to prec or more.  A
        factor that is exactly 1 costs no product: the other factor is
        returned modulo x^prec (``truncate``: itself, shared, when no term
        lies at or past x^prec)."""
        fld = self.field
        if self.terms == _ONE:
            return other.truncate(prec)
        if other.terms == _ONE:
            return self.truncate(prec)
        acc: dict = {}
        fld.check_capacity(_add_product(acc, self.terms, other.terms, prec))
        fold = fld.fold
        return Poly2(fld, {e: c for e, s in acc.items() if (c := fold(s))})

    def scale(self, c) -> "Poly2":
        """The polynomial times the field element c."""
        fld = self.field
        fld.check_capacity(1)
        fold = fld.fold
        return Poly2(fld, {e: r for e, v in self.terms.items() if (r := fold(c * v))})

    def shift(self, dx: int, dy: int = 0) -> "Poly2":
        """Multiply by x^dx * y^dy (dx, dy may be negative if divisible)."""
        out = {}
        for (i, j), c in self.terms.items():
            ni, nj = i + dx, j + dy
            if ni < 0 or nj < 0:
                raise ArithmeticError("shift produced negative exponents")
            out[(ni, nj)] = c
        return Poly2(self.field, out)

    def frobenius(self, s: int = 1, prec: int | None = None) -> "Poly2":
        """The p^s-th power (the s-th Frobenius twist) modulo x^prec
        (``_twist``)."""
        return Poly2(self.field, _twist(self.field, self.terms, s, prec))

    def truncate(self, prec: int | None) -> "Poly2":
        """The polynomial modulo x^prec: its terms of x-degree below prec;
        itself for None or when no term lies at or past x^prec (a Poly2 is
        never changed in place, so it is shared)."""
        if prec is None or not self.terms or max(self.terms)[0] < prec:
            return self
        return Poly2(self.field, {e: c for e, c in self.terms.items() if e[0] < prec})

    def times_pow(self, base: "Poly2", e: int, prec: int | None = None) -> "Poly2":
        """self * base^e; with ``prec``, modulo x^prec for self given modulo
        x^prec (every caller passes a result computed at ``prec``), with every
        Frobenius twist and product truncated.  The work is ``_times_pow``'s,
        on the term dicts, and the result is one Poly2.

        A base with one term c x^i y^j modulo x^prec is raised in one step:
        the result is self shifted by (i e, j e) and scaled by c^e, without a
        product or a twist.  Otherwise e is read in base p: digit d_i costs
        d_i products with the twist base^(p^i), each summed raw by
        ``_add_product`` and folded once, and a run of zero digits is crossed
        by one ``_twist(s)`` of the last twist, s the distance to the next
        nonzero digit.  The loop stops once the product vanishes or a twist
        is 1 modulo x^prec, so w = 1 - x^(p-1), whose twists 1 - x^((p-1) p^i)
        have two terms, costs one two-term product per unit of each digit
        below the first i with (p-1) p^i >= prec.  A product by exactly 1 is
        the twist itself.  For e = 0, or a base that is 1 modulo x^prec, no
        product and no copy is formed and self is returned; the result is 0
        at once when e * x-order(base) >= prec."""
        terms = _times_pow(self.field, self.terms, base.terms, e, prec)
        return self if terms is self.terms else Poly2(self.field, terms)

    def __pow__(self, e: int, prec: int | None = None) -> "Poly2":
        """self^e; ``pow(f, e, K)`` is f^e modulo x^K (``_times_pow`` on 1)."""
        fld, unit = self.field, _ONE if prec is None or prec > 0 else {}
        return Poly2(fld, _times_pow(fld, unit, self.terms, e, prec))

    # -- orders and restrictions --------------------------------------------

    def x_order(self) -> int:
        """Largest m with x^m dividing the polynomial."""
        if not self.terms:
            raise IndeterminateOrder("x-order of the zero polynomial")
        return min(self.terms)[0]

    def is_monic_y(self) -> bool:
        d = self.deg_y()
        return {e: c for e, c in self.terms.items() if e[1] == d} == {(0, d): self.field.one}

    # -- division -----------------------------------------------------------

    def divrem_y(self, g: "Poly2") -> tuple["Poly2", "Poly2"]:
        """Division in k[x][y] by g monic in y: self = q*g + r, deg_y r < deg_y g.

        Works on y-rows {j: {i: c}}.  Each step takes the highest live row of
        the remainder, records it (over the leading unit) as a quotient row,
        and adds the quotient row times every row of -g, the leading one
        included; the top row must then fold to zero.  Live degrees come
        from a max-heap, so empty degrees are skipped.  The rows hold raw
        sums of products, folded when a row becomes the top and in the final
        remainder.
        """
        fld = self.field
        dg, lead_inv, g_items = g._divisor()
        rows = _rows(self.terms)
        heap = [-j for j in rows if j >= dg]
        if not heap:
            return Poly2(fld), self
        heapify(heap)
        fold = fld.fold
        q: dict = {}
        while heap:
            # rows below dr only are created from here on, so every degree
            # enters the heap once and its row is still present
            dr = -heappop(heap)
            top = {i: c for i, s in rows[dr].items() if (c := fold(fold(s) * lead_inv))}
            if not top:
                del rows[dr]
                continue
            shift = dr - dg
            for i, c in top.items():
                q[(i, shift)] = c
            for dj, g_row in g_items:
                t = dr + dj
                row = rows.get(t)
                if row is None:
                    row = rows[t] = {}
                    if t >= dg:
                        heappush(heap, -t)
                get = row.get
                for i1, c1 in top.items():
                    for i2, c2 in g_row:
                        k = i1 + i2
                        row[k] = get(k, 0) + c1 * c2
            if any(map(fold, rows.pop(dr).values())):
                raise ArithmeticError("division failed to reduce the y-degree")
        r = {(i, j): c for j, row in rows.items() for i, s in row.items() if (c := fold(s))}
        return Poly2(fld, q), Poly2(fld, r)

    def _divisor(self) -> tuple:
        """(y-degree, inverse of the leading unit, rows of -self as
        (y-shift below the top, [(x-exponent, coefficient)])), the data of
        self as a divisor in ``divrem_y``, computed once per polynomial."""
        try:
            return self._as_divisor
        except AttributeError:
            pass
        fld = self.field
        g_rows = _rows(self.terms)
        dg = max(g_rows, default=-1)
        if dg < 1:
            raise NotMonic("divisor must have y-degree >= 1")
        lead = g_rows[dg]
        if set(lead) != {0}:
            raise NotMonic("divisor's leading y-coefficient must be a constant unit")
        # a remainder cell collects at most one product per term of the divisor
        fld.check_capacity(len(self.terms))
        neg = fld.neg
        self._as_divisor = (dg, fld.inv(lead[0]),
                            [(j - dg, [(i, neg(c)) for i, c in row.items()]) for j, row in g_rows.items()])
        return self._as_divisor

    def divexact_xpow(self, m: int) -> "Poly2":
        """Exact division by x^m."""
        if m == 0 or not self.terms:
            return self
        if self.x_order() < m:
            raise ArithmeticError(f"not divisible by x^{m}")
        return self.shift(-m, 0)

    # -- substitution --------------------------------------------------------

    def compose(self, sub_x: "Poly2", sub_y: "Poly2", y_den: "Poly2 | None" = None,
                prec: int | None = None) -> "Poly2":
        """Evaluate at x = sub_x, y = sub_y / y_den and clear the denominator:
        the sum of c * sub_x^i * sub_y^j * y_den^(dy-j) over the terms
        c x^i y^j, with dy the y-degree of self; modulo x^prec when ``prec``
        is given.  Without a denominator this is self(sub_x, sub_y).

        The x-image of each x-exponent is formed once.  When sub_y and the
        denominator have one term each (a chart map y = x' / A with A
        constant), the y-image of every term is one monomial, so each term
        goes in alone: its x-image, shifted and scaled by that monomial, is
        added into one raw accumulator, folded once at the end, and a term
        whose image starts at x^prec or above is skipped before its x-image
        is formed.  Otherwise the terms are grouped by y-row.  A row's
        x-part is summed raw from the x-images of its terms and folded once
        per exponent; its products with the row's y-image go straight into
        the accumulator.  With ``prec``, a row whose x-images start at x^o
        or above takes its y-image modulo x^(prec - o), no pair at or past
        x^prec is multiplied, and an image that vanishes drops its terms or
        its row.  Every image is formed on the term dicts by ``_times_pow``,
        so a denominator that is None or exactly 1 costs no product, and
        self exactly 1 maps to 1 modulo x^prec with no image formed."""
        fld = self.field
        if not self.terms:
            return Poly2(fld)
        unit = _ONE if prec is None or prec > 0 else {}
        if self.terms == _ONE:
            # y-degree 0, so no denominator to clear
            return Poly2(fld, unit)
        dy = self.deg_y()
        sub_x, sub_y = sub_x.terms, sub_y.terms
        den = _ONE if y_den is None else y_den.terms
        fold = fld.fold
        x_images: dict = {}
        # a nonzero x-image sub_x^i has x-order i * x_step: lowest x-rows
        # multiply, since k[y] is a domain
        x_step = min(sub_x)[0] if prec is not None and sub_x else 0
        acc: dict = {}
        if len(sub_y) == 1 and len(den) == 1:
            # the image of c x^i y^j is c a^j d^(dy-j) x^dx y^dj * sub_x^i
            # for sub_y = a x^sx y^sy and y_den = d x^tx y^ty; a cell of
            # acc collects at most one product per term
            fld.check_capacity(len(self.terms))
            ((sx, sy), a), = sub_y.items()
            ((tx, ty), d), = den.items()
            limit = inf if prec is None else prec
            get = acc.get
            monomials: dict = {}
            for (i, j), c in self.terms.items():
                monomial = monomials.get(j)
                if monomial is None:
                    monomial = monomials[j] = (sx * j + tx * (dy - j), sy * j + ty * (dy - j),
                                               fold(fld.pow_(a, j) * fld.pow_(d, dy - j)))
                dx, dj, k = monomial
                if i * x_step + dx >= limit:
                    continue
                image = x_images.get(i)
                if image is None:
                    image = x_images[i] = _times_pow(fld, unit, sub_x, i, prec)
                ck, top = fold(c * k), limit - dx
                for (e, f), v in image.items():
                    if e < top:
                        cell = (e + dx, f + dj)
                        acc[cell] = get(cell, 0) + ck * v
            return Poly2(fld, {e: c for e, s in acc.items() if (c := fold(s))})
        # the most products one cell of acc collects
        n = 0
        for j, row in _rows(self.terms).items():
            part: dict = {}
            get = part.get
            for i, c in row.items():
                image = x_images.get(i)
                if image is None:
                    image = x_images[i] = _times_pow(fld, unit, sub_x, i, prec)
                for e, v in image.items():
                    part[e] = get(e, 0) + c * v
            # a cell of the x-part collects at most one product per x-image
            fld.check_capacity(len(row))
            x_part = {e: c for e, s in part.items() if (c := fold(s))}
            if not x_part:
                continue
            # the least x-order of the row's images is at most that of
            # x_part, which is nonzero modulo x^prec: so y_prec >= 1 and
            # _ONE is already 1 modulo x^y_prec.  Where the lowest rows
            # cancel, y_prec is larger than x_part needs, and the product
            # modulo x^prec is the same
            y_prec = None if prec is None else prec - x_step * min(i for i in row if x_images[i])
            y_image = _times_pow(fld, _times_pow(fld, _ONE, sub_y, j, y_prec), den, dy - j, y_prec)
            if y_image:
                n += _add_product(acc, x_part, y_image, prec)
        fld.check_capacity(n)
        return Poly2(fld, {e: c for e, s in acc.items() if (c := fold(s))})

    # -- display ------------------------------------------------------------

    def to_str(self, xname: str = "x", yname: str = "y") -> str:
        if not self.terms:
            return "0"
        fld = self.field
        parts = []
        for (i, j) in sorted(self.terms, key=lambda e: (e[1], e[0])):
            c = self.terms[(i, j)]
            factors = []
            if c != fld.one or (i == 0 and j == 0):
                factors.append(fld.to_str(c))
            if i:
                factors.append(xname if i == 1 else f"{xname}^{i}")
            if j:
                factors.append(yname if j == 1 else f"{yname}^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly2({self.to_str()})"
