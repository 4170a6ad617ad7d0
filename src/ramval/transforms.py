"""Composite quadratic transforms along a valuation, transport of generating
sequences between charts, and stable-form ramification invariants.

A composite transform step sends the chart of a sequence with keys K_0 = x,
K_1, ... to the next chart along the valuation: the new coordinate is
X' = K_1, the old coordinate satisfies x = r * X'^n * (Y' + 1) where n is the
first index and r the residue of x / K_1^n, and the shifted keys are
K'_{j-1} = K_{j+1} / K_1^{deg K_{j+1}} re-expressed in the new chart, as
numerator / unit-denominator pairs.  The chart map is exact as long as the
level's first key is y-linear with polynomial coefficients, which covers the
whole acceptance range of the tower scenarios.

Invariants of deep levels are extracted through the composite-order calculus:
every level-k key is an exact monomial in the original keys, the pair
(exceptional order, restriction order) is additive on such monomials, and its
values on original keys follow an integer recursion across levels.  The
values themselves follow one too (v'_0 = v_1, v'_j = v_{j+1} - deg_{j+1} *
v_1), so every level lies in the base sequence's (1/D)Z: the calculus runs
on integer weights over D (``ChainLevel.weights``), its indices come from
the one index kernel ``values.stage_indices``, and a Fraction is built only
where a value is printed (``values.fmt_value``) or read through
``ChainLevel.values``, which compares chains of different D.

Where only leading data is needed, an element is pushed modulo x'^K: each
map reads its input modulo x^ceil(K / n) (``ChartMap.input_prec``), and
every product past x'^K is skipped.  ``ChartChain.pull_back`` pulls the
precision of a push back through the maps by that rule, and the spine walk
(``ChartChain._walk_spine``) plans the key precisions by it.  The parameter
links push the foreign keys this way at every level the exact maps reach,
with K one past the x-order the calculus predicts, and check the pushed
orders against it.  Every push, exact or truncated, runs the one
substitution kernel, ``Poly2.compose`` (through ``LocalElem.compose``).

The chain keys themselves are carried modulo the precision their readers
need.  The spine stays exact: key 0 and every key that later becomes a
level's first key, which the chart maps are built from.  Every other key
is read only by the chain checks at its level and by the push into the next
level, so it is pushed modulo the larger of the two precisions, computed
backward from the last level an exact map reaches (``ChartChain``).  A
chain built with ``exact=True`` carries every key exactly, for display.

The chain checks are split by what they read.  ``ChartChain.extend`` checks
the conditions on values at every level: positive values, growth
v_{i+1} > n_i * v_i, distinguished degrees equal to the index products, and
integral relation exponents a_j >= 0.  ``validate_chart_seq`` checks what
only the keys show, at the levels that have them: each key's distinguished
degree, and the lowest term of each recursion remainder key_j^e - key_{j+1},
formed modulo x^(a_j + o + 1), one past the x-order o + a_j that the
recursion shape predicts.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial

from .algebra import IndeterminateOrder, LocalElem, Poly2
from .genseq import GenSeq, Inconsistent, SequenceTooShort, residue_of_quotient
from .values import fmt_value, p_adic_split, stage_indices


class NotApplicable(ArithmeticError):
    """The composite step's ratio condition (or chart-map shape) fails."""


class NonPolynomial(Inconsistent):
    """A declared key quotient is not regular in the new chart."""


class NotMonomial(Inconsistent):
    """An element expected to be unit * x^a is not."""


class NotPPower(Inconsistent):
    """The residual order d is not a power of p (outside the stable range)."""


# -- stable forms -------------------------------------------------------------


class StableForm(namedtuple("StableForm", "a a_bar alpha b d beta unit_residue",
                            defaults=(1,))):
    """Invariants (a, a_bar, alpha, b, d, beta) of a parameter pair."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "a_bar": self.a_bar,
            "alpha": self.alpha,
            "b": self.b,
            "d": self.d,
            "beta": self.beta,
        }


def _as_elem(e) -> LocalElem:
    return e if isinstance(e, LocalElem) else LocalElem(e)


def _bottom_row(elem: LocalElem) -> tuple[int, int, object]:
    """Leading data of elem: (x-order, y-order of the lowest x-row, its
    coefficient), the lowest term under a monomial order.  Exponent pairs
    order by x first, then by y, so the lowest term of a part is the least
    of its exponents.  It is multiplicative, because k[x, y] is a domain."""
    num, den = elem.num.terms, elem.den.terms
    if not num:
        raise IndeterminateOrder("x-order of the zero polynomial")
    low_num, low_den = min(num), min(den)
    return (low_num[0] - low_den[0], low_num[1] - low_den[1],
            elem.field.div(num[low_num], den[low_den]))


def stable_form(u_elem, v_elem, p: int) -> StableForm:
    """Extract (a, a_bar, alpha, b, d, beta) from chart elements.

    u_elem must be unit * x^a exactly; v_elem = x^b * f with d the y-order of
    f mod x.  Both are read off the lowest x-rows (``_bottom_row``), and the
    unit residue is the value of u_elem / x^a at the origin.  Elements are
    Poly2 or numerator/unit-denominator pairs in the chart's coordinates.
    """
    u = _as_elem(u_elem)
    v = _as_elem(v_elem)
    if u.is_zero() or v.is_zero():
        raise ValueError("parameters must be nonzero")
    a, t, unit_residue = _bottom_row(u)
    if t != 0:
        raise NotMonomial("first parameter is not unit * x^a")
    b, d, _ = _bottom_row(v)
    return stable_form_from_orders(a, b, d, p, unit_residue)


def stable_form_from_orders(a: int, b: int, d: int, p: int, unit_residue=1) -> StableForm:
    """Assemble a StableForm from the composite orders (a, b, d): the one
    place where the p-adic splits of a and d are taken."""
    if a < 1:
        raise NotMonomial(f"exceptional order of the first parameter is {a}")
    if d < 1:
        raise NotMonomial("second parameter is unit * x^b; no residual order")
    a_bar, alpha = p_adic_split(a, p)
    d_bar, beta = p_adic_split(d, p)
    if d_bar != 1:
        raise NotPPower(f"residual order d = {d} is not a power of {p}")
    return StableForm(a, a_bar, alpha, b, d, beta, unit_residue)


def defect_from_stable(sf: StableForm, e: int, f: int, p: int, f_res: int = 1) -> int:
    """Defect exponent from a*d*f_res = e*f*p^delta."""
    if e < 1 or f < 1:
        raise ValueError("e and f must be >= 1")
    num = sf.a * sf.d * f_res
    den = e * f
    if num % den:
        raise Inconsistent(f"a*d*f_res = {num} is not divisible by e*f = {den}")
    q, delta = p_adic_split(num // den, p)
    if q != 1:
        raise Inconsistent(f"a*d*f_res/(e*f) = {num // den} is not a power of {p}")
    return delta


# -- chart maps and chart chains ----------------------------------------------


class ChartMap:
    """Substitution rules expressing old chart parameters in the new chart."""

    __slots__ = ("source", "target", "n", "residue", "phi_x", "phi_y", "chart_vars")

    def __init__(self, source: str, target: str, n: int, residue,
                 phi_x: Poly2, phi_y: LocalElem, chart_vars: tuple[str, str] = ("x'", "y'")):
        self.source, self.target, self.n, self.residue = source, target, n, residue
        self.phi_x = phi_x  # image of the old x: the polynomial r * x'^n * (y' + 1)
        self.phi_y = phi_y  # image of the old y
        self.chart_vars = chart_vars

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def push(self, elem, prec: int | None = None) -> LocalElem:
        """Re-express an element of the old chart in the new chart, modulo
        x'^prec when ``prec`` is given."""
        return _as_elem(elem).compose(self.phi_x, self.phi_y, prec)

    def input_prec(self, prec: int | None) -> int | None:
        """The precision the map reads its input to when its output is read
        modulo x'^prec: the old x maps into (x'^n), so x^ceil(prec / n);
        None (exact) for None."""
        return None if prec is None else -(-prec // self.n)

    def describe(self) -> dict:
        xn, yn = self.chart_vars
        return {
            "source": self.source,
            "target": self.target,
            "old_x": f"{self.phi_x.field.to_str(self.residue)} * {xn}^{self.n} * ({yn} + 1)",
            "old_y": self.phi_y.to_str(xn, yn),
        }


class ChainLevel:
    """One chart of a chain: values, indices and distinguished degrees of its
    keys, the composite-order tables, and, at the levels the exact chart maps
    reach, the keys (numerator / unit-denominator pairs named by ``chart``)
    with their precisions: key i is known modulo x^precs[i], and exactly
    where precs[i] is None (see ``ChartChain``).

    The values are carried as integer ``weights`` over ``denom``, the common
    denominator D of the base sequence's values: a composite transform maps
    values by an integer recursion, so every level of a chain lies in the
    base's (1/D)Z.  ``values`` is the list of Fractions weight / D, derived
    on each read."""

    __slots__ = ("k", "weights", "denom", "indices", "degrees", "vecs", "crows", "r", "keys",
                 "precs", "label", "chart", "map_from_prev")

    def __init__(self, k: int, weights: list[int], denom: int, indices: list[int],
                 degrees: list[int], vecs: list[tuple[int, ...]], crows: list[tuple[int, ...]], r,
                 keys: list[LocalElem] | None = None, precs: list[int | None] | None = None,
                 label: str = "", chart: tuple[str, str] = ("x", "y"),
                 map_from_prev: ChartMap | None = None):
        self.k, self.weights, self.denom, self.indices = k, weights, denom, indices
        self.degrees = degrees  # distinguished degrees of the level keys
        self.vecs = vecs  # level keys as monomials in the base keys
        self.crows = crows  # base keys as monomials in the level keys
        self.r = r  # residue of x / key_1^n_1: the translation constant of the next step
        self.keys, self.precs = keys, precs
        self.label, self.chart, self.map_from_prev = label, chart, map_from_prev

    @property
    def values(self) -> list[Fraction]:
        """The values of the level keys, weight / D."""
        return [Fraction(w, self.denom) for w in self.weights]

    def key_str(self, i: int) -> str:
        return self.keys[i].to_str(*self.chart)

    def mu_base(self, i: int) -> tuple[int, int]:
        """(exceptional order, restriction order) of base key i at this level."""
        row = self.crows[i]
        return row[0], sum(row[j] * self.degrees[j] for j in range(1, len(row)))

    def mu_vector(self, vec, mu_of=None) -> tuple[int, int]:
        """Composite orders of the monomial prod key_i^vec[i]: the
        vec-weighted sum of ``mu_of(i)``, by default ``mu_base``."""
        mu_of = mu_of or self.mu_base
        o = s = 0
        for i, m in enumerate(vec):
            if m:
                mo, ms = mu_of(i)
                o += m * mo
                s += m * ms
        return o, s


def _first_key_linear_parts(k1: LocalElem) -> tuple[Poly2, Poly2]:
    """(A, B) with key_1 = A(x)*y + B(x); requires an exactly y-linear
    polynomial first key with A(0) != 0."""
    if not k1.is_polynomial():
        raise NotApplicable("first key carries a non-constant denominator")
    k1 = k1.as_poly()
    if k1.deg_y() != 1:
        raise NotApplicable("first key is not y-linear in this chart")
    fld = k1.field
    a_poly = Poly2(fld, {(i, 0): c for (i, j), c in k1.terms.items() if j == 1})
    b_poly = Poly2(fld, {(i, 0): c for (i, j), c in k1.terms.items() if j == 0})
    if a_poly.constant_term() == fld.zero:
        raise NotApplicable("leading y-coefficient of the first key vanishes at 0")
    return a_poly, b_poly


def _chart_map(level: ChainLevel) -> ChartMap:
    """The exact chart map out of a level, built from its exact first key,
    which must be y-linear and polynomial (NotApplicable otherwise) and must
    push to the new coordinate (NonPolynomial otherwise)."""
    n1 = level.indices[1]
    a_poly, b_poly = _first_key_linear_parts(level.keys[1])
    fld = a_poly.field

    # chart map: x = r * X'^n1 * (Y'+1),  y = (X' - B(x-image)) / A(x-image)
    xs = Poly2.x(fld)
    ys = Poly2.y(fld)
    phi_x_poly = (xs**n1 * (ys + Poly2.one(fld))).scale(level.r)
    k = level.k + 1
    cmap = ChartMap(
        source=level.label,
        target=f"{level.label}/T{k}",
        n=n1,
        residue=level.r,
        phi_x=phi_x_poly,
        phi_y=LocalElem(xs - b_poly.compose(phi_x_poly, ys), a_poly.compose(phi_x_poly, ys)),
        chart_vars=(f"x{k}", f"y{k}"),
    )
    if cmap.push(level.keys[1]) != LocalElem(xs):
        raise NonPolynomial("chart map does not send the first key to the new coordinate")
    return cmap


def _shifted_key(cmap: ChartMap, level: ChainLevel, j: int, prec: int | None) -> LocalElem:
    """Old key j >= 2 pushed through ``cmap`` and divided by x'^(degree j):
    the new key j - 1, modulo x'^prec (exact for None).  The push must have
    exceptional order exactly degree j; NonPolynomial otherwise, naming the
    label and the key, and the precision x'^(degree j + prec) when the
    image vanishes modulo it."""
    dj = level.degrees[j]
    img = cmap.push(level.keys[j], None if prec is None else dj + prec)
    if img.is_zero():
        modulo = "" if prec is None else f" modulo {cmap.chart_vars[0]}^{dj + prec}"
        raise NonPolynomial(f"{cmap.target}: shifted key {j} vanishes{modulo}: "
                            f"its exceptional order exceeds {dj}")
    ordx = img.x_order()
    if ordx != dj:
        raise NonPolynomial(f"{cmap.target}: shifted key {j} has exceptional order {ordx}, "
                            f"expected {dj}")
    return img.divexact_xpow(dj)


def composite_transform(level: ChainLevel, nxt: ChainLevel) -> None:
    """Complete one composite transform out of ``level``: ``nxt``, the level
    after it, holds the chart map, the exact spine keys and the precision
    of every key (``ChartChain._walk_spine``); each old key j >= 2 past the
    spine is pushed into its new key j - 1 modulo x'^nxt.precs[j - 1]
    (exactly where that is None), with the checks of ``_shifted_key``."""
    for j in range(len(nxt.keys) + 1, len(level.keys)):
        nxt.keys.append(_shifted_key(nxt.map_from_prev, level, j, nxt.precs[j - 1]))


def _recursion_remainder(keys: list[LocalElem], j: int, e: int, prec: int) -> LocalElem:
    """key_j^e - key_{j+1} modulo x^prec."""
    return pow(keys[j], e, prec).__sub__(keys[j + 1], prec)


def _relation_exponent(level: ChainLevel, j: int) -> int:
    """a_j = (n_j * value_j - value_{j-1}) / value_0, the x-exponent of the
    recursion key_{j+1} = key_j^n_j - delta x^a_j key_{j-1}, in the level's
    integer weights; Inconsistent unless it is a nonnegative integer."""
    w = level.weights
    num = level.indices[j] * w[j] - w[j - 1]
    a, rest = divmod(num, w[0])
    if rest or a < 0:
        raise Inconsistent(f"level {level.k}, key {j + 1}: relation exponent "
                           f"{fmt_value(num, w[0])} is not a nonnegative integer")
    return a


def _validation_reads(level: ChainLevel) -> list[int]:
    """The x-precision at which ``validate_chart_seq`` reads each key of a
    level that passes it: 1 for the x^0 row, and a_j + o + 1 for both keys
    of the recursion remainder j, where o is the x-order of key j - 1: 1 for
    key 0 = x, 0 for every other key."""
    reads = [1] * len(level.weights)
    for j in range(1, len(reads) - 1):
        prec = _relation_exponent(level, j) + (j == 1) + 1
        reads[j] = max(reads[j], prec)
        reads[j + 1] = max(reads[j + 1], prec)
    return reads


def validate_chart_seq(level: ChainLevel) -> None:
    """Check what only a level's keys show: each key's distinguished
    degree (the y-order mod x) against ``level.degrees``, and the lowest
    term of each recursion key_{j+1} = key_j^e - delta x^a_j key_{j-1}, which
    must lie at x-order a_j + o (o that of key_{j-1}) with delta = 1 at the
    origin.  Every read must lie below the precision its key is known to.
    NonPolynomial names the label and the key that fails."""
    keys, precs = level.keys, level.precs
    fld = keys[0].field
    xname = level.chart[0]

    def fail(i, what):
        raise NonPolynomial(
            f"transformed sequence failed validation: {level.label}: key {i} {what}")

    for i in range(1, len(keys)):
        if keys[i].is_zero():
            fail(i, "is zero" if precs[i] is None else
                 f"vanishes modulo {xname}^{precs[i]}, the precision it is known to")
        x_ord, y_ord, _ = _bottom_row(keys[i])
        if x_ord != 0 or y_ord != level.degrees[i]:
            fail(i, f"has lowest term x^{x_ord} y^{y_ord}, not x^0 y^{level.degrees[i]}")

    for j in range(1, len(keys) - 1):
        o_low, t_low, lead_low = _bottom_row(keys[j - 1])
        o_pred = _relation_exponent(level, j) + o_low
        for i in (j, j + 1):
            if precs[i] is not None and o_pred + 1 > precs[i]:
                fail(i, f"is read modulo {xname}^{o_pred + 1}, past the "
                        f"{xname}^{precs[i]} it is known to")
        rem = _recursion_remainder(keys, j, level.indices[j], o_pred + 1)
        lowest = None if rem.is_zero() else _bottom_row(rem)
        if lowest is None or lowest[:2] != (o_pred, t_low):
            found = "none" if lowest is None else f"x^{lowest[0]} y^{lowest[1]}"
            fail(j + 1, f"recursion remainder does not lead with x^{o_pred} y^{t_low} "
                        f"(lowest term below x^{o_pred + 1}: {found})")
        res = fld.div(lowest[2], lead_low)
        if res != fld.one:
            fail(j + 1, f"recursion unit residue {fld.to_str(res)}, not 1")


class ChartChain:
    """Iterated composite transforms of one generating sequence.

    Each level's values, indices and degrees are computed once, by
    ``_next_orders``; the exponent-vector and composite-order bookkeeping is
    exact at every level.  Keys are carried at the levels 1..K that exact
    chart maps reach, and each at the precision its readers need.

    The spine stays exact: key 0 and every key j of level k with
    k + j - 1 <= K, that is, each key that becomes a first key by level K.
    K is found by walking the spine ahead (``_walk_spine``).  Any other key
    j of level k is read by ``validate_chart_seq`` (``_validation_reads``)
    and, below level K, by the push into level k + 1, whose new key j - 1
    must be known modulo x'^R_{k+1}(j - 1).  So it is carried modulo
    x^R_k(j), the larger of its validation read and
    ceil((degree j + R_{k+1}(j - 1)) / n_1), computed backward from level K;
    the base keys of level 1 are exact.  With ``exact=True`` every
    precision is None and every key exact; the code path is the same.
    """

    def __init__(self, base: GenSeq, exact: bool = False):
        lat = base.ensure_valid()
        self.base = base
        self.exact = exact
        self._top = None  # K, from ``_walk_spine``
        self._orders = {}  # k -> the level after level k, from ``_next_orders``
        nbase = len(base.keys)
        ident = [tuple(1 if t == i else 0 for t in range(nbase)) for i in range(nbase)]
        r = base.field.one
        if nbase > 1 and lat.weights[0] == lat.indices[1] * lat.weights[1]:
            try:
                r = residue_of_quotient(base.keys[0], base.keys[1] ** lat.indices[1], base)
            except SequenceTooShort:
                pass  # expanding key_1^n_1 needs a key past key_1; normalize r to 1
        self.levels = [
            ChainLevel(
                k=1,
                weights=list(lat.weights),
                denom=lat.denom,
                indices=list(lat.indices),
                degrees=list(lat.degrees),
                vecs=ident,
                crows=ident,
                r=r,
                keys=[LocalElem(key) for key in base.keys],
                precs=[None] * nbase,
                label=base.label or "chart",
                chart=base.chart,
            )
        ]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, k: int) -> ChainLevel:
        if k < 1:
            raise ValueError("levels are 1-based")
        while self.depth < k:
            self.extend()
        return self.levels[k - 1]

    def _next_orders(self, cur: ChainLevel) -> ChainLevel:
        """The level after ``cur``, without keys: its values, indices and
        degrees from the composite-order calculus, in integer weights over
        the chain's D, checked (see ``extend``), and its exponent-vector
        tables.  The witnesses of the checks name values through
        ``fmt_value``."""
        w, denom = cur.weights, cur.denom
        if len(w) < 2:
            raise NotApplicable("chain exhausted: too few keys to transform")
        n1 = cur.indices[1]
        if w[0] != n1 * w[1]:
            raise NotApplicable("ratio condition fails along the chain")
        m = len(w) - 1  # new key count
        k = cur.k + 1

        new_weights = [w[1]] + [w[j] - cur.degrees[j] * w[1] for j in range(2, m + 1)]
        for i, v in enumerate(new_weights):
            if v <= 0:
                raise Inconsistent(f"level {k}, key {i}: value {fmt_value(v, denom)} "
                                   "is not positive")
        new_indices = stage_indices(new_weights)
        new_degrees = [0]
        for i in range(1, m):
            new_degrees.append(new_degrees[i - 1] * new_indices[i - 1] if i > 1 else 1)
        # the shifted old degrees are n_1 times the new ones
        for i in range(1, m):
            if cur.degrees[i + 1] != n1 * new_degrees[i]:
                raise Inconsistent(
                    f"level {k}, key {i}: n_1 * distinguished degree = {n1} * "
                    f"{new_degrees[i]} is not the shifted degree {cur.degrees[i + 1]}"
                )
        for i in range(1, m - 1):
            if new_weights[i + 1] <= new_indices[i] * new_weights[i]:
                raise Inconsistent(
                    f"level {k}, key {i + 1}: value {fmt_value(new_weights[i + 1], denom)} "
                    f"does not exceed {new_indices[i]} * {fmt_value(new_weights[i], denom)}"
                )

        new_vecs = [cur.vecs[1]] + [
            tuple(
                cur.vecs[j][i] - cur.degrees[j] * cur.vecs[1][i]
                for i in range(len(cur.vecs[j]))
            )
            for j in range(2, m + 1)
        ]
        new_crows = []
        for row in cur.crows:
            first = row[0] * n1 + (row[1] if len(row) > 1 else 0)
            first += sum(row[j] * cur.degrees[j] for j in range(2, len(row)))
            new_crows.append((first,) + tuple(row[j] for j in range(2, len(row))))

        nl = ChainLevel(
            k=k,
            weights=new_weights,
            denom=denom,
            indices=new_indices,
            degrees=new_degrees,
            vecs=new_vecs,
            crows=new_crows,
            # validation rejects every recursion unit but 1, so from here on
            # x / key_1^n_1 has residue 1
            r=self.base.field.one,
        )
        for j in range(1, m - 1):
            _relation_exponent(nl, j)
        return nl

    def _walk_spine(self) -> int:
        """K, the last level an exact chart map reaches, computed on first
        use with levels 2..K: each with the chart map into it, its spine
        keys (exact) and the precision of every key.

        Level t's first key is base key t pushed through the maps into
        levels 2..t, and the map out of level t is built from it.  So the
        walk adds one anti-diagonal at a time: it pushes base key t through
        the maps it has, each image the spine key of its level, and stops at
        the first level with no exact map out of it (NotApplicable), or with
        key 0 alone.  The precisions then follow backward from level K (see
        the class docstring).  ``extend`` reads the order data of each level
        the walk reached from ``_orders``."""
        if self._top is not None:
            return self._top
        first = self.levels[0]
        lvls = [first]
        while True:
            cur = lvls[-1]
            try:
                nl = self._orders[cur.k] = self._next_orders(cur)
                nl.map_from_prev = _chart_map(cur)
            except NotApplicable:
                break
            nl.label, nl.chart = nl.map_from_prev.target, nl.map_from_prev.chart_vars
            nl.keys = [LocalElem(Poly2.x(self.base.field))]
            lvls.append(nl)
            t = len(lvls)
            if t < len(first.keys):
                for k in range(1, t):  # key t - k + 1 of level k -> key t - k of level k + 1
                    prev, lvl = lvls[k - 1], lvls[k]
                    lvl.keys.append(_shifted_key(lvl.map_from_prev, prev, t - k + 1, None))
        top = self._top = len(lvls)  # K
        for k in range(top, 1, -1):
            lvl = lvls[k - 1]
            lvl.precs = []
            for j, read in enumerate(_validation_reads(lvl)):
                if self.exact or k + j - 1 <= top:
                    lvl.precs.append(None)
                elif k == top:
                    lvl.precs.append(read)
                else:
                    pushed = lvl.degrees[j] + lvls[k].precs[j - 1]
                    lvl.precs.append(max(read, lvls[k].map_from_prev.input_prec(pushed)))
        return top

    def extend(self):
        """Append the next level.  Its values, indices and degrees come from
        the composite-order calculus (``_next_orders``, once per level) and
        are checked at every level: positive values, degrees equal to the
        index products, growth v_{i+1} > n_i * v_i and integral relation
        exponents a_j >= 0 (Inconsistent otherwise).  The levels 2..K that
        exact maps reach have their chart maps and spine keys from
        ``_walk_spine``; here they get their other keys
        (``composite_transform``), and ``validate_chart_seq`` checks them."""
        cur = self.levels[-1]
        top = self._walk_spine()
        nl = self._orders.get(cur.k) or self._next_orders(cur)
        if nl.k <= top:
            composite_transform(cur, nl)
            validate_chart_seq(nl)
        # cross-check: the two bookkeeping directions must be mutually inverse
        for j, vec in enumerate(nl.vecs):
            expected = (1, 0) if j == 0 else (0, nl.degrees[j])
            got = nl.mu_vector(vec)
            if got != expected:
                raise Inconsistent(
                    f"composite-order tables disagree at level {nl.k}, key {j}: "
                    f"{got} != {expected}"
                )
        self.levels.append(nl)

    def pull_back(self, k: int, prec: int | None) -> tuple[list, int | None]:
        """(map, output precision) for the exact chart maps into levels
        2..k, in order, when the push into level k is read modulo x_k^prec;
        and the precision this pulls back to at level 1.
        NotApplicable if no exact map reaches level k."""
        self.level(k)
        steps = []  # (map, its output precision), from level k back to level 2
        for lvl in reversed(self.levels[1:k]):
            if lvl.map_from_prev is None:
                raise NotApplicable(f"no exact chart map into level {lvl.k}")
            steps.append((lvl.map_from_prev, prec))
            prec = lvl.map_from_prev.input_prec(prec)
        return steps[::-1], prec

    def push_exact(self, elem, k: int, prec: int | None = None) -> LocalElem:
        """Push an element of the base chart into level k through exact maps,
        modulo x_k^prec when ``prec`` is given: each map is entered with the
        precision that the maps after it pull back to (``pull_back``)."""
        steps, prec = self.pull_back(k, prec)
        out = _as_elem(elem).truncate(prec)
        for cmap, out_prec in steps:
            out = cmap.push(out, out_prec)
        return out


# -- the tower ladder ----------------------------------------------------------


class LadderRow(namedtuple("LadderRow", "level extension form defect")):
    """One ladder row: the stable form and defect of one extension ("S/A",
    "A/R" or "S/R") at one level."""

    __slots__ = ()

    def as_dict(self) -> dict:
        out = {"j": self.level, "extension": self.extension}
        out.update(self.form.as_dict())
        out["delta"] = self.defect
        return out


def _mu_with_certificate(level, certs, i: int, host_mu=None):
    """Composite order of a foreign key at a chain level, justified by its
    comparison certificate: the deviation's exceptional order must strictly
    dominate the matched power of the host key."""
    cert = certs[i]
    base = level.mu_base(i) if host_mu is None else host_mu(i)
    mu = (cert.mult * base[0], cert.mult * base[1])
    w0 = level.mu_base(0)[0]
    # the deviation is x^t * (ring element), so its order is >= t * ord(x)
    if cert.t_order * w0 <= mu[0]:
        raise Inconsistent(
            f"order dominance fails for foreign key {i} at level {level.k}: "
            f"{cert.t_order} * {w0} <= {mu[0]}"
        )
    return mu


def run_tower_ladder(tower, levels: int) -> list[LadderRow]:
    """Per-level stable forms of the two sub-extensions and their composite.

    All three chart chains advance in lockstep; the parameters of the coarser
    charts are exact monomials in their chain's original keys, and their
    stable-form orders in the finer chart come from the composite-order
    calculus backed by the cross-chart comparison certificates.  The defect
    exponent of each row is read with e = f = f_res = 1: the value groups
    agree in the limit and the residue fields are prime.
    """
    p = tower.p
    if levels > tower.length - 1:
        raise NotApplicable(
            f"levels {levels} exceed the built key span (length {tower.length}); "
            "rebuild the tower with a larger length"
        )
    certs_mid = tower.certificates("mid-in-top")
    certs_base = tower.certificates("base-in-mid")
    rows: list[LadderRow] = []
    for k in range(1, levels + 1):
        lvl_s, lvl_a, lvl_r = (tower.chain(which).level(k) for which in "SAR")
        mid_in_top = partial(_mu_with_certificate, lvl_s, certs_mid)
        # (extension, host level, certificates, foreign level, orders of the
        # host keys, error text); the composite reads the base keys in the
        # top chart through both certificates
        for ext, host, certs, foreign, host_mu, not_monomial in (
            ("S/A", lvl_s, certs_mid, lvl_a, None,
             "middle x-parameter is not unit * x^a in the top chart"),
            ("A/R", lvl_a, certs_base, lvl_r, None,
             "base u-parameter is not unit * x^a in the middle chart"),
            ("S/R", lvl_s, certs_base, lvl_r, mid_in_top,
             "base u-parameter is not unit * x^a in the top chart"),
        ):
            mu_of = partial(_mu_with_certificate, host, certs, host_mu=host_mu)
            a, t = host.mu_vector(foreign.vecs[0], mu_of)
            if t != 0:
                raise NotMonomial(f"level {k}: {not_monomial}")
            b, d = host.mu_vector(foreign.vecs[1], mu_of)
            sf = stable_form_from_orders(a, b, d, p)
            rows.append(LadderRow(k, ext, sf, defect_from_stable(sf, 1, 1, p)))
    return rows
