"""Composite quadratic transforms along a valuation, transport of generating
sequences between charts, and stable-form ramification invariants.

A composite transform step sends the chart of a sequence with keys K_0 = x,
K_1, ... to the next chart along the valuation: the new coordinate is
X' = K_1, the old coordinate satisfies x = r * X'^n * (Y' + 1) where n is the
first index and r the residue of x / K_1^n, and the shifted keys are
K'_{j-1} = K_{j+1} / K_1^{deg K_{j+1}} re-expressed in the new chart.  The
new keys are computed exactly as numerator / unit-denominator pairs as long
as the first key is y-linear with polynomial coefficients, which covers the
whole acceptance range of the tower scenarios.

Invariants of deep levels are extracted through the composite-order calculus:
every level-k key is an exact monomial in the original keys, the pair
(exceptional order, restriction order) is additive on such monomials, and its
values on original keys follow an integer recursion across levels.

Where only leading data is needed, an element is pushed modulo x'^K: the old
x maps into (x'^n), so each map reads its input modulo x^ceil(K / n), and
every product past x'^K is skipped.  The parameter links push the foreign
keys this way at every level the exact maps reach, with K one past the
x-order the calculus predicts, and check the pushed orders against it.
Every push, exact or truncated, substitutes y-row by y-row: one x-image per
x-exponent, one product with its y-image per row (``LocalElem.compose``).

The chart checks read leading data too.  ``validate_chart_seq`` forms each
recursion remainder key_j^e - key_{j+1} modulo x^(a_j + o + 1), one past the
x-order o + a_j that the recursion shape predicts, and forms it whole only
when nothing is left below that power (zero, or too high an order: the two
failures it reports apart).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .algebra import IndeterminateOrder, LocalElem, NotInField, Poly2
from .genseq import (
    GenSeq,
    Inconsistent,
    SequenceTooShort,
    ValidityReport,
    residue_of_quotient,
)
from .values import p_adic_split, stage_indices

Value = Fraction


class NotApplicable(ArithmeticError):
    """The composite step's ratio condition (or chart-map shape) fails."""


class NonPolynomial(Inconsistent):
    """A declared key quotient is not regular in the new chart."""


class NotMonomial(Inconsistent):
    """An element expected to be unit * x^a is not."""


class NotPPower(Inconsistent):
    """The residual order d is not a power of p (outside the stable range)."""


# -- stable forms -------------------------------------------------------------


@dataclass(frozen=True)
class StableForm:
    """Invariants (a, a_bar, alpha, b, d, beta) of a parameter pair."""

    a: int
    a_bar: int
    alpha: int
    b: int
    d: int
    beta: int
    unit_residue: object = 1

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
    coefficient), the lowest term under a monomial order.  It is
    multiplicative, because k[x, y] is a domain."""
    fld = elem.field
    onum = elem.num.x_order()
    oden = elem.den.x_order()
    num_row = elem.num.x_coefficient(onum)
    den_row = elem.den.x_coefficient(oden)
    tn, td = min(num_row), min(den_row)
    return onum - oden, tn - td, fld.div(num_row[tn], den_row[td])


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


@dataclass
class ChartMap:
    """Substitution rules expressing old chart parameters in the new chart."""

    source: str
    target: str
    n: int
    residue: object
    phi_x: LocalElem  # image of the old x
    phi_y: LocalElem  # image of the old y
    chart_vars: tuple[str, str] = ("x'", "y'")

    def push(self, elem, prec: int | None = None) -> LocalElem:
        """Re-express an element of the old chart in the new chart, modulo
        x'^prec when ``prec`` is given.  The old x maps into (x'^n), so the
        element is read only modulo x^ceil(prec / n)."""
        elem = _as_elem(elem)
        if prec is not None:
            elem = elem.truncate(-(-prec // self.n))
        return elem.compose(self.phi_x, self.phi_y, prec)

    def describe(self) -> dict:
        xn, yn = self.chart_vars
        return {
            "source": self.source,
            "target": self.target,
            "old_x": f"{self.phi_x.field.to_str(self.residue)} * {xn}^{self.n} * ({yn} + 1)",
            "old_y": self.phi_y.to_str(xn, yn),
        }


@dataclass
class ChainLevel:
    """One chart of a chain: values, indices and distinguished degrees of its
    keys, the composite-order tables, and the exact keys (numerator /
    unit-denominator pairs named by ``chart``) as long as the chart maps stay
    exactly representable."""

    k: int
    values: list[Fraction]
    indices: list[int]
    degrees: list[int]  # distinguished degrees of the level keys
    vecs: list[tuple[int, ...]]  # level keys as monomials in the base keys
    crows: list[tuple[int, ...]]  # base keys as monomials in the level keys
    r: object  # residue of x / key_1^n_1: the translation constant of the next step
    keys: list[LocalElem] | None = None
    label: str = ""
    chart: tuple[str, str] = ("x", "y")
    map_from_prev: ChartMap | None = None

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


def composite_transform(level: ChainLevel) -> tuple[ChartMap, list[LocalElem]]:
    """One composite transform out of a chain level with exact keys: the
    chart map and the shifted keys of the next level.

    The caller has checked value_0 = n_1 * value_1.  The first key must be
    y-linear and polynomial (NotApplicable otherwise: no exact chart map),
    and every old key j >= 2 must push to exactly x'^(degree j) times a
    regular element, which is the new key j - 1 (NonPolynomial otherwise).
    """
    keys = level.keys
    n1 = level.indices[1]
    a_poly, b_poly = _first_key_linear_parts(keys[1])
    fld = a_poly.field

    # chart map: x = r * X'^n1 * (Y'+1),  y = (X' - B(x-image)) / A(x-image)
    xs = Poly2.x(fld)
    ys = Poly2.y(fld)
    phi_x_poly = (xs**n1 * (ys + Poly2.one(fld))).scale(level.r)
    phi_x = LocalElem(phi_x_poly)
    phi_y = LocalElem(xs - b_poly.compose(phi_x_poly, ys), a_poly.compose(phi_x_poly, ys))

    k = level.k + 1
    cmap = ChartMap(
        source=level.label,
        target=f"{level.label}/T{k}",
        n=n1,
        residue=level.r,
        phi_x=phi_x,
        phi_y=phi_y,
        chart_vars=(f"x{k}", f"y{k}"),
    )

    if cmap.push(keys[1]) != LocalElem(xs):
        raise NonPolynomial("chart map does not send the first key to the new coordinate")
    new_keys = [LocalElem(xs)]
    for j in range(2, len(keys)):
        img = cmap.push(keys[j])
        dj = level.degrees[j]
        ordx = img.x_order()
        if ordx != dj:
            raise NonPolynomial(
                f"shifted key {j} has exceptional order {ordx}, expected {dj}"
            )
        new_keys.append(img.divexact_xpow(dj))
    return cmap, new_keys


def _recursion_remainder(keys: list[LocalElem], j: int, e: int,
                         prec: int | None = None) -> LocalElem:
    """key_j^e - key_{j+1}, modulo x^prec when ``prec`` is given."""
    kj, kn = keys[j], keys[j + 1]
    den_pow = pow(kj.den, e, prec)
    num = pow(kj.num, e, prec).__mul__(kn.den, prec) - kn.num.__mul__(den_pow, prec)
    return LocalElem(num, den_pow.__mul__(kn.den, prec))


def validate_chart_seq(level: ChainLevel) -> ValidityReport:
    """Validity of a transformed level's exact keys: growth, the
    distinguished degrees of the key restrictions against the products of
    the indices, and the recursion shape key_{j+1} = key_j^e - delta x^a
    key_{j-1} with delta = 1 at the origin."""
    keys, values, idx = level.keys, level.values, level.indices
    fld = keys[0].field
    rows = []
    ok = True

    # distinguished degrees against prescribed products of indices
    for i in range(1, len(keys)):
        row: dict = {"i": i}
        expected = 1
        for t in range(1, i):
            expected *= idx[t]
        # the y-order mod x: the bottom row's y-order when the x-order is 0
        x_ord, y_ord, _ = _bottom_row(keys[i])
        wdeg = y_ord if x_ord == 0 else None
        row["index_computed"] = idx[i]
        row["order"] = idx[i]
        degree_ok = wdeg == level.degrees[i] == expected
        row["degree"] = degree_ok
        growth = True
        if i + 1 < len(keys):
            growth = values[i + 1] > idx[i] * values[i]
        row["growth"] = growth
        row["monic"] = True  # distinguished up to a unit; degree check is the content
        rows.append(row)
        ok = ok and degree_ok and growth and values[i] > 0

    # recursion shapes with unit residue 1
    for j in range(1, len(keys) - 1):
        e_j = idx[j]
        a_j = (e_j * values[j] - values[j - 1]) / values[0]
        if a_j.denominator != 1 or a_j < 0:
            ok = False
            rows.append(dict(i=j, index_computed="-", order="-", growth="-",
                             monic=False, degree=f"relation exponent {a_j} not integral"))
            continue
        a_j = int(a_j)
        o_low, t_low, lead_low = _bottom_row(keys[j - 1])
        # the row check reads x-orders up to a_j + o_low only; the whole
        # remainder is formed just to tell zero from too high an order
        rem = _recursion_remainder(keys, j, e_j, a_j + o_low + 1)
        if rem.is_zero():
            rem = _recursion_remainder(keys, j, e_j)
        try:
            o_rem, t_rem, lead_rem = _bottom_row(rem)
        except IndeterminateOrder:  # key_j^e_j == key_{j+1}: no lower term
            ok = False
            rows.append(dict(i=j, index_computed="-", order="-", growth="-",
                             monic=False, degree="recursion remainder is zero"))
            continue
        # key_0 = x carries its own x power; delta(0,0) is the ratio of the
        # leading coefficients at matching y-order
        shape_ok = o_rem == a_j + o_low and t_rem == t_low
        res = fld.div(lead_rem, lead_low) if shape_ok else None
        if not shape_ok or res != fld.one:
            ok = False
            rows.append(dict(i=j, index_computed="-", order="-", growth="-",
                             monic=False, degree=f"recursion unit residue {res}"))
    return ValidityReport(level.label, rows, ok)


class ChartChain:
    """Iterated composite transforms of one generating sequence.

    Each level's values, indices and degrees are computed once, in
    ``extend``.  Exact chart keys are carried as long as the chart map stays
    exactly representable; the exponent-vector and composite-order
    bookkeeping is exact at every level.
    """

    def __init__(self, base: GenSeq):
        lat = base.ensure_valid()
        self.base = base
        nbase = len(base.keys)
        ident = [tuple(1 if t == i else 0 for t in range(nbase)) for i in range(nbase)]
        r = base.field.one
        if nbase > 1 and base.values[0] == lat.indices[1] * base.values[1]:
            try:
                r = residue_of_quotient(base.keys[0], base.keys[1] ** lat.indices[1], base)
            except (NotInField, SequenceTooShort):
                pass  # underdetermined by the sequence data; normalize to 1
        self.levels = [
            ChainLevel(
                k=1,
                values=list(base.values),
                indices=list(lat.indices),
                degrees=[0] + [max(d, 1) for d in lat.degrees[1:]],
                vecs=ident,
                crows=ident,
                r=r,
                keys=[LocalElem(key) for key in base.keys],
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

    def extend(self):
        cur = self.levels[-1]
        if len(cur.values) < 2:
            raise NotApplicable("chain exhausted: too few keys to transform")
        n1 = cur.indices[1]
        if cur.values[0] != n1 * cur.values[1]:
            raise NotApplicable("ratio condition fails along the chain")
        m = len(cur.values) - 1  # new key count

        new_values = [cur.values[1]] + [
            cur.values[j] - cur.degrees[j] * cur.values[1] for j in range(2, m + 1)
        ]
        new_indices = stage_indices(new_values)
        new_degrees = [0]
        for i in range(1, m):
            new_degrees.append(new_degrees[i - 1] * new_indices[i - 1] if i > 1 else 1)
        # degrees must agree with the shifted old ones
        for j in range(2, m + 1):
            if cur.degrees[j] // n1 != new_degrees[j - 1]:
                raise Inconsistent("distinguished degrees disagree with the index products")

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
            k=cur.k + 1,
            values=new_values,
            indices=new_indices,
            degrees=new_degrees,
            vecs=new_vecs,
            crows=new_crows,
            # validation rejects every recursion unit but 1, so from here on
            # x / key_1^n_1 has residue 1
            r=self.base.field.one,
        )
        if cur.keys is not None:
            try:
                nl.map_from_prev, nl.keys = composite_transform(cur)
            except NotApplicable:
                pass  # continue with the order calculus only
            else:
                nl.label, nl.chart = nl.map_from_prev.target, nl.map_from_prev.chart_vars
                report = validate_chart_seq(nl)
                if not report.ok:
                    raise NonPolynomial(
                        "transformed sequence failed validation:\n" + report.summary()
                    )
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

    def maps_to(self, k: int) -> list[ChartMap]:
        """Chart maps for levels 1 -> k (requires exact keys throughout)."""
        self.level(k)
        maps = []
        for lvl in self.levels[1:k]:
            if lvl.map_from_prev is None:
                raise NotApplicable(f"no exact chart map into level {lvl.k}")
            maps.append(lvl.map_from_prev)
        return maps

    def push_exact(self, elem, k: int, prec: int | None = None) -> LocalElem:
        """Push an element of the base chart into level k through exact maps,
        modulo x_k^prec when ``prec`` is given: each map is entered with the
        precision that the maps after it pull back to."""
        maps = self.maps_to(k)
        precs = [prec]  # output precision of each map, from the last one back
        for cmap in reversed(maps[1:]):
            precs.append(None if prec is None else -(-precs[-1] // cmap.n))
        out = _as_elem(elem)
        if prec is not None and not maps:
            out = out.truncate(prec)
        for cmap, out_prec in zip(maps, reversed(precs)):
            out = cmap.push(out, out_prec)
        return out


# -- the tower ladder ----------------------------------------------------------


@dataclass(frozen=True)
class LadderRow:
    level: int
    extension: str  # "S/A", "A/R" or "S/R"
    form: StableForm
    defect: int

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
    if cert.t_order is not None:
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
