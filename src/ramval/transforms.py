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
every product past x'^K is skipped.  ``ChartChain.pull_back`` is the one
place that pulls a precision back through the maps.  The parameter links
push the foreign keys this way at every level the exact maps reach, with K
one past the x-order the calculus predicts, and check the pushed orders
against it.  Every push, exact or truncated, runs the one substitution
kernel, ``Poly2.compose`` (through ``LocalElem.compose``).

The chain checks are split by what they read.  ``ChartChain.extend`` checks
the conditions on values at every level: positive values, growth
v_{i+1} > n_i * v_i, distinguished degrees equal to the index products, and
integral relation exponents a_j >= 0.  ``validate_chart_seq`` checks what
only exact keys show, at the levels that have them: each key's distinguished
degree, and the lowest term of each recursion remainder key_j^e - key_{j+1},
formed modulo x^(a_j + o + 1), one past the x-order o + a_j that the
recursion shape predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .algebra import LocalElem, Poly2
from .genseq import GenSeq, Inconsistent, SequenceTooShort, residue_of_quotient
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
        x'^prec when ``prec`` is given."""
        return _as_elem(elem).compose(self.phi_x, self.phi_y, prec)

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


def _recursion_remainder(keys: list[LocalElem], j: int, e: int, prec: int) -> LocalElem:
    """key_j^e - key_{j+1} modulo x^prec."""
    return pow(keys[j], e, prec).__sub__(keys[j + 1], prec)


def _relation_exponent(level: ChainLevel, j: int) -> int:
    """a_j = (n_j * value_j - value_{j-1}) / value_0, the x-exponent of the
    recursion key_{j+1} = key_j^n_j - delta x^a_j key_{j-1}; Inconsistent
    unless it is a nonnegative integer."""
    v = level.values
    a = (level.indices[j] * v[j] - v[j - 1]) / v[0]
    if a.denominator != 1 or a < 0:
        raise Inconsistent(f"level {level.k}, key {j + 1}: relation exponent {a} "
                           "is not a nonnegative integer")
    return int(a)


def validate_chart_seq(level: ChainLevel) -> None:
    """Check what only a level's exact keys show: each key's distinguished
    degree (the y-order mod x) against ``level.degrees``, and the lowest
    term of each recursion key_{j+1} = key_j^e - delta x^a_j key_{j-1}, which
    must lie at x-order a_j + o (o that of key_{j-1}) with delta = 1 at the
    origin.  NonPolynomial names the label and the key that fails."""
    keys = level.keys
    fld = keys[0].field

    def fail(i, what):
        raise NonPolynomial(
            f"transformed sequence failed validation: {level.label}: key {i} {what}")

    for i in range(1, len(keys)):
        x_ord, y_ord, _ = _bottom_row(keys[i])
        if x_ord != 0 or y_ord != level.degrees[i]:
            fail(i, f"has lowest term x^{x_ord} y^{y_ord}, not x^0 y^{level.degrees[i]}")

    for j in range(1, len(keys) - 1):
        o_low, t_low, lead_low = _bottom_row(keys[j - 1])
        o_pred = _relation_exponent(level, j) + o_low
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
            except SequenceTooShort:
                pass  # expanding key_1^n_1 needs a key past key_1; normalize r to 1
        self.levels = [
            ChainLevel(
                k=1,
                values=list(base.values),
                indices=list(lat.indices),
                degrees=list(lat.degrees),
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
        """Append the next level.  Its values, indices and degrees come from
        the composite-order calculus and are checked here, at every level:
        positive values, degrees equal to the index products, growth
        v_{i+1} > n_i * v_i and integral relation exponents a_j >= 0
        (Inconsistent otherwise).  While exact keys exist, the level gets
        its chart map, and ``validate_chart_seq`` checks its keys."""
        cur = self.levels[-1]
        if len(cur.values) < 2:
            raise NotApplicable("chain exhausted: too few keys to transform")
        n1 = cur.indices[1]
        if cur.values[0] != n1 * cur.values[1]:
            raise NotApplicable("ratio condition fails along the chain")
        m = len(cur.values) - 1  # new key count
        k = cur.k + 1

        new_values = [cur.values[1]] + [
            cur.values[j] - cur.degrees[j] * cur.values[1] for j in range(2, m + 1)
        ]
        for i, v in enumerate(new_values):
            if v <= 0:
                raise Inconsistent(f"level {k}, key {i}: value {v} is not positive")
        new_indices = stage_indices(new_values)
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
            if new_values[i + 1] <= new_indices[i] * new_values[i]:
                raise Inconsistent(
                    f"level {k}, key {i + 1}: value {new_values[i + 1]} does not exceed "
                    f"{new_indices[i]} * {new_values[i]}"
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
            values=new_values,
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
        if cur.keys is not None:
            try:
                nl.map_from_prev, nl.keys = composite_transform(cur)
            except NotApplicable:
                pass  # continue with the order calculus only
            else:
                nl.label, nl.chart = nl.map_from_prev.target, nl.map_from_prev.chart_vars
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
            if prec is not None:
                # the old x maps into (x'^n), so the map reads its input
                # modulo x^ceil(prec / n)
                prec = -(-prec // lvl.map_from_prev.n)
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
