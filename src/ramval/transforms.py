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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .algebra import Fq, IndeterminateOrder, LocalElem, NotInField, Poly2
from .genseq import GenSeq, SequenceTooShort, ValidityReport, residue_of_quotient
from .values import ValueGroup, fmt_value, group_join, order_in_quotient

Value = Fraction


class NotApplicable(ArithmeticError):
    """The composite step's ratio condition (or chart-map shape) fails."""


class NonPolynomial(ArithmeticError):
    """A declared key quotient is not regular in the new chart."""


class NotMonomial(ArithmeticError):
    """An element expected to be unit * x^a is not."""


class NotPPower(ArithmeticError):
    """The residual order d is not a power of p (outside the stable range)."""


class Inconsistent(ArithmeticError):
    pass


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


@dataclass(frozen=True)
class ExtensionInvariants:
    e: int
    f: int
    defect_exponent: int


def _p_adic_split(a: int, p: int) -> tuple[int, int]:
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    return a, alpha


def _as_elem(e) -> LocalElem:
    return e if isinstance(e, LocalElem) else LocalElem(e)


def stable_form(u_elem, v_elem, p: int) -> StableForm:
    """Extract (a, a_bar, alpha, b, d, beta) from chart elements.

    u_elem must be unit * x^a exactly; v_elem = x^b * f with d the y-order of
    f mod x.  Elements are Poly2 or numerator/unit-denominator pairs in the
    chart's coordinates.
    """
    u = _as_elem(u_elem)
    v = _as_elem(v_elem)
    if u.is_zero() or v.is_zero():
        raise ValueError("parameters must be nonzero")
    a = u.x_order()
    if a < 1:
        raise NotMonomial("first parameter must vanish on x = 0")
    witness = LocalElem(u.num.divexact_xpow(u.num.x_order()), u.den)
    if witness.y_order_mod_x() != 0:
        raise NotMonomial("first parameter is not unit * x^a")
    b = v.x_order()
    if b < 0:
        raise ValueError("second parameter is not in the local ring")
    f_part = LocalElem(v.num.divexact_xpow(v.num.x_order()), v.den)
    d = f_part.y_order_mod_x()
    if d < 1:
        raise NotMonomial("second parameter is unit * x^b; no residual order")
    a_bar, alpha = _p_adic_split(a, p)
    d_bar, beta = _p_adic_split(d, p)
    if d_bar != 1:
        raise NotPPower(f"residual order d = {d} is not a power of {p}")
    return StableForm(a, a_bar, alpha, b, d, beta, witness.residue_at_origin())


def stable_form_from_orders(a: int, b: int, d: int, p: int, unit_residue=1) -> StableForm:
    """Assemble a StableForm from already-computed composite orders."""
    if a < 1:
        raise NotMonomial(f"exceptional order of the first parameter is {a}")
    a_bar, alpha = _p_adic_split(a, p)
    d_bar, beta = _p_adic_split(d, p) if d >= 1 else (d, 0)
    if d < 1 or d_bar != 1:
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
    q, delta = num // den, 0
    while q % p == 0:
        q //= p
        delta += 1
    if q != 1:
        raise Inconsistent(f"a*d*f_res/(e*f) = {num // den} is not a power of {p}")
    return delta


# -- chart maps and transformed sequences -------------------------------------


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

    def push(self, elem) -> LocalElem:
        """Re-express an element of the old chart in the new chart."""
        return _as_elem(elem).compose(self.phi_x, self.phi_y)

    def push_rational(self, num, den) -> tuple[LocalElem, LocalElem]:
        return self.push(num), self.push(den)

    def describe(self) -> dict:
        xn, yn = self.chart_vars
        return {
            "source": self.source,
            "target": self.target,
            "old_x": f"{self.residue} * {xn}^{self.n} * ({yn} + 1)",
            "old_y": self.phi_y.to_str(xn, yn),
        }


@dataclass
class ChartSeq:
    """Generating sequence in a transformed chart.

    Keys are numerator / unit-denominator pairs; ``degrees`` holds the
    distinguished (Weierstrass) y-degrees, which the constructor verifies
    against the restrictions to x = 0.
    """

    field: Fq
    keys: list[LocalElem]
    values: list[Fraction]
    degrees: list[int]
    chart: tuple[str, str]
    label: str = ""
    level: int = 1
    rel_residues: list = dc_field(default_factory=list)

    def __len__(self):
        return len(self.keys)

    @property
    def top(self):
        return len(self.keys) - 1

    def indices(self) -> list[int]:
        grp = ValueGroup(Fraction(0))
        out = [0]
        grp = group_join(grp, self.values[0])
        for i in range(1, len(self.values)):
            out.append(order_in_quotient(self.values[i], grp))
            grp = group_join(grp, self.values[i])
        return out

    def key_str(self, i: int) -> str:
        return self.keys[i].to_str(*self.chart)

    def describe(self) -> list[dict]:
        idx = self.indices()
        return [
            {
                "i": i,
                "key": self.key_str(i),
                "value": fmt_value(self.values[i]),
                "index": idx[i] if i else "",
            }
            for i in range(len(self.keys))
        ]


def _first_key_linear_parts(seq) -> tuple[Poly2, Poly2]:
    """(A, B) with key_1 = A(x)*y + B(x); requires an exactly y-linear
    polynomial first key with A(0) != 0."""
    k1 = seq.keys[1]
    if isinstance(k1, LocalElem):
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


def _seq_degrees(seq) -> list[int]:
    if isinstance(seq, GenSeq):
        return list(seq.ensure_valid().degrees)
    return seq.degrees


def _seq_keys(seq) -> list[LocalElem]:
    return [_as_elem(k) for k in seq.keys]


def _step_residue(seq, n1: int):
    """Residue r of x / key_1^n1 (the chart translation constant)."""
    fld = seq.field
    if isinstance(seq, GenSeq):
        try:
            return residue_of_quotient(seq.keys[0], seq.keys[1] ** n1, seq)
        except (NotInField, SequenceTooShort):
            # underdetermined by the sequence data; normalize to 1
            return fld.one
    if seq.rel_residues:
        return fld.inv(seq.rel_residues[0])
    return fld.one


def _compose_x_only(poly_x: Poly2, sub: Poly2) -> Poly2:
    """poly_x(sub) for a polynomial in x alone."""
    fld = poly_x.field
    out = Poly2.zero(fld)
    cache: dict[int, Poly2] = {0: Poly2.one(fld)}
    for (i, j), c in poly_x.terms.items():
        if j != 0:
            raise ValueError("not a polynomial in x alone")
        if i not in cache:
            cache[i] = sub**i
        out = out + cache[i].scale(c)
    return out


def composite_transform(seq) -> tuple[ChartMap, ChartSeq]:
    """One composite transform along the valuation.

    Requires value_0 = n_1 * value_1 (NotApplicable otherwise) and a y-linear
    polynomial first key (the exact chart map exists in that case).  The
    output sequence is verified: exact divisibility of each shifted key,
    distinguished degrees of the restrictions, and the recursion shape with
    unit factors evaluating to 1 at the new origin.
    """
    fld = seq.field
    if len(seq.keys) < 2:
        raise NotApplicable("need at least two keys to transform")
    if isinstance(seq, GenSeq):
        indices = seq.ensure_valid().indices
        level = 1
    else:
        indices = seq.indices()
        level = seq.level
    values = list(seq.values)
    degrees = _seq_degrees(seq)
    n1 = indices[1]
    if values[0] != n1 * values[1]:
        raise NotApplicable(
            f"ratio condition fails: value_0 = {fmt_value(values[0])} != "
            f"{n1} * {fmt_value(values[1])}"
        )
    r = _step_residue(seq, n1)
    a_poly, b_poly = _first_key_linear_parts(seq)

    # chart map: x = r * X'^n1 * (Y'+1),  y = (X' - B(x-image)) / A(x-image)
    xs = Poly2.x(fld)
    ys = Poly2.y(fld)
    phi_x_poly = (xs**n1 * (ys + Poly2.one(fld))).scale(r)
    phi_x = LocalElem(phi_x_poly)
    phi_y = LocalElem(xs - _compose_x_only(b_poly, phi_x_poly), _compose_x_only(a_poly, phi_x_poly))

    label = seq.label or "chart"
    target_label = f"{label}/T{level + 1}"
    chart_vars = (f"x{level + 1}", f"y{level + 1}")
    cmap = ChartMap(
        source=label,
        target=target_label,
        n=n1,
        residue=r,
        phi_x=phi_x,
        phi_y=phi_y,
        chart_vars=chart_vars,
    )

    old_keys = _seq_keys(seq)
    if cmap.push(old_keys[1]) != LocalElem(xs):
        raise NonPolynomial("chart map does not send the first key to the new coordinate")
    new_keys = [LocalElem(xs)]
    new_values = [values[1]]
    new_degrees = [0]
    for j in range(2, len(old_keys)):
        img = cmap.push(old_keys[j])
        dj = degrees[j]
        ordx = img.x_order()
        if ordx != dj:
            raise NonPolynomial(
                f"shifted key {j} has exceptional order {ordx}, expected {dj}"
            )
        new_keys.append(img.divexact_xpow(dj))
        new_values.append(values[j] - dj * values[1])
        new_degrees.append(dj // n1)

    out = ChartSeq(
        field=fld,
        keys=new_keys,
        values=new_values,
        degrees=new_degrees,
        chart=chart_vars,
        label=target_label,
        level=level + 1,
    )
    report = validate_chart_seq(out)
    if not report.ok:
        raise NonPolynomial("transformed sequence failed validation:\n" + report.summary())
    return cmap, out


def _restriction_order_and_lead(elem: LocalElem) -> tuple[int, object]:
    """(y-order, leading coefficient) of the restriction of elem to x = 0."""
    fld = elem.field
    num_r, den_r = elem.restrict_x0()
    if not num_r:
        raise NonPolynomial("restriction to x = 0 vanishes")
    on, od = min(num_r), min(den_r)
    return on - od, fld.div(num_r[on], den_r[od])


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


def validate_chart_seq(seq: ChartSeq) -> ValidityReport:
    """Validity of a transformed sequence: group/growth conditions, the
    distinguished degrees of the key restrictions, and the recursion shape
    key_{j+1} = key_j^e - delta x^a key_{j-1} with delta = 1 at the origin."""
    fld = seq.field
    rows = []
    ok = True
    idx = seq.indices()
    grp = ValueGroup.generated_by([seq.values[0]])
    groups = [grp]
    for i in range(1, len(seq.values)):
        grp = group_join(grp, seq.values[i])
        groups.append(grp)

    # distinguished degrees against prescribed products of indices
    for i in range(1, len(seq.keys)):
        row: dict = {"i": i}
        expected = 1
        for t in range(1, i):
            expected *= idx[t]
        try:
            wdeg, _lead = _restriction_order_and_lead(seq.keys[i])
        except (NonPolynomial, ArithmeticError):
            wdeg = None
        row["index_computed"] = idx[i]
        row["order"] = idx[i]
        degree_ok = wdeg == seq.degrees[i] == expected
        row["degree"] = degree_ok
        growth = True
        if i + 1 < len(seq.keys):
            growth = seq.values[i + 1] > idx[i] * seq.values[i]
        row["growth"] = growth
        row["monic"] = True  # distinguished up to a unit; degree check is the content
        rows.append(row)
        ok = ok and degree_ok and growth and seq.values[i] > 0

    # recursion shapes; record the unit residues
    seq.rel_residues = []
    for j in range(1, len(seq.keys) - 1):
        e_j = idx[j]
        a_j = (e_j * seq.values[j] - seq.values[j - 1]) / seq.values[0]
        if a_j.denominator != 1 or a_j < 0:
            ok = False
            rows.append(dict(i=j, index_computed="-", order="-", growth="-",
                             monic=False, degree=f"relation exponent {a_j} not integral"))
            continue
        a_j = int(a_j)
        rem = seq.keys[j] ** e_j - seq.keys[j + 1]
        try:
            o_rem, t_rem, lead_rem = _bottom_row(rem)
        except IndeterminateOrder:  # key_j^e_j == key_{j+1}: no lower term
            ok = False
            rows.append(dict(i=j, index_computed="-", order="-", growth="-",
                             monic=False, degree="recursion remainder is zero"))
            continue
        o_low, t_low, lead_low = _bottom_row(seq.keys[j - 1])
        # key_0 = x carries its own x power; delta(0,0) is the ratio of the
        # leading coefficients at matching y-order
        shape_ok = o_rem == a_j + o_low and t_rem == t_low
        res = fld.div(lead_rem, lead_low) if shape_ok else None
        seq.rel_residues.append(res)
        if not shape_ok or res != fld.one:
            ok = False
            rows.append(dict(i=j, index_computed="-", order="-", growth="-",
                             monic=False, degree=f"recursion unit residue {res}"))
    return ValidityReport(seq.label, rows, ok)


# -- chart chains and the composite-order calculus ----------------------------


@dataclass
class ChainLevel:
    k: int
    values: list[Fraction]
    indices: list[int]
    degrees: list[int]  # distinguished degrees of the level keys
    vecs: list[tuple[int, ...]]  # level keys as monomials in the base keys
    crows: list[tuple[int, ...]]  # base keys as monomials in the level keys
    seq: object | None = None  # GenSeq / ChartSeq with exact keys, if available
    map_from_prev: ChartMap | None = None

    def mu_base(self, i: int) -> tuple[int, int]:
        """(exceptional order, restriction order) of base key i at this level."""
        row = self.crows[i]
        return row[0], sum(row[j] * self.degrees[j] for j in range(1, len(row)))

    def mu_vector(self, vec) -> tuple[int, int]:
        o = s = 0
        for i, m in enumerate(vec):
            if m:
                mo, ms = self.mu_base(i)
                o += m * mo
                s += m * ms
        return o, s


class ChartChain:
    """Iterated composite transforms of one generating sequence.

    Exact chart keys are carried as long as the chart map stays exactly
    representable; the exponent-vector and composite-order bookkeeping is
    exact at every level.
    """

    def __init__(self, base: GenSeq):
        lat = base.ensure_valid()
        self.base = base
        nbase = len(base.keys)
        ident = [tuple(1 if t == i else 0 for t in range(nbase)) for i in range(nbase)]
        self.levels = [
            ChainLevel(
                k=1,
                values=list(base.values),
                indices=list(lat.indices),
                degrees=[0] + [max(d, 1) for d in lat.degrees[1:]],
                vecs=ident,
                crows=ident,
                seq=base,
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
        grp = ValueGroup.generated_by([new_values[0]])
        new_indices = [0]
        for i in range(1, m):
            new_indices.append(order_in_quotient(new_values[i], grp))
            grp = group_join(grp, new_values[i])
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

        new_seq = None
        new_map = None
        if cur.seq is not None:
            try:
                new_map, new_seq = composite_transform(cur.seq)
            except NotApplicable:
                new_seq = None  # continue with the order calculus only

        nl = ChainLevel(
            k=cur.k + 1,
            values=new_values,
            indices=new_indices,
            degrees=new_degrees,
            vecs=new_vecs,
            crows=new_crows,
            seq=new_seq,
            map_from_prev=new_map,
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

    def push_exact(self, elem, k: int) -> LocalElem:
        """Push an element of the base chart into level k through exact maps."""
        out = _as_elem(elem)
        for cmap in self.maps_to(k):
            out = cmap.push(out)
        return out


# -- the tower ladder ----------------------------------------------------------


@dataclass(frozen=True)
class LadderRow:
    level: int
    extension: str  # "S/A", "A/R" or "S/R"
    form: StableForm
    invariants: ExtensionInvariants

    @property
    def defect(self) -> int:
        return self.invariants.defect_exponent

    def as_dict(self) -> dict:
        out = {"j": self.level, "extension": self.extension}
        out.update(self.form.as_dict())
        out["delta"] = self.defect
        return out


@dataclass
class LadderReport:
    p: int
    c: int
    levels: int
    rows: list[LadderRow]
    e: int
    f: int
    f_res: int

    def rows_for(self, extension: str) -> list[LadderRow]:
        return [r for r in self.rows if r.extension == extension]


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


def _mu_vector_certified(level, certs, vec, host_mu=None):
    o = s = 0
    for i, m in enumerate(vec):
        if m:
            mo, ms = _mu_with_certificate(level, certs, i, host_mu)
            o += m * mo
            s += m * ms
    return o, s


def run_tower_ladder(tower, levels: int, e: int = 1, f: int = 1, f_res: int = 1) -> LadderReport:
    """Per-level stable forms of the two sub-extensions and their composite.

    All three chart chains advance in lockstep; the parameters of the coarser
    charts are exact monomials in their chain's original keys, and their
    stable-form orders in the finer chart come from the composite-order
    calculus backed by the cross-chart comparison certificates.  e, f and the
    residue degree f_res of the stage are supplied by the caller (all 1 for
    the tower scenario: the value groups agree in the limit and the residue
    fields are prime).
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
        lvl_s = tower.chain("S").level(k)
        lvl_a = tower.chain("A").level(k)
        lvl_r = tower.chain("R").level(k)

        def mu_mid_in_top(i, _lvl=lvl_s):
            return _mu_with_certificate(_lvl, certs_mid, i)

        # middle parameters inside the top chart
        a_mu = _mu_vector_certified(lvl_s, certs_mid, lvl_a.vecs[0])
        if a_mu[1] != 0:
            raise NotMonomial(
                f"level {k}: middle x-parameter is not unit * x^a in the top chart"
            )
        bd_mu = _mu_vector_certified(lvl_s, certs_mid, lvl_a.vecs[1])
        sf_up = stable_form_from_orders(a_mu[0], bd_mu[0], bd_mu[1], p)
        inv_up = ExtensionInvariants(e, f, defect_from_stable(sf_up, e, f, p, f_res))
        rows.append(LadderRow(k, "S/A", sf_up, inv_up))

        # base parameters inside the middle chart
        a2_mu = _mu_vector_certified(lvl_a, certs_base, lvl_r.vecs[0])
        if a2_mu[1] != 0:
            raise NotMonomial(
                f"level {k}: base u-parameter is not unit * x^a in the middle chart"
            )
        bd2_mu = _mu_vector_certified(lvl_a, certs_base, lvl_r.vecs[1])
        sf_low = stable_form_from_orders(a2_mu[0], bd2_mu[0], bd2_mu[1], p)
        inv_low = ExtensionInvariants(e, f, defect_from_stable(sf_low, e, f, p, f_res))
        rows.append(LadderRow(k, "A/R", sf_low, inv_low))

        # composite: base keys in the top chart via both certificates
        at_mu = _mu_vector_certified(lvl_s, certs_base, lvl_r.vecs[0], host_mu=mu_mid_in_top)
        if at_mu[1] != 0:
            raise NotMonomial(
                f"level {k}: base u-parameter is not unit * x^a in the top chart"
            )
        bdt_mu = _mu_vector_certified(lvl_s, certs_base, lvl_r.vecs[1], host_mu=mu_mid_in_top)
        sf_tot = stable_form_from_orders(at_mu[0], bdt_mu[0], bdt_mu[1], p)
        inv_tot = ExtensionInvariants(e, f, defect_from_stable(sf_tot, e, f, p, f_res))
        rows.append(LadderRow(k, "S/R", sf_tot, inv_tot))
    return LadderReport(p, tower.c, levels, rows, e, f, f_res)
