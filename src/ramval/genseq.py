"""Generating sequences (key polynomials) defining rank-1 valuations.

A sequence of keys Q_0 = x, Q_1, ..., Q_N (monic in y, with deg_y Q_{i+1} =
n_i * deg_y Q_i) together with strictly compatible values determines a
valuation on the local ring of the chart: the value of f is the minimum of
sum(m_i * value_i) over the standard expansion of f, and the minimum is
attained by a unique term.

The values of a validated sequence lie in (1/D)Z for the common denominator
D of its values, so the minimum is taken over integer dot products with the
weights value_i * D (MacLane, "A construction for absolute values in
polynomial rings", Trans. AMS 40, 1936).  Value tables read samples in the
same units (``ValueTable.least``), and so do the chart chains and the
certificate bounds built on a sequence; public values stay Fractions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul

from .algebra import Fq, LocalElem, Poly2
from .values import (
    NotSubgroup,
    ValueGroup,
    fmt_value,
    group_index,
    group_join,
    stage_indices,
    tower_key_value,
)


class BadParams(ValueError):
    pass


class SequenceTooShort(ArithmeticError):
    """The element's y-degree exceeds the span of the provided keys."""


class ValueMismatch(ArithmeticError):
    """Residue of f/g requested with value(f) != value(g)."""


class Inconsistent(ArithmeticError):
    """Two independent computations of the same quantity disagree: a
    verification failure."""


class InvalidSequence(Inconsistent):
    """Operation on a sequence that fails its own validity conditions."""


# recursion step: key_{j+1} = key_j**exponent - x**x_exp * key_{j-1}
RecursionStep = namedtuple("RecursionStep", "exponent x_exp")


FAMILY_CHARTS = {"Q": ("x", "y"), "P": ("u", "v"), "U": ("x", "v")}


class Lattice(namedtuple("Lattice", "indices degrees denom weights")):
    """What every expansion of a validated sequence reads: the indices n_i,
    the key y-degrees, the common denominator D of the values and the
    integer weights value_i * D."""

    __slots__ = ()


class GenSeq:
    """Keys with assigned values; keys[0] is the chart coordinate x.  The
    lattice data are cached by ``ensure_valid``."""

    __slots__ = ("field", "keys", "values", "chart", "label", "_lattice")  # the cache last

    def __init__(self, field: Fq, keys: list[Poly2], values: list[Fraction],
                 chart: tuple[str, str] = ("x", "y"), label: str = ""):
        self.field, self.keys, self.values = field, keys, values
        self.chart, self.label = chart, label
        self._lattice: Lattice | None = None

    def __eq__(self, other):
        """Equal keys, values, field, chart and label; the cache is not compared."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__[:-1])

    @property
    def top(self) -> int:
        return len(self.keys) - 1

    def groups(self) -> list[ValueGroup]:
        """Stage groups generated by values[0..i]."""
        out = []
        g = ValueGroup(Fraction(0))
        for v in self.values:
            g = group_join(g, v)
            out.append(g)
        return out

    def indices(self) -> list[int]:
        """n_i = order of value_i in the quotient by the previous stage (i >= 1)."""
        return stage_indices(self.values)

    def degrees(self) -> list[int]:
        return [k.deg_y() if i else 0 for i, k in enumerate(self.keys)]

    def ensure_valid(self) -> Lattice:
        """Validate once; the lattice data are computed then and cached."""
        if self._lattice is None:
            report = validate(self)
            if not report.ok:
                raise InvalidSequence(report.summary())
            denom = lcm(*(v.denominator for v in self.values))
            self._lattice = Lattice(
                indices=tuple(self.indices()),
                degrees=tuple(self.degrees()),
                denom=denom,
                weights=tuple(int(v * denom) for v in self.values),
            )
        return self._lattice

    def key_str(self, i: int) -> str:
        return self.keys[i].to_str(*self.chart)

    def describe(self) -> list[dict]:
        """Rows (i, key, value, n_i) for reports."""
        idx = self._lattice.indices if self._lattice else self.indices()
        return [
            {
                "i": i,
                "key": self.key_str(i),
                "value": fmt_value(self.values[i]),
                "index": idx[i] if i else "",
            }
            for i in range(len(self.keys))
        ]


class ValidityReport:
    __slots__ = ("label", "rows", "ok")

    def __init__(self, label: str, rows: list[dict], ok: bool):
        self.label, self.rows, self.ok = label, rows, ok

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [f"sequence {self.label or '<anonymous>'}: {status}"]
        for row in self.rows:
            lines.append(
                "  i={i}: index computed={index_computed} declared-order={order} "
                "growth={growth} monic={monic} degree={degree}".format(**row)
            )
        return "\n".join(lines)


def validate(gs: GenSeq) -> ValidityReport:
    """Check the positivity, group-index, growth, monicity and degree
    conditions."""
    n = len(gs.keys)
    if min(gs.values) <= 0:
        # stage groups and indices are defined for positive values only
        rows = [dict(i=i, index_computed=None, order=None, growth="-", monic="-", degree="-")
                for i in range(1, n)]
        return ValidityReport(gs.label, rows, False)
    rows = []
    ok = True
    grps = gs.groups()
    orders = stage_indices(gs.values)

    if gs.keys[0] != Poly2.x(gs.field):
        ok = False
        rows.append(
            dict(i=0, index_computed="-", order="-", growth="-", monic=False, degree="-")
        )

    degs = gs.degrees()
    for i in range(1, n):
        row: dict = {"i": i}
        try:
            idx = group_index(grps[i], grps[i - 1])
        except NotSubgroup:
            idx = None
        order = orders[i]
        row["index_computed"] = idx
        row["order"] = order
        row_ok = idx == order and idx is not None and idx >= 1

        if i + 1 < n:
            growth = gs.values[i + 1] > order * gs.values[i]
        else:
            growth = True  # nothing to check for the last key
        row["growth"] = growth
        row_ok = row_ok and growth

        monic = gs.keys[i].is_monic_y()
        row["monic"] = monic
        row_ok = row_ok and monic

        if i + 1 < n:
            degree_ok = degs[i + 1] == order * degs[i]
        else:
            degree_ok = degs[i] >= 1
        row["degree"] = degree_ok
        row_ok = row_ok and degree_ok

        rows.append(row)
        ok = ok and row_ok

    return ValidityReport(gs.label, rows, ok)


def _tower_recursion(family: str, p: int, j: int) -> RecursionStep:
    """Step producing key_{j+1} = key_j**e - x**E * key_{j-1} for each family:
    the one place the families' exponent tables are written."""
    if family in ("Q", "P"):
        return RecursionStep(p**2, 0 if j == 1 else p ** (2 * j - 2))
    # middle-chart family: exponents alternate with the parity of j
    if j == 1:
        return RecursionStep(p, 0)
    if j % 2 == 1:
        return RecursionStep(p, p ** (2 * j - 2))
    return RecursionStep(p**3, p ** (2 * j - 1))


def glue_unit(field: Fq) -> Poly2:
    """w = 1 - x^(p-1), the denominator of the tower's glue u = x^p / w."""
    return Poly2.one(field) - Poly2.monomial(field, field.p - 1, 0)


def tower_key_pairs(family: str, p: int, key0: tuple[Poly2, int], key1: tuple[Poly2, int],
                    length: int, prec: int | None = None) -> list[tuple[Poly2, int]]:
    """key_0, key_1 and key_{j+1} = key_j^e - key_0^E * key_{j-1} for
    j = 1..length-1, with (e, E) from ``_tower_recursion``, each key a pair
    (N, a) standing for N / w^a with w = ``glue_unit``; with ``prec``, every
    numerator modulo x^prec.

    The images of key_0 and key_1 under a chart substitution give the keys
    rewritten in another chart, since substitution is a ring map; reduction
    modulo x^prec is a ring map too, so every operation takes ``prec``.  Key
    j + 1 has a = max(e * a_j, E * a_0 + a_{j-1}): only the side with the
    smaller exponent is multiplied by w^k, k the difference, through
    ``Poly2.times_pow``: one two-term product per unit of each base-p digit
    of k below x^prec.  With a_0 = a_1 = 0 every exponent is 0, no product
    with w is formed and the keys are polynomials."""
    keys = [(key0[0].truncate(prec), key0[1]), (key1[0].truncate(prec), key1[1])]
    num0, a0 = keys[0]
    w = glue_unit(num0.field)
    for j in range(1, length):
        step = _tower_recursion(family, p, j)
        (num_j, a_j), (num_l, a_l) = keys[j], keys[j - 1]
        head, a_head = pow(num_j, step.exponent, prec), step.exponent * a_j
        tail = pow(num0, step.x_exp, prec).__mul__(num_l, prec)
        a_tail = step.x_exp * a0 + a_l
        a = max(a_head, a_tail)
        keys.append((head.times_pow(w, a - a_head, prec).__sub__(
            tail.times_pow(w, a - a_tail, prec), prec), a))
    return keys


def tower_keys(family: str, p: int, key0: Poly2, key1: Poly2, length: int) -> list[Poly2]:
    """The polynomial keys of ``tower_key_pairs`` started from (key0, key1):
    (x, y) gives a family's own keys, and (x, v(x, y)) the middle keys
    rewritten in the top chart."""
    return [num for num, _ in tower_key_pairs(family, p, (key0, 0), (key1, 0), length)]


def build_tower_seq(
    family: str, p: int, c: int | None = None, length: int = 5, field: Fq | None = None
) -> GenSeq:
    """Generating sequence of one of the three tower families.

    Q lives in the top chart (x, y), P in the base chart (u, v), U in the
    middle chart (x, v).  The U values follow the alternating recursion; the
    Q/P values are pinned by the equality condition e*value_j = E_j +
    value_{j-1} of each recursion step, starting from value_0 = 1.
    """
    if family not in FAMILY_CHARTS:
        raise BadParams(f"unknown family {family!r}")
    if length < 2:
        raise BadParams("need at least keys 0..2, length >= 2")
    if family == "U":
        if c is None or c < 1 or c % (p - 1) != 0:
            raise BadParams(f"family U requires c >= 1 divisible by p-1, got {c}")
    fld = field if field is not None else Fq(p)
    if fld.p != p:
        raise BadParams("field characteristic does not match p")

    keys = tower_keys(family, p, Poly2.x(fld), Poly2.y(fld), length)
    # the equality condition of step j pins value_j from value_{j-1}; the
    # final key's value comes from the next (virtual) recursion step
    steps = [_tower_recursion(family, p, j) for j in range(1, length + 1)]
    values = [Fraction(1)]
    for step in steps:
        values.append((step.x_exp + values[-1]) / step.exponent)

    if family == "U":
        expected = [tower_key_value(j, p) for j in range(length + 1)]
        if values != expected:
            raise Inconsistent("alternating recursion disagrees with its value recursion")

    return GenSeq(
        field=fld,
        keys=keys,
        values=values,
        chart=FAMILY_CHARTS[family],
        label=f"{family}(p={p}" + (f",c={c}" if family == "U" else "") + f",N={length})",
    )


# -- standard expansions ----------------------------------------------------


class StandardExpansion:
    """``terms`` maps each exponent vector (m_0, ..., m_N) to its nonzero
    coefficient, unordered: distinct standard monomials have distinct values
    (``residue_of_quotient``), so no reading depends on the entry order."""

    __slots__ = ("gs", "terms")

    def __init__(self, gs: GenSeq, terms: dict[tuple[int, ...], object]):
        self.gs, self.terms = gs, terms

    def as_poly(self) -> Poly2:
        """Reassemble the element (round-trip identity check)."""
        out = Poly2.zero(self.gs.field)
        for exps, cf in self.terms.items():
            piece = Poly2.const(self.gs.field, cf).shift(exps[0])
            for i in range(1, len(exps)):
                if exps[i]:
                    piece = piece * self.gs.keys[i] ** exps[i]
            out = out + piece
        return out

    def minimal_term(self) -> tuple[Fraction, tuple[int, ...]]:
        """(value, exponent vector) of the unique term of least value, found
        in one pass over the integer dot products with the lattice weights;
        InvalidSequence if two terms share the least value."""
        lat = self.gs.ensure_valid()
        weights = lat.weights
        best, best_exps, tied = None, None, False
        for exps in self.terms:
            v = sum(map(mul, exps, weights))
            if best is None or v < best:
                best, best_exps, tied = v, exps, False
            elif v == best:
                tied = True
        if tied:
            raise InvalidSequence("minimal value attained by more than one standard term")
        return Fraction(best, lat.denom), best_exps

    def term_str(self, exps: tuple[int, ...]) -> str:
        gs = self.gs
        coeff = self.terms[exps]
        parts = []
        if coeff != gs.field.one or not any(exps):
            parts.append(gs.field.to_str(coeff))
        if exps[0]:
            xn = gs.chart[0]
            parts.append(xn if exps[0] == 1 else f"{xn}^{exps[0]}")
        for i in range(1, len(exps)):
            if exps[i]:
                parts.append(f"K{i}" if exps[i] == 1 else f"K{i}^{exps[i]}")
        return "*".join(parts)


def _expand_in_key(g: Poly2, key: Poly2, deg: int) -> list[Poly2]:
    """Coefficients of g in powers of key, of y-degree ``deg``:
    g = sum coeffs[k] * key**k.

    For the key y^deg the coefficients are slices of the y-rows: the term
    x^a y^j goes to coefficient j // deg as x^a y^(j mod deg).  Any other
    key is divided out one power at a time."""
    fld = g.field
    if key.terms == {(0, deg): fld.one}:
        sliced = [{} for _ in range(g.deg_y() // deg + 1)]
        for (a, j), c in g.terms.items():
            k, r = divmod(j, deg)
            sliced[k][(a, r)] = c
        return [Poly2(fld, t) for t in sliced]
    out = []
    while g.deg_y() >= deg:
        g, r = g.divrem_y(key)
        out.append(r)
    out.append(g)
    return out


def expand(f: Poly2, gs: GenSeq) -> StandardExpansion:
    """Standard expansion of the polynomial f by recursive y-division,
    highest applicable key first; each division branch has its own exponent
    tail, so every exponent vector is reached once.

    Exponents of key i stay below n_i for i < N automatically; the top
    exponent is bounded by the SequenceTooShort precondition.  The branches
    run off an explicit stack: a nested function calling itself would make
    a reference cycle per call, holding the terms until the cyclic collector
    runs.
    """
    lat = gs.ensure_valid()
    if f.is_zero():
        raise ArithmeticError("cannot expand the zero element")
    top = gs.top
    span = lat.degrees[top] * lat.indices[top]
    if top >= 1 and f.deg_y() >= span:
        raise SequenceTooShort(f"deg_y {f.deg_y()} >= {span}; extend the sequence")

    terms: dict[tuple[int, ...], object] = {}
    # (element, key index, exponent tail) still to divide, last entry next;
    # the coefficients go on in reverse, so the terms come out in the order
    # of a depth-first recursion
    stack = [(f, top, ())]
    while stack:
        g, i, tail = stack.pop()
        if g.is_zero():
            continue
        if i == 0:
            for (a, b), cf in g.terms.items():
                if b != 0:
                    raise SequenceTooShort("leftover y-degree below the first key")
                terms[(a,) + tail] = cf
            continue
        coeffs = _expand_in_key(g, gs.keys[i], lat.degrees[i])
        stack.extend((coeffs[k], i - 1, (k,) + tail) for k in reversed(range(len(coeffs))))
    return StandardExpansion(gs, terms)


class ValueTable:
    """The expansions of v^b in one sequence, each read as its (value, coefficient)
    pairs, values in units of 1/D, least value first (``value_table``).  Like
    every record of the package it is a plain class, not a dataclass: importing
    ``dataclasses`` and building one would add to every start-up."""

    __slots__ = ("field", "denom", "x_weight", "rows")

    def __init__(self, field: Fq, denom: int, x_weight: int,
                 rows: list[list[tuple[int, object]]]):
        self.field, self.denom, self.x_weight, self.rows = field, denom, x_weight, rows

    def sums(self, g: Poly2) -> dict[int, object]:
        """The expansion of g(x, v) = sum c * x^a * v^b keyed by value: {value
        in units of 1/D: nonzero coefficient}, for every b that g reaches.

        The standard expansion over a validated sequence is unique, so it is
        F_q-linear and commutes with multiplication by x: x^a times a standard
        term is the standard term with m_0 + a, whose value is a * value(x)
        more (MacLane, "A construction for prime ideals as absolute values of
        an algebraic field", Duke Math. J. 2, 1936).  The raw products are
        summed per value and folded once; a value whose sum folds to zero is
        dropped.  ``value_table`` has checked that a value names one exponent
        vector, so this is the expansion with each vector replaced by its
        value."""
        rows, w0 = self.rows, self.x_weight
        acc: dict = {}
        get = acc.get
        for (a, b), c in g.terms.items():
            shift = a * w0
            for v, cf in rows[b]:
                v += shift
                acc[v] = get(v, 0) + c * cf
        # a value collects at most one product per term of g
        self.field.check_capacity(len(g.terms))
        fold = self.field.fold
        return {v: c for v, s in acc.items() if (c := fold(s))}

    def value(self, g: Poly2) -> Fraction:
        """The valuation of g(x, v): ``least(g)`` / D."""
        return Fraction(self.least(g), self.denom)

    def least(self, g: Poly2) -> int:
        """The valuation of g(x, v) in units of 1/D, read off the least
        candidate terms.

        The candidate of a term c * x^a * v^b of g is the least entry of row
        b shifted by a * value(x); let m be the least candidate.  A row holds
        each value at most once (``value_table``), so no term reaches a value
        below m, each term adds at most one product at m, and the products of
        the terms whose candidate is m sum to the coefficient of the
        expansion at m.  If that sum folds to nonzero the value is m;
        if it cancels, the value is the least value of ``sums``."""
        if not g.terms:
            raise ArithmeticError("cannot expand the zero element")
        rows, w0 = self.rows, self.x_weight
        least, raw = None, 0
        for (a, b), c in g.terms.items():
            v, cf = rows[b][0]
            v += a * w0
            if least is None or v < least:
                least, raw = v, c * cf
            elif v == least:
                raw += c * cf
        # at most one product per term of g
        self.field.check_capacity(len(g.terms))
        if not self.field.fold(raw):
            least = min(self.sums(g))
        return least


def value_table(powers: list[StandardExpansion]) -> ValueTable:
    """The value table of powers[b], the expansion of v^b in one sequence:
    row b holds its (value, coefficient) pairs sorted by value, so row[0] is
    its least term.

    Summing by value is summing by exponent vector only if distinct vectors
    that samples reach have distinct values.  Such a vector is (m_0 + a,
    m_1, ..., m_N) for a tail (m_1, ..., m_N) in the table and any a >= 0;
    vectors with one tail differ in m_0, so in value, and vectors with
    distinct tails can share a value only if the tails' values agree
    modulo value(x).  That never happens for standard monomials
    (``residue_of_quotient``); it is checked here once per table,
    InvalidSequence naming both tails if it fails.  So a row holds each
    value at most once."""
    gs = powers[0].gs
    lat = gs.ensure_valid()
    w0, weights = lat.weights[0], lat.weights[1:]
    by_residue: dict[int, tuple[int, ...]] = {}
    rows = []
    for power in powers:
        row = []
        for exps, cf in power.terms.items():
            tail = exps[1:]
            v = sum(map(mul, tail, weights))
            other = by_residue.setdefault(v % w0, tail)
            if other != tail:
                raise InvalidSequence(
                    f"value table of {gs.label or 'a sequence'}: exponent tails {other} and "
                    f"{tail} have values congruent modulo value(x)")
            row.append((exps[0] * w0 + v, cf))
        row.sort()
        rows.append(row)
    return ValueTable(gs.field, lat.denom, w0, rows)


def value_of(f: Poly2 | LocalElem, gs: GenSeq) -> Fraction:
    """The valuation of f: minimum value over the standard expansion terms.
    A pair num/den has the value of num, as a unit denominator has value 0."""
    if isinstance(f, LocalElem):
        f = f.num
    v, _ = expand(f, gs).minimal_term()
    return v


def residue_of_quotient(f: Poly2, g: Poly2, gs: GenSeq):
    """Residue in k of f/g at the valuation; ValueMismatch unless value(f)
    == value(g).

    Distinct standard monomials x^m_0 * Q_1^m_1 * ... * Q_N^m_N, with
    m_0 >= 0 and 0 <= m_i < n_i (the bounds ``expand`` keeps), have distinct
    values.  If two had equal values, let i be the last index where they
    differ: (m_i - m'_i) * value_i would lie in the group of value_0 ..
    value_(i-1), with 0 < |m_i - m'_i| < n_i, against n_i being the order of
    value_i modulo that group (for i = 0, value_0 != 0).  This is the
    uniqueness ``minimal_term`` relies on, and the one that lets a
    ``ValueTable`` key its sums by value instead of by exponent vector
    (MacLane, "A construction for absolute values in polynomial rings",
    Trans. AMS 40, 1936).  So equal values put the minimal terms of f and g
    on one exponent vector, and the residue is the ratio of their
    coefficients.
    """
    ef, eg = expand(f, gs), expand(g, gs)
    (vf, mf), (vg, mg) = ef.minimal_term(), eg.minimal_term()
    if vf != vg:
        raise ValueMismatch(f"value {fmt_value(vf)} != {fmt_value(vg)}")
    return gs.field.div(ef.terms[mf], eg.terms[mg])


def semigroup(gs: GenSeq, bound: Fraction) -> tuple[Fraction, ...]:
    """All values sum(m_i * value_i) <= bound with m_0 >= 0 and 0 <= m_i < n_i,
    in increasing order."""
    lat = gs.ensure_valid()
    bound = Fraction(bound)
    if bound < 0:
        raise BadParams("bound must be >= 0")
    # in units of 1/D: lattice points up to floor(bound * D)
    top = bound * lat.denom // 1
    w = lat.weights
    # the sums over keys 1..N with 0 <= m_i < n_i that stay within bound
    partial = [0]
    for i in range(1, gs.top + 1):
        partial = [s + m * w[i] for s in partial for m in range(lat.indices[i])
                   if s + m * w[i] <= top]
    found: set[int] = set()
    for s in partial:
        # x-exponent free: s + m*w[0] <= top
        found.update(range(s, top + 1, w[0]))
    return tuple(Fraction(v, lat.denom) for v in sorted(found))
