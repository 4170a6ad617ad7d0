"""The Artin-Schreier tower scenario: three charts, one valuation.

The base chart has parameters (u, v), the top chart (x, y), and the middle
chart (x, v), glued by u = x^p / (1 - x^(p-1)) and v = y^p - x^c y with
(p - 1) | c.  Each chart carries a generating sequence: family Q in the top
chart, U in the middle one and P in the base one.  P and Q share their
recursion, so the base sequence is the top one under the base chart's
names, and the two share one chart chain.  The suite verifies the explicit
identities tying the charts together:

* deviation identities: the middle keys, rewritten in (x, y), differ from
  (powers of) the top keys by an explicitly bounded x-multiple;
* value comparisons between the middle and top keys;
* the restriction property (the middle valuation is the restriction of the
  top one);
* parameter links between the chart chains, per level.
"""

from __future__ import annotations

import random
from collections import namedtuple
from operator import mul

from .algebra import Fq, Poly2
from .genseq import (
    FAMILY_CHARTS,
    BadParams,
    GenSeq,
    Inconsistent,
    StandardExpansion,
    build_tower_seq,
    expand,
    glue_unit,
    tower_key_pairs,
    tower_keys,
    value_of,
    value_table,
)
from .transforms import ChartChain, NotApplicable, _bottom_row, _mu_with_certificate
from .values import fmt_value, p_adic_split


class CrossCert(namedtuple("CrossCert", "mult t_order")):
    """Comparison of a foreign element F against a host key K: F = K^mult * u
    with u a 1-unit, certified by the split F - K^mult = x^t_order * (rest)
    and, checked before the certificate is made, the value margin
    value(F - K^mult) > value(K^mult) = mult * value(K).  By the strict
    triangle inequality the margin gives value(F) = mult * value(K), so F
    itself is never valued.

    Both links are read modulo x^N (``certificate_precision``): ``t_order``
    is the x-order of the deviation, or N when the deviation vanishes modulo
    x^N, so that x^t_order divides it in both cases.
    """

    __slots__ = ()


class Tower:
    """The three charts' sequences and keys, with the chart chains, the
    certificates and the pushed keys built on first use and cached."""

    __slots__ = ("p", "c", "field", "length", "seq_top", "seq_mid", "seq_base", "v_sub",
                 "mid_keys_xy", "base_keys_xv", "w", "base_prec",
                 "_chains", "_certs", "_pushed")

    def __init__(self, p: int, c: int, field: Fq, length: int,
                 seq_top: GenSeq, seq_mid: GenSeq, seq_base: GenSeq, v_sub: Poly2,
                 mid_keys_xy: list[Poly2], base_keys_xv: list[tuple[Poly2, int]],
                 w: Poly2, base_prec: int):
        self.p, self.c, self.field, self.length = p, c, field, length
        self.seq_top = seq_top  # family Q, chart (x, y)
        self.seq_mid = seq_mid  # family U, chart (x, v)
        self.seq_base = seq_base  # family P, chart (u, v): seq_top renamed
        self.v_sub = v_sub  # v as an element of the top chart
        self.mid_keys_xy = mid_keys_xy  # middle keys rewritten in (x, y)
        # base keys rewritten in (x, v): pairs (N_j, a_j) standing for
        # N_j / w^a_j, N_j modulo x^base_prec (``tower_key_pairs``)
        self.base_keys_xv = base_keys_xv
        # 1 - x^(p-1), the denominator of u = x^p / w; the certificates value
        # N_j - K^mult * w^a_j, and the parameter links read N_j alone
        self.w = w
        self.base_prec = base_prec  # N of ``certificate_precision`` of the middle sequence
        self._chains = {}
        self._certs = {}
        self._pushed = {}  # pushed_key, per slot

    def chain(self, which: str) -> ChartChain:
        """The chart chain of the top ("S"), middle ("A") or base ("R")
        sequence, built once.  The base sequence is the top one renamed
        (``build_tower``), so chain R is chain S."""
        which = "S" if which == "R" else which
        if which not in self._chains:
            self._chains[which] = ChartChain({"S": self.seq_top, "A": self.seq_mid}[which])
        return self._chains[which]

    def pushed_key(self, which: str, i: int, k: int) -> tuple[int, int, object]:
        """Leading data of foreign key i pushed through the exact maps of
        chain ``which`` into level k: (x-order, y-order of the lowest x-row,
        its coefficient).  Chain "S" hosts the middle keys (in the top chart),
        chain "A" the base keys (in the middle chart).

        The composite-order calculus, backed by the comparison certificates,
        predicts the two orders (o, s); the key is pushed modulo x'^(o + 1),
        which holds the lowest row and nothing above it.  A base key
        N / w^a is read through its numerator: push(N / w^a) is
        push(N) * push(w)^(-a), since a chart map is a ring map, and
        push(w)^(-a) has lowest row the constant 1.  For w(0, 0) = 1, and
        every chart map fixes the origin: phi_x = r * x'^n * (y' + 1), and
        phi_y = (x' - B) / A with B(0) = 0, because each level's key 1 has
        lowest term y (``validate_chart_seq``; key 1 is y at level 1).  The
        lowest row is multiplicative (``_bottom_row``), so the key has the
        leading data of push(N).

        Inconsistent if the truncated key vanishes (its order exceeds o) or
        its orders differ from the prediction, and for chain "A" if the push
        reads N past x^base_prec, the precision it is known to.
        NotApplicable if no exact map reaches level k.  Computed once per
        (chain, key, level).
        """
        slot = (which, i, k)
        if slot not in self._pushed:
            chain = self.chain(which)
            certs = self.certificates("mid-in-top" if which == "S" else "base-in-mid")
            o, s = _mu_with_certificate(chain.level(k), certs, i)
            prec = o + 1
            if which == "S":
                elem = chain.push_exact(self.mid_keys_xy[i], k, prec)
            else:
                _, read = chain.pull_back(k, prec)
                if read > self.base_prec:
                    raise Inconsistent(
                        f"foreign key {i} of chain {which} pushed into level {k} modulo "
                        f"x'^{prec} is read modulo x^{read}, past the x^{self.base_prec} "
                        "it is known to"
                    )
                elem = chain.push_exact(self.base_keys_xv[i][0], k, prec)
            if elem.is_zero():
                raise Inconsistent(
                    f"foreign key {i} of chain {which} has no row below x^{prec} at "
                    f"level {k}: its x-order exceeds the predicted {o}"
                )
            data = _bottom_row(elem)
            if data[:2] != (o, s):
                raise Inconsistent(
                    f"foreign key {i} of chain {which} has orders {data[:2]} at level "
                    f"{k}, the order calculus predicts {(o, s)}"
                )
            self._pushed[slot] = data
        return self._pushed[slot]

    def certificates(self, which: str) -> list[CrossCert]:
        """Cross-chart comparison certificates: "mid-in-top" compares the
        middle keys with the top keys in the top chart, "base-in-mid" the
        base keys with the middle keys in the middle chart.  Both links read
        the foreign keys and their deviations modulo x^N, N =
        ``certificate_precision`` of the host (``base_prec`` for the base
        keys, which are built to it).

        The foreign key F is never expanded.  Its multiplier is read off
        degrees modulo x^N: deg_y F = mult * deg_y K_i for i >= 1, and the
        x-order of F for K_0 = x; a ratio that is not a p-power (at least 1)
        is Inconsistent, naming the key and both degrees.  The degrees only
        propose mult, and only the deviation F - K_i^mult is valued: if its
        value exceeds mult * value(K_i), the strict triangle inequality gives
        value(F) = mult * value(K_i).  For a given mult this is the test
        value(F - K_i^mult) > value(F), so a wrong proposal fails it and
        cannot certify anything.

        A base key is a pair (num, a), F = num / w^a, read through its
        numerator: w is a unit, of value 0 and x-order 0, so F and num have
        the same degrees modulo x^N, and the deviation F - K_i^mult has the
        value and x-order of num - K_i^mult * w^a, which is what is valued;
        the product with w^a is ``Poly2.times_pow``, one two-term product per
        unit of each base-p digit of a below x^N.  A middle key is the pair (key, 0).

        f and f mod x^N differ by x^N * (ring element), of value at least
        N * value(x).  A key's value mult * value(K_i) must be below
        N * value(x); a key that vanishes modulo x^N, or whose value is
        N * value(x) or more, is Inconsistent, naming the key and N.  The
        deviation is valued only below its own bound: ``value_of`` with
        ``below`` = mult * weight_i + 1 (units of 1/D) reads it modulo x^n,
        n = ceil(below / weight(x)) <= N, so what it reads is known, and
        returns None exactly when the deviation's value exceeds the key's.
        A weight it returns is the deviation's own, and its margin over the
        key's weight, 0 or less, is the witness of Inconsistent.  A deviation
        that vanishes modulo x^N gets t_order = N.
        """
        if which in self._certs:
            return self._certs[which]
        host, foreign, prec = {
            "mid-in-top": (
                self.seq_top, [(key, 0) for key in self.mid_keys_xy],
                certificate_precision(self.seq_top, self.p),
            ),
            "base-in-mid": (self.seq_mid, self.base_keys_xv, self.base_prec),
        }[which]
        lat = host.ensure_valid()
        weights, denom = lat.weights, lat.denom
        certs = []
        for i, (num, a) in enumerate(foreign):
            f_num = num.truncate(prec)
            if f_num.is_zero():
                raise Inconsistent(f"{which} key {i} vanishes modulo x^{prec} (N = {prec})")
            if i:
                what, deg_f, deg_k = "deg_y", f_num.deg_y(), host.keys[i].deg_y()
            else:
                what, deg_f, deg_k = "x-order", f_num.x_order(), host.keys[0].x_order()
            mult, rest = divmod(deg_f, deg_k)
            if rest or mult < 1 or p_adic_split(mult, self.p)[0] != 1:
                raise Inconsistent(
                    f"{which} key {i}: {what} {deg_f} modulo x^{prec} is not a p-power times "
                    f"the {what} {deg_k} of host key {i} (N = {prec})"
                )
            # the bound val_f < N * value(x), in units of 1/D
            weight_f = mult * weights[i]
            if weight_f >= prec * weights[0]:
                raise Inconsistent(
                    f"{which} key {i} has value {fmt_value(weight_f, denom)} modulo "
                    f"x^{prec}, not below N * value(x) = "
                    f"{fmt_value(prec * weights[0], denom)} (N = {prec})"
                )
            delta = f_num.__sub__(pow(host.keys[i], mult, prec).times_pow(self.w, a, prec), prec)
            if delta.is_zero():
                certs.append(CrossCert(mult, prec))
                continue
            weight = value_of(delta, host, below=weight_f + 1)
            if weight is not None:
                raise Inconsistent(f"{which} key {i}: deviation value does not dominate "
                                   f"(margin {fmt_value(weight - weight_f, denom)})")
            certs.append(CrossCert(mult, delta.x_order()))
        self._certs[which] = certs
        return certs


def certificate_precision(host: GenSeq, p: int) -> int:
    """N = floor(p * value(host key L) / value(x)) + 1, L the last key: the
    least N with N * value(x) > p * value(host key L).

    A foreign key has value mult * value(host key i) with mult 1 or p, so
    at most p * value(host key L), below N * value(x): modulo x^N the
    deviation's value is read exactly wherever it can matter, since a
    deviation that reads N * value(x) or more has at least that value,
    above the key's (``Tower.certificates``).  Read on the integer weights
    of the validated host: value_i = weight_i / D."""
    w = host.ensure_valid().weights
    return p * w[-1] // w[0] + 1


# The longest tower, by p, whose `tower` run took about a second or less
# (fresh processes, 2-vCPU VM, levels = length - 1); one key more took
# 1.8-12 s, 2.9-3.5 s at p = 11-19 and 6.3-7.2 s at p = 23 and 29.  At
# p = 11-19 a `report` at length 13 took 0.2-0.8 s (3 or 12 levels); at
# p = 23 and 29 a `report` took 0.6-1.1 s and 1.2-2.4 s at length 3, and at
# p = 31 2.5-3.3 s (its tower at length 13 took 1.0 s).
QUIET_LENGTH = {2: 13, 3: 13, 5: 13, 7: 12, 11: 13, 13: 13, 17: 13, 19: 13, 23: 13, 29: 13}


def build_tower(p: int, c: int, length: int = 5, field: Fq | None = None) -> Tower:
    """Construct the three generating sequences and the glue data.

    The base sequence is the top one renamed: the same field, keys and
    values (in lists of its own), with the names and label of the base chart.
    The middle keys in the top chart come from ``tower_keys``: the U
    recursion started from (x, v) with v = y^p - x^c y.  The base keys in
    the middle chart come from ``tower_key_pairs``: the P recursion started
    from u = x^p / w, w = 1 - x^(p-1), as the pair (x^p, 1), and v as (y, 0),
    so base key j is N_j / w^a_j.  Substitution is a ring map, so this is
    the substitution applied to every key.  The numerators N_j are built
    modulo x^N, N = ``certificate_precision`` of the middle sequence, which
    is all that their certificates and pushes read.

    Key degrees grow like p^(2*length).  Truncation bounds the x-degrees of
    the base numerators by N and those of the chain keys past each chain's
    spine by the precision their checks read, but the three sequences, the
    middle keys and the chain spines stay exact (the middle keys are read
    modulo x^N only by their certificates).  A tower longer than its
    ``QUIET_LENGTH``, or past p = 29, gets a cost warning.
    """
    if length < 2:
        raise BadParams("length must be >= 2")
    if c < 1 or c % (p - 1) != 0:
        raise BadParams(f"c = {c} must be a positive multiple of p - 1 = {p - 1}")
    quiet = QUIET_LENGTH.get(p)
    if quiet is None or length > quiet:
        import warnings

        measured = (f"at p = {p}, towers longer than {quiet} took seconds" if quiet
                    else "past p = 29, a report took seconds already at length 3")
        warnings.warn(f"tower with p = {p}, length = {length}: expect a slow run; {measured}",
                      stacklevel=2)
    fld = field if field is not None else Fq(p)
    seq_top = build_tower_seq("Q", p, None, length, fld)
    seq_mid = build_tower_seq("U", p, c, length, fld)
    seq_base = GenSeq(fld, list(seq_top.keys), list(seq_top.values), FAMILY_CHARTS["P"],
                      f"P(p={p},N={length})")

    x = Poly2.x(fld)
    y = Poly2.y(fld)
    v_sub = y**p - Poly2.monomial(fld, c, 1)

    base_prec = certificate_precision(seq_mid, p)
    mid_keys_xy = tower_keys("U", p, x, v_sub, length)
    base_keys_xv = tower_key_pairs("P", p, (x**p, 1), (y, 0), length, base_prec)

    return Tower(
        p=p,
        c=c,
        field=fld,
        length=length,
        seq_top=seq_top,
        seq_mid=seq_mid,
        seq_base=seq_base,
        v_sub=v_sub,
        mid_keys_xy=mid_keys_xy,
        base_keys_xv=base_keys_xv,
        w=glue_unit(fld),
        base_prec=base_prec,
    )


# -- verification reports -----------------------------------------------------


def deviation_exponent(p: int, j: int) -> int:
    """x-exponent of the deviation of middle key j+1 from the top keys:
    sum of p^(2j-2-4t) for t <= (j-1)/2 (j odd) or p^(2j-1-4t) for
    t <= j/2 - 1 (j even); an integer in both cases."""
    if j % 2 == 1:
        return sum(p ** (2 * j - 2 - 4 * t) for t in range((j - 1) // 2 + 1))
    return sum(p ** (2 * j - 1 - 4 * t) for t in range(j // 2))


class CheckReport:
    __slots__ = ("name", "ok", "details")

    def __init__(self, name: str, ok: bool, details: dict):
        self.name, self.ok, self.details = name, ok, details

    def row(self) -> dict:
        out = {"check": self.name, "ok": self.ok}
        out.update(self.details)
        return out


def verify_deviation_identity(tower: Tower, j: int) -> CheckReport:
    """Exact check of the deviation identity at step j:

    mid_{j+1} - top_{j+1}^mult = x^E * f with mult = 1 (j odd) or p (j even),
    E the deviation exponent, x | f, and deg_y f = p^(2j-1) resp. p^(2j).
    """
    if not 1 <= j <= tower.length - 1:
        raise ValueError(f"j must be in 1..{tower.length - 1}")
    p = tower.p
    mult = 1 if j % 2 == 1 else p
    diff = tower.mid_keys_xy[j + 1] - tower.seq_top.keys[j + 1] ** mult
    exp_e = deviation_exponent(p, j)
    ord_x = diff.x_order() if diff else -1
    divisible = ord_x >= exp_e
    f_part = diff.divexact_xpow(exp_e) if divisible else diff
    x_divides_f = divisible and f_part.x_order() >= 1
    expected_deg = p ** (2 * j - 1) if j % 2 == 1 else p ** (2 * j)
    deg_ok = f_part.deg_y() == expected_deg
    ok = divisible and x_divides_f and deg_ok
    return CheckReport(
        f"deviation j={j}",
        ok,
        {
            "mult": mult,
            "E": exp_e,
            "x_order_of_f": f_part.x_order() if divisible and f_part else None,
            "deg_y_f": f_part.deg_y(),
            "expected_deg_y": expected_deg,
        },
    )


def verify_value_comparison(tower: Tower, j: int) -> CheckReport:
    """Value of the middle key j+1 computed with the top sequence equals the
    top key value (j odd) or p times it (j even), and the strict inequalities
    against the deviation exponents hold; read on the top sequence's
    integer weights over its D."""
    if not 1 <= j <= tower.length - 1:
        raise ValueError(f"j must be in 1..{tower.length - 1}")
    p = tower.p
    lat = tower.seq_top.ensure_valid()
    beta = lat.weights[j + 1]
    computed = value_of(tower.mid_keys_xy[j + 1], tower.seq_top)
    expected = beta if j % 2 == 1 else p * beta
    exp_e = deviation_exponent(p, j)
    ineq = expected < (exp_e + 1) * lat.denom
    ok = computed == expected and ineq
    return CheckReport(
        f"value comparison j={j}",
        ok,
        {
            "computed": fmt_value(computed, lat.denom),
            "expected": fmt_value(expected, lat.denom),
            "bound": exp_e + 1,
            "strict_inequality": ineq,
        },
    )


# a restriction sample has 1 .. SAMPLE_TERMS terms; samples 0, DIRECT_EVERY,
# 2 * DIRECT_EVERY, ... are also valued directly
SAMPLE_TERMS = 6
DIRECT_EVERY = 50


def _sample_v_degree(p: int) -> int:
    """Largest v-degree of a restriction sample: p^2 + p."""
    return p**2 + p


def random_middle_poly(tower: Tower, rng: random.Random) -> Poly2:
    """Random nonzero polynomial in the middle chart within the expansion span:
    up to SAMPLE_TERMS terms c * x^a * v^b with a <= 6, b <= p^2 + p and c a
    nonzero element of F_q, coefficients on one exponent added (v when they
    cancel).

    Every draw goes through ``below``, the rejection loop on
    ``rng.getrandbits`` that ``randint`` and ``randrange`` run for a positive
    width (``Random._randbelow_with_getrandbits``, the same in CPython 3.10
    to 3.13): ``randint(1, k)`` is ``1 + below(k)`` and ``randrange(a, b)``
    is ``a + below(b - a)``, so a seed draws the same samples as through
    those two methods, in the same order."""
    fld = tower.field
    max_v = _sample_v_degree(tower.p)
    getrandbits = rng.getrandbits

    def below(n):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    terms: dict = {}
    for _ in range(1 + below(SAMPLE_TERMS)):
        coeff = fld.of_index(1 + below(fld.q - 1))
        e = (below(7), below(max_v + 1))
        s = fld.add(terms.get(e, 0), coeff)
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return Poly2(fld, terms) if terms else Poly2.y(fld)


def restriction_tables(tower: Tower, prec: int | None = None
                       ) -> tuple[list[StandardExpansion], list[StandardExpansion]]:
    """The expansions of v^b in the middle sequence and of v(x, y)^b =
    (y^p - x^c y)^b in the top sequence, for b = 0 .. p^2 + p: every power a
    restriction sample reaches.  ``verify_restriction`` reads each list
    through its ``value_table``.

    With ``prec`` = M, each top power is expanded modulo x^M
    (``pow(v, b, M)``) and keeps its terms with m_0 < M.  Those are the terms
    of the whole expansion with m_0 < M (``expand``), so the row is exact
    below M * value(x), and every term it drops has value M * value(x) or
    more.  The middle powers are always whole, and so are the top ones
    without ``prec``."""
    fld = tower.field
    span = range(_sample_v_degree(tower.p) + 1)
    mid = [expand(Poly2.monomial(fld, 0, b), tower.seq_mid) for b in span]
    top = []
    for b in span:
        terms = expand(pow(tower.v_sub, b, prec), tower.seq_top).terms
        if prec is not None:
            terms = {exps: cf for exps, cf in terms.items() if exps[0] < prec}
        top.append(StandardExpansion(tower.seq_top, terms))
    return mid, top


def verify_restriction(tower: Tower, samples: int = 200, seed: int = 0) -> CheckReport:
    """The middle-chart valuation is the restriction of the top one: for
    sampled g(x, v), value(g) in the middle chart equals value(g(x, v(x, y)))
    in the top chart.

    Both values are read off the ``value_table`` of each side's
    ``restriction_tables``, the cached expansions of the powers of v keyed by
    value, which ``value_table`` checks once per table to name one exponent
    vector: ``ValueTable.least`` sums only the products at the least
    candidate value, the least row entry of each term of the sample shifted
    by its power of x, and falls back to the whole value-keyed expansion
    (``ValueTable.sums``) when they cancel.  Each side keeps its own
    sequence and its own table, so the two stay independent computations.
    Each side's value is a weight in units of its own 1/D, the unit its
    sequence's ``value_of`` returns too: a side's table and direct values
    are compared as they are, and the two sides cross-multiplied.
    ``fmt_value`` names values only in the witness and the mismatch rows.

    The tables are built once.  The top table keeps each power's terms below
    x^M, so it reads a value exactly only below M * value(x); M =
    floor((p^2 + p) * value(v) / value(x)) + 7 in the top sequence's integer
    weights, value(v) read off the minimal term of v's expansion.  A
    sample's least candidate is at most 6 * value(x) + (p^2 + p) * value(v),
    below M * value(x).  A top value the table does not read (None, or at or
    past M * value(x)) is taken instead from dividing the whole
    substitution g(x, v(x, y)) (``value_of``).

    Sample 0 and every DIRECT_EVERY-th sample are also valued by dividing
    from scratch (``value_of``, with its own tie check), g in the middle
    sequence and its substitution in the top one; Inconsistent, naming the
    sample and both value pairs, if the two paths disagree.  The
    substitution is formed modulo x^N, N = floor(table value / value(x)) +
    1, and valued below N * value(x) (``value_of`` with ``below``), which
    keeps the check exact: a value below that bound is the whole
    substitution's, and None, a substitution at or past it or vanishing
    modulo x^N, is above the table's value, so it disagrees with the table.
    Where the top value already came from the whole division, that
    division is the top side of the check."""
    lat = tower.seq_top.ensure_valid()
    _, exps = expand(tower.v_sub, tower.seq_top).minimal_term()
    prec = _sample_v_degree(tower.p) * sum(map(mul, exps, lat.weights)) // lat.weights[0] + 7
    rng = random.Random(seed)
    mid_table, top_table = map(value_table, restriction_tables(tower, prec))
    mid_denom, top_denom = mid_table.denom, top_table.denom
    bound = prec * top_table.x_weight
    x = Poly2.x(tower.field)
    mismatches = []
    for n in range(samples):
        g = random_middle_poly(tower, rng)
        # each side's value in units of its own 1/D
        mid_least, top_least = mid_table.least(g), top_table.least(g)
        top_whole = None
        if top_least is None or top_least >= bound:
            top_least = top_whole = value_of(g.compose(x, tower.v_sub), tower.seq_top)
        if n % DIRECT_EVERY == 0:
            mid_direct = value_of(g, tower.seq_mid)
            top_direct, top_text = top_whole, None
            if top_whole is None:
                # g(x, v(x, y)) modulo x^N, N * value(x) above the table's value
                top_prec = top_least // top_table.x_weight + 1
                top_bound = top_prec * top_table.x_weight
                top_direct = value_of(g.compose(x, tower.v_sub, prec=top_prec), tower.seq_top,
                                      below=top_bound)
                if top_direct is None:
                    top_text = f"at least {fmt_value(top_bound, top_denom)}"
            if (mid_direct, top_direct) != (mid_least, top_least):
                raise Inconsistent(
                    f"restriction sample {n} ({g.to_str('x', 'v')}): (middle, top) values "
                    f"({fmt_value(mid_least, mid_denom)}, {fmt_value(top_least, top_denom)}) "
                    "from the cached expansions, "
                    f"({fmt_value(mid_direct, mid_denom)}, "
                    f"{top_text or fmt_value(top_direct, top_denom)}) by direct division"
                )
        if mid_least * top_denom != top_least * mid_denom:
            mismatches.append((g.to_str("x", "v"), fmt_value(mid_least, mid_denom),
                               fmt_value(top_least, top_denom)))
    return CheckReport(
        "restriction",
        not mismatches,
        {"samples": samples, "mismatches": mismatches[:5], "mismatch_count": len(mismatches)},
    )


def expected_alternation(j: int) -> dict:
    """The claimed (alpha, beta) pattern per extension at level j: the two
    sub-extensions oscillate with the parity of j and the composite is
    constant (1, 1)."""
    odd = j % 2 == 1
    return {
        "S/A": (0, 1) if odd else (1, 0),
        "A/R": (1, 0) if odd else (0, 1),
        "S/R": (1, 1),
    }


def check_ladder_report(ladder) -> CheckReport:
    """Compare the rows of a computed ladder against the alternation
    pattern, the constant-sum rule and defect multiplicativity."""
    failures = []
    by_level: dict[int, dict] = {}
    for row in ladder:
        by_level.setdefault(row.level, {})[row.extension] = row
    for j, rows in sorted(by_level.items()):
        expected = expected_alternation(j)
        for ext, (ea, eb) in expected.items():
            row = rows.get(ext)
            if row is None:
                failures.append(f"j={j}: missing extension {ext}")
                continue
            got = (row.form.alpha, row.form.beta)
            if got != (ea, eb):
                failures.append(f"j={j} {ext}: (alpha, beta) = {got}, expected {(ea, eb)}")
            if row.form.b != 0 or row.form.a_bar != 1:
                failures.append(f"j={j} {ext}: b = {row.form.b}, a_bar = {row.form.a_bar}")
        expect_sum = {"S/A": 1, "A/R": 1, "S/R": 2}
        for ext, s in expect_sum.items():
            row = rows.get(ext)
            if row and row.form.alpha + row.form.beta != s:
                failures.append(f"j={j} {ext}: alpha + beta != {s}")
        if all(e in rows for e in ("S/A", "A/R", "S/R")):
            if rows["S/R"].defect != rows["S/A"].defect + rows["A/R"].defect:
                failures.append(f"j={j}: defect is not multiplicative")
            if (rows["S/A"].defect, rows["A/R"].defect, rows["S/R"].defect) != (1, 1, 2):
                failures.append(f"j={j}: defects differ from (1, 1, 2)")
    return CheckReport("ladder alternation", not failures, {"failures": failures})


def _pushed_leading_data(tower: Tower, chain_label: str, vec, k: int):
    """Leading residue of the monomial prod key_i^vec[i] in the foreign keys
    of chain ``chain_label``, pushed through the exact chart maps into
    level k.

    Leading data is multiplicative (see ``_bottom_row``), so each key is
    pushed once per level, and the residue is the product of their
    coefficients to the powers vec[i], negative ones included.  The pushed
    orders are checked per key in ``Tower.pushed_key``.
    """
    fld = tower.field
    lead = fld.one
    for i, m in enumerate(vec):
        if m:
            lead = fld.mul(lead, fld.pow_(tower.pushed_key(chain_label, i, k)[2], m))
    return lead


def verify_parameter_links(tower: Tower, j: int) -> CheckReport:
    """Parameter links between the chart chains at level j+1.

    Value level: writing xA, vA for the middle chart's level-(j+1) parameters
    and xS, yS, uR, vR for the top/base ones,

      value(xA) = p * value(xS) (j odd)  /  value(xS) (j even)
      value(vA) = value(yS)     (j odd)  /  p * value(yS) (j even)
      value(uR) = value(xA)     (j odd)  /  p * value(xA) (j even)
      value(vR) = p * value(vA) (j odd)  /  value(vA) (j even)

    Leading residues: the unit factors relating the parameters are read off
    the keys pushed through the exact chart maps modulo the x'-power that
    the composite-order calculus predicts (``Tower.pushed_key``), and must be
    nonzero.  The pushed orders must equal the prediction, or the check
    raises Inconsistent.  tau and sigma come out 1; gamma and lambda come
    out -1 for odd p (printed 2 over F_3 and F_9), which is 1 at p = 2.
    They are computed at every level the exact maps reach; a level they do
    not reach (none do from level 5 on) is reported as skipped
    (NotApplicable), and only then.
    """
    k = j + 1
    lvl_s = tower.chain("S").level(k)
    lvl_a = tower.chain("A").level(k)
    lvl_r = tower.chain("R").level(k)
    p = tower.p
    x_s, y_s = lvl_s.values[:2]
    x_a, v_a = lvl_a.values[:2]
    # the base sequence is normalised to value(u) = 1, and u = x^p * unit
    # has value p where x has value 1, so base-chart values scale by p
    u_r, v_r = (p * v for v in lvl_r.values[:2])
    odd = j % 2 == 1
    checks = {
        "xA_vs_xS": x_a == (p * x_s if odd else x_s),
        "vA_vs_yS": v_a == (y_s if odd else p * y_s),
        "uR_vs_xA": u_r == (x_a if odd else p * x_a),
        "vR_vs_vA": v_r == (p * v_a if odd else v_a),
    }
    details = {
        "values": {
            "xS": fmt_value(x_s),
            "yS": fmt_value(y_s),
            "xA": fmt_value(x_a),
            "vA": fmt_value(v_a),
            "uR": fmt_value(u_r),
            "vR": fmt_value(v_r),
        }
    }
    fld = tower.field
    residues = {}
    try:
        residues["tau"] = _pushed_leading_data(tower, "S", lvl_a.vecs[0], k)
        residues["gamma"] = _pushed_leading_data(tower, "S", lvl_a.vecs[1], k)
        residues["sigma"] = _pushed_leading_data(tower, "A", lvl_r.vecs[0], k)
        residues["lambda"] = _pushed_leading_data(tower, "A", lvl_r.vecs[1], k)
        checks["unit_residues_nonzero"] = all(r != fld.zero for r in residues.values())
        details["residues"] = {name: fld.to_str(r) for name, r in residues.items()}
    except NotApplicable as ex:  # exact maps unavailable at this depth
        details["residues"] = f"skipped ({type(ex).__name__})"
    return CheckReport(f"parameter links j={j}", all(checks.values()), {**checks, **details})
