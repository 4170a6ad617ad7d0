import gc
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramval.algebra import Fq, LocalElem, Poly2, parse_poly
from ramval.genseq import (
    BadParams,
    GenSeq,
    InvalidSequence,
    SequenceTooShort,
    StandardExpansion,
    ValueMismatch,
    _expand_in_key,
    _tower_recursion,
    build_tower_seq,
    expand,
    residue_of_quotient,
    semigroup,
    tower_keys,
    validate,
    value_of,
    value_table,
)
from ramval.towers import least_reader

F2 = Fq(2)
F3 = Fq(3)


# -- independent valuation oracle ---------------------------------------------
#
# Expand f by naive repeated substitution key_i^(n_i) -> key_{i+1} + x^E key_{i-1}
# (from the defining recursions), starting from the raw monomial expansion in
# (x, key_1).  The value is the minimum over the resulting unreduced term list.
# This never calls the library's division-based expansion.


def rewrite_oracle_value(f: Poly2, gs: GenSeq, family: str) -> F:
    fld = gs.field
    steps = [_tower_recursion(family, fld.p, t) for t in range(1, len(gs.keys) - 1)]
    nkeys = len(gs.keys)
    work = []
    for (i, j), c in f.terms.items():
        exps = [0] * nkeys
        exps[0] = i
        if nkeys > 1:
            exps[1] = j  # first key is the y coordinate for all built families
        work.append((c, tuple(exps)))
    done: dict[tuple, object] = {}
    while work:
        coeff, exps = work.pop()
        for t in range(1, nkeys - 1):
            n_t = steps[t - 1].exponent
            if exps[t] >= n_t:
                e1 = list(exps)
                e1[t] -= n_t
                e1[t + 1] += 1
                e2 = list(exps)
                e2[t] -= n_t
                e2[0] += steps[t - 1].x_exp
                e2[t - 1] += 1
                work.append((coeff, tuple(e1)))
                work.append((coeff, tuple(e2)))
                break
        else:
            acc = fld.add(done.get(exps, fld.zero), coeff)
            if acc == fld.zero:
                done.pop(exps, None)
            else:
                done[exps] = acc
    # same-vector copies may cancel; distinct vectors never share a value
    return min(sum(m * v for m, v in zip(e, gs.values)) for e in done)


# -- construction and validity --------------------------------------------------


def test_build_middle_family_keys():
    gs = build_tower_seq("U", 2, 1, 2)
    assert gs.keys[0] == Poly2.x(F2)
    assert gs.keys[1] == Poly2.y(F2)
    assert gs.keys[2] == parse_poly("y^2 - x", F2)  # v^p - x in chart (x, v)
    assert gs.values == [F(1), F(1, 2), F(17, 16)]


def test_build_top_family_values():
    gs = build_tower_seq("Q", 2, None, 2)
    assert gs.keys[2] == parse_poly("y^4 - x", F2)
    assert gs.values == [F(1), F(1, 4), F(1) + F(1, 16)]


def test_build_base_family_key_shape():
    gs = build_tower_seq("P", 3, None, 2)
    assert gs.chart == ("u", "v")
    assert gs.keys[2] == parse_poly("v^9 - u", F3, ("u", "v"))


def test_build_rejects_bad_params():
    with pytest.raises(BadParams):
        build_tower_seq("U", 3, 1, 3)  # p - 1 = 2 does not divide 1
    with pytest.raises(BadParams):
        build_tower_seq("Q", 2, None, 1)
    with pytest.raises(BadParams):
        build_tower_seq("Z", 2, None, 3)


def test_validate_middle_family_indices():
    gs = build_tower_seq("U", 2, 1, 5)
    report = validate(gs)
    assert report.ok
    assert gs.indices()[1:] == [2, 8, 2, 8, 2]


def test_validate_top_family_indices():
    gs = build_tower_seq("Q", 2, None, 4)
    assert validate(gs).ok
    assert gs.indices()[1:] == [4, 4, 4, 4]


def test_validate_growth_boundary_fails():
    # value_2 set to exactly n_1 * value_1 violates the strict growth condition
    keys = [Poly2.x(F2), Poly2.y(F2), parse_poly("y^2 - x", F2)]
    gs = GenSeq(F2, keys, [F(1), F(1, 2), F(1)], label="boundary")
    report = validate(gs)
    assert not report.ok
    assert any(r["i"] == 1 and not r["growth"] for r in report.rows)


def test_validate_non_monic_fails():
    keys = [Poly2.x(F2), parse_poly("x*y + y", F2)]
    gs = GenSeq(F2, keys, [F(1), F(1, 2)])
    assert not validate(gs).ok


def test_validate_trivial_value_group_fails():
    # a zero or negative value leaves the stage groups or indices undefined:
    # no index, a failed row, and ensure_valid rejects the sequence
    for values in ((0, 0), (0, F(1, 2)), (1, F(-1, 2)), (-1, 1)):
        gs = GenSeq(F2, [Poly2.x(F2), Poly2.y(F2)], [F(v) for v in values])
        report = validate(gs)
        assert not report.ok
        assert report.rows[0]["index"] is None
        with pytest.raises(InvalidSequence):
            gs.ensure_valid()


# -- expansion -------------------------------------------------------------------


def test_expand_pure_x_power():
    gs = build_tower_seq("Q", 2, None, 3)
    e = expand(parse_poly("x^3", F2), gs)
    assert e.terms == {(3, 0, 0, 0): 1}


def test_expand_key_power_example():
    gs = build_tower_seq("Q", 2, None, 3)
    e = expand(parse_poly("y^4", F2), gs)  # = K2 + x
    assert e.terms == {(0, 0, 1, 0): 1, (1, 0, 0, 0): 1}


def test_expand_already_standard():
    gs = build_tower_seq("Q", 2, None, 3)
    f = gs.keys[2] * Poly2.y(F2)
    e = expand(f, gs)
    assert e.terms == {(0, 1, 1, 0): 1}


def test_expand_roundtrip_random():
    rng = random.Random(41)
    for fld, p in ((F2, 2), (F3, 3)):
        gs = build_tower_seq("Q", p, None, 3)
        for _ in range(100):
            f = Poly2.zero(fld)
            for _ in range(rng.randint(1, 6)):
                f = f + Poly2.monomial(
                    fld, rng.randint(0, 6), rng.randint(0, 12), fld.of_int(rng.randrange(fld.q))
                )
            if f.is_zero():
                continue
            e = expand(f, gs)
            assert e.as_poly() == f
            idx = gs.indices()
            for exps in e.terms:
                for i in range(1, gs.top + 1):
                    assert 0 <= exps[i] < idx[i]


def _expand_by_division(g: Poly2, key: Poly2, deg: int) -> list[Poly2]:
    """Reference: divide by the key one power at a time."""
    out = []
    while g.deg_y() >= deg:
        g, r = g.divrem_y(key)
        out.append(r)
    out.append(g)
    return out


@pytest.mark.parametrize("fld", [Fq(2), Fq(5), Fq(2, 2), Fq(3, 2)], ids=str)
def test_expand_in_pure_y_power_matches_division(fld, monkeypatch):
    rng = random.Random(23)
    nonzero = fld.elements()[1:]
    cases = []
    for d in (1, 2, 3, 5, 3**10):
        for _ in range(25):
            # y-degrees on a grid of gap d // 2 + 1 reach up to 7 powers of y^d,
            # so with d = 3^10 almost every degree is empty
            gap = d // 2 + 1
            g = Poly2.zero(fld)
            for _ in range(rng.randint(1, 8)):
                j = gap * rng.randint(0, 7 * d // gap)
                g = g + Poly2.monomial(fld, rng.randint(0, 5), j, rng.choice(nonzero))
            if g:
                cases.append((g, Poly2.monomial(fld, 0, d), d))
    expected = [_expand_by_division(*case) for case in cases]

    def no_division(self, g):
        raise AssertionError("the key y^d must be expanded without division")

    monkeypatch.setattr(Poly2, "divrem_y", no_division)
    for case, want in zip(cases, expected):
        # the nonzero digits of the division, with their powers of the key
        assert _expand_in_key(*case) == [(k, c) for k, c in enumerate(want) if c]


def test_expand_in_other_keys_roundtrip():
    rng = random.Random(29)
    for fld in (Fq(2), Fq(5), Fq(2, 2), Fq(3, 2)):
        # monic in y but not a pure power of y
        for key in (Poly2.monomial(fld, 0, 3) + Poly2.x(fld),
                    Poly2.monomial(fld, 0, 2) + Poly2.monomial(fld, 1, 1)):
            deg = key.deg_y()
            for _ in range(20):
                g = Poly2.zero(fld)
                for _ in range(rng.randint(1, 6)):
                    g = g + Poly2.monomial(fld, rng.randint(0, 4), rng.randint(0, 12),
                                           rng.choice(fld.elements()[1:]))
                digits = _expand_in_key(g, key, deg)
                powers = [k for k, _ in digits]
                assert powers == sorted(set(powers))
                assert all(c and c.deg_y() < deg for _, c in digits)
                assert sum((c * key**k for k, c in digits), Poly2.zero(fld)) == g


def _expand_oracle(f: Poly2, gs: GenSeq) -> dict:
    """Reference expansion: divide by each key one power at a time, keep
    every digit, zero ones included, and recurse into each with the next
    key down; key 0 = x leaves the x-exponents."""
    terms = {}

    def walk(g, i, tail):
        if i == 0:
            for (a, b), c in g.terms.items():
                assert b == 0
                terms[(a,) + tail] = c
            return
        for k, digit in enumerate(_expand_by_division(g, gs.keys[i], gs.keys[i].deg_y())):
            walk(digit, i - 1, (k,) + tail)

    walk(f, gs.top, ())
    return terms


@st.composite
def _span_case(draw, fields):
    """A Q or U sequence over one of ``fields`` ((p, m) pairs) and a nonzero
    polynomial of x-degree at most 12 in its span."""
    p, m = draw(st.sampled_from(fields))
    gs = _family_seq(draw(st.sampled_from("QU")), p, m)
    fld = gs.field
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 12), st.integers(0, p**2 + p)),
        st.integers(1, fld.q - 1).map(fld.of_index), min_size=1, max_size=8,
    ))
    return gs, Poly2(fld, terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_span_case([(2, 1), (5, 1), (2, 2), (3, 2)]))
def test_expand_matches_division_oracle(case):
    # expand keeps only nonzero digits and slices y^d without division; the
    # oracle divides by every key and keeps every digit
    gs, f = case
    assert expand(f, gs).terms == _expand_oracle(f, gs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_span_case([(2, 1), (3, 1), (2, 2), (3, 2)]), st.integers(1, 14))
def test_expand_modulo_x_power_keeps_low_terms(case, prec):
    # expand is k[x]-linear: expand(f) - expand(f mod x^M) is x^M times an
    # expansion, so the terms with m_0 < M agree; where f vanishes modulo
    # x^M, expand(f) has no term below x^M
    gs, f = case
    low = {exps: c for exps, c in expand(f, gs).terms.items() if exps[0] < prec}
    f_mod = f.truncate(prec)
    if not f_mod:
        assert low == {}
        return
    assert {exps: c for exps, c in expand(f_mod, gs).terms.items() if exps[0] < prec} == low


@st.composite
def _bound_case(draw):
    """A span case over F_2, F_3, F_4 or F_9 and a bound B in units of 1/D:
    near value(f) * D (at it, or a few units or value(x)s off), at or below
    0, or with f shifted by x^s and B at most s * value(x), so that f mod
    x^ceil(B / weight(x)) vanishes."""
    gs, f = draw(_span_case([(2, 1), (3, 1), (2, 2), (3, 2)]))
    lat = gs.ensure_valid()
    w0 = lat.weights[0]
    kind = draw(st.sampled_from(["near", "nonpositive", "vanishing"]))
    if kind == "vanishing":
        s = draw(st.integers(1, 5))
        return gs, f.shift(s), s * w0 - draw(st.integers(0, w0 - 1)), kind
    if kind == "nonpositive":
        return gs, f, -draw(st.integers(0, 3 * w0)), kind
    value = value_of(f, gs)
    return gs, f, value + draw(st.integers(-3, 3)) * w0 + draw(st.integers(-2, 2)), kind


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_bound_case())
def test_value_below_a_bound_is_the_whole_value_or_none(case):
    # value_of(f, gs, below=B) is None iff value(f) * D >= B, and value(f)
    # * D otherwise; a truncation that vanishes reads None
    gs, f, bound, kind = case
    lat = gs.ensure_valid()
    whole = value_of(f, gs)
    got = value_of(f, gs, below=bound)
    assert got == (None if whole >= bound else whole)
    if kind == "vanishing":
        assert got is None and not f.truncate(-(-bound // lat.weights[0]))


def test_expand_sequence_too_short():
    gs = build_tower_seq("Q", 2, None, 2)
    with pytest.raises(SequenceTooShort):
        expand(parse_poly("y^16", F2), gs)


# -- valuation -------------------------------------------------------------------


def test_value_examples():
    # weights over each sequence's D
    gsU = build_tower_seq("U", 2, 1, 3)
    D = gsU.ensure_valid().denom
    assert value_of(Poly2.x(F2), gsU) == 1 * D
    assert value_of(Poly2.y(F2), gsU) == F(1, 2) * D
    gsQ = build_tower_seq("Q", 2, None, 3)
    assert value_of(parse_poly("y^4", F2), gsQ) == 1 * gsQ.ensure_valid().denom


def test_value_unit_denominator_is_ignored():
    gsU = build_tower_seq("U", 2, 1, 3)
    elem = LocalElem(parse_poly("x^2", F2), parse_poly("1 - x", F2))
    assert value_of(elem, gsU) == 2 * gsU.ensure_valid().denom
    # a denominator with constant term 2 is a unit too
    gsQ = build_tower_seq("Q", 3, None, 3)
    num = parse_poly("y^3 + x*y", F3)
    assert value_of(LocalElem(num, parse_poly("2 + x*y", F3)), gsQ) == value_of(num, gsQ)


def test_value_oracle_equivalence():
    # coefficients drawn from every element of F_q, not only the prime field
    rng = random.Random(43)
    checked = 0
    for fld in (F2, F3, Fq(2, 2), Fq(3, 2)):
        gs = build_tower_seq("Q", fld.p, None, 3, fld)
        for _ in range(300):
            f = Poly2.zero(fld)
            for _ in range(rng.randint(1, 5)):
                f = f + Poly2.monomial(
                    fld, rng.randint(0, 8), rng.randint(0, 16), fld.of_index(rng.randrange(fld.q))
                )
            if f.is_zero():
                continue
            assert value_of(f, gs) == rewrite_oracle_value(f, gs, "Q") * gs.ensure_valid().denom
            checked += 1
    assert checked >= 1000


def test_value_additive_and_ultrametric():
    rng = random.Random(47)
    for fld in (F2, Fq(2, 2), Fq(3, 2)):
        gs = build_tower_seq("Q", fld.p, None, 4, fld)

        def draw():
            return Poly2.monomial(fld, rng.randint(0, 5), rng.randint(0, 8),
                                  fld.of_index(rng.randrange(1, fld.q)))

        for _ in range(120):
            f = Poly2.zero(fld)
            g = Poly2.zero(fld)
            for _ in range(rng.randint(1, 4)):
                f = f + draw()
                g = g + draw()
            if f.is_zero() or g.is_zero():
                continue
            assert value_of(f * g, gs) == value_of(f, gs) + value_of(g, gs)
            s = f + g
            if not s.is_zero():
                vf, vg = value_of(f, gs), value_of(g, gs)
                vs = value_of(s, gs)
                assert vs >= min(vf, vg)
                if vf != vg:
                    assert vs == min(vf, vg)


def test_minimal_term_lattice_matches_fraction_sum():
    # the integer dot products over (1/D)Z give the same minimum as summing
    # the Fraction values term by term, as a weight over D
    rng = random.Random(53)
    for fld in (F2, F3, Fq(5), Fq(2, 2), Fq(3, 2)):
        p = fld.p
        for fam, c in (("Q", None), ("U", p - 1)):
            gs = build_tower_seq(fam, p, c, 3, fld)
            # several key_2 multiples, inside the span of the sequence
            max_y = 3 * gs.keys[2].deg_y()
            for _ in range(40):
                f = Poly2.zero(fld)
                for _ in range(rng.randint(1, 6)):
                    cf = fld.elements()[rng.randrange(1, fld.q)]
                    f = f + Poly2.monomial(fld, rng.randint(0, 6), rng.randrange(max_y), cf)
                if f.is_zero():
                    continue
                e = expand(f, gs)
                vals = {exps: sum((m * v for m, v in zip(exps, gs.values)), F(0))
                        for exps in e.terms}
                best = min(vals.values())
                assert list(vals.values()).count(best) == 1
                w, exps = e.minimal_term()
                assert type(w) is int
                assert w == best * gs.ensure_valid().denom == vals[exps] * gs.ensure_valid().denom
                assert w == value_of(f, gs)


def test_minimal_term_tie_raises():
    gs = build_tower_seq("Q", 2, None, 3)
    # x and key_1^4 both have value 1
    tie = StandardExpansion(gs, {(1, 0, 0, 0): 1, (0, 4, 0, 0): 1})
    with pytest.raises(InvalidSequence):
        tie.minimal_term()
    lower = StandardExpansion(gs, {**tie.terms, (0, 1, 0, 0): 1})
    assert lower.minimal_term() == (F(1, 4) * gs.ensure_valid().denom, (0, 1, 0, 0))


def test_lattice_cached_on_validation():
    gs = build_tower_seq("U", 2, 1, 4)
    lat = gs.ensure_valid()
    assert gs.ensure_valid() is lat
    assert list(lat.indices) == gs.indices()
    assert list(lat.degrees) == gs.degrees()
    assert [F(w, lat.denom) for w in lat.weights] == gs.values
    bad = GenSeq(F2, [Poly2.x(F2), parse_poly("x*y + y", F2)], [F(1), F(1, 2)])
    with pytest.raises(InvalidSequence):
        bad.ensure_valid()


def test_keys_have_declared_values():
    for fam, p, c in (("U", 2, 1), ("U", 3, 2), ("Q", 2, None), ("P", 3, None)):
        gs = build_tower_seq(fam, p, c, 4)
        D = gs.ensure_valid().denom
        for j, key in enumerate(gs.keys):
            assert value_of(key, gs) == gs.values[j] * D


# -- residues --------------------------------------------------------------------


def test_residue_of_self():
    gs = build_tower_seq("U", 2, 1, 3)
    f = parse_poly("y^2 + x", F2)
    assert residue_of_quotient(f, f, gs) == F2.one


def test_residue_first_key_power_vs_x():
    # v^p and x have equal value; the quotient has residue 1
    for p, c in ((2, 1), (3, 2)):
        fld = Fq(p)
        gs = build_tower_seq("U", p, c, 3)
        assert residue_of_quotient(Poly2.y(fld) ** p, Poly2.x(fld), gs) == fld.one


def test_residue_constant_multiple():
    gs = build_tower_seq("Q", 3, None, 3)
    f = parse_poly("y^3 + x*y", F3)
    assert residue_of_quotient(f.scale(2), f, gs) == F3.of_int(2)


def test_residue_value_mismatch():
    gs = build_tower_seq("U", 2, 1, 3)
    with pytest.raises(ValueMismatch):
        residue_of_quotient(Poly2.x(F2), Poly2.y(F2), gs)


@lru_cache(maxsize=None)
def _family_seq(family, p, m=1, length=3):
    return build_tower_seq(family, p, p - 1 if family == "U" else None, length, Fq(p, m))


@st.composite
def _standard_tails(draw):
    """A family's lattice at p = 2, 3 or 5 and two key-exponent tails
    (m_1, ..., m_N) with 0 <= m_i < n_i."""
    lat = _family_seq(draw(st.sampled_from("QUP")), draw(st.sampled_from((2, 3, 5))),
                      length=4).ensure_valid()
    tails = st.tuples(*(st.integers(0, n - 1) for n in lat.indices[1:]))
    return lat, draw(tails), draw(tails)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_standard_tails())
def test_distinct_standard_vectors_have_distinct_values(case):
    # the uniqueness residue_of_quotient and minimal_term rest on: x-exponents
    # m_0, m'_0 >= 0 can make two standard vectors' values equal exactly when
    # their key parts differ by a multiple of value_0, so that must happen
    # only for equal tails
    lat, tail, other = case
    w0, w = lat.weights[0], lat.weights[1:]
    diff = sum(map(mul, tail, w)) - sum(map(mul, other, w))
    assert (diff % w0 == 0) == (tail == other)


@st.composite
def _residue_case(draw):
    """A family sequence over F_2, F_3, F_4, F_5 or F_9, a nonzero f, a
    nonzero constant c and a nonzero h of value above value(f)."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]))
    gs = _family_seq(draw(st.sampled_from("QUP")), p, m)
    fld = gs.field
    polys = st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, p**2 + p)),
        st.integers(1, fld.q - 1).map(fld.of_index), min_size=1, max_size=6,
    ).map(lambda terms: Poly2(fld, terms))
    f, h = draw(polys), draw(polys)
    # x has value 1, weight D, so x^k lifts h above f
    h = h.shift(max(0, (value_of(f, gs) - value_of(h, gs)) // gs.ensure_valid().denom + 1))
    return gs, f, fld.of_index(draw(st.integers(1, fld.q - 1))), h


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_residue_case())
def test_residue_of_constant_multiple_plus_higher_terms(case):
    gs, f, c, h = case
    assert value_of(h, gs) > value_of(f, gs)
    assert residue_of_quotient(f.scale(c) + h, f, gs) == c


@st.composite
def _expansion_case(draw):
    """A Q or U sequence over F_2, F_3, F_4 or F_9, two nonzero polynomials
    in its span and a seeded Random."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    gs = _family_seq(draw(st.sampled_from("QU")), p, m)
    fld = gs.field
    polys = st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, p**2 + p)),
        st.integers(1, fld.q - 1).map(fld.of_index), min_size=1, max_size=6,
    ).map(lambda terms: Poly2(fld, terms))
    return gs, draw(polys), draw(polys), draw(st.randoms(use_true_random=False))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_expansion_case())
def test_term_order_carries_no_meaning(case):
    # an expansion rebuilt in reversed or shuffled order reads the same
    gs, f, _, rng = case
    e = expand(f, gs)
    value, exps = e.minimal_term()
    items = list(e.terms.items())
    shuffled = rng.sample(items, len(items))
    for order in (items[::-1], shuffled):
        other = StandardExpansion(gs, dict(order))
        assert other.minimal_term() == (value, exps)
        assert other.term_str(exps) == e.term_str(exps)
        assert other.as_poly() == e.as_poly() == f


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_expansion_case())
def test_value_table_keeps_no_zero_coefficient(case):
    # g(x, v) = v - 1 over the expansions of f and f + h sums to the
    # expansion of h, keyed by value: every value of f's expansion that h's
    # lacks folds to zero and must be dropped; where the least terms of f
    # and f + h cancel, the reader falls back to these sums
    gs, f, h, _ = case
    assume(not (f + h).is_zero())
    fld = gs.field
    weights = gs.ensure_valid().weights
    g = Poly2(fld, {(0, 1): fld.one, (0, 0): fld.neg(fld.one)})
    table = value_table([expand(f, gs), expand(f + h, gs)])
    sums = table.sums(g)
    assert fld.zero not in sums.values()
    assert sums == {sum(map(mul, e, weights)): c for e, c in expand(h, gs).terms.items()}
    assert least_reader(table, table)(g) == (value_of(h, gs),) * 2


# -- semigroups --------------------------------------------------------------------


def _weights_over(gs, values):
    """The values as weights over the sequence's D."""
    return tuple(v * gs.ensure_valid().denom for v in values)


def test_semigroup_top_family_example():
    gs = build_tower_seq("Q", 2, None, 3)
    assert semigroup(gs, F(1)) == _weights_over(gs, (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)))


def test_semigroup_zero_bound():
    gs = build_tower_seq("Q", 2, None, 3)
    assert semigroup(gs, F(0)) == (0,)


def test_semigroup_middle_family_small_bound():
    gs = build_tower_seq("U", 2, 1, 3)
    assert semigroup(gs, F(1, 2)) == _weights_over(gs, (F(0), F(1, 2)))


def test_semigroup_closed_under_addition():
    for p, c in ((2, 1), (3, 2)):
        gs = build_tower_seq("U", p, c, 4)
        found = set(semigroup(gs, F(3)))
        top = 3 * gs.ensure_valid().denom
        assert all(a + b in found for a in found for b in found if a + b <= top)


def test_semigroup_is_every_standard_value_in_bound():
    # against the values of all exponent vectors with 0 <= m_i < n_i
    for family, p, c, bound in (("Q", 2, None, F(7, 2)), ("U", 3, 2, F(5, 2))):
        gs = build_tower_seq(family, p, c, 4)
        lat = gs.ensure_valid()
        found = set()
        for tail in product(*(range(n) for n in lat.indices[1:])):
            v = sum(m * w for m, w in zip(tail, gs.values[1:]))
            found.update(v + m0 for m0 in range(int(bound - v) + 1) if v + m0 <= bound)
        assert semigroup(gs, bound) == _weights_over(gs, sorted(found))


def test_expand_and_semigroup_leave_no_cyclic_garbage():
    # with the collector off, expanding a tower key (the last middle key in
    # the top chart) and listing a semigroup free everything by reference
    # counting: nothing is left for the cyclic collector
    p = 3
    gs = build_tower_seq("Q", p, None, 5)
    x, y = Poly2.x(gs.field), Poly2.y(gs.field)
    key = tower_keys("U", p, x, y**p - Poly2.monomial(gs.field, 2, 1), 5)[-1]
    gs.ensure_valid()
    gc.collect()
    gc.disable()
    try:
        assert len(expand(key, gs).terms) == 6
        assert semigroup(gs, F(3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_extension_field_sequence():
    # the whole pipeline runs over F_4: values are field-independent, and the
    # expansion arithmetic exercises packed F_4 coefficients
    fld = Fq(2, 2)
    gs = build_tower_seq("Q", 2, None, 3, fld)
    assert validate(gs).ok
    omega = fld.of_index(2)  # t, a generator of F_4 over F_2
    f = Poly2.monomial(fld, 0, 4, omega) + Poly2.monomial(fld, 2, 1, fld.one)
    assert value_of(f, gs) == 1 * gs.ensure_valid().denom
    assert residue_of_quotient(f.scale(omega), f, gs) == omega
    from ramval.transforms import ChartChain

    lvl2 = ChartChain(gs).level(2)
    assert lvl2.values[0] == F(1, 4)
    assert lvl2.keys is not None  # the exact chart map exists over F_4
