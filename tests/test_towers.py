import copy
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import ramval.genseq as genseq_module
import ramval.towers as towers_module
from ramval.algebra import Fq, LocalElem, Poly2, parse_poly
from ramval.cli import main
from ramval.genseq import (
    BadParams,
    Inconsistent,
    InvalidSequence,
    StandardExpansion,
    ValueTable,
    expand,
    _tower_recursion,
    build_tower_seq,
    value_of,
    value_table,
)
from ramval.towers import (
    _pushed_leading_data,
    build_tower,
    certificate_precision,
    check_ladder_report,
    deviation_exponent,
    expected_alternation,
    random_middle_poly,
    restriction_tables,
    verify_deviation_identity,
    verify_parameter_links,
    verify_restriction,
    verify_value_comparison,
)
from ramval.transforms import ChartChain, _as_elem, _bottom_row, run_tower_ladder
from ramval.values import fmt_value

F2 = Fq(2)


def test_build_tower_middle_keys():
    t = build_tower(2, 1, 3)
    # U_3 = (v^2 - x)^(p^3) - x^(p^3) v in the middle chart
    gs = t.seq_mid
    u2 = parse_poly("y^2 - x", F2)
    assert gs.keys[2] == u2
    assert gs.keys[3] == u2**8 - parse_poly("x^8 * y", F2)


def test_build_tower_valid_over_f3():
    t = build_tower(3, 2, 2)
    from ramval.genseq import validate

    assert validate(t.seq_top).ok
    assert validate(t.seq_mid).ok
    assert validate(t.seq_base).ok


def test_build_tower_bad_params():
    with pytest.raises(BadParams):
        build_tower(3, 1, 2)


@pytest.mark.parametrize("p,c", [(2, 1), (2, 2), (3, 2), (5, 4)])
def test_all_three_sequences_valid(p, c):
    from ramval.genseq import validate

    t = build_tower(p, c, 5)
    for seq in (t.seq_top, t.seq_mid, t.seq_base):
        assert validate(seq).ok


def test_middle_keys_in_top_chart_first_identities():
    # U_1 = Q_1^p - x^c y and U_2 = Q_2 - x^(cp) y^p, exactly
    for p, c in ((2, 1), (3, 2)):
        fld = Fq(p)
        t = build_tower(p, c, 3)
        q1, q2 = t.seq_top.keys[1], t.seq_top.keys[2]
        xcy = Poly2.monomial(fld, c, 1)
        assert t.mid_keys_xy[1] == q1**p - xcy
        assert t.mid_keys_xy[2] == q2 - Poly2.monomial(fld, c * p, p)


def _equal_mod_xpow(a: LocalElem, b: LocalElem, n: int) -> bool:
    """a == b modulo x^n, by cross-multiplication (the denominators are
    units), each product formed modulo x^n."""
    return not a.num.__mul__(b.den, n).__sub__(b.num.__mul__(a.den, n), n)


def _base_key_elems(t, prec=None):
    """The base keys N_j / w^a_j of a tower as pairs, w^a_j modulo x^prec."""
    return [LocalElem(num, pow(t.w, a, prec)) for num, a in t.base_keys_xv]


def _exact_base_keys(p, fld, length):
    """Reference: the P recursion run exactly on the pairs u = x^p / w and
    v in the middle chart, with ``LocalElem`` arithmetic."""
    x, y = Poly2.x(fld), Poly2.y(fld)
    keys = [LocalElem(x**p, Poly2.one(fld) - Poly2.monomial(fld, p - 1, 0)), LocalElem(y)]
    for j in range(1, length):
        step = _tower_recursion("P", p, j)
        keys.append(keys[j] ** step.exponent - keys[0] ** step.x_exp * keys[j - 1])
    return keys


@pytest.mark.parametrize("p,m,length", [(2, 1, 5), (3, 1, 4), (3, 2, 4), (5, 1, 3), (2, 2, 5),
                                        (7, 1, 3)])
def test_rewritten_keys_are_substituted_keys(p, m, length):
    # independent oracle for the chart rewrites: substitution is a ring map,
    # so the recursion run from the images of the first two keys must equal
    # every key substituted on its own (Horner for the middle keys, term by
    # term for the base keys: key(x^p / w, y) is the sum of
    # c x^(p i) w^(dx - i) y^j over w^dx, dx the key's x-degree); the base
    # numerators are built modulo x^N, so N_j / w^a_j is compared modulo
    # x^N, and a_j follows the max rule
    fld = Fq(p, m)
    t = build_tower(p, p - 1, length, fld)
    x, N = Poly2.x(fld), t.base_prec
    assert t.w == Poly2.one(fld) - Poly2.monomial(fld, p - 1, 0)
    assert len(t.mid_keys_xy) == len(t.seq_mid.keys) == length + 1
    for rewritten, key in zip(t.mid_keys_xy, t.seq_mid.keys):
        assert rewritten == key.compose(x, t.v_sub)
    assert len(t.base_keys_xv) == len(t.seq_base.keys) == length + 1
    for rewritten, key in zip(_base_key_elems(t), t.seq_base.keys):
        dx = max(i for i, _ in key.terms)
        num = Poly2.zero(fld)
        for (i, j), c in key.terms.items():
            num = num + Poly2.monomial(fld, p * i, j, c).__mul__(pow(t.w, dx - i, N), N)
        assert _equal_mod_xpow(rewritten, LocalElem(num, pow(t.w, dx, N)), N)
    exps = [a for _, a in t.base_keys_xv]
    assert exps[:2] == [1, 0]
    for j in range(1, length):
        step = _tower_recursion("P", p, j)
        assert exps[j + 1] == max(step.exponent * exps[j], step.x_exp + exps[j - 1]), j


def test_deviation_j2_exact_shape():
    # U_3 - Q_3^p = -x^(cp^4) y^(p^4) + x^(p^3 + c) y; the first term's
    # y-exponent matches the stated degree p^(2j) of the correction
    for p, c in ((2, 1), (3, 2)):
        fld = Fq(p)
        t = build_tower(p, c, 4)
        diff = t.mid_keys_xy[3] - t.seq_top.keys[3] ** p
        expected = -Poly2.monomial(fld, c * p**4, p**4) + Poly2.monomial(fld, p**3 + c, 1)
        assert diff == expected


@pytest.mark.parametrize("p,c,jmax", [(2, 1, 4), (2, 2, 4), (3, 2, 3)])
def test_deviation_identities(p, c, jmax):
    t = build_tower(p, c, jmax + 1)
    for j in range(1, jmax + 1):
        rep = verify_deviation_identity(t, j)
        assert rep.ok, rep.details


def test_deviation_exponent_values():
    assert deviation_exponent(2, 1) == 1
    assert deviation_exponent(2, 2) == 8
    assert deviation_exponent(2, 3) == 16 + 1
    assert deviation_exponent(2, 4) == 128 + 8


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_value_comparisons_p2(j):
    t = build_tower(2, 1, 6)
    rep = verify_value_comparison(t, j)
    assert rep.ok, rep.details


def test_value_comparison_p3():
    t = build_tower(3, 2, 4)
    for j in (1, 2):
        assert verify_value_comparison(t, j).ok


def test_restriction_key_examples():
    for p, c in ((2, 1), (3, 2)):
        t = build_tower(p, c, 5)
        x = Poly2.x(t.field)
        v = Poly2.y(t.field)
        # weights over each side's own D, compared cross-multiplied
        d_mid, d_top = t.seq_mid.ensure_valid().denom, t.seq_top.ensure_valid().denom
        # value(x) = 1 in both charts
        assert value_of(x, t.seq_mid) == 1 * d_mid and value_of(x, t.seq_top) == 1 * d_top
        # value(v) = 1/p on both sides
        assert value_of(v, t.seq_mid) == Fraction(1, p) * d_mid
        assert value_of(v, t.seq_mid) * d_top == value_of(t.v_sub, t.seq_top) * d_mid
        # value(U_2) agrees
        assert value_of(t.seq_mid.keys[2], t.seq_mid) * d_top == value_of(
            t.mid_keys_xy[2], t.seq_top
        ) * d_mid


@pytest.mark.parametrize("p,c", [(2, 1), (2, 2), (3, 2)])
def test_restriction_sampled(p, c):
    t = build_tower(p, c, 5)
    rep = verify_restriction(t, samples=60, seed=5)
    assert rep.ok, rep.details


@pytest.mark.parametrize("p", [2, 3])
def test_random_middle_poly_draws_every_nonzero_element(p):
    fld = Fq(p, 2)  # F_4 and F_9
    t = build_tower(p, p - 1, 3, fld)
    drawn = []
    of_index = fld.of_index

    def recording(n):
        drawn.append(of_index(n))
        return drawn[-1]

    fld.of_index = recording
    rng = random.Random(3)
    for _ in range(100):
        random_middle_poly(t, rng)
    assert fld.zero not in drawn
    assert any(any(fld.coeffs(c)[1:]) for c in drawn)  # some coefficient outside F_p
    assert set(drawn) == set(fld.elements()) - {fld.zero}


def test_random_middle_poly_prime_field_draws_unchanged():
    # of_index is the identity on 1..p-1, so prime-field samples are those of of_int
    for p in (2, 3, 5):
        fld = Fq(p)
        assert [fld.of_index(n) for n in range(1, p)] == [fld.of_int(n) for n in range(1, p)]


def _sum_of_monomials(tower, rng, max_terms=6):
    """The sampler as a chain of Poly2 additions: the reference for
    ``random_middle_poly``."""
    fld = tower.field
    max_v = tower.p**2 + tower.p
    out = Poly2.zero(fld)
    for _ in range(rng.randint(1, max_terms)):
        coeff = fld.of_index(rng.randrange(1, fld.q))
        out = out + Poly2.monomial(fld, rng.randrange(0, 7), rng.randrange(0, max_v + 1), coeff)
    return out if out else Poly2.y(fld)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_random_middle_poly_matches_sum_of_monomials(p, m):
    t = build_tower(p, p - 1, 3, Fq(p, m))
    rng, ref_rng = random.Random(11), random.Random(11)
    for _ in range(2000):
        g, ref = random_middle_poly(t, rng), _sum_of_monomials(t, ref_rng)
        assert list(g.terms.items()) == list(ref.terms.items())
    assert rng.random() == ref_rng.random()  # the same draws, in the same order


def _randrange_middle_poly(tower, rng):
    """The sampler as it drew through ``rng.randint`` and ``rng.randrange``:
    the oracle that pins the draws of ``random_middle_poly``."""
    fld = tower.field
    max_v = tower.p**2 + tower.p
    terms: dict = {}
    for _ in range(rng.randint(1, 6)):
        coeff = fld.of_index(rng.randrange(1, fld.q))
        e = (rng.randrange(0, 7), rng.randrange(0, max_v + 1))
        s = fld.add(terms.get(e, 0), coeff)
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return Poly2(fld, terms) if terms else Poly2.y(fld)


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2), (3, 2)])
def test_random_middle_poly_pinned_to_randrange(p, m):
    # F_2, F_5, F_4 and F_9: every seed draws the samples, and leaves the
    # generator in the state, that randint and randrange did
    t = build_tower(p, p - 1, 3, Fq(p, m))
    for seed in range(21):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(50):
            g, ref = random_middle_poly(t, rng), _randrange_middle_poly(t, ref_rng)
            assert list(g.terms.items()) == list(ref.terms.items())
        assert rng.getstate() == ref_rng.getstate()


@lru_cache(maxsize=None)
def _tower_with_tables(p, m, length):
    t = build_tower(p, p - 1, length, Fq(p, m))
    return t, tuple(map(value_table, restriction_tables(t)))


def _by_value(e):
    """An expansion as {value in units of 1/D: coefficient}; no two of its
    exponent vectors may share a value."""
    weights = e.gs.ensure_valid().weights
    out = {sum(map(mul, exps, weights)): c for exps, c in e.terms.items()}
    assert len(out) == len(e.terms)
    return out


@st.composite
def _restriction_case(draw):
    """A tower over F_2, F_3, F_4 or F_9 of length 3..5 and a nonzero g in the
    sampling span (x-degree <= 6, v-degree <= p^2 + p)."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    t, tables = _tower_with_tables(p, m, draw(st.integers(3, 5)))
    fld = t.field
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, p**2 + p)),
        st.integers(1, fld.q - 1).map(fld.of_index), min_size=1, max_size=6))
    return t, tables, Poly2(fld, terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_restriction_case())
def test_linear_expansions_match_direct_expansions(case):
    # the value-keyed sums are the whole direct expansions, each vector
    # replaced by its value, and their least keys are the direct values
    t, (mid_table, top_table), g = case
    composed = g.compose(Poly2.x(t.field), t.v_sub)
    for table, f, gs in ((mid_table, g, t.seq_mid), (top_table, composed, t.seq_top)):
        assert table.sums(g) == _by_value(expand(f, gs))
        assert table.least(g) == value_of(f, gs)


def _least_candidate(table, g):
    """The least value that a term of g reaches through the least entry of
    its row, in units of 1/D."""
    return min(table.rows[b][0][0] + a * table.x_weight for a, b in g.terms)


@st.composite
def _cancelling_case(draw):
    """A restriction case, one of its sides, and g with the products at its
    least candidate on that side made to cancel where a spot allows it: g
    minus the term c * x^a * v^b, for a spot (a, b) whose candidate is that
    value, that folds the sum there to zero.  Over F_2 this includes sums of
    two equal-value terms."""
    t, tables, g = draw(_restriction_case())
    side = draw(st.sampled_from([0, 1]))
    table, fld = tables[side], t.field
    least = _least_candidate(table, g)
    at_least = [(a, b) for a, b in g.terms if table.rows[b][0][0] + a * table.x_weight == least]
    raw = sum(c * table.rows[b][0][1] for (a, b), c in g.terms.items() if (a, b) in at_least)
    # a spot whose removal leaves no term at the least candidate cancels nothing
    spots = [(a, b) for b, row in enumerate(table.rows) for a in range(7)
             if row[0][0] + a * table.x_weight == least and [(a, b)] != at_least]
    if not spots:
        return t, side, table, g
    a, b = draw(st.sampled_from(spots))
    c = fld.div(fld.fold(raw), table.rows[b][0][1])
    return t, side, table, g - Poly2.monomial(fld, a, b, c)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_cancelling_case())
def test_value_table_value_is_least_sum(case):
    # least over D is the least key of sums over D, and the direct value on
    # the table's own side, also where the least candidates cancel
    t, side, table, g = case
    f, gs = (g, t.seq_mid) if side == 0 else (g.compose(Poly2.x(t.field), t.v_sub), t.seq_top)
    assert table.least(g) == min(table.sums(g)) == value_of(f, gs)


def test_value_table_sums_only_when_least_candidates_cancel(monkeypatch):
    # the full sums run for a sample exactly when the products at its least
    # candidate cancel, i.e. when its value lies above that candidate
    summed = []
    real_sums = ValueTable.sums

    def recording(self, g):
        summed.append(g)
        return real_sums(self, g)

    for p, m in ((2, 1), (3, 1), (2, 2), (3, 2)):
        t, tables = _tower_with_tables(p, m, 4)
        fld, rng = t.field, random.Random(p * m)
        samples = [random_middle_poly(t, rng) for _ in range(300)]
        samples.append(Poly2.monomial(fld, 0, p) - Poly2.x(fld))  # the key U_2
        for table in tables:
            cancelling = [g for g in samples
                          if min(real_sums(table, g)) > _least_candidate(table, g)]
            assert 0 < len(cancelling) < len(samples)
            monkeypatch.setattr(ValueTable, "sums", recording)
            values = [Fraction(table.least(g), table.denom) for g in samples]
            monkeypatch.setattr(ValueTable, "sums", real_sums)
            assert summed == cancelling
            assert values == [Fraction(min(table.sums(g)), table.denom) for g in samples]
            summed.clear()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_restriction_case(), st.integers(0, 40))
def test_expansion_shift_law(case, a):
    # the expansion of x^a * f is the expansion of f with m_0 + a
    t, _, g = case
    for f, gs in ((g, t.seq_mid), (g.compose(Poly2.x(t.field), t.v_sub), t.seq_top)):
        shifted = {(e[0] + a, *e[1:]): c for e, c in expand(f, gs).terms.items()}
        assert expand(f.shift(a), gs).terms == shifted


@lru_cache(maxsize=None)
def _truncated_top_table(p, m, length, prec):
    t, _ = _tower_with_tables(p, m, length)
    top_powers = restriction_tables(t, prec)[1]
    assert all(exps[0] < prec for power in top_powers for exps in power.terms)
    return value_table(top_powers)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_restriction_case(), st.integers(0, 8))
def test_truncated_top_table_reads_exactly_below_its_bound(case, extra):
    # a top table kept below x^M, M > (p^2 + p) * value(v) so that every row
    # keeps its least term, has the whole table's entries and sums below
    # M * value(x), reads the exact value wherever that lies below it, and
    # no value it reads below it is wrong
    t, (_, top_table), g = case
    prec = t.p + 2 + extra
    table = _truncated_top_table(t.p, t.field.m, t.length, prec)
    bound = prec * table.x_weight
    for row, whole in zip(table.rows, top_table.rows):
        assert [e for e in row if e[0] < bound] == [e for e in whole if e[0] < bound]
    below = [{v: c for v, c in tbl.sums(g).items() if v < bound} for tbl in (table, top_table)]
    assert below[0] == below[1]
    least, exact = table.least(g), top_table.least(g)
    assert (least if least is not None and least < bound else None) == (
        exact if exact < bound else None)


def test_value_table_least_is_none_when_every_sum_cancels():
    # rows of v^0 and v^1 that share their one entry: 1 + v cancels there
    table = ValueTable(F2, 1, 1, [[(0, 1)], [(0, 1)]])
    assert table.least(Poly2(F2, {(0, 0): 1, (0, 1): 1})) is None


def _restriction_with_shift(monkeypatch, shift):
    """verify_restriction at p = 3, c = 2, length 4 with every sample also
    valued by division and sample 2 multiplied by x^shift: the tower, the
    report, the precisions its tables were built at, the samples drawn and
    the (sequence label, polynomial) of every division."""
    t = build_tower(3, 2, 4)
    precs, drawn, valued = [], [], []

    def tables(tower, prec):
        precs.append(prec)
        return restriction_tables(tower, prec)

    def sampler(tower, rng):
        g = random_middle_poly(tower, rng)
        drawn.append(g.shift(shift) if len(drawn) == 2 else g)
        return drawn[-1]

    def recording(f, gs, below=None):
        valued.append((gs.label, f))
        return value_of(f, gs, below)

    monkeypatch.setattr(towers_module, "DIRECT_EVERY", 1)
    monkeypatch.setattr(towers_module, "restriction_tables", tables)
    monkeypatch.setattr(towers_module, "random_middle_poly", sampler)
    monkeypatch.setattr(towers_module, "value_of", recording)
    row = verify_restriction(t, samples=5, seed=1).row()
    return t, row, precs, drawn, valued


@pytest.mark.parametrize("shift", [0, 10, 11, 22, 33])
def test_restriction_values_past_the_top_table_by_whole_division(monkeypatch, shift):
    # M = floor(12 * value(v) / value(x)) + 7 = 11 at p = 3: the tables are
    # built once, at M.  x^11 * g and beyond have value at least
    # 11 * value(x), which the top table does not read; such a sample is
    # valued by dividing its whole substitution, and the report is the one
    # read off whole tables
    t, row, precs, drawn, valued = _restriction_with_shift(monkeypatch, shift)
    w_x = t.seq_top.ensure_valid().weights[0]
    assert precs == [12 * value_of(t.v_sub, t.seq_top) // w_x + 7] == [11]
    mid_table, top_table = map(value_table, restriction_tables(t))
    mismatches = []
    for g in drawn:
        mid, top = mid_table.least(g), top_table.least(g)
        if mid * top_table.denom != top * mid_table.denom:
            mismatches.append((g.to_str("x", "v"), fmt_value(mid, mid_table.denom),
                               fmt_value(top, top_table.denom)))
    assert row == {"check": "restriction", "ok": not mismatches, "samples": 5,
                   "mismatches": mismatches[:5], "mismatch_count": len(mismatches)}
    assert row["ok"]
    # every sample divided twice, its top side modulo x^N or, past the top
    # table, whole
    whole = (t.seq_top.label, drawn[2].compose(Poly2.x(t.field), t.v_sub))
    assert len(valued) == 10
    assert (whole in valued) == (shift >= 11)


def test_restriction_builds_its_tables_once_at_p_2(monkeypatch):
    # at p = 2, c = 1, M = 10 passes c * (p^2 + p) = 6, the x-degree of
    # v(x, y)^6, yet the top table is kept below x^10 like that of any p
    precs = []

    def tables(tower, prec):
        precs.append(prec)
        return restriction_tables(tower, prec)

    monkeypatch.setattr(towers_module, "restriction_tables", tables)
    assert verify_restriction(build_tower(2, 1, 4), samples=3).ok
    assert precs == [10]


def test_restriction_values_a_sample_the_table_cannot_read_by_one_division(monkeypatch):
    # the top table's least reads None for every sample: each is valued by
    # one division of its whole substitution, and on sample 0, the direct
    # one, that division is also the top side of the cross-check
    t = build_tower(2, 1, 4)
    expected = verify_restriction(t, samples=3, seed=0).row()
    real_table, real_least = towers_module.value_table, ValueTable.least
    tops, valued = [], []

    def table(powers):
        built = real_table(powers)
        if powers[0].gs is t.seq_top:
            tops.append(built)
        return built

    def least(self, g):
        return None if self in tops else real_least(self, g)

    def recording(f, gs, below=None):
        valued.append((gs.label, f))
        return value_of(f, gs, below)

    monkeypatch.setattr(towers_module, "value_table", table)
    monkeypatch.setattr(ValueTable, "least", least)
    monkeypatch.setattr(towers_module, "value_of", recording)
    assert verify_restriction(t, samples=3, seed=0).row() == expected
    rng, x = random.Random(0), Poly2.x(t.field)
    g0, g1, g2 = (random_middle_poly(t, rng) for _ in range(3))
    assert valued == [(t.seq_top.label, g0.compose(x, t.v_sub)), (t.seq_mid.label, g0),
                      (t.seq_top.label, g1.compose(x, t.v_sub)),
                      (t.seq_top.label, g2.compose(x, t.v_sub))]


def _tamper_sample_zero(monkeypatch, side):
    """Replace the table entry of one power b of sample 0 (seed 0, p = 2,
    length 6) by the expansion of x^1000 times that power.  Sample 0's value
    is the least among the values of its v^b-columns, attained by one
    column; the tampered column is that one, so the sample's value changes
    on the tampered side."""
    t = build_tower(2, 1, 6)
    g = random_middle_poly(t, random.Random(0))
    columns: dict = {}
    for (a, b), c in g.terms.items():
        columns.setdefault(b, {})[(a, b)] = c
    col_values = {b: value_of(Poly2(t.field, terms), t.seq_mid) for b, terms in columns.items()}
    b_min = min(col_values, key=col_values.get)
    assert list(col_values.values()).count(col_values[b_min]) == 1
    real = towers_module.restriction_tables

    def tampered(tower, prec):
        mid_powers, top_powers = real(tower, prec)
        if side == "mid":
            mid_powers[b_min] = expand(Poly2.monomial(tower.field, 1000, b_min), tower.seq_mid)
        else:
            top_powers[b_min] = expand(tower.v_sub**b_min * Poly2.monomial(tower.field, 1000, 0),
                                       tower.seq_top)
        return mid_powers, top_powers

    monkeypatch.setattr(towers_module, "restriction_tables", tampered)
    return t, g


@pytest.mark.parametrize("side", ["mid", "top"])
def test_restriction_tampered_table_raises(monkeypatch, capsys, side):
    t, g = _tamper_sample_zero(monkeypatch, side)
    with pytest.raises(Inconsistent, match=r"restriction sample 0 \(") as ex:
        verify_restriction(t, samples=3, seed=0)
    assert g.to_str("x", "v") in str(ex.value)
    # the report exits 1 with the witness and prints no report at all
    assert main(["report", "--p", "2", "--c", "1", "--levels", "2", "--samples", "3",
                 "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failed: restriction sample 0 (" in captured.err


def test_restriction_direct_path_on_every_50th_sample(monkeypatch):
    t = build_tower(2, 1, 5)
    valued = []

    def recording(f, gs, below=None):
        valued.append(gs.label)
        return value_of(f, gs, below)

    monkeypatch.setattr(towers_module, "value_of", recording)
    assert verify_restriction(t, samples=101, seed=3).ok
    # samples 0, 50 and 100, each in both charts
    assert valued == [t.seq_mid.label, t.seq_top.label] * 3


def test_restriction_direct_substitution_vanishing_mod_x_n_exits_1(monkeypatch, capsys):
    # every sample is x, and the top table's v^0 entry is lowered by
    # value(x), so the table reads value 0 for x: the direct substitution
    # x(x, v(x, y)) = x is taken modulo x^N, N = 0 // value(x) + 1 = 1, where
    # it vanishes.  That is a disagreement (exit 1) with the bound on the
    # top value, and the zero is never expanded (which would exit 2)
    real = towers_module.value_table

    def tampered(powers):
        table = real(powers)
        if powers[0].gs.label.startswith("Q("):
            (v, cf), = table.rows[0]
            table.rows[0] = [(v - table.x_weight, cf)]
        return table

    expanded = []

    def recording(f, gs):
        expanded.append(f)
        return expand(f, gs)

    monkeypatch.setattr(towers_module, "value_table", tampered)
    monkeypatch.setattr(towers_module, "random_middle_poly", lambda tower, rng: Poly2.x(tower.field))
    # value_of expands through the genseq module's name
    monkeypatch.setattr(genseq_module, "expand", recording)
    witness = ("restriction sample 0 (x): (middle, top) values (1, 0) from the cached "
               "expansions, (1, at least 1) by direct division")
    with pytest.raises(Inconsistent) as ex:
        verify_restriction(build_tower(2, 1, 4), samples=3)
    assert str(ex.value) == witness
    assert expanded == [Poly2.x(Fq(2))]  # the middle side only
    assert main(["report", "--p", "2", "--c", "1", "--levels", "2", "--samples", "3",
                 "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"verification failed: {witness}\n"


def test_restriction_mismatch_rows_name_both_values(monkeypatch):
    # the least entry of top row 3 raised by 1/D_top; sample 0, the one
    # checked directly, does not reach v^3, so the samples that read it
    # disagree without raising, and each row prints both values, over the
    # two sides' different denominators
    t = build_tower(2, 1, 5)
    seed, samples, b = 4, towers_module.DIRECT_EVERY, 3  # sample 0 alone is direct
    assert b not in {j for _, j in random_middle_poly(t, random.Random(seed)).terms}
    real, tables = towers_module.value_table, []

    def tampered(powers):
        table = real(powers)
        if powers[0].gs is t.seq_top:
            v, cf = table.rows[b][0]
            table.rows[b][0] = (v + 1, cf)
        tables.append(table)
        return table

    monkeypatch.setattr(towers_module, "value_table", tampered)
    rep = verify_restriction(t, samples=samples, seed=seed)
    mid_table, top_table = tables
    assert (mid_table.denom, top_table.denom) == (512, 1024)
    rng = random.Random(seed)
    expected = []
    for _ in range(samples):
        g = random_middle_poly(t, rng)
        mid = Fraction(mid_table.least(g), mid_table.denom)
        top = Fraction(top_table.least(g), top_table.denom)
        if mid != top:
            assert top == mid + Fraction(1, 1024) and mid.denominator == 2
            expected.append((g.to_str("x", "v"), fmt_value(mid), fmt_value(top)))
    assert not rep.ok
    assert rep.details["mismatch_count"] == len(expected) >= 5
    assert rep.details["mismatches"] == expected[:5]
    assert rep.details["mismatches"][0][1:] == ("3/2", "1537/1024")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_value_table_least_value_cancels(p):
    # g = v^p - x is the middle key U_2 = v^p - x: the value(x) entries of
    # the v^p row and of the x row cancel, so the value is the next one,
    # value(U_2), on both sides
    t = build_tower(p, p - 1, 4)
    mid_table, top_table = map(value_table, restriction_tables(t))
    g = Poly2.monomial(t.field, 0, p) - Poly2.x(t.field)
    assert g == t.seq_mid.keys[2]
    expected, d_mid = value_of(g, t.seq_mid), mid_table.denom
    assert expected > 1 * d_mid
    for table in (mid_table, top_table):
        assert table.x_weight not in table.sums(g)
        # each table in units of its own 1/D
        assert table.least(g) * d_mid == expected * table.denom


def _congruent_tails(gs):
    """Exponent vectors (0, ..., 0) and (0, n_1, 0, ..., 0): their tails differ
    and their values differ by n_1 * value_1, a multiple of value(x)."""
    zero = (0,) * len(gs.keys)
    return zero, (0, gs.ensure_valid().indices[1]) + zero[2:]


def test_value_table_rejects_congruent_tails():
    t = build_tower(2, 1, 4)
    gs = t.seq_mid
    zero, other = _congruent_tails(gs)
    powers = [StandardExpansion(gs, {zero: 1}), StandardExpansion(gs, {other: 1})]
    with pytest.raises(InvalidSequence, match="congruent modulo value\\(x\\)") as ex:
        value_table(powers)
    assert str(zero[1:]) in str(ex.value) and str(other[1:]) in str(ex.value)
    # a table of one row, or of two rows whose tails are equal, passes
    value_table(powers[:1])
    value_table([powers[0], StandardExpansion(gs, {(3,) + zero[1:]: 1})])


def test_restriction_congruent_tails_exit_1(monkeypatch, capsys):
    real_tables, real_sampler = towers_module.restriction_tables, towers_module.random_middle_poly
    calls = []

    def tampered(tower, prec):
        mid_powers, top_powers = real_tables(tower, prec)
        gs = tower.seq_mid
        _, other = _congruent_tails(gs)
        mid_powers[1] = StandardExpansion(gs, {**mid_powers[1].terms, other: 1})
        return mid_powers, top_powers

    def counting_table(powers):
        calls.append("table")
        return value_table(powers)

    def counting_sampler(tower, rng):
        calls.append("sample")
        return real_sampler(tower, rng)

    monkeypatch.setattr(towers_module, "value_table", counting_table)
    monkeypatch.setattr(towers_module, "random_middle_poly", counting_sampler)
    # one table per side, built before the first sample
    assert verify_restriction(build_tower(2, 1, 4), samples=3, seed=0).ok
    assert calls == ["table", "table", "sample", "sample", "sample"]
    calls.clear()
    monkeypatch.setattr(towers_module, "restriction_tables", tampered)
    assert main(["report", "--p", "2", "--c", "1", "--levels", "2", "--samples", "300",
                 "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verification failed: value table of U(p=2,c=1,N=6): exponent tails "
        "(0, 0, 0, 0, 0, 0) and (2, 0, 0, 0, 0, 0) have values congruent modulo value(x)\n")
    assert calls == ["table"]


@pytest.mark.parametrize("j", [1, 2, 3])
def test_parameter_links(j):
    for p, c in ((2, 1), (3, 2)):
        t = build_tower(p, c, 6)
        rep = verify_parameter_links(t, j)
        assert rep.ok, rep.details
        residues = rep.details.get("residues")
        if isinstance(residues, dict):
            fld = t.field
            assert residues["tau"] == fld.to_str(fld.one)
            assert residues["sigma"] == fld.to_str(fld.one)
            # gamma and lambda are units; the construction yields +-1
            assert residues["gamma"] in (fld.to_str(fld.one), fld.to_str(fld.neg(fld.one)))
            assert residues["lambda"] in (fld.to_str(fld.one), fld.to_str(fld.neg(fld.one)))


def test_parameter_links_skip_only_without_exact_maps(monkeypatch):
    t = build_tower(2, 1, 6)
    rep = verify_parameter_links(t, 4)  # level 5: no exact map
    assert rep.details["residues"] == "skipped (NotApplicable)"

    def broken(self, elem, k, prec=None):
        raise ZeroDivisionError("kernel fault")

    monkeypatch.setattr(ChartChain, "push_exact", broken)
    with pytest.raises(ZeroDivisionError):
        verify_parameter_links(build_tower(2, 1, 5), 1)


@pytest.mark.parametrize("p,c,m", [(2, 1, 1), (3, 2, 1), (3, 2, 2)])
def test_truncated_pushed_key_matches_exact_push(p, c, m):
    t = build_tower(p, c, 4, Fq(p, m))
    foreign = {"S": t.mid_keys_xy, "A": _base_key_elems(t, t.base_prec)}
    for k in range(1, 5):
        for which, keys in foreign.items():
            # at p = 3, level 4, the exact pushes of keys 3 and 4 run for minutes
            top = len(keys) if p == 2 or k < 4 else 3
            for i in range(top):
                exact = _bottom_row(t.chain(which).push_exact(keys[i], k))
                assert t.pushed_key(which, i, k) == exact, (which, i, k)


def _whole_monomial_residue(tower, chain_label, foreign_keys, vec, k):
    """Reference: push the numerator and the denominator of the whole key
    monomial through the chart maps, then divide their leading
    coefficients."""
    fld = tower.field
    num = den = LocalElem(Poly2.one(fld))
    for i, m in enumerate(vec):
        factor = _as_elem(foreign_keys[i])
        if m > 0:
            num = num * factor**m
        elif m < 0:
            den = den * factor ** (-m)
    chain = tower.chain(chain_label)

    def lead(e):
        return fld.div(e.num.terms[min(e.num.terms)], e.den.terms[min(e.den.terms)])

    return fld.div(lead(chain.push_exact(num, k)), lead(chain.push_exact(den, k)))


@pytest.mark.parametrize("p,c,q,kmax", [(2, 1, None, 4), (3, 2, None, 3), (3, 2, 9, 3)])
def test_pushed_leading_data_matches_whole_monomial(p, c, q, kmax):
    fld = Fq(p) if q is None else Fq(p, 2)
    t = build_tower(p, c, 5, fld)
    for k in range(2, kmax + 1):
        vecs = {"S": t.chain("A").level(k).vecs[:2], "A": t.chain("R").level(k).vecs[:2]}
        foreign = {"S": t.mid_keys_xy, "A": _base_key_elems(t, t.base_prec)}
        for label in ("S", "A"):
            for vec in vecs[label]:
                assert _pushed_leading_data(t, label, vec, k) == \
                    _whole_monomial_residue(t, label, foreign[label], vec, k)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_split_base_key_push_matches_whole_push(p, m):
    # chain A reads base key N / w^a off the lowest row of push(N); the
    # whole pair N / (w^a mod x^N) pushed in one piece, an oracle that never
    # drops the unit, must give the same lowest row.  The split product
    # push(N) * push(w)^(-a), both factors modulo x'^(o + 1), must agree
    # with the whole push modulo x'^(o + 1): a push is a ring map.  At
    # p = 7, level 4, the whole pushes of keys 4 and 5 take about half a
    # minute each
    t = build_tower(p, p - 1, 5, Fq(p, m))
    chain = t.chain("A")
    for k in range(1, 5):
        for i, ((num, a), whole_key) in enumerate(zip(t.base_keys_xv,
                                                      _base_key_elems(t, t.base_prec))):
            if p == 7 and k == 4 and i > 3:
                continue
            data = t.pushed_key("A", i, k)
            prec = data[0] + 1
            whole = chain.push_exact(whole_key, k, prec)
            assert _bottom_row(whole) == data, (k, i)
            split = chain.push_exact(num, k, prec) * pow(chain.push_exact(t.w, k, prec), -a, prec)
            assert _equal_mod_xpow(split, whole, prec), (k, i)


def _tower_copy(t, **attrs):
    """A shallow copy of the tower with ``attrs`` set; the caches not named
    are shared with t."""
    out = copy.copy(t)
    for name, value in attrs.items():
        setattr(out, name, value)
    return out


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_pushed_key_independent_of_request_order(p, m):
    # pushed_key keeps its data per (chain, key, level): asking for the keys
    # of a level in reverse order gives the same data as asking in key order
    t = build_tower(p, p - 1, 5, Fq(p, m))
    forward, backward = (_tower_copy(t, _pushed={}) for _ in range(2))
    n = len(t.base_keys_xv)
    for k in range(1, 5):
        got = [forward.pushed_key("A", i, k) for i in range(n)]
        assert [backward.pushed_key("A", i, k) for i in reversed(range(n))] == got[::-1], k


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_chart_maps_fix_the_origin(p, m):
    # what lets pushed_key read a base key N / w^a off push(N): every exact
    # chart map sends the origin to the origin, so push(w) is a unit pair
    # whose lowest row is the constant 1; and the old x that push
    # substitutes is the r * x'^n * (y' + 1) that describe() prints
    t = build_tower(p, p - 1, 6, Fq(p, m))
    zero, x, y = t.field.zero, Poly2.x(t.field), Poly2.y(t.field)
    for which in "SA":
        chain = t.chain(which)
        top = chain._walk_spine()
        assert top >= 2, which
        for k in range(2, top + 1):
            cmap = chain.level(k).map_from_prev
            assert cmap.phi_x == (x**cmap.n * (y + Poly2.one(t.field))).scale(cmap.residue), \
                (which, k)
            assert cmap.phi_x.constant_term() == zero, (which, k)
            assert cmap.phi_y.num.constant_term() == zero, (which, k)
            assert _bottom_row(chain.push_exact(t.w, k, 1)) == (0, 0, t.field.one), (which, k)


def test_pushed_key_pushes_one_element_per_slot(monkeypatch, capsys):
    # each uncached (chain, key, level) costs one push: of the middle key, or
    # of the base key's numerator; w is never pushed
    push_exact, pushed_key = ChartChain.push_exact, towers_module.Tower.pushed_key
    pushes, slots, ws = [], {}, {}

    def counted_push(self, elem, k, prec=None):
        pushes.append(elem)
        return push_exact(self, elem, k, prec)

    def counted_key(self, which, i, k):
        ws[id(self)] = self.w
        if (which, i, k) in self._pushed:
            return pushed_key(self, which, i, k)
        before = len(pushes)
        data = pushed_key(self, which, i, k)
        slots[(which, i, k)] = len(pushes) - before
        return data

    monkeypatch.setattr(ChartChain, "push_exact", counted_push)
    monkeypatch.setattr(towers_module.Tower, "pushed_key", counted_key)
    assert main(["report", "--p", "5", "--c", "4", "--levels", "4", "--length", "5"]) == 0
    capsys.readouterr()
    assert {which for which, _, _ in slots} == {"S", "A"}
    assert set(slots.values()) == {1}, slots
    assert ws and not [elem for elem in pushes for w in ws.values() if elem == w]


def test_pushed_leading_data_combines_key_data():
    # leading coefficients multiply, and a negative exponent takes the
    # inverse (2^2 * 3^-1 = 3 in F_5)
    from types import SimpleNamespace

    data = {0: (4, 0, 2), 1: (2, 1, 3)}
    tower = SimpleNamespace(field=Fq(5), pushed_key=lambda which, i, k: data[i])
    assert _pushed_leading_data(tower, "S", (2, -1, 0), 3) == 3


def test_expected_alternation_shape():
    assert expected_alternation(1) == {"S/A": (0, 1), "A/R": (1, 0), "S/R": (1, 1)}
    assert expected_alternation(2) == {"S/A": (1, 0), "A/R": (0, 1), "S/R": (1, 1)}


def test_check_ladder_report():
    t = build_tower(2, 1, 6)
    rep = run_tower_ladder(t, 3)
    check = check_ladder_report(rep)
    assert check.ok, check.details


def test_certificates_multipliers_alternate():
    t = build_tower(2, 1, 5)
    mid = t.certificates("mid-in-top")
    assert [c.mult for c in mid] == [1, 2, 1, 2, 1, 2]
    base = t.certificates("base-in-mid")
    assert [c.mult for c in base] == [2, 1, 2, 1, 2, 1]


# -- the shared base/top chain ----------------------------------------------------


@pytest.mark.parametrize("p,q", [(2, None), (3, None), (5, None), (7, None), (2, 4), (3, 9)])
def test_base_and_top_families_build_the_same_sequence(p, q):
    # families P and Q share their recursion, which is what lets the tower
    # rename the top sequence into the base one
    fld = Fq(p) if q is None else Fq(p, 2)
    for length in range(2, 9):
        base = build_tower_seq("P", p, None, length, fld)
        top = build_tower_seq("Q", p, None, length, fld)
        assert (base.field, base.keys, base.values) == (top.field, top.keys, top.values), length


@pytest.mark.parametrize("p,c,q", [(2, 1, None), (3, 2, None), (3, 2, 9)])
def test_base_sequence_is_top_sequence_renamed(p, c, q):
    fld = Fq(p) if q is None else Fq(p, 2)
    t = build_tower(p, c, 5, fld)
    built = build_tower_seq("P", p, None, 5, fld)
    assert t.seq_base == built  # field, keys, values, chart and label
    # the keys and values are lists of their own
    t.seq_base.keys.append(t.seq_base.keys[-1])
    t.seq_base.values[2] += 1
    assert (len(t.seq_top.keys), t.seq_top.values) == (6, built.values)


def test_tower_builds_each_sequence_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build_tower_seq(*args, **kwargs)

    monkeypatch.setattr(towers_module, "build_tower_seq", counted)
    build_tower(2, 1, 5)
    assert calls == ["Q", "U"]


def test_chain_computes_each_level_once(monkeypatch, capsys):
    # one composite-order computation per level per chain: levels 2..7 of
    # chains S and A (chain R is chain S)
    levels = []
    next_orders = ChartChain._next_orders

    def counted(self, cur):
        levels.append((self.base.label, cur.k + 1))
        return next_orders(self, cur)

    monkeypatch.setattr(ChartChain, "_next_orders", counted)
    assert main(["tower", "--p", "2", "--c", "1", "--levels", "7", "--length", "8"]) == 0
    capsys.readouterr()
    assert len(levels) == len(set(levels)) == 12
    assert sorted(k for _, k in levels) == sorted(list(range(2, 8)) * 2)


def test_base_chain_is_top_chain():
    for first in "RS":
        t = build_tower(2, 1, 5)
        t.chain(first)
        assert t.chain("R") is t.chain("S")


@pytest.mark.parametrize("p,c", [(2, 1), (3, 2)])
def test_shared_chain_matches_separate_base_chain(p, c):
    # a chain built from the base sequence alone has the levels, keys and
    # maps of the shared chain (only the labels and chart names differ)
    t = build_tower(p, c, 6)
    shared, separate = t.chain("R"), ChartChain(build_tower_seq("P", p, None, 6))

    def pair(e):
        return e.num, e.den

    for k in range(1, 6):
        a, b = shared.level(k), separate.level(k)
        for name in ("k", "values", "indices", "degrees", "vecs", "crows", "r"):
            assert getattr(a, name) == getattr(b, name), (k, name)
        assert (a.keys is None) == (b.keys is None), k
        if a.keys is not None:
            assert [pair(key) for key in a.keys] == [pair(key) for key in b.keys], k
        if a.map_from_prev is not None:
            ma, mb = a.map_from_prev, b.map_from_prev
            assert (ma.n, ma.residue, ma.phi_x, pair(ma.phi_y)) == \
                (mb.n, mb.residue, mb.phi_x, pair(mb.phi_y)), k
        else:
            assert b.map_from_prev is None, k


# -- base keys and base-in-mid certificates modulo x^N ---------------------------

TRUNCATION_CASES = [(p, 1, length) for p in (2, 3) for length in range(4, 8)] + [
    (2, 2, 5), (3, 2, 5)]


@lru_cache(maxsize=None)
def _truncation_case(p, m, length):
    """A tower with its base keys modulo x^N, and the base keys built by the
    exact recursion."""
    fld = Fq(p, m)
    return build_tower(p, p - 1, length, fld), _exact_base_keys(p, fld, length)


def _with_base_keys(t, keys):
    """A copy of the tower with other base keys and no cached results."""
    return _tower_copy(t, base_keys_xv=keys, _chains={}, _certs={}, _pushed={})


@pytest.mark.parametrize("p,m,length", TRUNCATION_CASES)
def test_truncated_base_keys_equal_exact_keys_mod_xN(p, m, length):
    t, exact = _truncation_case(p, m, length)
    assert len(t.base_keys_xv) == len(exact)
    for i, ((num, _), key, ex) in enumerate(zip(t.base_keys_xv, _base_key_elems(t), exact)):
        assert max(e[0] for e in num.terms) < t.base_prec, i
        assert _equal_mod_xpow(key, ex, t.base_prec), i


def _exact_link(t, which, exact_base):
    """(host sequence, foreign keys built exactly, N) of one link."""
    if which == "mid-in-top":
        return t.seq_top, t.mid_keys_xy, certificate_precision(t.seq_top, t.p)
    return t.seq_mid, exact_base, t.base_prec


@pytest.mark.parametrize("p,m,length", TRUNCATION_CASES)
def test_truncated_certificates_equal_exact_certificates(p, m, length):
    # the certificates of both links, read modulo x^N, against the same
    # comparison made exactly, on the exact keys: equal multiplier, and t the
    # exact deviation's x-order capped at N, or N where the deviation is zero
    t, exact_base = _truncation_case(p, m, length)
    for which in ("mid-in-top", "base-in-mid"):
        host, exact, n = _exact_link(t, which, exact_base)
        certs = t.certificates(which)
        weights = host.ensure_valid().weights
        assert len(certs) == len(exact)
        for i, (cert, key) in enumerate(zip(certs, exact)):
            val = value_of(key, host)
            assert val == cert.mult * weights[i], (which, i)
            delta = _as_elem(key) - LocalElem(host.keys[i] ** cert.mult)
            if delta.is_zero():
                assert cert.t_order == n, (which, i)
            else:
                assert value_of(delta, host) > val, (which, i)
                assert cert.t_order == min(delta.x_order(), n), (which, i)


# TRUNCATION_CASES hold c = p - 1 at p = 2 and 3, over F_p, F_4 and F_9
DEGREE_RULE_CASES = [(5, 1, 4, 4)] + [
    (p, 1, 2 * (p - 1), length) for p, length in ((2, 6), (3, 5), (5, 4))]


@pytest.mark.parametrize("p,m,c,length", DEGREE_RULE_CASES)
def test_certificate_multiplier_is_the_value_ratio(p, m, c, length):
    # the multiplier read off degrees is value(F) / value(K_i), F the exact
    # foreign key valued directly, on both links (as in
    # test_truncated_certificates_equal_exact_certificates)
    fld = Fq(p, m)
    t = build_tower(p, c, length, fld)
    exact_base = _exact_base_keys(p, fld, length)
    for which, host, exact in (("mid-in-top", t.seq_top, t.mid_keys_xy),
                               ("base-in-mid", t.seq_mid, exact_base)):
        certs = t.certificates(which)
        weights = host.ensure_valid().weights
        assert [cert.mult * weights[i] for i, cert in enumerate(certs)] == [
            value_of(key, host) for key in exact], which


@pytest.mark.parametrize("p,c,length", [(2, 1, 6), (3, 2, 5), (3, 4, 5)])
def test_certificates_value_each_nonzero_deviation_once(monkeypatch, p, c, length):
    # value_of sees the nonzero deviations F - K_i^mult modulo x^N, each
    # once and in key order, and never a foreign key
    t = build_tower(p, c, length)
    calls = []

    def recording(f, gs, below=None):
        calls.append((f, gs))
        return value_of(f, gs, below)

    monkeypatch.setattr(towers_module, "value_of", recording)
    for which, host, foreign, n in (
            ("mid-in-top", t.seq_top, [(key, 0) for key in t.mid_keys_xy],
             certificate_precision(t.seq_top, p)),
            ("base-in-mid", t.seq_mid, t.base_keys_xv, t.base_prec)):
        calls.clear()
        certs = t.certificates(which)
        # F = num / w^a, so F - K_i^mult has the value of num - K_i^mult * w^a
        nums = [num.truncate(n) for num, _ in foreign]
        deltas = [nums[i] - (pow(host.keys[i], cert.mult, n) * pow(t.w, a, n)).truncate(n)
                  for i, ((_, a), cert) in enumerate(zip(foreign, certs))]
        nonzero = [delta for delta in deltas if not delta.is_zero()]
        assert nonzero, which
        assert calls == [(delta, host) for delta in nonzero], which
        assert not {f for f, _ in calls} & set(nums), which


def _whole_deviation_value(f, gs, below=None):
    """value_of on the whole deviation, with the bound applied afterwards."""
    value = value_of(f, gs)
    return value if below is None or value < below else None


@pytest.mark.parametrize("p,length", [(p, length) for p in (2, 3, 5) for length in range(2, 9)])
def test_certificates_equal_those_of_whole_deviations(monkeypatch, p, length):
    # each deviation valued only below its bound gives the certificates of
    # the same deviation valued whole, on both links
    bounded = [build_tower(p, p - 1, length).certificates(which)
               for which in ("mid-in-top", "base-in-mid")]
    monkeypatch.setattr(towers_module, "value_of", _whole_deviation_value)
    whole = [build_tower(p, p - 1, length).certificates(which)
             for which in ("mid-in-top", "base-in-mid")]
    assert bounded == whole


@pytest.mark.parametrize("key1,margin", [("2*y", "0"), ("y + 1", "-1/9")])
def test_certificate_deviation_not_above_the_key_value_raises(key1, margin):
    # middle key 1 at p = 3 set to 2y or y + 1: mult 1, and the deviation y
    # or 1 has value exactly value(y) = 1/9 or 0; the real value_of, bounded
    # just above value(y), returns it, and its margin is the witness
    t = build_tower(3, 2, 4)
    t.mid_keys_xy[1] = parse_poly(key1, t.field)
    with pytest.raises(Inconsistent) as ex:
        t.certificates("mid-in-top")
    assert str(ex.value) == f"mid-in-top key 1: deviation value does not dominate (margin {margin})"


def test_certificates_expand_below_their_bounds_at_p_13(monkeypatch):
    # at p = 13, length 11, value_of sees each of the 21 deviations nonzero
    # modulo x^N with below = weight_f + 1, weight_f = mult * weight_i the
    # key's value in units of 1/D, and expands only a truncation modulo x^n,
    # n = ceil(below / weight(x)), that is nonzero: here none is, where the
    # whole deviations took 21 expansions and seconds
    t = build_tower(13, 12, 11)
    valued, expanded = [], []

    def recording_value_of(f, gs, below=None):
        valued.append((f.truncate(-(-below // gs.ensure_valid().weights[0])), below))
        return value_of(f, gs, below)

    def recording_expand(f, gs):
        expanded.append(f)
        return expand(f, gs)

    monkeypatch.setattr(towers_module, "value_of", recording_value_of)
    monkeypatch.setattr(genseq_module, "expand", recording_expand)
    for which, host in (("mid-in-top", t.seq_top), ("base-in-mid", t.seq_mid)):
        weights = host.ensure_valid().weights
        first = len(valued)
        certs = t.certificates(which)
        key_bounds = {cert.mult * weights[i] + 1 for i, cert in enumerate(certs)}
        assert {below for _, below in valued[first:]} <= key_bounds, which
    assert len(valued) == 21
    assert expanded == [low for low, _ in valued if low] == []


@pytest.mark.parametrize("length", [4, 8])
def test_mid_in_top_deviation_read_as_lower_bound(length):
    # at p = 2 the last middle key's deviation reads N * value(x) or more
    # modulo x^N: that reading only bounds its value from below, which is
    # enough for dominance, and the ladder still alternates
    t = build_tower(2, 1, length)
    host = t.seq_top
    n = certificate_precision(host, 2)
    certs = t.certificates("mid-in-top")
    lower_bound_reads = []
    for i, (cert, key) in enumerate(zip(certs, t.mid_keys_xy)):
        delta = LocalElem(key).__sub__(LocalElem(host.keys[i] ** cert.mult), n)
        if not delta.is_zero() and value_of(delta, host) >= n * host.ensure_valid().weights[0]:
            lower_bound_reads.append(i)
    assert lower_bound_reads == [length]
    assert check_ladder_report(run_tower_ladder(t, length - 1)).ok


@pytest.mark.parametrize("p,c,length", [(2, 1, 4), (2, 1, 5), (3, 2, 5), (5, 4, 4)])
def test_certificate_precision_is_minimal(p, c, length):
    # N is the least precision with N * value(x) > p * value(host key L),
    # for both hosts, and the base keys are built to the middle host's N
    t = build_tower(p, c, length)
    assert t.base_prec == certificate_precision(t.seq_mid, p)
    for host in (t.seq_top, t.seq_mid):
        n = certificate_precision(host, p)
        assert n * host.values[0] > p * host.values[-1] >= (n - 1) * host.values[0]


@pytest.mark.parametrize("p,length", [(2, 5), (3, 4)])
def test_base_key_terms_from_xN_on_change_no_certificate(p, length):
    t, _ = _truncation_case(p, 1, length)
    n = t.base_prec
    tail = Poly2(t.field, {(n, 0): 1, (n + 3, p): 1, (2 * n, 1): 1})
    tampered = _with_base_keys(t, [(num + tail, a) for num, a in t.base_keys_xv])
    assert tampered.certificates("base-in-mid") == t.certificates("base-in-mid")


@pytest.mark.parametrize("p,length", [(2, 5), (3, 4)])
def test_base_key_term_below_deviation_order_is_seen(p, length):
    # x^(t-1) added to key i: its deviation is no longer divisible by x^t, so
    # the certificate's t changes, or the key's value does and it raises
    t, _ = _truncation_case(p, 1, length)
    certs = t.certificates("base-in-mid")
    for i, cert in enumerate(certs):
        if cert.t_order < 1:
            continue
        # N + x^(t-1) is N / w^a + x^(t-1) / w^a, and w^a is a unit
        keys = list(t.base_keys_xv)
        num, a = keys[i]
        keys[i] = (num + Poly2.monomial(t.field, cert.t_order - 1, 0), a)
        try:
            got = _with_base_keys(t, keys).certificates("base-in-mid")[i]
        except Inconsistent:
            continue
        assert got.t_order != cert.t_order, i


def _small_precision(monkeypatch, family):
    """certificate_precision returning 20 for the host of one family."""
    real = towers_module.certificate_precision
    monkeypatch.setattr(towers_module, "certificate_precision",
                        lambda host, p: 20 if host.label.startswith(family) else real(host, p))


def test_tower_exits_1_when_base_precision_is_too_small(capsys, monkeypatch):
    _small_precision(monkeypatch, "U")
    assert main(["tower", "--p", "2", "--levels", "3", "--length", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the bound is read on integer weights; the witness names Fractions
    assert captured.err == ("verification failed: base-in-mid key 4 has value 4369/128 modulo "
                            "x^20, not below N * value(x) = 20 (N = 20)\n")


def test_tower_exits_1_when_top_precision_is_too_small(capsys, monkeypatch):
    _small_precision(monkeypatch, "Q")
    assert main(["tower", "--p", "2", "--levels", "3", "--length", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("verification failed: mid-in-top key 5 has value 69905/512 modulo "
                            "x^20, not below N * value(x) = 20 (N = 20)\n")


def test_pushed_key_rejects_a_read_past_base_precision():
    t = build_tower(2, 1, 5)
    t.certificates("base-in-mid")
    chain = t.chain("A")
    o, _, _ = t.pushed_key("A", 2, 3)
    _, read = chain.pull_back(3, o + 1)
    for n, ok in ((read, True), (read - 1, False)):
        t2 = _tower_copy(t, base_prec=n, _pushed={})
        if ok:
            assert t2.pushed_key("A", 2, 3) == t.pushed_key("A", 2, 3)
        else:
            with pytest.raises(Inconsistent, match=f"read modulo x\\^{read}, past the x\\^{n}"):
                t2.pushed_key("A", 2, 3)
