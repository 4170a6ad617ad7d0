import inspect
from fractions import Fraction as F
from math import prod

import pytest

from ramval import towers, transforms
from ramval.algebra import Fq, LocalElem, Poly2, parse_poly
from ramval.cli import main
from ramval.genseq import GenSeq, build_tower_seq, residue_of_quotient
from ramval.towers import build_tower
from ramval.transforms import (
    ChartChain,
    Inconsistent,
    NonPolynomial,
    NotApplicable,
    NotMonomial,
    NotPPower,
    StableForm,
    _bottom_row,
    defect_from_stable,
    run_tower_ladder,
    stable_form,
    validate_chart_seq,
)
from oracles import stage_orders

F2 = Fq(2)
F3 = Fq(3)


# -- stable forms ---------------------------------------------------------------


def test_stable_form_base_extension_example():
    # u = x^p / (1 - x^(p-1)), v = y^p - x^c y at p = 2, c = 1
    u = LocalElem(parse_poly("x^2", F2), parse_poly("1 - x", F2))
    v = parse_poly("y^2 - x*y", F2)
    sf = stable_form(u, v, 2)
    assert (sf.a, sf.a_bar, sf.alpha, sf.b, sf.d, sf.beta) == (2, 1, 1, 0, 2, 1)
    assert sf.unit_residue == F2.one


def test_stable_form_identity_extension():
    sf = stable_form(Poly2.x(F2), Poly2.y(F2), 2)
    assert (sf.a, sf.a_bar, sf.alpha, sf.b, sf.d, sf.beta) == (1, 1, 0, 0, 1, 0)


def test_stable_form_middle_to_top():
    # x as the middle-chart parameter against the top chart, p = 2, c = 1
    v = parse_poly("y^2 - x*y", F2)
    sf = stable_form(Poly2.x(F2), v, 2)
    assert (sf.a, sf.alpha, sf.b, sf.d, sf.beta) == (1, 0, 0, 2, 1)


def test_stable_form_not_monomial():
    for u in ("x + y", "x*y + x^2", "1 + x"):  # "1 + x" is a unit: a = 0
        with pytest.raises(NotMonomial):
            stable_form(parse_poly(u, F2), Poly2.y(F2), 2)
    with pytest.raises(NotMonomial):  # second parameter x * unit: d = 0
        stable_form(Poly2.x(F2), parse_poly("x + x^2*y", F2), 2)


def test_stable_form_unit_residue():
    sf = stable_form(parse_poly("2*x", F3), Poly2.y(F3), 3)
    assert (sf.a, sf.b, sf.d) == (1, 0, 1)
    assert sf.unit_residue == F3.of_int(2)


def test_stable_form_d_not_p_power():
    v = parse_poly("y^2 + x", F3)  # d = 2 is not a power of 3
    with pytest.raises(NotPPower):
        stable_form(Poly2.x(F3), v, 3)


def test_defect_from_stable_examples():
    sf = StableForm(a=2, a_bar=1, alpha=1, b=0, d=2, beta=1)
    assert defect_from_stable(sf, 1, 1, 2) == 2
    sf1 = StableForm(a=1, a_bar=1, alpha=0, b=0, d=2, beta=1)
    assert defect_from_stable(sf1, 1, 1, 2) == 1
    # defectless shape a = e, d = 1, residue degree f matched by f_res
    sf0 = StableForm(a=3, a_bar=3, alpha=0, b=0, d=1, beta=0)
    assert defect_from_stable(sf0, 3, 2, 2, f_res=2) == 0


def test_defect_inconsistent():
    sf = StableForm(a=3, a_bar=3, alpha=0, b=0, d=1, beta=0)
    with pytest.raises(Inconsistent):
        defect_from_stable(sf, 2, 1, 2)


# -- composite transforms ---------------------------------------------------------


def test_composite_transform_middle_level2_values():
    gs = build_tower_seq("U", 2, 1, 5)
    lvl2 = ChartChain(gs).level(2)
    cmap = lvl2.map_from_prev
    assert lvl2.values == [F(1, 2), F(1, 16), F(17, 32), F(273, 256), F(4369, 512)]
    assert cmap.n == 2
    assert cmap.residue == F2.one
    # declared quotient formulas: new key j has the value of
    # old key (j+1) / x^(p^(2j-2)) for j odd, / x^(p^(2j-1)) for j even
    for j in range(1, len(lvl2.values)):
        exp = 2 ** (2 * j - 2) if j % 2 == 1 else 2 ** (2 * j - 1)
        assert lvl2.values[j] == gs.values[j + 1] - exp


def test_composite_transform_top_level2_values():
    for p in (2, 3):
        gs = build_tower_seq("Q", p, None, 4)
        lvl2 = ChartChain(gs).level(2)
        # declared: new key j = old key (j+1) / x^(p^(2(j-1)))
        for j in range(1, len(lvl2.values)):
            assert lvl2.values[j] == gs.values[j + 1] - p ** (2 * (j - 1))


def test_composite_transform_trivial_two_keys():
    gs = GenSeq(F2, [Poly2.x(F2), Poly2.y(F2)], [F(1), F(1)], label="blowup")
    lvl2 = ChartChain(gs).level(2)
    cmap = lvl2.map_from_prev
    assert cmap.n == 1
    assert len(lvl2.keys) == 1
    d = cmap.describe()
    assert d["old_x"].startswith("1 * x2^1")
    assert d["old_y"] == "x2"


def test_composite_transform_ratio_failure():
    keys = [Poly2.x(F2), Poly2.y(F2), parse_poly("y^5 - x^2", F2)]
    gs = GenSeq(F2, keys, [F(1), F(2, 5), F(21, 10)], label="offratio")
    with pytest.raises(NotApplicable):
        ChartChain(gs).level(2)


def test_composite_transform_chart_map_pushes_keys():
    # pushing an old key through the map and dividing by the declared power of
    # the new coordinate reproduces the new key: exactly in the exact chain
    # and on the spine, modulo the key's precision elsewhere
    gs = build_tower_seq("U", 3, 2, 6)
    exact, truncated = (ChartChain(gs, exact=e).level(2) for e in (True, False))
    assert exact.map_from_prev == truncated.map_from_prev
    assert exact.precs == [None] * len(exact.keys)
    assert truncated.precs == [None] * 4 + [244, 247]  # keys 0-3 are the spine
    cmap = exact.map_from_prev
    for j in range(2, len(gs.keys)):
        img = cmap.push(gs.keys[j])
        assert img.x_order() == gs.keys[j].deg_y()
        new = img.divexact_xpow(gs.keys[j].deg_y())
        assert new == exact.keys[j - 1]
        key, prec = truncated.keys[j - 1], truncated.precs[j - 1]
        assert all(i < prec for i, _ in key.num.terms) if prec else key == new
        assert (new.num * key.den - key.num * new.den).truncate(prec).is_zero()


def test_transformed_recursion_residues_are_one():
    # validation passes only when every recursion unit is 1 at the origin,
    # which makes every later translation constant 1
    for fam, p, c in (("U", 2, 1), ("Q", 2, None), ("P", 2, None), ("U", 3, 2)):
        seq = build_tower_seq(fam, p, c, 5)
        chain = ChartChain(seq)
        for k in (2, 3):
            lvl = chain.level(k)
            assert validate_chart_seq(lvl) is None
            assert lvl.r == seq.field.one
        assert chain.level(3).map_from_prev.residue == seq.field.one


def test_chart_validation_reports_unit_residue():
    # doubling the recursion remainder over F_3 leaves the shape intact and
    # makes the unit residue 2
    seq = build_tower_seq("U", 3, 2, 5)
    lvl2 = ChartChain(seq).level(2)
    power = lvl2.keys[1] ** lvl2.indices[1]
    lvl2.keys[2] = power - LocalElem(Poly2.const(F3, 2)) * (power - lvl2.keys[2])
    with pytest.raises(NonPolynomial) as ex:
        validate_chart_seq(lvl2)
    assert str(ex.value) == ("transformed sequence failed validation: U(p=3,c=2,N=5)/T2: "
                             "key 2 recursion unit residue 2, not 1")


def test_chain_rejects_level_failing_validation():
    # a doubled old key still pushes to the right exceptional order, but the
    # shifted recursion loses its shape: extending the chain must fail
    seq = build_tower_seq("U", 3, 2, 5)
    chain = ChartChain(seq)
    chain.levels[0].keys[3] = chain.levels[0].keys[3] * LocalElem(Poly2.const(F3, 2))
    with pytest.raises(NonPolynomial, match="failed validation"):
        chain.level(2)


def _add_value(lvl, i, value):
    """Add ``value`` to the value of key i of a chain level: the level
    carries its values as integer weights over its denominator D."""
    weight = value * lvl.denom
    assert weight.denominator == 1, (value, lvl.denom)
    lvl.weights[i] += int(weight)


def test_chart_validation_detects_tampering():
    # corrupting a transformed key must not pass the validity checks
    seq = build_tower_seq("U", 2, 1, 5)
    lvl2 = ChartChain(seq).level(2)
    assert validate_chart_seq(lvl2) is None
    lvl2.keys[2] = lvl2.keys[2] * LocalElem(Poly2.x(F2))  # wrong exceptional order
    with pytest.raises(NonPolynomial) as ex:  # restriction to x = 0 vanishes
        validate_chart_seq(lvl2)
    assert str(ex.value) == ("transformed sequence failed validation: U(p=2,c=1,N=5)/T2: "
                             "key 2 has lowest term x^1 y^8, not x^0 y^8")
    fresh = ChartChain(seq).level(2)
    _add_value(fresh, 2, F(1, 64))  # breaks the relation exponent integrality
    with pytest.raises(Inconsistent) as ex:
        validate_chart_seq(fresh)
    assert str(ex.value) == "level 2, key 3: relation exponent 33/16 is not a nonnegative integer"
    # the same corruption of a key carried modulo x2^33 (past the spine)
    lvl2 = ChartChain(build_tower_seq("U", 2, 1, 6)).level(2)
    assert lvl2.precs[4] == 33
    lvl2.keys[4] = lvl2.keys[4] * LocalElem(Poly2.x(F2))
    with pytest.raises(NonPolynomial) as ex:
        validate_chart_seq(lvl2)
    assert str(ex.value) == ("transformed sequence failed validation: U(p=2,c=1,N=6)/T2: "
                             "key 4 has lowest term x^1 y^128, not x^0 y^128")


# Key 4 of level 2 of the U chain at p = 2, length 6 lies past the spine and
# is carried modulo x2^33; pushed into level 3, it is read modulo x2^33.
TRUNCATED = ("U", 2, 1, 6)


def _tamper_in_tower(monkeypatch, tamper):
    """Make ``build_tower`` apply ``tamper`` to the middle chain, and run
    ``tower`` on it."""
    def tampered(*args, **kwargs):
        tower = build_tower(*args, **kwargs)
        tamper(tower.chain("A"))
        return tower

    monkeypatch.setattr(towers, "build_tower", tampered)
    return main(["tower", "--p", "2", "--levels", "4", "--length", "6"])


def test_truncated_image_that_vanishes_is_a_verification_failure(capsys, monkeypatch):
    # key 4 times x2^33 vanishes modulo the x2^33 it is known to: its image
    # vanishes modulo x3^(128 + 17), 128 its degree and 17 the precision of
    # new key 3, and that is a failed check, not a domain error
    def tamper(chain):
        lvl2 = chain.level(2)
        lvl2.keys[4] = lvl2.keys[4] * LocalElem(Poly2.monomial(F2, lvl2.precs[4], 0))

    chain = ChartChain(build_tower_seq(*TRUNCATED))
    tamper(chain)
    witness = ("U(p=2,c=1,N=6)/T2/T3: shifted key 4 vanishes modulo x3^145: its exceptional "
               "order exceeds 128")
    with pytest.raises(NonPolynomial) as ex:
        chain.level(3)
    assert str(ex.value) == witness
    assert _tamper_in_tower(monkeypatch, tamper) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failed: {witness}\n"


def test_truncated_key_with_no_x0_row_is_a_verification_failure(capsys, monkeypatch):
    # a truncated key that vanishes modulo its precision has no x^0 row to
    # read: a failed check naming the key and the precision
    lvl3 = ChartChain(build_tower_seq(*TRUNCATED)).level(3)
    assert lvl3.precs[3] == 17
    lvl3.keys[3] = LocalElem(Poly2.zero(F2))
    witness = ("transformed sequence failed validation: U(p=2,c=1,N=6)/T2/T3: key 3 "
               "vanishes modulo x3^17, the precision it is known to")
    with pytest.raises(NonPolynomial) as ex:
        validate_chart_seq(lvl3)
    assert str(ex.value) == witness

    def tamper(chain):
        # level 3 of the middle chain gets its keys inside the ladder
        original = transforms.composite_transform

        def zero_key(level, nxt):
            original(level, nxt)
            if nxt.label == lvl3.label:
                nxt.keys[3] = LocalElem(Poly2.zero(F2))

        monkeypatch.setattr(transforms, "composite_transform", zero_key)

    assert _tamper_in_tower(monkeypatch, tamper) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failed: {witness}\n"


def test_chart_validation_reads_below_each_precision():
    # a key whose recorded precision is below what the recursion check reads
    # fails before the remainder is formed
    lvl2 = ChartChain(build_tower_seq(*TRUNCATED)).level(2)
    reads = transforms._validation_reads(lvl2)
    assert all(p is None or p >= r for p, r in zip(lvl2.precs, reads))
    assert reads[4] == 33  # a_4 + 1 = 32 + 1: key 4 in the remainder key_4^2 - key_5
    lvl2.precs[4] = 32
    with pytest.raises(NonPolynomial) as ex:
        validate_chart_seq(lvl2)
    assert str(ex.value) == ("transformed sequence failed validation: U(p=2,c=1,N=6)/T2: "
                             "key 4 is read modulo x2^33, past the x2^32 it is known to")


def _remainder_witness(lvl, j, lowest):
    """The failure text for a recursion remainder with no term at the
    predicted order x^(a_j + o) y^t of key j + 1."""
    e = lvl.indices[j]
    a = (e * lvl.values[j] - lvl.values[j - 1]) / lvl.values[0]
    o, t, _ = _bottom_row(lvl.keys[j - 1])
    return (f"transformed sequence failed validation: {lvl.label}: key {j + 1} recursion "
            f"remainder does not lead with x^{a + o} y^{t} (lowest term below "
            f"x^{a + o + 1}: {lowest})")


def test_chart_validation_reports_vanishing_remainder():
    # key_2 = key_1^e_1 exactly: the recursion has no lower term, which is a
    # failure naming the key, not a silent skip
    seq = build_tower_seq("U", 2, 1, 5)
    lvl2 = ChartChain(seq).level(2)
    lvl2.keys[2] = lvl2.keys[1] ** lvl2.indices[1]
    with pytest.raises(NonPolynomial) as ex:
        validate_chart_seq(lvl2)
    assert str(ex.value) == _remainder_witness(lvl2, 1, "none")


@pytest.mark.parametrize("p,c,q", [(2, 1, None), (3, 2, None), (3, 2, 9)])
def test_chart_validation_never_forms_whole_remainder(p, c, q):
    # every recursion remainder is formed modulo a power of x (the precision
    # has no default), and on valid chains every one leads at the predicted
    # order
    prec = inspect.signature(transforms._recursion_remainder).parameters["prec"]
    assert prec.default is inspect.Parameter.empty
    tower = build_tower(p, c, 6, Fq(p) if q is None else Fq(p, 2))
    exact_levels = 0
    for which in "SA":
        chain = tower.chain(which)
        for k in range(1, tower.length + 1):
            try:
                lvl = chain.level(k)
            except NotApplicable:  # chain exhausted
                break
            if lvl.keys is not None:
                exact_levels += 1
                assert validate_chart_seq(lvl) is None, (which, k)
    assert exact_levels == 8  # levels 1-4 of both chains


def test_chart_validation_remainder_above_predicted_order():
    # key_2 = key_1^e_1 - x^(K + 2) y with K one past the predicted order of
    # the remainder: below x^K the remainder vanishes, the same failure as a
    # zero remainder, and nothing past x^K is formed
    seq = build_tower_seq("U", 2, 1, 5)
    lvl2 = ChartChain(seq).level(2)
    e1 = lvl2.indices[1]
    a1 = int((e1 * lvl2.values[1] - lvl2.values[0]) / lvl2.values[0])
    prec = a1 + _bottom_row(lvl2.keys[0])[0] + 1
    lvl2.keys[2] = lvl2.keys[1] ** e1 - LocalElem(Poly2.monomial(F2, prec + 2, 1))
    with pytest.raises(NonPolynomial) as ex:
        validate_chart_seq(lvl2)
    assert str(ex.value) == _remainder_witness(lvl2, 1, "none")


def test_chart_validation_remainder_below_predicted_order():
    # key_3 - x y keeps its distinguished degree, but the remainder of its
    # recursion now leads at x^1 y, below the predicted x^2 y
    seq = build_tower_seq("U", 2, 1, 5)
    lvl2 = ChartChain(seq).level(2)
    lvl2.keys[3] = lvl2.keys[3] - LocalElem(Poly2.monomial(F2, 1, 1))
    with pytest.raises(NonPolynomial) as ex:
        validate_chart_seq(lvl2)
    assert str(ex.value) == _remainder_witness(lvl2, 2, "x^1 y^1")
    assert "lead with x^2 y^1" in str(ex.value)


# Tampers of a chain level with no exact keys (level 5 of the Q chain at
# p = 2), each caught while the next level is built, with its witness.
ORDER_CALCULUS_TAMPERS = {
    # a shifted degree one too large drives a level-6 value below 0, caught
    # before any index of it is taken
    "positivity": (lambda lvl: lvl.degrees.__setitem__(2, lvl.degrees[2] + 1),
                   "level 6, key 1: value -3/4096 is not positive"),
    # shifted degree 17 where the index products give 4 * 4 (17 // 4 == 4)
    "degree": (lambda lvl: lvl.degrees.__setitem__(3, lvl.degrees[3] + 1),
               "level 6, key 2: n_1 * distinguished degree = 4 * 4 is not the shifted "
               "degree 17"),
    # level-6 value 1/16384 of key 2 keeps its index 4 but not the growth
    "growth": (lambda lvl: _add_value(lvl, 3, -F(1, 1024)),
               "level 6, key 2: value 1/16384 does not exceed 4 * 1/4096"),
    # level-6 values 19/16384 and 305/65536 of keys 2 and 3 keep their
    # indices and the growth, but a_2 = (4 * 19/16384 - 1/4096) * 1024 = 9/2
    "relation-exponent": (lambda lvl: (_add_value(lvl, 3, F(1, 8192)),
                                       _add_value(lvl, 4, F(1, 2048))),
                          "level 6, key 3: relation exponent 9/2 is not a nonnegative integer"),
}


@pytest.mark.parametrize("tamper,witness", ORDER_CALCULUS_TAMPERS.values(),
                         ids=ORDER_CALCULUS_TAMPERS.keys())
def test_chain_checks_values_without_exact_keys(tamper, witness):
    chain = ChartChain(build_tower_seq("Q", 2, None, 8))
    lvl5 = chain.level(5)
    assert lvl5.keys is None  # only the order calculus reaches level 5
    tamper(lvl5)
    with pytest.raises(Inconsistent) as ex:
        chain.level(6)
    assert str(ex.value) == witness


@pytest.mark.parametrize("family", "QPU")
@pytest.mark.parametrize("p", [2, 3, 5])
def test_chain_values_follow_fraction_recursion(family, p):
    # oracle: v'_0 = v_1, v'_j = v_{j+1} - deg_{j+1} * v_1 in Fractions, with
    # the indices of the new values from their value groups and the degrees
    # their running products, at every level to length - 1
    length = 7
    base = build_tower_seq(family, p, p - 1 if family == "U" else None, length)
    chain = ChartChain(base)
    values = list(base.values)
    degrees = [0] + [key.deg_y() for key in base.keys[1:]]
    past_maps = 0
    for k in range(1, length):
        lvl = chain.level(k)
        assert lvl.values == values, k
        assert all(type(v) is F for v in lvl.values), k
        assert lvl.denom == base.ensure_valid().denom
        assert lvl.indices == stage_orders(values), k
        assert lvl.degrees == degrees, k
        past_maps += lvl.keys is None
        values = [values[1]] + [values[j] - degrees[j] * values[1]
                                for j in range(2, len(values))]
        indices = stage_orders(values)
        degrees = [0] + [prod(indices[1:i]) for i in range(1, len(values))]
    assert past_maps == length - 5  # levels 5 and 6 rest on the order calculus


# -- chains ------------------------------------------------------------------------


def middle_declared_vector(p: int, k: int, j: int, nkeys: int):
    """Declared original-key exponent vector of key j at level k (middle
    family), from the published per-level quotient formulas."""
    vec = [0] * nkeys
    if k == 2:
        if j == 0:
            vec[1] = 1
            return tuple(vec)
        vec[j + 1] = 1
        vec[0] = -(p ** (2 * j - 2) if j % 2 == 1 else p ** (2 * j - 1))
        return tuple(vec)
    if j == 0:
        return middle_declared_vector(p, k - 1, 1, nkeys)
    if k % 2 == 1:
        xexp = p ** (2 * (j + k) - 5) if j % 2 == 1 else p ** (2 * (j + k) - 6)
        kexp = p ** (2 * j - 2) if j % 2 == 1 else p ** (2 * j - 3)
    else:
        xexp = p ** (2 * (j + k) - 6) if j % 2 == 1 else p ** (2 * (j + k) - 5)
        kexp = p ** (2 * j - 2) if j % 2 == 1 else p ** (2 * j - 1)
    vec[j + k - 1] = 1
    vec[0] = -xexp
    vec[k - 2] = -kexp
    return tuple(vec)


def top_declared_vector(p: int, k: int, j: int, nkeys: int):
    """Declared vector of key j at level k for the top/base families."""
    vec = [0] * nkeys
    if k == 2:
        if j == 0:
            vec[1] = 1
            return tuple(vec)
        vec[j + 1] = 1
        vec[0] = -(p ** (2 * (j - 1)))
        return tuple(vec)
    if j == 0:
        return top_declared_vector(p, k - 1, 1, nkeys)
    vec[j + k - 1] = 1
    vec[0] = -(p ** (2 * (j + k - 3)))
    vec[k - 2] = -(p ** (2 * (j - 1)))
    return tuple(vec)


@pytest.mark.parametrize("p,c", [(2, 1), (3, 2)])
def test_chain_values_match_declared_quotients_middle(p, c):
    base = build_tower_seq("U", p, c, 6)
    chain = ChartChain(base)
    nkeys = len(base.keys)
    for k in (2, 3, 4):
        lvl = chain.level(k)
        for j in range(len(lvl.values)):
            if k == 3 and j == 0:
                declared = middle_declared_vector(p, 2, 1, nkeys)
            else:
                declared = middle_declared_vector(p, k, j, nkeys)
            val = sum(m * v for m, v in zip(declared, base.values))
            assert val == lvl.values[j], (k, j)


@pytest.mark.parametrize("fam,p", [("Q", 2), ("Q", 3), ("P", 2), ("P", 3)])
def test_chain_values_match_declared_quotients_top_base(fam, p):
    base = build_tower_seq(fam, p, None, 6)
    chain = ChartChain(base)
    nkeys = len(base.keys)
    for k in (2, 3, 4):
        lvl = chain.level(k)
        for j in range(len(lvl.values)):
            if k == 3 and j == 0:
                declared = top_declared_vector(p, 2, 1, nkeys)
            else:
                declared = top_declared_vector(p, k, j, nkeys)
            val = sum(m * v for m, v in zip(declared, base.values))
            assert val == lvl.values[j], (k, j)


def test_chain_vectors_differ_from_declared_by_unit_monomials():
    # the chain's own key monomials and the declared quotients differ by
    # value-0 monomials whose residue is 1: the residue of the delta
    # monomial's positive part over its negative part
    base = build_tower_seq("Q", 2, None, 6)
    chain = ChartChain(base)
    nkeys = len(base.keys)

    def monomial(exps):
        out = Poly2.one(F2)
        for key, e in zip(base.keys, exps):
            out = out * key**e
        return out

    checked = 0
    for k in (2, 3):
        lvl = chain.level(k)
        for j in range(len(lvl.values)):
            if k == 3 and j == 0:
                declared = top_declared_vector(2, 2, 1, nkeys)
            else:
                declared = top_declared_vector(2, k, j, nkeys)
            delta = tuple(a - b for a, b in zip(lvl.vecs[j], declared))
            if any(delta):
                pos = monomial(max(d, 0) for d in delta)
                neg = monomial(max(-d, 0) for d in delta)
                assert residue_of_quotient(pos, neg, base) == F2.one, (k, j, delta)
                checked += 1
    assert checked == 10


def test_chain_pushforward_matches_order_calculus():
    # dual route: exact pushforwards through the chart maps agree with the
    # composite-order tables
    for p, c, kmax in ((2, 1, 4), (3, 2, 3)):
        tower = build_tower(p, c, 6)
        ch_s = tower.chain("S")
        ch_a = tower.chain("A")
        rep = run_tower_ladder(tower, kmax)
        for k in range(2, kmax + 1):
            lvl_a = ch_a.level(k)
            row = next(r for r in rep if r.level == k and r.extension == "S/A")
            got = _mu_exact_of_vector(tower.mid_keys_xy, lvl_a.vecs[1], ch_s, k)
            assert got == (row.form.b, row.form.d)
            got_a = _mu_exact_of_vector(tower.mid_keys_xy, lvl_a.vecs[0], ch_s, k)
            assert got_a == (row.form.a, 0)


def test_chain_pushforward_matches_order_calculus_base_side():
    # same dual route for the base chart's parameters, in the middle chart
    # (A/R rows) and in the top chart (S/R rows)
    for p, c, kmax in ((2, 1, 3), (3, 2, 3)):
        tower = build_tower(p, c, 6)
        ch_a = tower.chain("A")
        ch_s = tower.chain("S")
        rep = run_tower_ladder(tower, kmax)
        base_in_mid = [LocalElem(num, pow(tower.w, a, tower.base_prec))
                       for num, a in tower.base_keys_xv]
        base_in_top = [
            k.compose(Poly2.x(tower.field), LocalElem(tower.v_sub))
            for k in base_in_mid
        ]
        for k in range(1, kmax + 1):
            lvl_r = tower.chain("R").level(k)
            row = next(r for r in rep if r.level == k and r.extension == "A/R")
            assert _mu_exact_of_vector(base_in_mid, lvl_r.vecs[0], ch_a, k) == (
                row.form.a, 0)
            assert _mu_exact_of_vector(base_in_mid, lvl_r.vecs[1], ch_a, k) == (
                row.form.b, row.form.d)
            row_t = next(r for r in rep if r.level == k and r.extension == "S/R")
            assert _mu_exact_of_vector(base_in_top, lvl_r.vecs[0], ch_s, k) == (
                row_t.form.a, 0)
            assert _mu_exact_of_vector(base_in_top, lvl_r.vecs[1], ch_s, k) == (
                row_t.form.b, row_t.form.d)


@pytest.mark.parametrize("p,c,kmax", [(2, 1, 4), (3, 2, 3)])
def test_truncated_push_matches_exact_push(p, c, kmax):
    # each map reads its input modulo x^ceil(K / n), so a push modulo x_k^K
    # is the exact push modulo x_k^K, at K on both sides of the multiples of n
    tower = build_tower(p, c, kmax + 1)
    chain = tower.chain("S")
    for k in range(1, kmax + 1):
        for key in tower.mid_keys_xy[:3]:
            exact = chain.push_exact(key, k)
            o = exact.x_order()
            for prec in sorted(set(range(1, 8)) | {o + 1, o + 2, o + 3}):
                trunc = chain.push_exact(key, k, prec)
                assert all(i < prec for i, _ in trunc.num.terms)
                assert (trunc.num * exact.den - exact.num * trunc.den).truncate(prec).is_zero(), \
                    (k, prec)


@pytest.mark.parametrize("p,c,q,length", [(2, 1, None, 7), (3, 2, None, 7), (5, 4, None, 5),
                                          (2, 1, 4, 7), (3, 2, 9, 6)])
def test_truncated_chain_matches_exact_chain(p, c, q, length):
    # the chains of the tower carry their keys modulo the precisions their
    # checks read; the exact chains of `transform` agree with them modulo
    # every precision, on the spine and in the chart maps exactly, and the
    # parameter links read the same residues off both
    fld = Fq(p) if q is None else Fq(p, 2)
    tower, exact_tower = build_tower(p, c, length, fld), build_tower(p, c, length, fld)
    truncated = 0
    for which, seq in (("S", exact_tower.seq_top), ("A", exact_tower.seq_mid)):
        chain = tower.chain(which)
        exact = exact_tower._chains[which] = ChartChain(seq, exact=True)
        top = chain._walk_spine()  # K, the last level with keys
        assert top == 4
        for k in range(1, length + 2):
            lvl, ref = chain.level(k), exact.level(k)
            assert (lvl.values, lvl.vecs) == (ref.values, ref.vecs)
            if k > top:
                assert lvl.keys is ref.keys is None
                continue
            assert ref.precs == [None] * len(ref.keys)
            assert len(lvl.keys) == len(ref.keys) == len(lvl.precs)
            if k > 1:
                m, m_ref = lvl.map_from_prev, ref.map_from_prev
                assert m.phi_x == m_ref.phi_x, (which, k)
                assert (m.phi_y.num, m.phi_y.den) == (m_ref.phi_y.num, m_ref.phi_y.den), (which, k)
            for j, (key, want, prec) in enumerate(zip(lvl.keys, ref.keys, lvl.precs)):
                # the base keys, key 0 and the keys that become first keys by
                # level K are exact
                assert (prec is None) == (k == 1 or j == 0 or k + j - 1 <= top), (which, k, j)
                if prec is None:
                    assert (key.num, key.den) == (want.num, want.den), (which, k, j)
                    continue
                truncated += 1
                assert all(i < prec for i, _ in key.num.terms), (which, k, j)
                assert (key.num * want.den - want.num * key.den).truncate(prec).is_zero(), \
                    (which, k, j)
    assert truncated > 0
    for j in range(1, top):
        assert (towers.verify_parameter_links(tower, j).row()
                == towers.verify_parameter_links(exact_tower, j).row())
    assert tower._pushed == exact_tower._pushed and tower._pushed


def _mu_exact_of_vector(base_keys, vec, chain, k):
    fld = base_keys[0].field
    num = LocalElem(Poly2.one(fld))
    den = LocalElem(Poly2.one(fld))
    for i, m in enumerate(vec):
        if m > 0:
            num = num * (base_keys[i] if isinstance(base_keys[i], LocalElem) else LocalElem(base_keys[i])) ** m
        elif m < 0:
            den = den * (base_keys[i] if isinstance(base_keys[i], LocalElem) else LocalElem(base_keys[i])) ** (-m)
    num_p = chain.push_exact(num, k)
    den_p = chain.push_exact(den, k)

    a, b, _ = _bottom_row(num_p)
    c, d, _ = _bottom_row(den_p)
    return a - c, b - d


# -- ladder ------------------------------------------------------------------------


@pytest.mark.parametrize("p,c", [(2, 1), (2, 2), (3, 2)])
def test_ladder_oscillation(p, c):
    tower = build_tower(p, c, 6)
    rep = run_tower_ladder(tower, 4)
    for row in rep:
        odd = row.level % 2 == 1
        alpha, beta = row.form.alpha, row.form.beta
        if row.extension == "S/A":
            assert (alpha, beta) == ((0, 1) if odd else (1, 0))
        elif row.extension == "A/R":
            assert (alpha, beta) == ((1, 0) if odd else (0, 1))
        else:
            assert (alpha, beta) == (1, 1)
        assert row.form.b == 0 and row.form.a_bar == 1


@pytest.mark.parametrize("p,c", [(2, 1), (3, 2)])
def test_ladder_sums_and_defects(p, c):
    tower = build_tower(p, c, 6)
    rep = run_tower_ladder(tower, 4)
    by_level = {}
    for row in rep:
        by_level.setdefault(row.level, {})[row.extension] = row
    for k, rows in by_level.items():
        assert rows["S/A"].form.alpha + rows["S/A"].form.beta == 1
        assert rows["A/R"].form.alpha + rows["A/R"].form.beta == 1
        assert rows["S/R"].form.alpha == rows["S/R"].form.beta == 1
        # complementary oscillation of the two sub-extensions
        assert rows["S/A"].form.alpha == 1 - rows["A/R"].form.alpha
        # multiplicativity of the defect
        assert rows["S/R"].defect == rows["S/A"].defect + rows["A/R"].defect == 2
        assert rows["S/A"].defect == rows["A/R"].defect == 1


def _zero_deviation_orders(tower, which):
    """Set every deviation x-order t of one certificate set to 0; 0 * ord(x)
    never dominates a key's order, so the ladder must refuse them."""
    tower._certs[which] = [
        cert._replace(t_order=0) for cert in tower.certificates(which)
    ]


@pytest.mark.parametrize("which", ["mid-in-top", "base-in-mid"])
def test_ladder_rejects_undominated_certificates(capsys, monkeypatch, which):
    tower = build_tower(2, 1, 5)
    _zero_deviation_orders(tower, which)
    with pytest.raises(Inconsistent, match="order dominance fails .* at level 1"):
        run_tower_ladder(tower, 3)

    def tampered(*args, **kwargs):
        tower = build_tower(*args, **kwargs)
        _zero_deviation_orders(tower, which)
        return tower

    monkeypatch.setattr(towers, "build_tower", tampered)
    assert main(["tower", "--p", "2", "--levels", "3", "--length", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failed: order dominance fails" in captured.err
