import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import ramval
from oracles import generator, index, stage_orders, tower_key_value_closed
from ramval.towers import CrossCert
from ramval.transforms import StableForm
from ramval.values import (
    group_join,
    order_in_quotient,
    p_adic_split,
    stage_indices,
    tower_key_value,
)


def _tower_weights(p, n):
    """(D, weights) of the first n tower key values: D their common
    denominator, weight_j = value_j * D."""
    vals = [tower_key_value(j, p) for j in range(n)]
    denom = math.lcm(*(v.denominator for v in vals))
    return denom, [int(v * denom) for v in vals]


def test_group_join_single_generator():
    # in units of 1/2: Z is 2 Z, and joining 1/2 gives (1/2)Z
    assert group_join(2, 1) == 1


def test_group_join_derived_against_gcd_oracle():
    # subgroup generated by {1, 1/2, 17/16}, in units of 1/16
    expected = generator([F(1), F(1, 2), F(17, 16)])
    assert expected == F(1, 16)
    assert group_join(group_join(16, 8), 17) == expected * 16


def test_group_join_zero_is_identity():
    assert group_join(7, 0) == 7
    assert group_join(0, 7) == 7


@pytest.mark.parametrize("p", [2, 3, 5])
def test_group_index_examples(p):
    # [g Z + w Z : g Z] = g / group_join(g, w): (1/p)Z over Z in units of
    # 1/p, (1/p^4)Z over (1/p)Z in units of 1/p^4, and a group over itself
    assert p // group_join(p, 1) == p
    assert p**3 // group_join(p**3, 1) == p**3
    assert p // group_join(p, p) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_order_in_quotient_examples(p):
    # 1/p modulo Z, in units of 1/p; 1 + 1/p^4 modulo (1/p)Z, in units of 1/p^4
    assert order_in_quotient(1, p) == p
    assert order_in_quotient(p**4 + 1, p**3) == p**3
    assert order_in_quotient(3, 1) == 1


def test_tower_key_value_base_cases():
    for p in (2, 3, 5):
        assert tower_key_value(0, p) == 1
        assert tower_key_value(1, p) == F(1, p)


def test_tower_key_value_j3_derived():
    # third value by hand: ((p^4 + (1 + 1/p^4)) / p)
    for p in (2, 3, 5):
        g2 = F(1) + F(1, p**4)
        g3 = (F(p) ** 4 + g2) / p
        assert tower_key_value(3, p) == g3 == F(p) ** 3 + F(1, p) + F(1, p**5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_recursion_matches_closed_form(p):
    for j in range(21):
        assert tower_key_value(j, p) == tower_key_value_closed(j, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stage_group_indices_alternate(p):
    denom, w = _tower_weights(p, 22)
    stages = []
    grp = 0
    for wj in w:
        grp = group_join(grp, wj)
        stages.append(grp)
    for i in range(1, 21):
        idx = index(F(stages[i], denom), F(stages[i - 1], denom))
        assert idx == (p if i % 2 == 1 else p**3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stage_group_generators(p):
    # group of stage i-1 is (1/p^(2i-2))Z for odd i, (1/p^(2i-3))Z for even i
    denom, w = _tower_weights(p, 14)
    stages = []
    grp = 0
    for wj in w:
        grp = group_join(grp, wj)
        stages.append(grp)
    for i in range(1, 7):
        expected = p ** (2 * i - 2) if i % 2 == 1 else p ** (2 * i - 3)
        assert stages[i - 1] * expected == denom


@pytest.mark.parametrize("p", [2, 3, 5])
def test_order_equals_join_index(p):
    _, w = _tower_weights(p, 21)
    grp = 0
    for j, wj in enumerate(w):
        joined = group_join(grp, wj)
        if j >= 1:
            assert order_in_quotient(wj, grp) == grp // joined
        grp = joined


@pytest.mark.parametrize("p", [2, 3, 5])
def test_growth_condition(p):
    _, w = _tower_weights(p, 21)
    for i, n_i in enumerate(stage_indices(w)[1:20], start=1):
        assert w[i + 1] > n_i * w[i]


def test_p_adic_split():
    assert p_adic_split(1, 2) == (1, 0)
    assert p_adic_split(24, 2) == (3, 3)
    assert p_adic_split(3**5 * 7, 3) == (7, 5)
    assert p_adic_split(10, 5) == (2, 1)
    for n in range(1, 200):
        for p in (2, 3, 5):
            u, e = p_adic_split(n, p)
            assert u * p**e == n and u % p != 0


@pytest.mark.parametrize("n,p", [(0, 2), (-8, 2), (4, 1), (4, 0)])
def test_p_adic_split_rejects_bad_input(n, p):
    # n = 0 has no split (it is divisible by every power of p)
    with pytest.raises(ValueError):
        p_adic_split(n, p)


def test_stage_indices():
    # [1, 1/2, 17/16] over D = 16, [1, 3, 1/6, 5/6] over 6, [2, 1, 1/3] over 3
    assert stage_indices([16, 8, 17]) == [0, 2, 8]
    assert stage_indices([6, 18, 1, 5]) == [0, 1, 6, 1]
    assert stage_indices([6, 3, 1]) == [0, 2, 3]
    assert stage_indices([1]) == [0]


@st.composite
def _weights_over(draw, p):
    """A denominator D and 1-9 positive weights over it that share powers of
    p and of 2 or 3, so that indices above 1, p-powers among them, are
    common."""
    q = 3 if p == 2 else 2
    weight = st.tuples(st.integers(1, 40), st.integers(0, 7), st.integers(0, 5)).map(
        lambda t: t[0] * p ** t[1] * q ** t[2])
    return draw(st.integers(1, 5000)), draw(st.lists(weight, min_size=1, max_size=9))


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stage_indices_match_gcd_oracle(p, data):
    # the one index kernel, on integer weights over D, against the Fraction
    # oracle on the values weight / D: each stage index is the order of
    # value_i modulo the stage group before it, and the group index of that
    # stage group in the next one, which is why validation compares no two
    # index computations
    denom, weights = data.draw(_weights_over(p))
    values = [F(w, denom) for w in weights]
    indices = stage_indices(weights)
    assert indices == stage_orders(values)
    stages = [generator(values[:i + 1]) for i in range(len(values))]
    for i in range(1, len(values)):
        assert index(stages[i], stages[i - 1]) == indices[i], i


def test_records_are_immutable_values():
    # the frozen records are namedtuples: equal and hashed by value
    sf = StableForm(a=2, a_bar=1, alpha=1, b=0, d=2, beta=1)
    cert = CrossCert(1, 4)
    assert cert == CrossCert(1, 4) and hash(cert) == hash(CrossCert(1, 4))
    for record, name in ((sf, "a"), (sf, "unit_residue"), (cert, "t_order")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert repr(sf) == "StableForm(a=2, a_bar=1, alpha=1, b=0, d=2, beta=1, unit_residue=1)"
    assert repr(cert) == "CrossCert(mult=1, t_order=4)"
    assert (ramval.GenSeq, ramval.StableForm) == (ramval.genseq.GenSeq, StableForm)
