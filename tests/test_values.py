import math
from fractions import Fraction as F

import pytest

import ramval
from ramval.towers import CrossCert
from ramval.transforms import StableForm
from ramval.values import (
    NotSubgroup,
    ValueGroup,
    group_index,
    group_join,
    order_in_quotient,
    p_adic_split,
    stage_indices,
    tower_key_value,
    tower_key_value_closed,
)


def subgroup_generator_oracle(values):
    """Independent oracle: generator of the subgroup of Q generated by
    ``values``, via integer gcd of numerators over the common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    num = 0
    for v in values:
        num = math.gcd(num, v.numerator * (den // v.denominator))
    return F(num, den)


def test_group_join_single_generator():
    assert group_join(ValueGroup.integers(), F(1, 2)) == ValueGroup.one_over(2)


def test_group_join_derived_against_gcd_oracle():
    # subgroup generated by {1, 1/2, 17/16}
    expected = subgroup_generator_oracle([F(1), F(1, 2), F(17, 16)])
    assert expected == F(1, 16)
    g = group_join(group_join(ValueGroup.integers(), F(1, 2)), F(17, 16))
    assert g == ValueGroup(expected)


def test_group_join_zero_is_identity():
    g = ValueGroup.one_over(7)
    assert group_join(g, F(0)) == g


def test_group_join_rejects_negative():
    with pytest.raises(ValueError):
        group_join(ValueGroup.integers(), F(-1, 2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_group_index_examples(p):
    assert group_index(ValueGroup.one_over(p), ValueGroup.integers()) == p
    assert group_index(ValueGroup.one_over(p**4), ValueGroup.one_over(p)) == p**3
    g = ValueGroup.one_over(p)
    assert group_index(g, g) == 1


def test_group_index_not_subgroup():
    with pytest.raises(NotSubgroup):
        group_index(ValueGroup.one_over(2), ValueGroup.one_over(3))
    with pytest.raises(NotSubgroup):
        group_index(ValueGroup.integers(), ValueGroup.one_over(2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_order_in_quotient_examples(p):
    assert order_in_quotient(F(1, p), ValueGroup.integers()) == p
    assert order_in_quotient(1 + F(1, p**4), ValueGroup.one_over(p)) == p**3
    assert order_in_quotient(F(3), ValueGroup.integers()) == 1


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
    grp = ValueGroup(F(0))
    stages = []
    for j in range(22):
        grp = group_join(grp, tower_key_value(j, p))
        stages.append(grp)
    for i in range(1, 21):
        idx = group_index(stages[i], stages[i - 1])
        assert idx == (p if i % 2 == 1 else p**3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stage_group_generators(p):
    # group of stage i-1 is (1/p^(2i-2))Z for odd i, (1/p^(2i-3))Z for even i
    grp = ValueGroup(F(0))
    stages = []
    for j in range(14):
        grp = group_join(grp, tower_key_value(j, p))
        stages.append(grp)
    for i in range(1, 7):
        expected = p ** (2 * i - 2) if i % 2 == 1 else p ** (2 * i - 3)
        assert stages[i - 1] == ValueGroup.one_over(expected)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_order_equals_join_index(p):
    grp = ValueGroup(F(0))
    prev = None
    for j in range(21):
        v = tower_key_value(j, p)
        joined = group_join(grp, v)
        if j >= 1:
            assert order_in_quotient(v, grp) == group_index(joined, grp)
        grp = joined


@pytest.mark.parametrize("p", [2, 3, 5])
def test_growth_condition(p):
    grp = ValueGroup(F(0))
    vals = [tower_key_value(j, p) for j in range(21)]
    grp = group_join(grp, vals[0])
    for i in range(1, 20):
        n_i = order_in_quotient(vals[i], grp)
        assert vals[i + 1] > n_i * vals[i]
        grp = group_join(grp, vals[i])


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
    assert stage_indices([F(1), F(1, 2), F(17, 16)]) == [0, 2, 8]
    assert stage_indices([F(1), F(3), F(1, 6), F(5, 6)]) == [0, 1, 6, 1]
    assert stage_indices([F(2), F(1), F(1, 3)]) == [0, 2, 3]
    assert stage_indices([F(1)]) == [0]
    with pytest.raises(NotSubgroup):
        stage_indices([F(0), F(1)])
    with pytest.raises(ValueError):
        stage_indices([F(1), F(-1, 2)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stage_indices_match_gcd_oracle(p):
    vals = [tower_key_value(j, p) for j in range(8)]
    for i, n_i in enumerate(stage_indices(vals)[1:], start=1):
        g = subgroup_generator_oracle(vals[:i])
        assert n_i == min(n for n in range(1, p**4 + 1) if (n * vals[i] / g).denominator == 1)


def test_records_are_immutable_values():
    # the frozen records are namedtuples: equal and hashed by value, with the
    # generator of a ValueGroup normalized to be nonnegative
    minus_half, half = ValueGroup(F(-1, 2)), ValueGroup(F(1, 2))
    assert minus_half == half and hash(minus_half) == hash(half)
    assert minus_half.generator == F(1, 2)
    sf = StableForm(a=2, a_bar=1, alpha=1, b=0, d=2, beta=1)
    cert = CrossCert(1, 4)
    for record, name in ((sf, "a"), (sf, "unit_residue"), (cert, "t_order"), (half, "generator")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert repr(sf) == "StableForm(a=2, a_bar=1, alpha=1, b=0, d=2, beta=1, unit_residue=1)"
    assert repr(cert) == "CrossCert(mult=1, t_order=4)"
    assert repr(half) == "ValueGroup(generator=Fraction(1, 2))"
    assert (ramval.GenSeq, ramval.StableForm, ramval.ValueGroup) == (
        ramval.genseq.GenSeq, StableForm, ValueGroup)
