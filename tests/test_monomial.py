import random
from fractions import Fraction as F

import pytest

from oracles import OrderMismatch, check_min_formula, semigroup_decomposition
from ramval.monomial import (
    Singular,
    det_index,
    euclidean_reduce,
    graded_presentation_rank2,
    lattice_index_snf,
    smith_normal_form,
)


def test_det_index_basic():
    assert det_index(((1, 0), (0, 1))) == 1
    assert det_index(((2, 0), (0, 1))) == 2
    assert det_index(((2, 1), (1, 3))) == 5


def test_det_index_singular():
    with pytest.raises(Singular):
        det_index(((2, 0), (0, 0)))


def test_snf_example():
    d = smith_normal_form([[2, 1], [1, 3]])
    assert [d[0][0], d[1][1]] == [1, 5]
    assert d[0][1] == d[1][0] == 0


def test_snf_divisibility_chain():
    rng = random.Random(3)
    for _ in range(100):
        m = [[rng.randint(-20, 20) for _ in range(3)] for _ in range(3)]
        d = smith_normal_form(m)
        diag = [d[i][i] for i in range(3)]
        for i in range(2):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0


def test_det_equals_snf_index_random():
    rng = random.Random(9)
    for _ in range(200):
        m = ((rng.randint(-50, 50), rng.randint(-50, 50)),
             (rng.randint(-50, 50), rng.randint(-50, 50)))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det == 0:
            continue
        assert det_index(m) == lattice_index_snf([list(m[0]), list(m[1])])


def test_smith_normal_form_matches_sympy():
    # second oracle: sympy's Smith normal form over ZZ, on seeded random
    # matrices from 2x2 to 4x4, non-square and singular ones included
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(11)
    singular = 0
    for n in range(400):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        if n % 3 == 0:  # rank below min(rows, cols): copy or clear a line
            s = rng.choice((-1, 0, 1))
            if rows <= cols:
                m[-1] = [s * a for a in m[0]]
            else:
                for row in m:
                    row[-1] = s * row[0]
        d = smith_normal_form(m)
        ref = sympy_snf(Matrix(m), domain=ZZ)
        k = min(rows, cols)
        assert [abs(d[i][i]) for i in range(k)] == [abs(ref[i, i]) for i in range(k)], m
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j), m
        singular += Matrix(m).rank() < k
    assert singular >= 100


def test_euclidean_reduce_equal_first_exponents():
    r = euclidean_reduce((2, 0), (2, 1))
    assert r.s == 2 and r.steps == ""
    assert r.determinant_value == abs(2 * 1 - 2 * 0)


def test_euclidean_reduce_example():
    r = euclidean_reduce((4, 1), (6, 2))
    assert r.s == 2
    assert r.determinant_value == abs(4 * 2 - 6 * 1)


def test_euclidean_reduce_one_step():
    r = euclidean_reduce((1, 0), (1, 1))
    assert r.s == 1 and r.steps == ""
    r2 = euclidean_reduce((2, 0), (1, 1))
    assert r2.s == 1 and len(r2.steps) == 1


def test_euclidean_reduce_determinant_identity_random():
    rng = random.Random(13)
    for _ in range(300):
        s1, t1 = rng.randint(1, 40), rng.randint(-10, 10)
        s2, t2 = rng.randint(1, 40), rng.randint(-10, 10)
        r = euclidean_reduce((s1, t1), (s2, t2))
        import math

        assert r.s == math.gcd(s1, s2)
        assert r.determinant_value == abs(s1 * t2 - s2 * t1)


def test_graded_presentation_rank2():
    m = ((2, 1), (1, 3))
    p = graded_presentation_rank2(m, f=2)
    assert p.degree == 10
    assert p.relations == m


def test_check_min_formula_vacuous():
    assert check_min_formula([F(0), F(1)], F(1), 1, F(1))


def test_check_min_formula_halves():
    ok = check_min_formula([F(0), F(1), F(2)], F(1, 2), 2, F(1))
    assert ok


def test_check_min_formula_order_mismatch():
    with pytest.raises(OrderMismatch):
        check_min_formula([F(0)], F(1), 2, F(1))


def test_semigroup_decomposition_trivial():
    big = [F(k) for k in range(6)]
    assert semigroup_decomposition(big, F(1), F(1), 1, F(5))


def test_semigroup_decomposition_halves():
    # x-parameter of value 1/2 with order 2 over the integers, bound 5
    big = [F(k, 2) for k in range(11)]
    assert semigroup_decomposition(big, F(1), F(1, 2), 2, F(5))


def test_semigroup_decomposition_wrong_order_fails():
    big = [F(k, 3) for k in range(10)]
    assert semigroup_decomposition(big, F(1), F(1, 3), 3, F(3))
    assert not semigroup_decomposition(big, F(1), F(1, 3), 2, F(3))
