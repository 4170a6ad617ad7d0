"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integers and fractions); the stated runtime
budgets are asserted.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from ramval.algebra import Fq, LocalElem, Poly2
from ramval.genseq import build_tower_seq, validate, value_of
from ramval.monomial import det_index, lattice_index_snf
from ramval.towers import (
    build_tower,
    check_ladder_report,
    verify_deviation_identity,
    verify_restriction,
    verify_value_comparison,
)
from ramval.transforms import run_tower_ladder, stable_form, defect_from_stable
from ramval.values import stage_indices, tower_key_value

from oracles import (
    check_min_formula,
    generator,
    index,
    order,
    semigroup_decomposition,
    tower_key_value_closed,
)
from test_genseq import rewrite_oracle_value


def _report(n, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} [{status}] {name} ({elapsed:.2f}s < {budget}s)")
    assert ok, f"criterion {n} failed"
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_value_recursion_vs_closed_form():
    t0 = time.time()
    ok = all(
        tower_key_value(j, p) == tower_key_value_closed(j, p)
        for p in (2, 3, 5)
        for j in range(21)
    )
    _report(1, "tower value recursion = closed form (j <= 20, p in {2,3,5})",
            ok, time.time() - t0, 1.0)


def test_criterion_02_group_stage_indices():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        vals = [tower_key_value(j, p) for j in range(12)]
        # the Fraction oracle's stage groups, and the integer kernel's indices
        stages = [generator(vals[:j + 1]) for j in range(12)]
        denom = math.lcm(*(v.denominator for v in vals))
        indices = stage_indices([int(v * denom) for v in vals])
        for i in range(1, 11):
            expected = p if i % 2 == 1 else p**3
            ok = ok and index(stages[i], stages[i - 1]) == expected == indices[i]
        for i in range(1, 7):
            gen = p ** (2 * i - 2) if i % 2 == 1 else p ** (2 * i - 3)
            ok = ok and stages[i - 1] == F(1, gen)
    _report(2, "stage indices alternate p / p^3 and stage groups match",
            ok, time.time() - t0, 1.0)


def test_criterion_03_sequence_validity():
    t0 = time.time()
    ok = True
    for p, c in ((2, 1), (2, 2), (3, 2)):
        for family in ("Q", "P", "U"):
            seq = build_tower_seq(family, p, c if family == "U" else None, 5)
            ok = ok and validate(seq).ok
    _report(3, "families Q, P, U pass validity for N = 5, (p,c) in {(2,1),(2,2),(3,2)}",
            ok, time.time() - t0, 10.0)


def test_criterion_04_valuation_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2024)
    checked = 0
    mismatches = 0
    for p in (2, 3):
        fld = Fq(p)
        seq = build_tower_seq("Q", p, None, 3)
        while checked < (260 if p == 2 else 520):
            f = Poly2.zero(fld)
            for _ in range(rng.randint(1, 6)):
                f = f + Poly2.monomial(
                    fld, rng.randint(0, 8), rng.randint(0, 16), fld.of_int(rng.randrange(fld.q))
                )
            if f.is_zero():
                continue
            if value_of(f, seq) != rewrite_oracle_value(f, seq, "Q") * seq.ensure_valid().denom:
                mismatches += 1
            checked += 1
    ok = mismatches == 0 and checked >= 500
    _report(4, f"valuation equals rewrite oracle on {checked} random polynomials",
            ok, time.time() - t0, 60.0)


def test_criterion_05_deviation_identities():
    t0 = time.time()
    ok = True
    for p, c, jmax in ((2, 1, 4), (3, 2, 3)):
        tower = build_tower(p, c, jmax + 1)
        for j in range(1, jmax + 1):
            ok = ok and verify_deviation_identity(tower, j).ok
    _report(5, "deviation identities (exponent, x | f, deg_y f) for j <= 4 at p=2, j <= 3 at p=3",
            ok, time.time() - t0, 300.0)


def test_criterion_06_value_comparisons():
    t0 = time.time()
    tower = build_tower(2, 1, 6)
    ok = all(verify_value_comparison(tower, j).ok for j in (1, 2, 3, 4))
    _report(6, "middle/top value comparison and strict inequalities, j <= 4 at p=2",
            ok, time.time() - t0, 60.0)


def test_criterion_07_restriction():
    t0 = time.time()
    ok = True
    for p, c in ((2, 1), (2, 2), (3, 2)):
        tower = build_tower(p, c, 5)
        rep = verify_restriction(tower, samples=200, seed=42)
        ok = ok and rep.ok and rep.details["mismatch_count"] == 0
    _report(7, "restriction property on 200 samples per config, zero mismatches",
            ok, time.time() - t0, 60.0)


def test_criterion_08_ladder():
    t0 = time.time()
    ok = True
    for p, c in ((2, 1), (3, 2)):
        tower = build_tower(p, c, 6)
        ladder = run_tower_ladder(tower, 4)
        ok = ok and check_ladder_report(ladder).ok
        for row in ladder:
            if row.extension == "S/R":
                ok = ok and row.defect == 2
            else:
                ok = ok and row.defect == 1
    _report(8, "ladder parity tables, sums, and defect multiplicativity (1,1,2), j <= 4",
            ok, time.time() - t0, 300.0)


def test_criterion_09_defectless_forms():
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        p = rng.choice((2, 3))
        fld = Fq(p)
        e = rng.randint(1, 6)
        b = rng.randint(0, 3)
        f_deg = rng.randint(1, 2)
        # defectless shape: u = unit * x^e, v = x^b * (y * unit + higher)
        unit1 = Poly2.one(fld) + Poly2.monomial(fld, rng.randint(1, 4), rng.randint(0, 2))
        u = LocalElem(Poly2.monomial(fld, e, 0), unit1)
        v = Poly2.monomial(fld, b, 1) + Poly2.monomial(fld, b + rng.randint(1, 3), 0)
        sf = stable_form(u, v, p)
        ok = ok and sf.a == e and sf.d == 1 and sf.b == b
        ok = ok and defect_from_stable(sf, e, f_deg, p, f_res=f_deg) == 0
        # arithmetic converse: a*d = e with e | a forces (a, d) = (e, 1)
        solutions = [
            (a, d)
            for a in range(1, e + 1)
            for d in range(1, e + 1)
            if a * d == e and a % e == 0
        ]
        ok = ok and solutions == [(e, 1)]
    _report(9, "defectless monomial forms satisfy a = e, d = 1 (100 randomized instances)",
            ok, time.time() - t0, 10.0)


def test_criterion_10_rank2_index():
    t0 = time.time()
    rng = random.Random(10)
    ok = True
    count = 0
    while count < 200:
        m = ((rng.randint(-50, 50), rng.randint(-50, 50)),
             (rng.randint(-50, 50), rng.randint(-50, 50)))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            continue
        ok = ok and det_index(m) == lattice_index_snf([list(m[0]), list(m[1])])
        count += 1
    _report(10, "rank-2 index |det| equals the Smith-normal-form lattice index (200 matrices)",
            ok, time.time() - t0, 5.0)


def test_criterion_11_min_formula_and_decomposition():
    t0 = time.time()
    rng = random.Random(11)
    bound = F(10)
    ok = True
    for e in range(1, 7):
        for _ in range(8):
            s = rng.randint(1, 12)
            if math.gcd(s, e) != 1:
                continue
            w = rng.randint(1, 5)
            if math.gcd(s, w) != 1:
                continue
            x_val = F(s, e)
            group = F(1)  # the base group Z
            if order(x_val, group) != e:
                continue
            gammas = [F(k) for k in range(11)]
            ok = ok and check_min_formula(gammas, x_val, e, group)
            # semigroup of the monomial extension generated by x_val and w
            big = sorted(
                {i * x_val + j * w for i in range(61) for j in range(11)
                 if i * x_val + j * w <= bound}
            )
            ok = ok and semigroup_decomposition(big, group, x_val, e, bound)
            # negative control, valid when a class-(e-1) witness fits the bound
            if e > 1 and (e - 1) * x_val <= bound - (e - 1) * x_val:
                ok = ok and not semigroup_decomposition(big, group, x_val, e - 1, bound)
    _report(11, "min-formula distinctness and semigroup decomposition (e <= 6, bound 10)",
            ok, time.time() - t0, 30.0)


def test_criterion_12_transform_roundtrip():
    t0 = time.time()
    from test_transforms import middle_declared_vector, top_declared_vector
    from ramval.transforms import ChartChain

    ok = True
    for fam, p, c in (("Q", 2, None), ("Q", 3, None), ("P", 2, None), ("P", 3, None),
                      ("U", 2, 1), ("U", 3, 2)):
        base = build_tower_seq(fam, p, c, 6)
        chain = ChartChain(base)
        nkeys = len(base.keys)
        declared_vec = middle_declared_vector if fam == "U" else top_declared_vector
        for k in (2, 3, 4):
            lvl = chain.level(k)
            for j in range(len(lvl.values)):
                if k == 3 and j == 0:
                    vec = declared_vec(p, 2, 1, nkeys)
                else:
                    vec = declared_vec(p, k, j, nkeys)
                declared_value = sum(m * v for m, v in zip(vec, base.values))
                ok = ok and declared_value == lvl.values[j]
    _report(12, "declared transform quotients have the chain's values (all families, j <= 4)",
            ok, time.time() - t0, 120.0)
