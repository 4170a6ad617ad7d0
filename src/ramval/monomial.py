"""Monomialization engine: exponent-lattice reductions, the rank-2 determinant
index and graded-presentation data."""

from __future__ import annotations

import math
from collections import namedtuple


class Singular(ArithmeticError):
    pass


Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def det2(m: Matrix2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def det_index(m: Matrix2) -> int:
    """|det| = ramification index of a rank-2 monomial extension."""
    d = det2(m)
    if d == 0:
        raise Singular("exponent matrix is singular")
    return abs(d)


def smith_normal_form(mat: list[list[int]]) -> list[list[int]]:
    """Smith normal form over Z (diagonal with divisibility d1 | d2 | ...).

    Independent oracle for lattice indices: the index of A*Z^n in Z^n is the
    product of the nonzero invariant factors.
    """
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0])

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        # move a nonzero pivot into place
        pr, pc = None, None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j]:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            # clear column t with row operations
            done = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(cols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            # clear row t with column operations
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(rows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        t += 1

    # enforce the divisibility chain
    diag = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(diag - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if x and y % x != 0:
                # gcd into position i, lcm into i+1 preserves the product
                g = math.gcd(x, y)
                a[i + 1][i + 1] = x * y // g
                a[i][i] = g
                changed = True
    for i in range(diag):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
    return a


def lattice_index_snf(mat: list[list[int]]) -> int:
    """[Z^n : A Z^n] via Smith normal form (0 means infinite / singular)."""
    d = smith_normal_form(mat)
    idx = 1
    for i in range(min(len(d), len(d[0]))):
        if d[i][i] == 0:
            return 0
        idx *= d[i][i]
    return abs(idx)


class ReductionResult:
    __slots__ = ("s", "t1", "t2", "steps")

    def __init__(self, s: int, t1: int, t2: int, steps: str):
        self.s, self.t1, self.t2 = s, t1, t2
        self.steps = steps  # word over {L, R}: L divides the first pair, R the second

    @property
    def determinant_value(self) -> int:
        return self.s * abs(self.t1 - self.t2)


def euclidean_reduce(pair1: tuple[int, int], pair2: tuple[int, int]) -> ReductionResult:
    """Substitution chain equalizing the first exponents of two monomials.

    pair_i = (s_i, t_i) are the (x, y) exponents of two monomials u, v.  The
    moves replace (u, v) by (u, v/u) or (u/v, v) until the x-exponents agree
    at s = gcd(s_1, s_2); the 2x2 determinant |s_1 t_2 - s_2 t_1| is invariant,
    so s * |t_1 - t_2| recovers it.
    """
    (s1, t1), (s2, t2) = pair1, pair2
    if s1 <= 0 or s2 <= 0:
        raise ValueError("first-column exponents must be positive")
    steps = []
    guard = 0
    limit = 4 * (s1 + s2 + 2)
    while s1 != s2:
        guard += 1
        if guard > limit:
            raise ArithmeticError("reduction failed to terminate (bad input)")
        if s1 < s2:
            s2, t2 = s2 - s1, t2 - t1
            steps.append("R")
        else:
            s1, t1 = s1 - s2, t1 - t2
            steps.append("L")
    return ReductionResult(s1, t1, t2, "".join(steps))


class GradedPresentation(namedtuple("GradedPresentation", "rank relations degree class_tokens",
                                    defaults=((),))):
    """Presentation data of the graded-ring extension; the ring itself is
    never materialized, only the relation exponents and the degree.
    ``relations`` is ((a, b), (c, d)): the exponent rows of the two
    relations."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "relations": self.relations,
            "degree": self.degree,
            "class_tokens": list(self.class_tokens),
        }


def graded_presentation_rank2(m: Matrix2, f: int) -> GradedPresentation:
    """Two binomial relations X^a Y^b = ..., X^c Y^d = ...; degree |det|*f."""
    e = det_index(m)
    (a, b), (c, d) = m
    return GradedPresentation(
        rank=2,
        relations=((a, b), (c, d)),
        degree=e * f,
        class_tokens=(
            f"X^{a} Y^{b} - [unit1]^-1 [u1]",
            f"X^{c} Y^{d} - [unit2]^-1 [v1]",
        ),
    )

