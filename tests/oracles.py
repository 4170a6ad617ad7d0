"""Paper checks with no production caller, kept as test oracles.

The package carries every value as an integer weight over a common
denominator and computes indices with one integer kernel
(``ramval.values.stage_indices``).  The oracles here work on Fractions
instead, so the tests can hold the kernel against an independent
computation: a subgroup of Q generated by finitely many values is g Z for
one generator g >= 0 (0 the trivial group).
"""

from fractions import Fraction
from math import gcd


class OrderMismatch(ArithmeticError):
    pass


def generator(values) -> Fraction:
    """The generator g >= 0 of the subgroup of Q that the values generate."""
    g = Fraction(0)
    for v in map(Fraction, values):
        den = g.denominator * v.denominator
        g = Fraction(gcd(g.numerator * v.denominator, v.numerator * g.denominator), den)
    return g


def index(big: Fraction, small: Fraction) -> int:
    """[big Z : small Z]; ValueError unless small Z is a nontrivial subgroup
    of big Z."""
    ratio = Fraction(small) / big if big else Fraction(0)
    if ratio.denominator != 1 or ratio < 1:
        raise ValueError(f"({small})Z is not a nontrivial subgroup of ({big})Z")
    return ratio.numerator


def order(v, g: Fraction) -> int:
    """Smallest n >= 1 with n * v in g Z, for g > 0."""
    return (Fraction(v) / g).denominator


def stage_orders(values) -> list[int]:
    """[0, n_1, n_2, ...]: n_i the order of values[i] modulo the group that
    values[0..i-1] generate."""
    return [0] + [order(values[i], generator(values[:i])) for i in range(1, len(values))]


def contains(g: Fraction, v) -> bool:
    """Whether v lies in g Z."""
    return v == 0 if g == 0 else order(v, g) == 1


def check_min_formula(gamma_values, y_value, e: int, group: Fraction) -> bool:
    """Distinctness making the min formula valid: gamma + j*y_value are
    pairwise distinct across classes j = 0..e-1 for gammas in the base group
    ``group`` Z."""
    if e < 1:
        raise ValueError("e must be >= 1")
    if order(y_value, group) != e:
        raise OrderMismatch(f"y-value has order {order(y_value, group)} != {e}")
    if e == 1:
        return True
    seen: dict[Fraction, int] = {}
    for j in range(e):
        for g in gamma_values:
            if not contains(group, g):
                raise ValueError(f"{g} is not in the base group ({group})Z")
            v = g + j * y_value
            if v in seen and seen[v] != j:
                return False
            seen[v] = j
    return True


def semigroup_decomposition(big_elements, small_group: Fraction, y_value, e: int, bound) -> bool:
    """Each semigroup element tau <= bound - e*y_value must be gamma + i*y_value
    for a unique 0 <= i < e with gamma in the base group ``small_group`` Z."""
    cutoff = Fraction(bound) - e * Fraction(y_value)
    for tau in big_elements:
        if tau > cutoff:
            continue
        hits = [i for i in range(e) if contains(small_group, tau - i * y_value)]
        if len(hits) != 1:
            return False
    return True


def tower_key_value_closed(j: int, p: int) -> Fraction:
    """Closed form of ``ramval.values.tower_key_value``:

        g_{j+1} = p^(2j-2) * sum_{t=0..j} p^(-4t)   if j odd,
        g_{j+1} = p^(2j-1) * sum_{t=0..j} p^(-4t)   if j even.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    if j == 0:
        return Fraction(1)
    if j == 1:
        return Fraction(1, p)
    i = j - 1  # closed form indexes the predecessor
    s = sum(Fraction(1, p ** (4 * t)) for t in range(i + 1))
    exp = 2 * i - 2 if i % 2 == 1 else 2 * i - 1
    return Fraction(p) ** exp * s
