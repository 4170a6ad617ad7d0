"""Exact arithmetic for valuation values and finitely generated value groups in Q.

Values are plain ``fractions.Fraction`` objects wherever they are printed
or returned.  The loops that read many values of one sequence (expansions,
chart chains, certificate bounds, value tables) carry them as integer
weights over the sequence's common denominator D instead (``genseq.Lattice``,
``transforms.ChainLevel``).  A finitely generated subgroup of Q is cyclic, so
a ValueGroup is stored as a single nonnegative rational generator g, meaning
the group g*Z.  Groups of the common form (1/d)Z have g = 1/d.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

Value = Fraction


class NotSubgroup(ValueError):
    """Raised when an index is requested for a pair that is not nested."""


def fmt_value(v: Value) -> str:
    """Serialize a value as "num/den" ("num" when the denominator is 1)."""
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd on Q: the generator of aZ + bZ.
    den = a.denominator * b.denominator
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, den)


class ValueGroup(namedtuple("ValueGroup", "generator")):
    """The subgroup generator*Z of Q, generator >= 0 (0 means the trivial group)."""

    __slots__ = ()

    def __new__(cls, generator: Fraction):
        return super().__new__(cls, -generator if generator < 0 else generator)

    @classmethod
    def integers(cls) -> "ValueGroup":
        return cls(Fraction(1))

    @classmethod
    def one_over(cls, d: int) -> "ValueGroup":
        """The group (1/d)Z."""
        if d < 1:
            raise ValueError("denominator must be >= 1")
        return cls(Fraction(1, d))

    @classmethod
    def generated_by(cls, values) -> "ValueGroup":
        g = cls(Fraction(0))
        for v in values:
            g = group_join(g, v)
        return g

    @property
    def is_trivial(self) -> bool:
        return self.generator == 0

    def contains(self, v: Value) -> bool:
        if self.is_trivial:
            return v == 0
        return (Fraction(v) / self.generator).denominator == 1

    def __str__(self) -> str:
        if self.is_trivial:
            return "{0}"
        if self.generator.numerator == 1:
            return f"(1/{self.generator.denominator})Z"
        return f"({fmt_value(self.generator)})Z"


def group_join(group: ValueGroup, v: Value) -> ValueGroup:
    """Smallest subgroup of Q containing ``group`` and ``v``."""
    v = Fraction(v)
    if v < 0:
        raise ValueError("group_join expects a nonnegative value")
    if v == 0:
        return group
    if group.is_trivial:
        return ValueGroup(v)
    return ValueGroup(_fraction_gcd(group.generator, v))


def group_index(big: ValueGroup, small: ValueGroup) -> int:
    """The index [big : small], requiring small to be a subgroup of big."""
    if small.is_trivial or big.is_trivial:
        raise NotSubgroup("index is undefined for trivial groups")
    ratio = small.generator / big.generator
    if ratio.denominator != 1 or ratio < 1:
        raise NotSubgroup(f"{small} is not a subgroup of {big}")
    return ratio.numerator


def order_in_quotient(v: Value, group: ValueGroup) -> int:
    """Smallest n >= 1 with n*v in ``group``."""
    v = Fraction(v)
    if v < 0:
        raise ValueError("order_in_quotient expects a nonnegative value")
    if group.is_trivial:
        if v != 0:
            raise NotSubgroup("no multiple of a nonzero value lies in the trivial group")
        return 1
    return (v / group.generator).denominator


def stage_indices(values) -> list[int]:
    """[0, n_1, n_2, ...] with n_i the order of values[i] in the quotient by
    the stage group generated by values[0..i-1]."""
    grp = ValueGroup.generated_by(values[:1])
    out = [0]
    for v in values[1:]:
        out.append(order_in_quotient(v, grp))
        grp = group_join(grp, v)
    return out


def p_adic_split(n: int, p: int) -> tuple[int, int]:
    """(u, e) with n = u * p^e and p not dividing u, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise ValueError(f"p-adic split needs n >= 1 and p >= 2, got n = {n}, p = {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def tower_key_value(j: int, p: int) -> Value:
    """Value assigned to the j-th key of the alternating Artin-Schreier tower.

    The values start 1, 1/p, and then each step divides by p (j odd) or p^3
    (j even) after adding the matching power of p:

        g_j = (p^(2j-2) + g_{j-1}) / p       if j odd,
        g_j = (p^(2j-1) + g_{j-1}) / p^3     if j even.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    g = Fraction(1)
    for i in range(1, j + 1):
        if i == 1:
            g = Fraction(1, p)
        elif i % 2 == 1:
            g = (Fraction(p) ** (2 * i - 2) + g) / p
        else:
            g = (Fraction(p) ** (2 * i - 1) + g) / p**3
    return g


def tower_key_value_closed(j: int, p: int) -> Value:
    """Closed form of :func:`tower_key_value`:

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
