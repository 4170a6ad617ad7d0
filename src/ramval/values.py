"""Exact arithmetic for valuation values: integer weights over one denominator.

The values of a validated sequence lie in (1/D)Z for the common denominator
D of its values (MacLane, "A construction for absolute values in polynomial
rings", Trans. AMS 40, 1936), so every value the package computes is an
integer weight w standing for w / D (``genseq.Lattice``,
``transforms.ChainLevel``).  A finitely generated subgroup of (1/D)Z is
cyclic, g Z in units of 1/D with g >= 0 (0 the trivial group), so the index
kernel is a gcd.  Fractions appear only at the edges: the declared values
of a sequence (``GenSeq.values``), the values of a chain level read across
chains of different D (``ChainLevel.values``), and ``fmt_value``, the one
place a weight becomes text.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def fmt_value(w, denom: int = 1) -> str:
    """Serialize the value w / denom, w an int or a Fraction, as "num/den"
    ("num" when the reduced denominator is 1)."""
    return str(Fraction(w, denom))


def group_join(g: int, w: int) -> int:
    """The generator of g Z + w Z in units of 1/D: gcd(g, w), with 0 the
    trivial group."""
    return gcd(g, w)


def order_in_quotient(w: int, g: int) -> int:
    """Smallest n >= 1 with n * w in g Z, for g > 0: g / gcd(g, w)."""
    return g // gcd(g, w)


def stage_indices(weights) -> list[int]:
    """[0, n_1, n_2, ...] for positive integer weights over one denominator:
    n_i is the order of weights[i] modulo the stage group that weights[0..i-1]
    generate."""
    g = weights[0]
    out = [0]
    for w in weights[1:]:
        out.append(order_in_quotient(w, g))
        g = group_join(g, w)
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


def tower_key_value(j: int, p: int) -> Fraction:
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
