"""Finite field contexts F_q, q = p^m.

Elements are plain Python values interpreted against an Fq context: ints in
0..p-1 for prime fields, and tuples of m ints (polynomial basis, low degree
first) for proper extensions.  Keeping coefficients primitive keeps the
sparse-polynomial layer fast.
"""

from __future__ import annotations

from itertools import product


class NotInField(ArithmeticError):
    """A required element (root, residue) does not lie in the coefficient field."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def _poly_mod(num: list[int], mod: list[int], p: int) -> list[int]:
    # num, mod: coefficient lists over F_p, low degree first, mod monic.
    num = num[:]
    dm = len(mod) - 1
    while len(num) > dm:
        lead = num[-1] % p
        if lead:
            shift = len(num) - 1 - dm
            for i, c in enumerate(mod):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return [c % p for c in num]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2 over F_p."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            div = list(tail) + [1]
            if _poly_divides(div, poly, p):
                return False
    return True


def _poly_divides(div: list[int], poly: list[int], p: int) -> bool:
    rem = _poly_mod(poly, div, p)
    return rem == [0]


def find_irreducible(p: int, m: int) -> list[int]:
    """A monic irreducible polynomial of degree m over F_p (low degree first)."""
    for tail in product(range(p), repeat=m):
        cand = list(tail) + [1]
        if cand[0] != 0 and _is_irreducible(cand, p):
            return cand
    raise ArithmeticError(f"no irreducible polynomial of degree {m} over F_{p}")


class Fq:
    """Arithmetic context for F_q with q = p^m."""

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = None if m == 1 else find_irreducible(p, m)
        self.zero = 0 if m == 1 else (0,) * m
        self.one = 1 if m == 1 else (1,) + (0,) * (m - 1)
        # t^k mod the modulus for k = m .. 2m-2: the rows that fold an
        # unreduced product of two elements back into degree < m
        self._fold_rows = []
        if m > 1:
            for k in range(m, 2 * m - 1):
                row = _poly_mod([0] * k + [1], self.modulus, p)
                self._fold_rows.append(row + [0] * (m - len(row)))

    def __repr__(self):
        return f"Fq({self.p})" if self.m == 1 else f"Fq({self.p}, {self.m})"

    def __eq__(self, other):
        return isinstance(other, Fq) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.m))

    def of_int(self, n: int):
        if self.m == 1:
            return n % self.p
        return (n % self.p,) + (0,) * (self.m - 1)

    def of_index(self, n: int):
        """Element number n, 0 <= n < q: the base-p digits of n, low first,
        as polynomial-basis coefficients (n itself over a prime field)."""
        if self.m == 1:
            return n
        return tuple(n // self.p**s % self.p for s in range(self.m))

    def elements(self):
        if self.m == 1:
            return list(range(self.p))
        return [tuple(t) for t in product(range(self.p), repeat=self.m)]

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        raw = [0] * (2 * self.m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    raw[j] += x * y
        return self.fold(raw)

    def fold(self, raw: list[int]):
        """The element of a proper extension with unreduced polynomial-basis
        coefficients ``raw`` (integers, degree <= 2m - 2)."""
        m, p = self.m, self.p
        out = raw[:m]
        for k, row in enumerate(self._fold_rows, m):
            c = raw[k]
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return tuple(c % p for c in out)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        # a^(q-2) by square-and-multiply; q is tiny here.
        return self.pow_(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e: int):
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frob(self, a):
        """The p-power Frobenius a -> a^p."""
        return self.pow_(a, self.p)

    def to_str(self, a) -> str:
        if self.m == 1:
            return str(a)
        return "(" + ",".join(str(c) for c in a) + ")"
