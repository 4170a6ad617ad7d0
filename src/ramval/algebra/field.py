"""Finite field contexts F_q, q = p^m.

Every element is one non-negative int: its polynomial-basis coefficients
(low degree first, each in 0..p-1) sit in fixed-width bit slots, so over a
prime field an element is just its residue.  The integer product of two
elements holds their unreduced coefficient convolution (Kronecker
substitution), and so does a sum of such products while no slot overflows.
``Fq.fold`` is the one reduction from such a raw int back to an element;
every field operation is written once on top of it.  The slot width leaves
room for ``Fq.capacity`` summed products; the polynomial kernels call
``Fq.check_capacity`` before they fold, so a sum that could overflow raises.
"""

from __future__ import annotations

from functools import partial
from itertools import product


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


def find_irreducible(p: int, m: int) -> list[int]:
    """A monic irreducible polynomial of degree m over F_p (low degree first):
    the first with a nonzero constant term that no monic polynomial of
    degree 1 .. m/2 divides."""
    for tail in product(range(p), repeat=m):
        cand = list(tail) + [1]
        if cand[0] and not any(_poly_mod(cand, list(div) + [1], p) == [0]
                               for d in range(1, m // 2 + 1)
                               for div in product(range(p), repeat=d)):
            return cand
    raise ArithmeticError(f"no irreducible polynomial of degree {m} over F_{p}")


# Products of two elements a raw slot can hold summed, with room to spare
# for the reduction; far more than any polynomial here has terms.
CAPACITY = 1 << 20
# Entries a memo keeps before it starts over.
MEMO_LIMIT = 1 << 12


class _Memo(dict):
    """x -> fn(x), computed on a miss; cleared when full, so it stays small."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, x):
        if len(self) >= MEMO_LIMIT:
            self.clear()
        out = self[x] = self.fn(x)
        return out


def _reducer(high: tuple, shifts: tuple, mask: int, p: int):
    """``Fq.fold`` without the memo: fold the high slots of a raw product
    into the low m (``high``, top first), then reduce each slot mod p."""

    def reduce(raw: int):
        for shift, below, row in high:
            raw = (raw & below) + (raw >> shift) * row
        return sum((raw >> s & mask) % p << s for s in shifts)

    return reduce


def _indexer(shifts: tuple, p: int):
    """``Fq.of_index`` without the memo: element number n, 0 <= n < q, the
    base-p digits of n, low first, as polynomial-basis coefficients (n
    itself over a prime field)."""

    def index(n: int):
        return sum(n // p**k % p << s for k, s in enumerate(shifts))

    return index


def _power(fold, a, e: int):
    """a^e for e >= 0 by squaring, each product reduced by ``fold``: the
    body of ``Fq.pow_`` and, with e = p, of the Frobenius ``Fq.frob``."""
    result = 1
    while e:
        if e & 1:
            result = fold(result * a)
        a = fold(a * a)
        e >>= 1
    return result


class Fq:
    """Arithmetic context for F_q with q = p^m.  ``fold``, ``of_index`` and
    the p-power Frobenius ``frob`` are memoised bound lookups."""

    capacity = CAPACITY

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = None if m == 1 else find_irreducible(p, m)
        self.zero = 0
        self.one = 1
        # A raw slot holds at most `capacity` products of m (p-1)^2 each, plus
        # one element; reducing the m - 1 high slots multiplies that by at
        # most 1 + (m-1)(p-1).  The width holds the result.
        raw_slot = self.capacity * m * (p - 1) ** 2 + p - 1
        w = (raw_slot * (1 + (m - 1) * (p - 1))).bit_length()
        self._mask = (1 << w) - 1
        self._shifts = tuple(range(0, w * m, w))
        # (shift, mask below it, t^k mod the modulus) for the slots
        # k = 2m-2 .. m of a raw product, top first: each folds its slot (and
        # whatever is above it) into the slots below m
        self._high = tuple(
            (w * k, (1 << w * k) - 1, self._pack(_poly_mod([0] * k + [1], self.modulus, p)))
            for k in range(2 * m - 2, m - 1, -1))
        # the memos close over plain data, never over the field, so a field
        # and its memos are freed by reference counting
        self.fold = _Memo(_reducer(self._high, self._shifts, self._mask, p)).__getitem__
        self.of_index = _Memo(_indexer(self._shifts, p)).__getitem__
        self.frob = _Memo(partial(_power, self.fold, e=p)).__getitem__

    def __repr__(self):
        return f"Fq({self.p})" if self.m == 1 else f"Fq({self.p}, {self.m})"

    def __eq__(self, other):
        return isinstance(other, Fq) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    # -- packing --------------------------------------------------------------

    def _pack(self, coeffs) -> int:
        """The int with polynomial-basis coefficients ``coeffs``, low first."""
        return sum(c << s for c, s in zip(coeffs, self._shifts))

    def coeffs(self, a) -> list[int]:
        """The polynomial-basis coefficients of an element, low degree first."""
        return [(a >> s) & self._mask for s in self._shifts]

    def check_capacity(self, n: int) -> None:
        """Raise OverflowError unless a raw slot can hold n summed products."""
        if n > self.capacity:
            raise OverflowError(f"{n} summed products exceed the slot capacity of {self!r}")

    # -- elements -------------------------------------------------------------

    def of_int(self, n: int):
        return n % self.p

    def elements(self):
        return [self._pack(t) for t in product(range(self.p), repeat=len(self._shifts))]

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        return self.fold(a + b)

    def neg(self, a):
        return self.fold((self.p - 1) * a)

    def mul(self, a, b):
        return self.fold(a * b)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0")
        return self.pow_(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e: int):
        """a^e for a reduced element a; e < 0 needs a nonzero a.  A nonzero
        a has a^(q-1) = 1, so an exponent e >= q is first reduced to
        (e - 1) mod (q - 1) + 1, which is positive."""
        if e < 0:
            return self.pow_(self.inv(a), -e)
        if a and e >= self.q:
            e = (e - 1) % (self.q - 1) + 1
        return _power(self.fold, a, e)

    def to_str(self, a) -> str:
        """An element of the prime subfield F_p (one with only its slot 0
        set) as the integer the polynomial grammar reads; any other element
        as its coefficient tuple, low degree first, which the grammar has
        no syntax for."""
        if a < self.p:
            return str(a)
        return "(" + ",".join(map(str, self.coeffs(a))) + ")"
