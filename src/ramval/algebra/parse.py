"""Text grammar for polynomials: terms `c*x^i*y^j` joined by `+`/`-`.

Coefficients are integers reduced mod p.  The two variables are named by the
chart: (x, y) in the top chart by default, (u, v) in the base chart and (x, v)
in the middle one; the first name is the x-slot, the second the y-slot.
"""

from __future__ import annotations

import re

from .field import Fq
from .poly import Poly2


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z])|(\^)|(\*)|(\+)|(-))")


def parse_poly(text: str, field: Fq, names: tuple[str, str] = ("x", "y")) -> Poly2:
    """Parse a polynomial over F_q in the two chart variables ``names``; any
    other variable is a ParseError."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
            break
        # (kind, text, index of its first character): kind is the group number - 1
        g = m.lastindex
        tokens.append((g - 1, m.group(g), m.start(g)))
        pos = m.end()

    result = Poly2.zero(field)
    idx = 0
    sign = 1
    expect_term = True
    while idx < len(tokens):
        kind, val, tpos = tokens[idx]
        if kind == 4:  # +
            idx += 1
            expect_term = True
            continue
        if kind == 5:  # -
            sign = -sign
            idx += 1
            expect_term = True
            continue
        if not expect_term:
            raise ParseError("expected + or - between terms", tpos)
        coeff = 1
        exps = [0, 0]
        saw_factor = False
        while idx < len(tokens):
            kind, val, tpos = tokens[idx]
            if kind == 0:  # integer
                coeff *= int(val)
                idx += 1
                saw_factor = True
            elif kind == 1:  # variable
                if val not in names:
                    raise ParseError(f"unknown variable {val!r}, expected {' or '.join(names)}",
                                     tpos)
                slot = names.index(val)
                e = 1
                idx += 1
                if idx < len(tokens) and tokens[idx][0] == 2:  # ^
                    idx += 1
                    if idx >= len(tokens) or tokens[idx][0] != 0:
                        raise ParseError("expected integer exponent after ^", tpos)
                    e = int(tokens[idx][1])
                    idx += 1
                exps[slot] += e
                saw_factor = True
            elif kind == 3:  # *
                idx += 1
            else:
                break
        if not saw_factor:
            raise ParseError("empty term", tpos)
        c = field.of_int(sign * coeff)
        result = result + Poly2.monomial(field, exps[0], exps[1], c)
        sign = 1
        expect_term = False
    if expect_term and tokens:
        raise ParseError("dangling operator", tokens[-1][2])
    return result
