import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

from ramval.algebra import (
    Fq,
    IndeterminateOrder,
    LocalElem,
    NotMonic,
    ParseError,
    Poly2,
    parse_poly,
)
from ramval.algebra import poly as poly_module
from ramval.algebra.field import MEMO_LIMIT, _power, is_prime
from ramval.transforms import _bottom_row

F2 = Fq(2)
F3 = Fq(3)
F5 = Fq(5)
F4 = Fq(2, 2)
F9 = Fq(3, 2)
FIELDS = (F2, F3, F5, F4, F9)
GAP = 3**10


def random_elem(field, rng):
    return field.elements()[rng.randrange(field.q)]


def random_poly(field, rng, max_deg=8, max_terms=8):
    out = Poly2.zero(field)
    for _ in range(rng.randint(1, max_terms)):
        c = random_elem(field, rng)
        out = out + Poly2.monomial(field, rng.randint(0, max_deg), rng.randint(0, max_deg), c)
    return out


def random_monic(field, rng, deg, max_xdeg=4):
    out = Poly2.monomial(field, 0, deg)
    for j in range(deg):
        c = random_elem(field, rng)
        out = out + Poly2.monomial(field, rng.randint(0, max_xdeg), j, c)
    return out


def random_sparse(field, rng, y_degrees, max_xdeg=4):
    """One term of random x-degree and nonzero coefficient at each y-degree."""
    out = Poly2.zero(field)
    nonzero = field.elements()[1:]
    for j in y_degrees:
        out = out + Poly2.monomial(field, rng.randint(0, max_xdeg), j, rng.choice(nonzero))
    return out


def reference_field_mul(field, a, b):
    """Schoolbook product of the coefficient lists reduced by long division
    by the modulus, independent of ``Fq.fold``."""
    p, m = field.p, field.m
    if m == 1:
        return a * b % p
    prod = [0] * (2 * m - 1)
    for i, u in enumerate(field.coeffs(a)):
        for j, w in enumerate(field.coeffs(b)):
            prod[i + j] += u * w
    mod = field.modulus
    for k in range(len(prod) - 1, m - 1, -1):
        lead = prod[k]
        for i, c in enumerate(mod):
            prod[k - m + i] -= lead * c
    return field.of_index(sum(c % p * p**s for s, c in enumerate(prod[:m])))


def reference_mul(f, g):
    """Term-by-term product with every coefficient reduced at once."""
    field = f.field
    out = {}
    for (i1, j1), c1 in f.terms.items():
        for (i2, j2), c2 in g.terms.items():
            e = (i1 + i2, j1 + j2)
            s = field.add(out.get(e, field.zero), reference_field_mul(field, c1, c2))
            if s == field.zero:
                out.pop(e, None)
            else:
                out[e] = s
    return Poly2(field, out)


# -- field contexts -----------------------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_field_axioms_spot(p, m):
    fld = Fq(p, m)
    elems = fld.elements()
    for a in elems:
        assert fld.add(a, fld.zero) == a
        assert fld.mul(a, fld.one) == a
        if a != fld.zero:
            assert fld.mul(a, fld.inv(a)) == fld.one
    # commutativity and distributivity on a sample
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_field_mul_matches_reference(p, m):
    fld = Fq(p, m)
    elems = fld.elements()
    for a in elems:
        for b in elems:
            assert fld.mul(a, b) == reference_field_mul(fld, a, b)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_field_matches_galoistools(p, m):
    # F_4, F_8, F_9, F_25, F_27 against sympy's dense F_p[t] arithmetic
    # (coefficient lists high degree first)
    fld = Fq(p, m)
    mod = fld.modulus[::-1]
    assert gf_irreducible_p(mod, p, ZZ)

    def dense(a):
        return [ZZ(c) for c in fld.coeffs(a)[::-1]]

    def element(poly):
        low = [int(c) % p for c in poly[::-1]]
        return fld.of_index(sum(c * p**k for k, c in enumerate(low)))

    elems = fld.elements()
    for a in elems:
        for b in elems:
            assert fld.mul(a, b) == element(gf_rem(gf_mul(dense(a), dense(b), p, ZZ), mod, p, ZZ))
        if a:
            assert gf_rem(gf_mul(dense(a), dense(fld.inv(a)), p, ZZ), mod, p, ZZ) == [1]


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 3)])
def test_fold_holds_capacity_sums(p, m):
    # the largest raw slot a kernel may form: capacity products of the
    # element with every coefficient p - 1 by itself, plus one element
    fld = Fq(p, m)
    top = fld.of_index(fld.q - 1)
    raw = fld.capacity * top * top + top
    assert fld.fold(raw) == fld.add(fld.mul(fld.of_int(fld.capacity), fld.mul(top, top)), top)


def test_sums_past_capacity_raise():
    fld = Fq(3, 2)
    fld.capacity = 2
    f = Poly2.one(fld) + Poly2.x(fld) + Poly2.y(fld)
    with pytest.raises(OverflowError):
        f * f
    with pytest.raises(OverflowError):
        Poly2.y(fld).divrem_y(f)
    assert (f * Poly2.x(fld)).x_order() == 1  # a one-term factor still fits
    assert f.scale(fld.one) == f
    fld.capacity = 0
    with pytest.raises(OverflowError):
        f.scale(fld.one)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_pow_reduces_large_exponents(p, m):
    # pow_ against repeated mul for e in 0..3q, and at huge exponents
    # (multiples of q - 1, their neighbours, 538084) against square and
    # multiply on the unreduced exponent; every element, 0 included
    fld = Fq(p, m)
    q = fld.q
    huge = [k * (q - 1) + d for k in (q, 10**6, 3**20) for d in (-1, 0, 1)] + [538084]
    for a in fld.elements():
        power = fld.one
        for e in range(3 * q + 1):
            assert fld.pow_(a, e) == power, (a, e)
            power = fld.mul(power, a)
        for e in huge:
            assert fld.pow_(a, e) == _power(fld.fold, a, e), (a, e)


def test_frobenius_fixes_prime_field():
    fld = Fq(3, 2)
    for a in fld.elements():
        # x -> x^(p^m) is the identity on F_q
        b = a
        for _ in range(fld.m):
            b = fld.frob(b)
        assert b == a
        const = {(0, 0): a}
        assert poly_module._twist(fld, const, fld.m, None) == const
        # one twist, the p-th power, fixes exactly the prime field
        assert (poly_module._twist(fld, const, 1, None) == const) == (a < fld.p)


def _digits(n, p, m):
    return [n // p**k % p for k in range(m)]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_of_index_is_base_p_digits(p, m):
    fld = Fq(p, m)
    for _ in range(2):  # computed, then read from the memo
        assert [fld.coeffs(fld.of_index(n)) for n in range(fld.q)] == [
            _digits(n, p, m) for n in range(fld.q)]


def test_of_index_right_across_a_memo_clear():
    # F_2^13 has more elements than the memo keeps, so the memo starts over
    # at element MEMO_LIMIT, and again on the second pass
    fld = Fq(2, 13)
    assert fld.q > MEMO_LIMIT
    for n in [*range(fld.q), *range(fld.q - 1, -1, -3)]:
        assert fld.coeffs(fld.of_index(n)) == _digits(n, 2, 13)


# -- polynomial arithmetic ----------------------------------------------------


def test_poly_add_trivial():
    assert Poly2.x(F2) + Poly2.y(F2) == parse_poly("x + y", F2)


def test_poly_square_char2():
    v = parse_poly("y^2 - x*y", F2)  # y^p - x^c y with p=2, c=1
    assert v * v == parse_poly("y^4 + x^2*y^2", F2)


def test_poly_mul_zero():
    f = parse_poly("y^3 + x", F3)
    assert (f * Poly2.zero(F3)).is_zero()


def test_mul_by_exactly_one_forms_no_product(monkeypatch):
    # either factor exactly 1: the other factor modulo x^prec, with no term
    # pair summed; a constant other than 1, or 1 plus more terms, multiplies
    products = []
    real = poly_module._add_product

    def recording(acc, a, b, prec):
        products.append((len(a), len(b)))
        return real(acc, a, b, prec)

    monkeypatch.setattr(poly_module, "_add_product", recording)
    for fld in (F2, F3, F4, F9):
        one = Poly2.one(fld)
        f = parse_poly("1 + x + y^2 + x^3*y + x^5", fld)
        for prec in (None, 0, 1, 3, 6):
            expected = Poly2(fld, {e: c for e, c in f.terms.items() if prec is None or e[0] < prec})
            assert one.__mul__(f, prec) == expected and f.__mul__(one, prec) == expected
            assert one.__mul__(one, prec) == one.truncate(prec)
        assert one * f is f and f * one is f
        assert products == []
        if fld.p > 2:
            assert f * Poly2.const(fld, fld.of_int(2)) == f.scale(fld.of_int(2))
        assert f * (one + Poly2.x(fld)) == f + f.shift(1)
        assert products
        products.clear()


def test_pow_matches_repeated_mul():
    # over F_2 to F_9 exponents up to 30 have digits >= 2 and two to five
    # base-p digits, so every Frobenius twist and digit product is exercised
    rng = random.Random(5)
    for fld in FIELDS:
        for _ in range(30):
            f = random_poly(fld, rng, max_deg=4, max_terms=4)
            g = random_poly(fld, rng, max_deg=4, max_terms=4)
            acc = Poly2.one(fld)
            for e in range(31):
                assert f**e == acc
                assert g.times_pow(f, e) == g * acc
                acc = acc * f


def test_times_pow_edge_cases():
    rng = random.Random(7)
    for fld in FIELDS:
        p = fld.p
        f = random_poly(fld, rng, max_deg=4, max_terms=4)
        # modulo x^0 = 1 every power is 0, the 0th included
        assert pow(f, 0, 0).is_zero() and pow(Poly2.zero(fld), 0, 0).is_zero()
        with pytest.raises(ArithmeticError):
            f.times_pow(f, -1)
        with pytest.raises(ArithmeticError):
            pow(f, -1, 3)
        # w = 1 - x^(p-1) is 1 modulo x^prec for prec <= p - 1, not 1
        w = Poly2.one(fld) - Poly2.monomial(fld, p - 1, 0)
        for prec in range(1, p):
            g = f.truncate(prec)
            for k in (1, p - 1, p, 2 * p + 1):
                assert g.times_pow(w, k, prec) is g


def test_times_pow_of_w_is_two_term_products(monkeypatch):
    # f * w^k, w = 1 - x^(p-1): the twist w^(p^i) = 1 - x^((p-1) p^i) has two
    # terms, so digit d_i of k costs d_i products of f's size times 2, and none
    # once (p-1) p^i >= prec; forming w^k whole would multiply f by up to
    # prec / (p-1) terms instead.  Each product is one ``_add_product`` of the
    # running terms with the twist
    products = []
    real = poly_module._add_product

    def counting(acc, a, b, prec):
        products.append(len(b))
        return real(acc, a, b, prec)

    monkeypatch.setattr(poly_module, "_add_product", counting)
    rng = random.Random(13)
    for fld in FIELDS:
        p = fld.p
        w = Poly2.one(fld) - Poly2.monomial(fld, p - 1, 0)
        f = Poly2.one(fld) + random_poly(fld, rng, max_deg=3, max_terms=5).shift(1)
        for prec in (None, 1, p - 1, p, 2 * p, p**2, 40):
            for k in range(60):
                expected, n, step = 0, k, p - 1
                while n and (prec is None or step < prec):
                    expected += n % p
                    n, step = n // p, step * p
                products.clear()
                out = f.truncate(prec).times_pow(w, k, prec)
                assert products == [2] * expected, (fld, prec, k)
                monkeypatch.setattr(poly_module, "_add_product", real)
                assert out == (f * w**k).truncate(prec)
                monkeypatch.setattr(poly_module, "_add_product", counting)
            if prec is not None:
                # x^k with k >= prec is 0 modulo x^prec before any product
                products.clear()
                assert f.times_pow(Poly2.x(fld), prec, prec).is_zero() and products == []


def test_times_pow_forms_only_the_products_and_twists_it_needs(monkeypatch):
    # a one-term base is raised in one step, with no product and no twist; a
    # two-term base to d p^k costs one twist base^(p^k), however long the
    # run of k zero digits below d, and d products with it; p^k + 1 costs
    # one product on each side of that twist.  A product is one
    # ``_add_product``, a twist one ``_twist``
    calls = []
    add_product, twist = poly_module._add_product, poly_module._twist

    def counting_mul(*args):
        calls.append("mul")
        return add_product(*args)

    def counting_twist(*args):
        calls.append("twist")
        return twist(*args)

    monkeypatch.setattr(poly_module, "_add_product", counting_mul)
    monkeypatch.setattr(poly_module, "_twist", counting_twist)
    for fld in FIELDS:
        p = fld.p
        t = fld.of_index(fld.q - 1)  # outside F_p over F_4 and F_9
        f = Poly2.one(fld) + Poly2.monomial(fld, 1, 2, t)
        mono = Poly2.monomial(fld, 0, 1, t)
        binom = Poly2.x(fld) + Poly2.monomial(fld, 0, 1, t)
        for k in range(1, 7):
            for prec in (None, p**k + 1):
                for d in range(1, p):
                    calls.clear()
                    f.times_pow(mono, d * p**k, prec)
                    f.times_pow(binom, d * p**k, prec)
                    assert calls == ["twist"] + ["mul"] * d, (fld, k, d, prec)
                calls.clear()
                f.times_pow(binom, p**k + 1, prec)
                assert calls == ["mul", "twist", "mul"], (fld, k, prec)


def test_frobenius_additive():
    rng = random.Random(11)

    def twist(f):
        return Poly2(f.field, poly_module._twist(f.field, f.terms, 1, None))

    for fld in (F2, F3, F4, F9):
        p = fld.p
        for _ in range(100):
            f = random_poly(fld, rng)
            g = random_poly(fld, rng)
            assert (f + g) ** p == f**p + g**p
            assert twist(f + g) == twist(f) + twist(g) == (f + g) ** p


def test_divrem_trivial():
    q, r = parse_poly("y^3", F2).divrem_y(Poly2.y(F2))
    assert q == parse_poly("y^2", F2) and r.is_zero()


def test_divrem_key_example():
    q, r = parse_poly("y^4", F2).divrem_y(parse_poly("y^4 - x", F2))
    assert q == Poly2.one(F2) and r == Poly2.x(F2)


def test_divrem_degree_too_small():
    q, r = parse_poly("x^5", F2).divrem_y(Poly2.y(F2))
    assert q.is_zero() and r == parse_poly("x^5", F2)


def test_divrem_requires_monic():
    for g in ("x*y + 1", "y^2 + x*y^2", "1"):
        with pytest.raises(NotMonic):
            parse_poly("y^2", F2).divrem_y(parse_poly(g, F2))


def test_divrem_roundtrip_random():
    rng = random.Random(17)
    for fld in FIELDS:
        for _ in range(500):
            f = random_poly(fld, rng, max_deg=8)
            g = random_monic(fld, rng, rng.randint(1, 4))
            q, r = f.divrem_y(g)
            assert q * g + r == f
            assert r.deg_y() < g.deg_y()


def test_divrem_roundtrip_sparse_gaps():
    # tower-key shapes: y-degrees far apart, so almost every degree is empty
    rng = random.Random(19)
    for fld in FIELDS:
        for _ in range(40):
            dg = GAP * rng.randint(1, 3)
            g = random_sparse(fld, rng, range(0, dg, GAP)) + Poly2.monomial(fld, 0, dg)
            f = random_sparse(fld, rng, rng.sample(range(0, 7 * GAP, GAP), rng.randint(1, 6)))
            q, r = f.divrem_y(g)
            assert q * g + r == f
            assert r.deg_y() < dg
            assert all(j % GAP == 0 for _, j in q.terms) and all(j % GAP == 0 for _, j in r.terms)


def test_mul_matches_reference():
    rng = random.Random(29)
    for fld in FIELDS:
        for _ in range(150):
            f = random_poly(fld, rng, max_deg=6)
            g = random_poly(fld, rng, max_deg=6)
            assert f * g == reference_mul(f, g)
            assert f * g == g * f
        for _ in range(20):
            f = random_sparse(fld, rng, rng.sample(range(0, 9 * GAP, GAP), 4))
            g = random_sparse(fld, rng, rng.sample(range(0, 9 * GAP, GAP), 4))
            assert f * g == reference_mul(f, g)
    # dense over F_9: 144 terms each, so the central exponents sum 100 to 144
    # raw products before their one fold
    f = Poly2(F9, {(i, j): random_elem(F9, rng) or F9.one for i in range(12) for j in range(12)})
    g = Poly2(F9, {(i, j): random_elem(F9, rng) or F9.one for i in range(12) for j in range(12)})
    assert f * g == reference_mul(f, g)


def test_monomial_and_scale_take_elements():
    # an F_4 element is an int; monomial and scale must not read it mod p
    t = F4.of_index(2)  # the generator t, with t^2 = t + 1
    assert Poly2.monomial(F4, 1, 2, t).terms == {(1, 2): t}
    assert F4.to_str(Poly2.monomial(F4, 1, 2, t).terms[(1, 2)]) == "(0,1)"
    assert Poly2.x(F4).scale(t) == Poly2.monomial(F4, 1, 0, t)
    assert Poly2.monomial(F4, 0, 1, t).scale(t) == Poly2.monomial(F4, 0, 1, F4.add(t, F4.one))
    assert Poly2.const(F4, t).scale(F4.zero).is_zero()


def test_x_order_examples():
    assert parse_poly("x^3*y + x^5", F2).x_order() == 3
    assert parse_poly("y^2 - x*y", F2).x_order() == 0
    with pytest.raises(IndeterminateOrder):
        Poly2.zero(F2).x_order()


def test_x_order_additive():
    rng = random.Random(29)
    for _ in range(200):
        f = random_poly(F3, rng)
        g = random_poly(F3, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).x_order() == f.x_order() + g.x_order()


def test_y_order_mod_x_examples():
    # the y-order mod x is the bottom row's y-order at x-order 0
    assert _bottom_row(LocalElem(parse_poly("y^2 - x*y", F2)))[:2] == (0, 2)
    assert _bottom_row(LocalElem(parse_poly("1 + y", F2)))[:2] == (0, 0)
    # middle-chart second parameter rewritten in the top chart, p=2, c=1
    v = parse_poly("y^2 - x*y", F2)
    u2 = v * v - Poly2.x(F2)
    assert _bottom_row(LocalElem(u2))[:2] == (0, 4)
    # a unit denominator whose restriction has y-order 0 leaves it alone
    assert _bottom_row(LocalElem(u2, parse_poly("1 + y + x", F2)))[:2] == (0, 4)
    # an x-divisible element has no y-order mod x; its bottom row is at x^1
    assert _bottom_row(LocalElem(parse_poly("x*y", F2)))[:2] == (1, 1)
    # the coefficient is the numerator's lowest one over the denominator's:
    # over F_9, w x^2 y^3 + ... over 2 + ... is (w / 2) at (2, 3)
    w = F9.of_index(3)
    num = Poly2(F9, {(2, 3): w, (2, 5): F9.one, (3, 0): F9.one, (4, 1): w})
    den = Poly2(F9, {(0, 0): F9.of_int(2), (0, 1): w, (1, 0): F9.one})
    assert _bottom_row(LocalElem(num, den)) == (2, 3, F9.div(w, F9.of_int(2)))
    assert F9.div(w, F9.of_int(2)) not in (F9.one, w)
    with pytest.raises(IndeterminateOrder):
        _bottom_row(LocalElem(Poly2.zero(F2)))


def test_local_elem_arithmetic():
    # u = x^2 / (1 - x) over F2
    u = LocalElem(parse_poly("x^2", F2), parse_poly("1 - x", F2))
    assert u.x_order() == 2
    sq = u * u
    assert sq.x_order() == 4
    assert (u - u).is_zero()


def test_local_elem_compose_keeps_unit_denominator():
    u = LocalElem(parse_poly("x^2", F3), parse_poly("1 - x", F3))
    sub_x = parse_poly("x^3", F3) * parse_poly("y + 1", F3)
    sub_y = LocalElem(Poly2.x(F3))
    img = u.compose(sub_x, sub_y)
    assert img.x_order() == 6
    assert img.den.is_unit()
    # the padding by powers of sub_y's denominator, exact and modulo x^3:
    # a zero numerator over a non-constant denominator, then pairs whose
    # numerator, and whose denominator, has the higher y-degree
    sub_y = LocalElem(parse_poly("x + x^2", F3), parse_poly("1 + x", F3))
    for num, den in (("0", "1 + x*y^2"), ("x + x*y + y^3", "1 + x*y"),
                     ("x*y + y^2", "1 + y + x*y^4")):
        elem = LocalElem(parse_poly(num, F3), parse_poly(den, F3))
        oracle = (_oracle_compose(elem.num, sub_x, sub_y)
                  * _oracle_compose(elem.den, sub_x, sub_y).invert())
        img = elem.compose(sub_x, sub_y)
        assert img.den.is_unit() and img == oracle, num
        assert img.is_zero() == (num == "0"), num
        truncated = elem.compose(sub_x, sub_y, 3)
        assert all(i < 3 for i, _ in truncated.num.terms), num
        assert _congruent(truncated, oracle, 3), num


def test_parse_error_position():
    # errors point at the offending character or token, not at the blanks
    # before it; the grammar has no parentheses
    for text, message, pos in (
        ("y^2 + $", "unexpected character '$'", 6),
        ("x % y", "unexpected character '%'", 2),
        ("(x+y)", "unexpected character '('", 0),
        ("x +  ", "dangling operator", 2),
        ("x + 2  ^3", "expected + or - between terms", 7),
        ("x +  ^2", "empty term", 5),
        ("x**2", "'*' must stand between two factors", 1),
        ("x*", "'*' must stand between two factors", 1),
        ("*x", "'*' must stand between two factors", 0),
        ("x*+y", "'*' must stand between two factors", 1),
    ):
        with pytest.raises(ParseError) as err:
            parse_poly(text, F2)
        assert err.value.pos == pos
        assert str(err.value) == f"{message} (at position {pos})"


def test_parse_aliases_and_coefficients():
    assert parse_poly("u^2 + 2*v", F3, ("u", "v")) == parse_poly("x^2 + 2*y", F3)
    assert parse_poly("3*y + 4", F3) == parse_poly("1", F3)
    assert parse_poly("y - y", F3).is_zero()


def test_to_str_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        f = random_poly(F3, rng)
        assert parse_poly(f.to_str(), F3) == f


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2)])
def test_prime_subfield_elements_print_in_the_grammar(p, m):
    # over F_4, F_9 and F_25 the elements of F_p print as integers, which
    # parse back to themselves; the others print as tuples the grammar rejects
    fld = Fq(p, m)
    x = Poly2.x(fld)
    for n in range(p):
        c = fld.of_int(n)
        assert fld.to_str(c) == str(n)
        assert parse_poly(fld.to_str(c) + "*x", fld) == x.scale(c)
    t = fld.of_index(p)  # the generator of F_q over F_p
    assert fld.to_str(t) == "(0,1)"
    with pytest.raises(ParseError):
        parse_poly(fld.to_str(t) + "*x", fld)


# -- truncation modulo x^K -----------------------------------------------------


def _poly_from(field, terms):
    return Poly2(field, {e: field.of_index(n) for e, n in terms.items()})


def _polys(field, min_x=0, max_deg=5, max_size=5):
    """Random polynomials with x-exponents >= min_x, coefficients drawn from
    every nonzero element of the field."""
    exps = st.tuples(st.integers(min_x, max_deg), st.integers(0, max_deg))
    return st.dictionaries(exps, st.integers(1, field.q - 1), max_size=max_size).map(
        lambda terms: _poly_from(field, terms))


def _congruent(a: LocalElem, b: LocalElem, prec: int) -> bool:
    """a == b modulo x^prec, for pairs with unit denominators."""
    return (a.num * b.den - b.num * a.den).truncate(prec).is_zero()


@st.composite
def _compose_case(draw):
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    elem = LocalElem(draw(_polys(field)), Poly2.one(field) + draw(_polys(field, min_x=1)))
    # a chart-map shape: x -> r x^n (y + 1), y -> (x - B) / A with B(0) = 0, A(0) != 0
    n = draw(st.integers(1, 3))
    r = field.of_index(draw(st.integers(1, field.q - 1)))
    sub_x = (Poly2.x(field) ** n * (Poly2.y(field) + Poly2.one(field))).scale(r)
    sub_y = LocalElem(Poly2.x(field) - draw(_polys(field, min_x=1, max_size=3)),
                      Poly2.one(field) + draw(_polys(field, min_x=1, max_size=3)))
    return elem, sub_x, sub_y, draw(st.integers(1, 12))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_compose_case())
def test_truncated_compose_matches_exact(case):
    elem, sub_x, sub_y, prec = case
    truncated = elem.compose(sub_x, sub_y, prec)
    assert all(i < prec for i, _ in truncated.num.terms)
    assert _congruent(truncated, elem.compose(sub_x, sub_y), prec)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from((F2, F3, F4, F9)).flatmap(
    lambda fld: st.tuples(_polys(fld), _polys(fld), st.integers(0, 30), st.integers(1, 12))))
def test_truncated_mul_and_pow_match_exact(case):
    f, g, e, prec = case
    assert f.__mul__(g, prec) == (f * g).truncate(prec)
    assert pow(f, e, prec) == (f**e).truncate(prec)


@st.composite
def _times_pow_case(draw):
    """(f, base, e, prec) for ``times_pow``: a one-term base at any
    precision; a base c y^j + x h (or 1 + x h) at a small precision, so
    that every truncated power stays small; or a base of at most two terms
    exactly.  e is p^k, d p^k or p^k + 1 (k <= 6, or k <= 3 exactly), or
    any e <= 30."""
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    p = field.p
    unit = st.integers(1, field.q - 1).map(field.of_index)
    kind = draw(st.sampled_from(("monomial", "unit lead", "exact")))
    k, d = draw(st.integers(0, 3 if kind == "exact" else 6)), draw(st.integers(1, p - 1))
    e = draw(st.sampled_from((p**k, d * p**k, p**k + 1, draw(st.integers(0, 30)))))
    if kind == "monomial":
        base = Poly2.monomial(field, draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(unit))
        prec = draw(st.sampled_from((None, *range(1, 9))))
    elif kind == "unit lead":
        # 1 + x h becomes 1 modulo x^prec at a twist past the first
        lead = Poly2.one(field) if draw(st.booleans()) else Poly2.monomial(
            field, 0, draw(st.integers(0, 2)), draw(unit))
        base = lead + draw(_polys(field, min_x=1, max_deg=3, max_size=2))
        prec = draw(st.integers(1, 5))
    else:
        base, prec = draw(_polys(field, max_deg=3, max_size=2)), None
    return draw(_polys(field, max_deg=3, max_size=4)).truncate(prec), base, e, prec


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_times_pow_case())
def test_times_pow_matches_repeated_truncated_products(case):
    # the one-step monomial power and the jumps over zero digits against e
    # truncated products, over F_2, F_3, F_4 and F_9
    f, base, e, prec = case
    expected = f
    for _ in range(e):
        expected = expected.__mul__(base, prec)
    assert f.times_pow(base, e, prec) == expected


def test_fq_one_is_the_int_1():
    # the power kernel and products test term dicts against the module
    # constant {(0, 0): 1}, so the unit of every field must be the int 1: all
    # p <= 31 and q = p^m <= 2^13, which covers every field the tests and the
    # CLI commands build
    for p in filter(is_prime, range(32)):
        m = 1
        while p**m <= 2**13:
            assert Fq(p, m).one == 1
            m += 1
    assert poly_module._ONE == Poly2.one(F9).terms


@st.composite
def _kernel_case(draw):
    """(f, g, base, e, prec) over F_2, F_3, F_4 or F_9, prec None or 0..6.
    base is drawn (at most three terms), one term, or 1 modulo x^prec
    (exactly 1 when prec is None); g is drawn, f itself, or f plus terms at
    x^prec and above, so that f - g can vanish; e is 0..10 or p^k."""
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    prec = draw(st.sampled_from((None, *range(7))))
    one, low = Poly2.one(field), prec or 0
    f = draw(_polys(field, max_deg=3, max_size=4))
    kind = draw(st.sampled_from(("drawn", "monomial", "unit")))
    if kind == "drawn":
        base = draw(_polys(field, max_deg=3, max_size=3))
    elif kind == "monomial":
        base = draw(_monomials(field))
    else:
        base = one if prec is None else one + draw(_polys(field, max_deg=2, max_size=2)).shift(low)
    g = draw(st.sampled_from((draw(_polys(field, max_deg=3, max_size=4)), f,
                              f + draw(_polys(field, max_deg=2, max_size=2)).shift(low))))
    p = field.p
    e = draw(st.one_of(st.integers(0, 10), st.sampled_from((p, p**2, p**3))))
    return f, g, base, e, prec


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_kernel_case())
def test_power_kernel_and_difference_match_naive_references(case):
    # times_pow and ** against e exact products truncated afterwards, the
    # one-pass difference against a sum with the negation, and the twist
    # against p exact products; times_pow shares self for e = 0 and for a
    # base that is 1 modulo x^prec
    f, g, base, e, prec = case
    power = Poly2.one(f.field)
    for _ in range(e):
        power = power * base
    start = f.truncate(prec)
    out = start.times_pow(base, e, prec)
    assert out == (f * power).truncate(prec)
    assert pow(base, e, prec) == power.truncate(prec)
    assert f.__sub__(g, prec) == (f + -g).truncate(prec)
    twist = Poly2.one(f.field)
    for _ in range(f.field.p):
        twist = twist * base
    assert poly_module._twist(f.field, base.terms, 1, prec) == twist.truncate(prec).terms
    if not e or base.truncate(prec) == Poly2.one(f.field):
        assert out is start


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from((F2, F3, F4, F9)).flatmap(
    lambda fld: st.tuples(_polys(fld), _polys(fld), _polys(fld), st.integers(0, 30),
                          st.integers(1, 12))))
def test_truncated_local_mul_and_pow_match_exact(case):
    # a pair times a pair, and a power, modulo x^K: both parts are the exact
    # ones truncated, and a unit's negative power is its inverse's power
    f, g, h, e, prec = case
    one = Poly2.one(f.field)
    a, b = LocalElem(f, one + g.shift(1)), LocalElem(h, one + f.shift(2))

    def parts(elem):
        return elem.num, elem.den

    assert parts(a.__mul__(b, prec)) == parts((a * b).truncate(prec))
    assert parts(pow(a, e, prec)) == parts((a**e).truncate(prec))
    unit = LocalElem(one + h.shift(1), one + g.shift(1))
    assert parts(pow(unit, -e, prec)) == parts((unit.invert() ** e).truncate(prec))


def _outcome(op):
    """The parts of op()'s result, or the type of the error it raises."""
    try:
        out = op()
    except ArithmeticError as ex:
        return type(ex)
    return (out.num, out.den) if isinstance(out, LocalElem) else out


@st.composite
def _protocol_case(draw):
    """(f, g, e, prec): two polynomials or two pairs with unit denominators,
    an exponent and a precision in {None, 0..8}."""
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    f, g = draw(_polys(field)), draw(_polys(field))
    if draw(st.booleans()):
        f, g = LocalElem(f, draw(_unit_dens(field))), LocalElem(g, draw(_unit_dens(field)))
    return f, g, draw(st.integers(0, 12)), draw(st.sampled_from((None, *range(9))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_protocol_case())
def test_precision_protocol_is_exact_then_truncate(case):
    # each operation with prec equals the exact one followed by truncate,
    # part for part; None is exact and shares the element, and modulo x^0 a
    # pair has no unit denominator, so both sides raise
    f, g, e, prec = case
    assert f.truncate(None) is f
    for part in (f.num, f.den) if isinstance(f, LocalElem) else (f,):
        kept = {t: c for t, c in part.terms.items() if prec is None or t[0] < prec}
        assert part.truncate(prec).terms == kept
    ops = [lambda k: f.truncate(k), lambda k: f.__mul__(g, k), lambda k: f.__sub__(g, k),
           lambda k: pow(f, e, k), lambda k: pow(f, -e, k)]
    if isinstance(f, Poly2):
        # times_pow takes its first factor modulo x^prec, as every caller has it
        ops.append(lambda k: f.truncate(k).times_pow(g, e, k))
    for op in ops:
        assert _outcome(lambda: op(prec)) == _outcome(lambda: op(None).truncate(prec))


# -- substitution against a term-by-term oracle ---------------------------------


def _oracle_compose(poly: Poly2, sub_x: Poly2, sub_y: LocalElem) -> LocalElem:
    """poly(sub_x, sub_y) as the sum of c * sub_x^i * sub_y^j, one term at a
    time in LocalElem ring operations (no row grouping, no shared images)."""
    fld = poly.field
    out = LocalElem(Poly2.zero(fld))
    for (i, j), c in poly.terms.items():
        out = out + LocalElem(Poly2.const(fld, c)) * LocalElem(sub_x)**i * sub_y**j
    return out


def _gapped_polys(field):
    """Polynomials with y-rows at 0, 1, p, p^2 and p^2 + 1, so consecutive
    rows are p^k apart, and x-exponents up to 8, so that the x-images of a
    whole row can vanish modulo a small x-power."""
    p = field.p
    exps = st.tuples(st.integers(0, 8), st.sampled_from((0, 1, p, p**2, p**2 + 1)))
    return st.dictionaries(exps, st.integers(1, field.q - 1), min_size=1, max_size=6).map(
        lambda terms: _poly_from(field, terms))


def _unit_dens(field):
    """Unit denominators of three kinds: exactly 1, a constant other than 1
    (2, drawn over F_3 and F_9), or non-constant."""
    one = Poly2.one(field)
    kinds = [st.just(one),
             _polys(field, min_x=1, max_deg=2, max_size=2).filter(bool).map(lambda f: one + f)]
    if field.p > 2:
        kinds.append(st.just(Poly2.const(field, field.of_int(2))))
    return st.one_of(kinds)


def _draw_sub_x(draw, field):
    """A polynomial x-image vanishing at the origin: the chart-map shape
    r x^n (y + 1), or x times a drawn polynomial."""
    one, x = Poly2.one(field), Poly2.x(field)
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        r = field.of_index(draw(st.integers(1, field.q - 1)))
        return (x**n * (Poly2.y(field) + one)).scale(r)
    return x * (one + draw(_polys(field, max_deg=2, max_size=2)))


@st.composite
def _substitution_case(draw):
    """(poly, sub_x, sub_y, prec): sub_x from ``_draw_sub_x``; sub_y has a
    drawn unit denominator; both substitutions vanish at the origin."""
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    x = Poly2.x(field)
    sub_x = _draw_sub_x(draw, field)
    sub_y = LocalElem(x - draw(_polys(field, min_x=1, max_deg=2, max_size=2)),
                      draw(_unit_dens(field)))
    return draw(_gapped_polys(field)), sub_x, sub_y, draw(st.integers(1, 12))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_substitution_case())
def test_compose_poly_pair_matches_term_oracle(case):
    poly, sub_x, sub_y, prec = case
    fld = poly.field
    one, x = Poly2.one(fld), Poly2.x(fld)
    oracle = _oracle_compose(poly, sub_x, sub_y)
    # the kernel clears the denominator up to the y-degree of poly
    cleared = poly.compose(sub_x, sub_y.num, sub_y.den)
    assert LocalElem(cleared, sub_y.den**poly.deg_y()) == oracle
    assert LocalElem(poly).compose(sub_x, sub_y) == oracle
    truncated = LocalElem(poly).compose(sub_x, sub_y, prec)
    assert all(i < prec for i, _ in truncated.num.terms)
    assert _congruent(truncated, oracle, prec)
    # pairs whose numerator, then whose denominator, has the higher degree
    elem = LocalElem(poly, one + x)
    quotient = oracle * LocalElem(one + sub_x).invert()
    assert elem.compose(sub_x, sub_y) == quotient
    assert _congruent(elem.compose(sub_x, sub_y, prec), quotient, prec)
    elem = LocalElem(x, one + x * poly)
    quotient = LocalElem(sub_x) * (LocalElem(one) + LocalElem(sub_x) * oracle).invert()
    assert elem.compose(sub_x, sub_y) == quotient
    assert _congruent(elem.compose(sub_x, sub_y, prec), quotient, prec)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from((F2, F3, F4, F9)).flatmap(lambda fld: st.tuples(
    _gapped_polys(fld), _polys(fld, min_x=1, max_deg=3, max_size=3),
    _polys(fld, max_deg=3, max_size=3), st.integers(1, 12))))
def test_poly_compose_matches_term_oracle(case):
    # Poly2.compose without denominators, exact and modulo x^prec
    poly, sub_x, sub_y, prec = case
    oracle = _oracle_compose(poly, sub_x, LocalElem(sub_y)).as_poly()
    assert poly.compose(sub_x, sub_y) == oracle
    assert poly.compose(sub_x, sub_y, prec=prec) == oracle.truncate(prec)


@st.composite
def _kernel_compose_case(draw):
    """(poly, sub_x, sub_y, y_den, prec): sub_y drawn or one term, y_den
    None, a nonzero constant or 1 + x h, and prec None or 0..8."""
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    poly = draw(st.one_of(_gapped_polys(field), _polys(field, max_deg=3, max_size=4)))
    sub_y = draw(st.one_of(_polys(field, max_deg=3, max_size=3), _monomials(field)))
    nonzero = st.integers(1, field.q - 1).map(field.of_index)
    y_den = draw(st.one_of(st.none(), nonzero.map(lambda c: Poly2.const(field, c)),
                           _unit_dens(field)))
    return poly, _draw_sub_x(draw, field), sub_y, y_den, draw(st.sampled_from((None, *range(9))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_kernel_compose_case())
def test_compose_images_from_the_power_kernel_match_term_oracle(case):
    # every x- and y-image comes from the dict power kernel: exact against
    # the term oracle, and modulo x^prec (0 included) the exact result
    # truncated
    poly, sub_x, sub_y, y_den, prec = case
    oracle = _oracle_compose(poly, sub_x, LocalElem(sub_y) if y_den is None else LocalElem(sub_y, y_den))
    exact = poly.compose(sub_x, sub_y, y_den)
    if y_den is None:
        assert exact == oracle.as_poly()
    else:
        # 0 has y-degree -1 and clears no denominator
        assert LocalElem(exact, y_den ** max(poly.deg_y(), 0)) == oracle
    assert poly.compose(sub_x, sub_y, y_den, prec) == exact.truncate(prec)


def test_compose_builds_images_without_pow(monkeypatch):
    # compose forms its x- and y-images on one 1 through times_pow, so no
    # Poly2.__pow__ runs, not even for the x^0 term of a row or for row 0,
    # exactly, modulo x^prec or with a y-denominator
    powers = []
    real_pow = Poly2.__pow__

    def recording(self, e, prec=None):
        powers.append(e)
        return real_pow(self, e, prec)

    for fld in (F2, F3, F9):
        x, y, one = Poly2.x(fld), Poly2.y(fld), Poly2.one(fld)
        poly = parse_poly("1 + x + y + x^2*y + x*y^3 + y^4", fld)
        sub_x, sub_y = x * (y + one), x + x * y
        oracle = _oracle_compose(poly, sub_x, LocalElem(sub_y)).as_poly()
        monkeypatch.setattr(Poly2, "__pow__", recording)
        for prec in (None, 1, 3, 7):
            assert poly.compose(sub_x, sub_y, prec=prec) == oracle.truncate(prec)
            poly.compose(sub_x, sub_y, one + y, prec)
        monkeypatch.setattr(Poly2, "__pow__", real_pow)
    assert powers == []


def test_compose_accumulator_capacity(monkeypatch):
    # a cell of the result collects at most min(|x-part|, |y-image|)
    # products per row, 1 + 2 + 2 = 5 here, while a cell of a row's x-part
    # collects at most 2 (one per x-image of the row)
    fld = Fq(3, 2)
    poly = parse_poly("1 + x + y + x^2*y + x*y^2", fld)
    sub_x, sub_y = parse_poly("x + x*y", fld), parse_poly("y + x", fld)
    rows = {0: parse_poly("1 + x", fld), 1: parse_poly("1 + x^2", fld), 2: Poly2.x(fld)}
    assert sum(min(len(row.compose(sub_x, sub_y).terms), len((sub_y**j).terms))
               for j, row in rows.items()) == 5
    oracle = _oracle_compose(poly, sub_x, LocalElem(sub_y)).as_poly()
    monkeypatch.setattr(fld, "capacity", 4)
    with pytest.raises(OverflowError):
        poly.compose(sub_x, sub_y)
    monkeypatch.setattr(fld, "capacity", 5)
    assert poly.compose(sub_x, sub_y) == oracle


def test_compose_poly_pair_drops_vanishing_rows():
    # over F_3 with x -> x^3 (y + 1): modulo x^6 the x-images of x^2 and
    # beyond vanish, so the row at y^9, made of x^2 and x^5, drops whole
    for fld in (F3, F9):
        x, y, one = Poly2.x(fld), Poly2.y(fld), Poly2.one(fld)
        sub_x = x**3 * (y + one)
        sub_y = LocalElem(x + x**2, one + x)
        poly = LocalElem(parse_poly("1 + x*y + x^2*y^9 + x^5*y^9 + y^10", fld))
        oracle = _oracle_compose(poly.num, sub_x, sub_y)
        without_row = _oracle_compose(parse_poly("1 + x*y + y^10", fld), sub_x, sub_y)
        truncated = poly.compose(sub_x, sub_y, 6)
        assert _congruent(truncated, oracle, 6)
        assert _congruent(truncated, without_row, 6)
        assert poly.compose(sub_x, sub_y) == oracle


def _no_rows(terms):
    raise AssertionError("a one-term y-image grouped the terms by y-row")


@st.composite
def _one_term_case(draw):
    """(poly, sub_x, sub_y, y_den, prec): sub_y is one term a x^s y^t with
    s >= 1 and t = 0 or t >= 1, y_den a nonzero constant, exactly 1 or (over
    F_3, F_4 and F_9) another one, and sub_x from ``_draw_sub_x``."""
    field = draw(st.sampled_from((F2, F3, F4, F9)))
    sub_x = _draw_sub_x(draw, field)
    nonzero = st.integers(1, field.q - 1).map(field.of_index)
    sub_y = Poly2.monomial(field, draw(st.integers(1, 3)), draw(st.sampled_from((0, 1, 2, field.p))),
                           draw(nonzero))
    y_den = Poly2.const(field, draw(st.one_of(st.just(field.one), nonzero)))
    return draw(_gapped_polys(field)), sub_x, sub_y, y_den, draw(st.integers(1, 12))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_one_term_case())
def test_compose_one_term_y_image_matches_term_oracle(case):
    # term by term, never by y-row, exact and modulo x^prec, for a
    # polynomial and for a pair
    poly, sub_x, sub_y, y_den, prec = case
    oracle = _oracle_compose(poly, sub_x, LocalElem(sub_y, y_den))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "_rows", _no_rows)
        cleared = poly.compose(sub_x, sub_y, y_den)
        truncated = poly.compose(sub_x, sub_y, y_den, prec)
        pair = LocalElem(poly).compose(sub_x, LocalElem(sub_y, y_den), prec)
    assert LocalElem(cleared, y_den**poly.deg_y()) == oracle
    assert truncated == cleared.truncate(prec)
    assert _congruent(pair, oracle, prec)
    if y_den == Poly2.one(poly.field):
        assert poly.compose(sub_x, sub_y) == cleared == oracle.as_poly()


def _monomials(field, max_deg=3):
    """One-term polynomials c x^i y^j, c nonzero."""
    return st.builds(lambda i, j, n: Poly2.monomial(field, i, j, field.of_index(n)),
                     st.integers(0, max_deg), st.integers(0, max_deg), st.integers(1, field.q - 1))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from((F2, F3, F4, F9)).flatmap(lambda fld: st.tuples(
    _gapped_polys(fld), _polys(fld, min_x=1, max_deg=3, max_size=3), _monomials(fld),
    _monomials(fld), st.integers(1, 12))))
def test_compose_one_term_monomial_denominator(case):
    # a denominator of one term x^u y^w, not a unit, against the sum of
    # c * sub_x^i * sub_y^j * y_den^(dy - j) in Poly2 products
    poly, sub_x, sub_y, y_den, prec = case
    fld, dy = poly.field, poly.deg_y()
    oracle = Poly2.zero(fld)
    for (i, j), c in poly.terms.items():
        oracle = oracle + Poly2.const(fld, c) * sub_x**i * sub_y**j * y_den**(dy - j)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "_rows", _no_rows)
        assert poly.compose(sub_x, sub_y, y_den) == oracle
        assert poly.compose(sub_x, sub_y, y_den, prec) == oracle.truncate(prec)


def test_compose_one_term_skips_terms_past_prec(monkeypatch):
    # under x -> x (y + 1), y -> x^2 / 2, modulo x^6, x^i y^j starts at
    # x^(i + 2 j): x^5 y and x^7 are skipped before their x-images are formed
    formed = []
    real = poly_module._times_pow

    def recording(fld, terms, base, e, prec):
        formed.append(e)
        return real(fld, terms, base, e, prec)

    x, y, one = Poly2.x(F3), Poly2.y(F3), Poly2.one(F3)
    poly = parse_poly("x^2 + x^3*y + x^5*y + x^7 + y^2", F3)
    sub_x, sub_y, y_den = x * (y + one), x**2, Poly2.const(F3, F3.of_int(2))
    oracle = _oracle_compose(poly, sub_x, LocalElem(sub_y, y_den))
    monkeypatch.setattr(poly_module, "_times_pow", recording)
    truncated = poly.compose(sub_x, sub_y, y_den, 6)
    assert sorted(set(formed)) == [0, 2, 3]
    assert _congruent(LocalElem(truncated, y_den**2), oracle, 6)


def test_compose_one_term_images_collide_and_cancel():
    # y^n -> x^n and x -> x^n (y + 1) under x -> x^n (y + 1), y -> x: the
    # x^n cells cancel; under y -> a x / d, d y - a x cancels whole
    for fld in (F2, F3, F4, F9):
        x, y, one = Poly2.x(fld), Poly2.y(fld), Poly2.one(fld)
        for n in (1, 2, 3):
            f, sub_x = y**n - x, x**n * (y + one)
            assert f.compose(sub_x, x) == -(x**n * y) == f.compose(sub_x, x, prec=n + 1)
            assert f.compose(sub_x, x, prec=n).is_zero()
        a, d = fld.of_index(fld.q - 1), fld.of_index(fld.q // 2)
        f = Poly2.monomial(fld, 0, 1, d) - Poly2.monomial(fld, 1, 0, a)
        for prec in (None, 1, 2):
            assert f.compose(x, Poly2.monomial(fld, 1, 0, a), Poly2.const(fld, d), prec).is_zero()
        g = f + x**2 * y
        assert g.compose(x, Poly2.monomial(fld, 1, 0, a), Poly2.const(fld, d)) == \
            Poly2.monomial(fld, 3, 0, a)


def test_compose_one_term_capacity(monkeypatch):
    # a cell of the result collects at most one product per term of the
    # input: 6 here, while the x-images of x + x*y take at most 2 per cell
    fld = Fq(3, 2)
    poly = parse_poly("1 + x + y + x^2*y + x*y^2 + y^3", fld)
    sub_x, sub_y, y_den = parse_poly("x + x*y", fld), Poly2.x(fld), Poly2.const(fld, fld.of_int(2))
    oracle = _oracle_compose(poly, sub_x, LocalElem(sub_y, y_den))
    monkeypatch.setattr(fld, "capacity", len(poly.terms) - 1)
    with pytest.raises(OverflowError):
        poly.compose(sub_x, sub_y, y_den)
    monkeypatch.setattr(fld, "capacity", len(poly.terms))
    assert LocalElem(poly.compose(sub_x, sub_y, y_den), y_den**3) == oracle


def test_compose_of_exactly_one_forms_no_image(monkeypatch):
    # 1 has y-degree 0, so it maps to 1 modulo x^prec under any
    # substitution, with no x- or y-image formed; a constant other than 1
    # still clears the denominator like any polynomial
    calls = []
    real = poly_module._times_pow

    def recording(fld, terms, base, e, prec):
        calls.append(e)
        return real(fld, terms, base, e, prec)

    monkeypatch.setattr(poly_module, "_times_pow", recording)
    for fld in (F2, F3, F9):
        x, y, one = Poly2.x(fld), Poly2.y(fld), Poly2.one(fld)
        for sub_y, y_den in ((x, None), (x + x * y, one + x)):
            for prec in (None, 0, 1, 5):
                assert one.compose(x * (y + one), sub_y, y_den, prec) == one.truncate(prec)
        assert calls == []
    two = Poly2.const(F3, F3.of_int(2))
    assert two.compose(Poly2.x(F3), Poly2.x(F3), Poly2.one(F3) + Poly2.x(F3), 5) == two
    assert calls
