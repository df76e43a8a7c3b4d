"""Exact polynomial layer: arithmetic identities, division, gcd."""

import hashlib
import random
from fractions import Fraction

import pytest

from ballcell.polys import Poly, Poly2, poly2_div_exact, poly2_gcd, poly_gcd
from oracles import div_exact_over_q, long_division_over_q


def rand_poly(rng: random.Random, deg: int, den: int = 6) -> Poly:
    return Poly({e: Fraction(rng.randint(-9, 9), rng.randint(1, den)) for e in range(deg + 1)})


def rand_poly2(rng: random.Random, deg: int) -> Poly2:
    c = {}
    for _ in range(rng.randint(1, 6)):
        c[(rng.randint(0, deg), rng.randint(0, deg))] = Fraction(rng.randint(-9, 9))
    return Poly2(c)


def test_construction_drops_zero_coefficients():
    p = Poly({0: 1, 3: 0, 5: Fraction(0)})
    assert p.degree() == 0
    assert p.coeff(3) == 0
    assert dict(p.items()) == {0: Fraction(1)}


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Poly({-1: 1})
    with pytest.raises(ValueError):
        Poly2({(0, -2): 1})


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly({0: 0.5})


def test_zero_poly_conventions():
    z = Poly.zero()
    assert z.is_zero()
    assert z.degree() == -1
    assert z.min_exponent() == -1
    assert z.leading_coeff() == 0
    assert not z


def test_basic_queries():
    p = Poly({0: 2, 1: -1})
    assert p.degree() == 1
    assert p.min_exponent() == 0
    assert p.leading_coeff() == -1
    assert p.coeff(0) == 2
    assert p == Poly.const(2) - Poly.var()
    assert Poly.var().shift(2) == Poly({3: 1})
    assert Poly({4: 3, 1: -1, 0: 5}).eval(Fraction(2)) == 3 * 16 - 2 + 5


def test_equality_against_scalars():
    assert Poly.const(3) == 3
    assert Poly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert Poly.zero() == 0
    assert Poly({1: 1}) != 1


def test_ring_identities_random():
    rng = random.Random(1101)
    draws = [
        (Poly, lambda: rand_poly(rng, rng.randint(0, 5))),
        (Poly2, lambda: rand_poly2(rng, rng.randint(0, 3))),
    ]
    for cls, draw in draws:
        for _ in range(60):
            a, b, c = draw(), draw(), draw()
            assert (a + b) * c == a * c + b * c
            assert a + b == b + a
            assert a - a == cls.zero()
            assert a * b == b * a
            assert (a * 0).is_zero()
            # arithmetic results skip the constructor's checks, so none may
            # keep a zero coefficient
            for result in (a + b, a - b, a * b, a * c - b * c, -a, a - a, a * Fraction(-3, 7)):
                assert isinstance(result, cls)
                assert all(v != 0 for _, v in result.items())


def test_division_invariant_random():
    # The reference long division over Q that the gcd and exact-division
    # tests check against.
    rng = random.Random(1102)
    for _ in range(60):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 4))
        if b.is_zero():
            continue
        q, r = (Poly(m) for m in long_division_over_q(dict(a.items()), dict(b.items())))
        assert q * b + r == a
        assert r.degree() < b.degree()


def test_exact_division_recovers_factor():
    rng = random.Random(1103)
    for _ in range(40):
        a = rand_poly(rng, rng.randint(0, 4))
        b = rand_poly(rng, rng.randint(1, 4))
        if a.is_zero() or b.is_zero():
            continue
        assert poly2_div_exact(a * b, b) == a


def test_division_by_zero():
    # the reference division over Q refuses a zero divisor, as the library's
    # exact division does
    with pytest.raises(ZeroDivisionError):
        long_division_over_q({1: 1}, {})
    with pytest.raises(ZeroDivisionError):
        div_exact_over_q(Poly.var(), Poly.zero())
    with pytest.raises(ZeroDivisionError):
        poly2_div_exact(Poly.var(), Poly.zero())


def test_pow_matches_repeated_product():
    p = Poly({0: 2, 1: -1})
    acc = Poly.const(1)
    for k in range(6):
        assert p**k == acc
        acc = acc * p
    with pytest.raises(ValueError):
        p ** (-1)


def test_pow_zero_is_the_int_unit():
    # p**0 is const(1), whose coefficient is the int 1, over any coefficients;
    # multiplying by it keeps the type of every coefficient of p
    int_poly = Poly({0: 2, 1: -1})
    int_poly2 = Poly2({(1, 0): 3, (0, 2): -1, (2, 1): 5})
    fraction_polys = (Poly({0: Fraction(1, 2)}), Poly2({(1, 1): Fraction(2, 3)}))
    for p in (int_poly, int_poly2, *fraction_polys, Poly.zero(), Poly2.zero()):
        unit = p**0
        assert unit == type(p).const(1) and type(unit) is type(p)
        assert [type(v) for _, v in unit.items()] == [int]
        assert {k: type(v) for k, v in (p * unit).items()} == {k: type(v) for k, v in p.items()}
    assert all(type(v) is int for p in (int_poly, int_poly2) for _, v in p.items())


def test_monic_and_content():
    p = Poly({1: 4, 0: 6})
    assert p.monic() == Poly({1: 1, 0: Fraction(3, 2)})
    assert p.content() == 2
    assert Poly({1: Fraction(2, 3), 0: 4}).content() == Fraction(2, 3)
    assert Poly.zero().content() == 0
    # A lead of -1 negates: int coefficients stay ints.
    q = Poly({0: 2, 1: -1}).monic()
    assert q == Poly({0: -2, 1: 1}) and all(type(v) is int for _, v in q.items())


def test_division_of_int_polys_is_exact():
    # Int operands divide over Q with Fraction quotients, never floats: int
    # true division would give 1/3 as 0.333... here.
    p = Poly({0: 2, 1: 6}).primitive()[1]
    assert p.monic() == Poly({0: Fraction(1, 3), 1: 1})
    assert [type(v) for _, v in sorted(p.monic().items())] == [Fraction, Fraction]


def test_poly_gcd():
    x = Poly.var()
    a = (x - 1) * (x + 2)
    b = (x - 1) * (x + 3)
    assert poly_gcd(a, b) == x - 1
    assert poly_gcd(a, Poly.zero()) == a.monic()
    assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()
    # coprime inputs give the constant 1
    assert poly_gcd(x + 1, x + 2) == Poly.const(1)
    # The remainder sequence of this pair ends on a lead of -1; the gcd keeps
    # int coefficients, as after a lead of 1.
    assert repr(poly_gcd(Poly({0: -2, 1: 1, 2: 1}), Poly({0: -3, 1: 2, 2: 1}))) == "Poly({0: -1, 1: 1})"


def _euclid_gcd(p: Poly, q: Poly) -> Poly:
    """Plain Euclid over Q, the reference for poly_gcd's monomial short-cut."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, Poly(long_division_over_q(dict(a.items()), dict(b.items()))[1])
    return a.monic()


def test_poly_gcd_monomial_shortcut_matches_euclid():
    x = Poly.var()
    monomials = [Poly.const(1), Poly.const(-3), 5 * x, x**2, Fraction(-2, 7) * x**4]
    others = [
        Poly.zero(),  # gcd(c x^e, 0) is x^e
        Poly.const(4),  # constant: gcd 1
        x + 1,  # valuation 0
        x**2 * (x + 1),  # valuation 2, at, above and below e
        x**3 - 2 * x**5,
        Fraction(3, 2) * x**6,  # both monomials
    ]
    for m in monomials:
        for q in others:
            want = _euclid_gcd(m, q)
            assert poly_gcd(m, q) == want, (m, q)
            assert poly_gcd(q, m) == _euclid_gcd(q, m) == want, (q, m)
    assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()


def test_poly_gcd_divides_both_random():
    rng = random.Random(1105)
    for _ in range(30):
        g = rand_poly(rng, rng.randint(1, 3))
        if g.is_zero():
            continue
        a = rand_poly(rng, 3) * g
        b = rand_poly(rng, 3) * g
        d = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            continue
        # d divides both: exact division over Q raises no ValueError
        div_exact_over_q(a, d)
        div_exact_over_q(b, d)


def test_poly2_basic_structure():
    q = Poly2({(1, 0): 1, (0, 1): -1})  # n - x
    assert q.degree_n() == 1
    assert q.degree_x() == 1
    assert q.coeff(1, 0) == 1
    assert q.head_coeff() == 1
    assert not q.is_constant()
    assert Poly2.const(5).is_constant()
    with pytest.raises(ValueError):
        Poly2.zero().head_coeff()


def test_head_term_order():
    # Head term sorts by degree in n descending, then degree in x ascending,
    # so 2 - x anchors on the constant and n - x on the n term.
    assert Poly2({(0, 0): 2, (0, 1): -1}).head_coeff() == 2
    assert Poly2({(1, 0): 1, (0, 1): -1}).head_coeff() == 1
    assert Poly2({(2, 1): -3, (2, 3): 7, (1, 0): 9}).head_coeff() == -3


def test_poly2_substitutions_agree_with_eval():
    rng = random.Random(1106)
    for _ in range(40):
        p = rand_poly2(rng, 4)
        n0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert p.subs_n(n0).eval(x0) == p.eval(n0, x0)
        assert p.subs_x(x0).eval(n0) == p.eval(n0, x0)


def test_x_coefficient_views_round_trip():
    rng = random.Random(1107)
    for _ in range(40):
        p = rand_poly2(rng, 4)
        view = p.as_x_coeffs()
        assert {(dn, dx): v for dx, c in view.items() for dn, v in c.items()} == dict(p.items())
        assert all(not c.is_zero() for c in view.values())


def test_poly2_exact_division():
    rng = random.Random(1108)
    for _ in range(40):
        a = rand_poly2(rng, 3)
        b = rand_poly2(rng, 2)
        if a.is_zero() or b.is_zero():
            continue
        assert poly2_div_exact(a * b, b) == a
    n = Poly2.var_n()
    x = Poly2.var_x()
    with pytest.raises(ValueError):
        poly2_div_exact(n * n + x, n)
    with pytest.raises(ZeroDivisionError):
        poly2_div_exact(n, Poly2.zero())


def test_poly2_gcd_known_factor():
    n = Poly2.var_n()
    x = Poly2.var_x()
    g = n - x
    a = g * (n + 1)
    b = g * (x + 2)
    assert poly2_gcd(a, b) == g
    # coprime pair reduces to the constant 1
    assert poly2_gcd(n - x, n + x) == Poly2.const(1)
    # b already has coprime integer coefficients and a positive head
    assert poly2_gcd(Poly2.zero(), b) == b


def test_poly2_gcd_divides_both_random():
    rng = random.Random(1109)
    for _ in range(25):
        g = rand_poly2(rng, 2)
        a = rand_poly2(rng, 2)
        b = rand_poly2(rng, 2)
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        d = poly2_gcd(a * g, b * g)
        # the common factor g must divide the gcd, and the gcd divides both
        poly2_div_exact(a * g, d)
        poly2_div_exact(b * g, d)
        assert d.head_coeff() > 0
        assert d.content() == 1


def _rand_flat(rng: random.Random, integral: bool) -> dict:
    """A flat map (deg_n, deg_x) -> coefficient; zeros included on purpose."""
    c = {}
    for _ in range(rng.randint(0, 8)):
        v = rng.randint(-9, 9)
        c[(rng.randint(0, 4), rng.randint(0, 4))] = v if integral else Fraction(v, rng.randint(1, 5))
    return c


def _flat_mul(a: dict, b: dict) -> dict:
    out = {}
    for (n1, x1), v1 in a.items():
        for (n2, x2), v2 in b.items():
            k = (n1 + n2, x1 + x2)
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _rows_are_dense(p: Poly2) -> bool:
    """Every x-row stored is a nonzero Poly with no zero coefficient."""
    rows = p.as_x_coeffs()
    return all(row and all(v != 0 for _, v in row.items()) for row in rows.values())


def test_poly2_layout_invariants():
    rng = random.Random(1110)
    for integral in (True, False):
        for _ in range(60):
            flat = _rand_flat(rng, integral)
            p = Poly2(flat)
            if integral:
                # the primitive part keeps int coefficients
                p = p.primitive()[1]
                assert all(type(v) is int for _, v in p.items())
            terms = dict(p.items())
            q = Poly2(terms)
            # the flat views agree with a rebuild from the flat terms
            assert dict(q.items()) == terms
            assert p == q and hash(p) == hash(q)
            assert repr(p) == f"Poly2({dict(sorted(terms.items()))!r})"
            # the rebuild keeps every coefficient's type
            assert repr(q) == repr(p)
            for dn in range(6):
                for dx in range(6):
                    assert p.coeff(dn, dx) == terms.get((dn, dx), 0)
            assert _rows_are_dense(p)
            # products and sums match the flat-dict reference
            other = Poly2(_rand_flat(rng, integral))
            if integral:
                other = other.primitive()[1]
            assert dict((p * other).items()) == _flat_mul(terms, dict(other.items()))
            for result in (p + other, p - other, p * other, -p, p * 0, p - p):
                assert _rows_are_dense(result)
    n, x = Poly2.var_n(), Poly2.var_x()
    # a sum that cancels the whole x-row stores no empty row
    p = (n * x + 1) - n * x
    assert p.as_x_coeffs() == {0: Poly.const(1)}
    assert p == Poly2.const(1) and p.degree_x() == 0
    assert (p * 0).as_x_coeffs() == {}


def _sparse_int_poly(rng: random.Random, deg: int) -> Poly:
    """A nonzero int polynomial of degree `deg` whose lead may be negative
    and whose lower powers are often missing."""
    c = {e: rng.randint(-9, 9) for e in range(deg) if rng.random() < 0.5}
    c[deg] = rng.choice([-3, -2, -1, 1, 2, 5])
    return Poly(c)


def _sparse_int_poly2(rng: random.Random, deg_x: int) -> Poly2:
    c = {(rng.randint(0, 2), rng.randint(0, deg_x)): rng.randint(-5, 5) for _ in range(rng.randint(1, 4))}
    c[(rng.randint(0, 2), deg_x)] = rng.choice([-2, -1, 1, 3])
    return Poly2(c)


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_gcd_and_division_digest():
    # Exact reprs of seeded gcds with a planted common factor over Q[x] and
    # Q[n, x], and of the reference long division over Q (the digest of
    # what divmod gave when Poly had one).  Sparse operands with negative leads
    # are the cases where a pseudo-remainder scaled by fewer powers of the
    # lead differs by a unit before the gcd is normalized.  The monic gcd
    # over Q is compared as Fractions: its coefficients stay ints when the
    # last remainder's lead is 1 and turn Fractions when it is -1, and that
    # sign is the unit the remainder sequence leaves.  Every other
    # coefficient type is pinned.
    rng = random.Random(2911)
    gcds = []
    for _ in range(300):
        g = _sparse_int_poly(rng, rng.randint(0, 3))
        a = _sparse_int_poly(rng, rng.randint(0, 5)) * g
        b = _sparse_int_poly(rng, rng.randint(0, 5)) * g
        if rng.random() < 0.3:
            a = a * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        gcds.append(sorted((e, Fraction(v)) for e, v in poly_gcd(a, b).items()))
    gcds2 = []
    for _ in range(120):
        g = _sparse_int_poly2(rng, rng.randint(0, 2))
        a = _sparse_int_poly2(rng, rng.randint(0, 3)) * g
        b = _sparse_int_poly2(rng, rng.randint(0, 3)) * g
        gcds2.append(poly2_gcd(a, b))
    divisions = []
    for _ in range(300):
        a = _sparse_int_poly(rng, rng.randint(0, 8)) * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = _sparse_int_poly(rng, rng.randint(0, 4))
        if rng.random() < 0.5:
            b = b * Fraction(1, rng.randint(1, 9))
        divisions.append(tuple(Poly(m) for m in long_division_over_q(dict(a.items()), dict(b.items()))))
    assert [_digest(gcds), _digest(gcds2), _digest(divisions)] == [
        "2c97cc4f006818b8e743aff0ffa67b17bf7a5b2023d5e857cd5c20b027df58cf",
        "3faeaf1c2d8d47f0c7c9b8c3f7cd3f06e49842b46e46848c6a2295ce3405087b",
        "be76ea7610c4d799c9bf6ca67230b77c533235c5f7b95977eb53e6d620cad7b4",
    ]
