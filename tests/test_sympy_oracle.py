"""Symbolic moments and series, gcds and RatFunc2 arithmetic against an
independent computer-algebra route.

sympy differentiates and expands the symbolic PGF on its own and cancels each
result; ours must agree by cross-multiplication, and our numerator and
denominator must be coprime by sympy's gcd.  ``poly_gcd`` and ``poly2_gcd``
must match ``sympy.gcd`` up to a constant on seeded pairs with a planted
common factor.  Skipped when sympy is missing.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from ballcell.pgf import moments_symbolic, pgf_symbolic
from ballcell.polys import Poly, Poly2, poly2_gcd, poly_gcd
from ballcell.ratfuncs import RatFunc2, poly2_to_json, ratfunc2_from_json

sympy = pytest.importorskip("sympy")
n, x = sympy.symbols("n x")


def _expr(p):
    """A Poly2 as a sympy expression in n and x."""
    terms = (sympy.Rational(v.numerator, v.denominator) * n**dn * x**dx for (dn, dx), v in p.items())
    return sum(terms, sympy.Integer(0))


def _expr_x(p):
    """A Poly as a sympy expression in x."""
    return sum((sympy.Rational(v.numerator, v.denominator) * x**e for e, v in p.items()), sympy.Integer(0))


def _assert_same(ours: RatFunc2, theirs) -> None:
    num, den = sympy.fraction(sympy.cancel(theirs))
    a, b = _expr(ours.num), _expr(ours.den)
    assert sympy.expand(a * den - b * num) == 0
    assert sympy.gcd(a, b).free_symbols == set()


def _sympy_moments(r: int, order: int):
    """Factorial moments by the quotient-rule chain N_k = N_{k-1}' D -
    k N_{k-1} D' on sympy polynomials, E[(X)_k] = N_k(1) / D(1)^(k+1); then
    raw, central and scaled-squared moments, each cancelled by sympy."""
    f = pgf_symbolic(r).func
    num, den = (sympy.Poly(_expr(p), x, n) for p in (f.num, f.den))
    d1 = den.eval(x, 1).as_expr()
    fact, nk = [], num
    for k in range(1, order + 1):
        nk = nk.diff(x) * den - k * nk * den.diff(x)
        fact.append(sympy.cancel(nk.eval(x, 1).as_expr() / d1 ** (k + 1)))
    raw = [
        sympy.cancel(sum(sympy.functions.combinatorial.numbers.stirling(i, k) * fact[k - 1] for k in range(1, i + 1)))
        for i in range(1, order + 1)
    ]
    mean = raw[0]
    central = [
        sympy.cancel((-mean) ** i + sum(comb(i, j) * raw[j - 1] * (-mean) ** (i - j) for j in range(1, i + 1)))
        for i in range(2, order + 1)
    ]
    scaled = [sympy.cancel(central[i - 2] ** 2 / central[0] ** i) for i in range(3, order + 1)]
    return raw, central, scaled


@pytest.mark.parametrize("r", range(0, 5))
def test_symbolic_moments_against_sympy(r):
    rep = moments_symbolic(r, 4)
    raw, central, scaled = _sympy_moments(r, 4)
    assert (len(rep.raw), len(rep.central)) == (len(raw), len(central))
    for ours, theirs in zip(rep.raw, raw):
        _assert_same(ours, theirs)
    for ours, theirs in zip(rep.central, central):
        _assert_same(ours, theirs)
    if rep.scaled_squared is None:
        assert central[0] == 0
    else:
        assert len(rep.scaled_squared) == len(scaled)
        for ours, theirs in zip(rep.scaled_squared, scaled):
            _assert_same(ours, theirs)
    for order in range(1, 4):
        # lower orders are prefixes of the order-4 report
        low = moments_symbolic(r, order)
        assert low.raw == rep.raw[:order] and low.central == rep.central[: order - 1]


@pytest.mark.parametrize("r", range(0, 8))
def test_symbolic_series_against_sympy(r):
    f = pgf_symbolic(r).func
    g = _expr(f.num) / _expr(f.den)
    coeffs = f.series(4)
    assert len(coeffs) == 5
    for k, ours in enumerate(coeffs):
        _assert_same(ours, sympy.diff(g, x, k).subs(x, 0) / sympy.factorial(k))


def _rand_coeffs(rng, keys, integral):
    def coeff():
        num = rng.randint(-9, 9)
        return Fraction(num) if integral else Fraction(num, rng.randint(1, 6))

    return {k: coeff() for k in rng.sample(keys, rng.randint(1, len(keys)))}


def _gcd_pairs(cls, keys, seed):
    """Seeded (p, q) pairs with a planted common factor and an integer content,
    some with Fraction coefficients, plus constants, monomials and zero."""
    rng = random.Random(seed)
    one, var = (Poly.const(1), Poly.var()) if cls is Poly else (Poly2.const(1), Poly2.var_x())
    pairs = []
    for i in range(30):
        g, a, b = (cls(_rand_coeffs(rng, keys, integral=i % 2 == 0)) for _ in range(3))
        pairs.append((a * g * rng.randint(1, 12), b * g * rng.randint(1, 12)))
    g = cls(_rand_coeffs(rng, keys, integral=False))
    for special in (cls.zero(), one * 6, one * Fraction(-3, 4), var * Fraction(5, 2), var**3 * 4):
        pairs += [(special, g), (g * special, g), (special, cls.zero())]
    return pairs


def test_poly_gcd_against_sympy():
    for p, q in _gcd_pairs(Poly, [0, 1, 2, 3], 4401):
        ours = poly_gcd(p, q)
        theirs = sympy.gcd(_expr_x(p), _expr_x(q))
        if theirs == 0:
            assert ours.is_zero()
            continue
        assert ours.leading_coeff() == 1
        assert sympy.cancel(_expr_x(ours) / theirs).free_symbols == set()


def test_poly2_gcd_against_sympy():
    keys = [(dn, dx) for dn in range(3) for dx in range(3)]
    for p, q in _gcd_pairs(Poly2, keys, 4402):
        ours = poly2_gcd(p, q)
        theirs = sympy.gcd(_expr(p), _expr(q))
        if theirs == 0:
            assert ours.is_zero()
            continue
        assert ours.head_coeff() > 0 and ours.content() == 1
        assert all(v.denominator == 1 for _, v in ours.items())
        assert sympy.cancel(_expr(ours) / theirs).free_symbols == set()


def _assert_cancels_like_sympy(ours: RatFunc2, num, den) -> None:
    """ours against sympy's cancel of num/den, two sympy Polys in n and x."""
    p, q = num.cancel(den, include=True)
    a, b = (sympy.Poly(_expr(f), n, x, domain="QQ") for f in (ours.num, ours.den))
    assert a * q == b * p
    assert a.gcd(b).is_ground


def test_ratfunc2_field_operations_against_sympy():
    rng = random.Random(4403)
    keys = [(dn, dx) for dn in range(3) for dx in range(3)]

    def rand_poly2(integral=False):
        while True:
            p = Poly2(_rand_coeffs(rng, keys, integral))
            if p:
                return p

    for i in range(12):
        h = rand_poly2(integral=i % 2 == 0)
        pairs = [(rand_poly2() * h, rand_poly2() * h) for _ in range(2)]
        f, g = (RatFunc2(a, b) for a, b in pairs)
        (a, b), (c, d) = ((sympy.Poly(_expr(p), n, x, domain="QQ") for p in pair) for pair in pairs)
        _assert_cancels_like_sympy(f + g, a * d + c * b, b * d)
        _assert_cancels_like_sympy(f * g, a * c, b * d)
        _assert_cancels_like_sympy(f / g, a * d, b * c)
        parsed = ratfunc2_from_json({"num": poly2_to_json(pairs[0][0]), "den": poly2_to_json(pairs[0][1])})
        _assert_cancels_like_sympy(parsed, a, b)
        assert parsed == f
