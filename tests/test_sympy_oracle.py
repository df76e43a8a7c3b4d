"""Symbolic moments and series against an independent computer-algebra route.

sympy differentiates and expands the symbolic PGF on its own and cancels each
result; ours must agree by cross-multiplication, and our numerator and
denominator must be coprime by sympy's gcd.  Skipped when sympy is missing.
"""

from math import comb

import pytest

from ballcell.pgf import moments_symbolic, pgf_symbolic
from ballcell.ratfuncs import RatFunc2

sympy = pytest.importorskip("sympy")
n, x = sympy.symbols("n x")


def _expr(p):
    """A Poly2 as a sympy expression in n and x."""
    terms = (sympy.Rational(v.numerator, v.denominator) * n**dn * x**dx for (dn, dx), v in p.items())
    return sum(terms, sympy.Integer(0))


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


@pytest.mark.parametrize("r", range(0, 7))
def test_symbolic_series_against_sympy(r):
    f = pgf_symbolic(r).func
    g = _expr(f.num) / _expr(f.den)
    coeffs = f.series(4)
    assert len(coeffs) == 5
    for k, ours in enumerate(coeffs):
        _assert_same(ours, sympy.diff(g, x, k).subs(x, 0) / sympy.factorial(k))
