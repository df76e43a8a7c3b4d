"""Integer exact division against division over Q (property-based; skipped
where hypothesis is not installed).

``int_div_exact`` divides polynomials with int coefficients by long
division over Z or Z[n] and gives up at the first inexact step.  For a
primitive divisor that must agree with exact division over Q: the same
quotient when the divisor divides, a ValueError when it does not.
"""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ballcell.polys import Poly, Poly2, int_div_exact, poly2_div_exact  # noqa: E402

BIG = 10**1000
COEFFS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-BIG, max_value=BIG),
)
EXPONENTS = st.integers(min_value=0, max_value=5)
KEYS2 = st.tuples(EXPONENTS, EXPONENTS)


def _poly(cls, c: dict):
    return cls._adopt({k: v for k, v in c.items() if v})


def _primitive(cls, c: dict):
    g = gcd(*c.values())
    return _poly(cls, {k: v // g for k, v in c.items()}) if g else cls.zero()


def _by_fractions(p, d):
    """p/d over Q, or ValueError when d does not divide p there."""
    if isinstance(p, Poly2):
        return poly2_div_exact(p.fractions(), d.fractions())
    q, rem = divmod(p.fractions(), d.fractions())
    if not rem.is_zero():
        raise ValueError("inexact polynomial division")
    return q


def _check(p, d):
    try:
        want = _by_fractions(p, d)
    except ValueError:
        with pytest.raises(ValueError):
            int_div_exact(p, d)
        return
    got = int_div_exact(p, d)
    assert got == want
    assert all(type(v) is int for _, v in got.items())


ONE_DIGITS = {0: -(BIG - 1), 1: 3, 2: BIG - 7}


@given(
    st.dictionaries(EXPONENTS, COEFFS, min_size=1, max_size=4),
    st.dictionaries(EXPONENTS, COEFFS, max_size=6),
    st.dictionaries(EXPONENTS, COEFFS, max_size=3),
)
@example({0: 5, 1: -3}, ONE_DIGITS, {})
@example({0: 5, 1: -3}, ONE_DIGITS, {0: 1})
@example({0: BIG + 1, 1: -(BIG - 1)}, {0: -1, 3: BIG}, {2: BIG})
def test_univariate_division_matches_rationals(divisor, quotient, noise):
    d = _primitive(Poly, divisor)
    if d.is_zero():
        return
    q = _poly(Poly, quotient)
    _check(q * d, d)
    _check(q * d + _poly(Poly, noise), d)


# Divisors linear in x over Z[n], as in the PGF table: b(n) - a(n) x, made
# primitive; the leading coefficient a(n) is rarely a unit.
LINEAR = st.tuples(
    st.dictionaries(EXPONENTS, COEFFS, min_size=1, max_size=3),
    st.dictionaries(EXPONENTS, COEFFS, min_size=1, max_size=3),
)


def _linear(b: dict, a: dict):
    c = {(e, 0): v for e, v in b.items()}
    c.update({(e, 1): -v for e, v in a.items()})
    return _primitive(Poly2, c)


@given(LINEAR, st.dictionaries(KEYS2, COEFFS, max_size=8), st.dictionaries(KEYS2, COEFFS, max_size=3))
@example(({2: 1}, {1: 3, 0: 2}), {(0, 0): BIG, (1, 2): -BIG, (5, 5): 7}, {})
@example(({2: 1}, {1: 3, 0: 2}), {(0, 0): BIG, (1, 2): -BIG, (5, 5): 7}, {(0, 1): 1})
@example(({1: 2}, {2: 3}), {(3, 1): 1}, {(0, 0): 2})
def test_linear_in_x_division_matches_rationals(factor, quotient, noise):
    d = _linear(*factor)
    if d.is_zero():
        return
    q = _poly(Poly2, quotient)
    _check(q * d, d)
    _check(q * d + _poly(Poly2, noise), d)


@given(
    st.dictionaries(KEYS2, COEFFS, min_size=1, max_size=4),
    st.dictionaries(KEYS2, COEFFS, max_size=6),
    st.dictionaries(KEYS2, COEFFS, max_size=3),
)
def test_bivariate_division_matches_rationals(divisor, quotient, noise):
    d = _primitive(Poly2, divisor)
    if d.is_zero():
        return
    q = _poly(Poly2, quotient)
    _check(q * d, d)
    _check(q * d + _poly(Poly2, noise), d)


def test_division_by_the_monomial_n():
    n = Poly2._adopt({(1, 0): 1})
    p = Poly2._adopt({(3, 0): -BIG, (1, 4): 6})
    assert int_div_exact(p, n) == Poly2({(2, 0): -BIG, (0, 4): 6})
    with pytest.raises(ValueError):
        int_div_exact(p + Poly2._adopt({(0, 2): 1}), n)
    # A constant divisor over Z divides only when it divides every coefficient.
    six = Poly._adopt({0: 6})
    assert int_div_exact(Poly._adopt({0: 12, 5: -6}), six) == Poly({0: 2, 5: -1})
    with pytest.raises(ValueError):
        int_div_exact(Poly._adopt({0: 12, 5: -3}), six)
    assert _by_fractions(Poly._adopt({0: 12, 5: -3}), six) == Poly({0: 2, 5: Fraction(-1, 2)})
    with pytest.raises(ZeroDivisionError):
        int_div_exact(six, Poly.zero())
