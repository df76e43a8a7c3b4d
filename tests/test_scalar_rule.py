"""The scalar rule of the exact layer (property-based; skipped where
hypothesis is not installed).

A coefficient is an int or a Fraction, whichever the computation produced,
and a canonical quotient holds ints.  So no operation on Polys, Poly2s,
RatFuncs or RatFunc2s returns a float anywhere, for int or Fraction inputs:
the int true division that would make one must not happen.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ballcell.polys import Poly, Poly2  # noqa: E402
from ballcell.ratfuncs import RatFunc, RatFunc2  # noqa: E402
from oracles import settle_by_primitive_parts  # noqa: E402

SCALARS = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
EXPONENTS = st.integers(min_value=0, max_value=3)
POLYS = st.dictionaries(EXPONENTS, SCALARS, max_size=4).map(Poly)
POLYS2 = st.dictionaries(st.tuples(EXPONENTS, EXPONENTS), SCALARS, max_size=4).map(Poly2)
POWERS = st.integers(min_value=0, max_value=3)


def _scalars(value) -> list:
    """Every scalar in a result: the coefficients of a polynomial or of both
    fields of a quotient, the members of a tuple, or the value itself."""
    if isinstance(value, (RatFunc, RatFunc2)):
        return _scalars(value.num) + _scalars(value.den)
    if isinstance(value, (Poly, Poly2)):
        return [v for _, v in value.items()]
    if isinstance(value, tuple):
        return [v for part in value for v in _scalars(part)]
    return [value]


def _check(results) -> None:
    for value in results:
        assert all(type(v) in (int, Fraction) for v in _scalars(value)), value
        if isinstance(value, (RatFunc, RatFunc2)):
            assert all(type(v) is int for v in _scalars(value)), value


@settings(max_examples=150, deadline=None)
@given(POLYS, POLYS, SCALARS, POWERS)
def test_poly_operations_never_give_floats(p, q, s, k):
    results = [p + q, p - q, p * q, p + s, s - p, p * s, p**k, -p]
    results += [p.monic(), p.eval(s), p.content(), p.primitive(), p.derivative()]
    # primitive parts hold ints, so their quotients need a true division
    pp, qp = p.primitive()[1], q.primitive()[1]
    results += [pp.monic(), pp.eval(s)]
    if q:
        results += [divmod(p, q), p // q, p % q, divmod(pp, qp)]
    if s:
        results += [divmod(p, s)]
    _check(results)


@settings(max_examples=150, deadline=None)
@given(POLYS2, POLYS2, SCALARS, SCALARS, POWERS)
def test_poly2_operations_never_give_floats(p, q, s, t, k):
    results = [p + q, p - q, p * q, p + s, s - p, p * s, p**k, -p]
    results += [p.eval(s, t), p.subs_n(s), p.subs_x(t), p.content(), p.primitive()]
    _check(results)


def _quotient_results(f, g, s, k) -> list:
    results = [f + g, f - g, f * g, f + s, s - f, f * s, f**k, -f]
    if not g.is_zero():
        results.append(f / g)
    if s:
        results += [f / s] if f.is_zero() else [f / s, s / f]
    return results


@settings(max_examples=100, deadline=None)
@given(POLYS, POLYS, POLYS, POLYS, SCALARS, POWERS)
def test_ratfunc_arithmetic_never_gives_floats(a, b, c, d, s, k):
    assume(b and d)
    f, g = RatFunc(a, b), RatFunc(c, d)
    results = [f, g] + _quotient_results(f, g, s, k)
    if f.den.eval(s):
        results.append(f.eval(s))
    _check(results)


@settings(max_examples=40, deadline=None)
@given(POLYS2, POLYS2, POLYS2, POLYS2, SCALARS, POWERS)
def test_ratfunc2_arithmetic_never_gives_floats(a, b, c, d, s, k):
    assume(b and d)
    f, g = RatFunc2(a, b), RatFunc2(c, d)
    results = [f, g] + _quotient_results(f, g, s, k)
    if f.den.subs_n(s):
        results.append(f.subs_n(s))
    _check(results)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([(RatFunc, POLYS), (RatFunc2, POLYS2)]), st.booleans())
def test_settle_matches_primitive_parts_oracle(data, case, cancel):
    # Each field is divided once by the gcd of the two contents; the oracle
    # takes primitive parts and scales them back by the contents' ratio.
    cls, polys = case
    num, den = data.draw(st.one_of(polys, SCALARS)), data.draw(st.one_of(polys, SCALARS))
    assume(den)
    got = cls(num, den) if cancel else cls.from_coprime(num, den)
    want = settle_by_primitive_parts(cls, num, den, cancel)
    assert repr(got) == repr(want) and got == want and hash(got) == hash(want)
    _check([got])
