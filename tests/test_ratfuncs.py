"""Canonical rational functions, their expansion, rendering, and wire format.

Canonical form is the load-bearing invariant here: equality is structural, so
every constructor path must land on the same (num, den) pair.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from ballcell import reference
from ballcell.geometric import StepSequence, chain_pgf
from ballcell.pgf import pgf_numeric, pgf_symbolic
from ballcell.polys import Poly, Poly2
from ballcell.ratfuncs import (
    RatFunc,
    RatFunc2,
    _series_numerators,
    poly2_from_json,
    poly2_to_json,
    poly_from_json,
    poly_to_json,
    polynomial_text,
    ratfunc2_from_json,
    ratfunc_from_json,
    ratfunc_latex,
    ratfunc_text,
    ratfunc_to_json,
)

X = Poly.var()
N2 = Poly2.var_n()
X2 = Poly2.var_x()


def rand_ratfunc(rng: random.Random) -> RatFunc:
    num = Poly({e: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for e in range(rng.randint(0, 3) + 1)})
    while True:
        den = Poly({e: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for e in range(rng.randint(0, 3) + 1)})
        if not den.is_zero():
            return RatFunc(num, den)


def test_reduction_to_lowest_terms():
    f = RatFunc(2 * X, 4 - 2 * X)
    assert f.num == X
    assert f.den == 2 - X
    # common polynomial factor cancels
    assert RatFunc(X * (X - 1), (X - 1) * (X + 2)) == RatFunc(X, X + 2)


def test_denominator_sign_anchor():
    # head term of the denominator (lowest power of x) is forced positive
    f = RatFunc(X, X - 2)
    assert f.den == 2 - X
    assert f.num == -X
    assert ratfunc_text(f) == "-x/(2 - x)"


def test_rational_coefficients_cleared():
    # joint rescaling preserves the quotient: (x/3) / ((2-x)/5) = 5x/(6-3x)
    f = RatFunc(X * Fraction(1, 3), Poly({0: Fraction(2, 5), 1: Fraction(-1, 5)}))
    assert f.num == 5 * X
    assert f.den == 6 - 3 * X


def test_zero_and_constants():
    z = RatFunc(0)
    assert z.is_zero()
    assert z == 0
    assert RatFunc.from_fraction(Fraction(3, 4)) == Fraction(3, 4)
    assert RatFunc(Poly.const(6), Poly.const(4)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        RatFunc(X, Poly.zero())


def test_field_identities_random():
    rng = random.Random(2201)
    for _ in range(50):
        f = rand_ratfunc(rng)
        g = rand_ratfunc(rng)
        assert f + g - g == f
        assert f - f == 0
        if not g.is_zero():
            assert f * g / g == f
        assert f * g == g * f
        assert (f + g) * 2 == 2 * f + g + g


def test_scalar_mixing():
    f = RatFunc(X, 2 - X)
    assert 1 - f == RatFunc(2 - 2 * X, 2 - X)
    assert (f + 1) - 1 == f
    assert f / 2 == RatFunc(X, 4 - 2 * X)
    assert 2 / (1 / f + 1) == RatFunc(2 * X, 2)  # 2f/(1+f) with f = x/(2-x)
    with pytest.raises(ZeroDivisionError):
        f / RatFunc(0)


def test_pow():
    f = RatFunc(X, 2 - X)
    assert f**0 == 1
    assert f**3 == f * f * f
    with pytest.raises(ValueError):
        f ** (-2)


def test_eval_and_poles():
    f = RatFunc(X, 2 - X)
    assert f.eval(Fraction(1)) == 1
    assert f.eval(Fraction(1, 2)) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        f.eval(Fraction(2))


def test_derivative_quotient_rule():
    f = RatFunc(X, 2 - X)
    assert f.derivative() == RatFunc(Poly.const(2), (2 - X) ** 2)
    rng = random.Random(2202)
    for _ in range(25):
        f = rand_ratfunc(rng)
        g = rand_ratfunc(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_series_geometric():
    assert RatFunc(1, 1 - X).series(5) == [1, 1, 1, 1, 1, 1]
    # x/(2-x) expands to sum_k x^k / 2^k starting at k = 1
    got = RatFunc(X, 2 - X).series(6)
    assert got == [Fraction(0)] + [Fraction(1, 2**k) for k in range(1, 7)]
    assert RatFunc(3 * X**2 + 1).series(3) == [1, 0, 3, 0]


def test_series_validation():
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, X).series(3)
    with pytest.raises(ValueError):
        RatFunc(1, 1 - X).series(-1)


def test_series_solves_the_quotient():
    # den * (partial series) - num must vanish through degree kmax
    rng = random.Random(2203)
    for _ in range(30):
        f = rand_ratfunc(rng)
        if f.den.coeff(0) == 0:
            continue
        kmax = rng.randint(0, 8)
        coeffs = f.series(kmax)
        residue = f.den * Poly(dict(enumerate(coeffs))) - f.num
        for e, _ in residue.items():
            assert e > kmax


def test_from_coprime_matches_checking_constructor():
    rng = random.Random(2204)
    # (f, top power checked).  The gcd-reducing constructor takes 0.7 s at
    # r = 4, k = 3 on a 2-vCPU Xeon VM, but 8.5 s at r = 5, k = 2 and over
    # 290 s at r = 5, k = 3, so r = 5 stops at k = 1.
    cases = [(rand_ratfunc(rng), 3) for _ in range(40)]
    cases += [(pgf_symbolic(r).func, 3 if r < 5 else 1) for r in range(1, 6)]
    for f, top in cases:
        cls = type(f)
        if not f.is_zero():
            # f.num, f.den are coprime by construction; a rational rescaling of
            # the pair must normalize back to the same fields
            s = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            g = cls.from_coprime(f.num * s, f.den * s)
            assert g.num == f.num and g.den == f.den
            h = cls.from_coprime(-f.num, -f.den)
            assert h == f
        # negation, powers and scalar multiples skip the gcd; they must land
        # on the fields the gcd-reducing constructor gives for the same pair
        pairs = [(-f, (-f.num, f.den))]
        pairs += [(f**k, (f.num**k, f.den**k)) for k in range(top + 1)]
        pairs += [(f * s, (f.num * s, f.den)) for s in (0, Fraction(-3, 7), 5)]
        for got, (num, den) in pairs:
            want = cls(num, den)
            assert type(got) is cls
            assert got.num == want.num and got.den == want.den
    assert RatFunc.from_coprime(Poly.zero(), 1 - X) == 0
    with pytest.raises(ZeroDivisionError):
        RatFunc.from_coprime(X, Poly.zero())


def test_large_coprime_symbolic_pair_within_budget():
    # The cube of the r = 4 symbolic PGF, built through the gcd-reducing
    # constructor: 0.7 s on a 2-vCPU Xeon VM, 206 s with Euclid over Q.
    f = pgf_symbolic(4).func
    started = time.perf_counter()
    g = RatFunc2(f.num**3, f.den**3)
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"RatFunc2(f.num**3, f.den**3) at r = 4 took {elapsed:.1f}s, budget 10s"
    cube = f**3
    assert g.num == cube.num and g.den == cube.den


def test_ratfunc2_reduction():
    f = RatFunc2((N2 - 1) * (N2 - X2), N2 * (N2 - X2))
    assert f == RatFunc2(N2 - 1, N2)
    g = RatFunc2(X2 * (N2 - 1), N2 - X2)
    assert g.num == X2 * N2 - X2
    assert g.den == N2 - X2
    with pytest.raises(ZeroDivisionError):
        RatFunc2(N2, Poly2.zero())


def test_ratfunc2_sign_anchor_on_head_term():
    f = RatFunc2(X2, X2 - N2)
    assert f.den == N2 - X2
    assert f.num == -X2


def test_ratfunc2_arithmetic():
    f = RatFunc2(X2 * (N2 - 1), N2 - X2)
    one = RatFunc2.from_fraction(Fraction(1))
    assert f / f == one
    assert f - f == 0
    assert (f + 1) - 1 == f
    assert f**2 == f * f


def test_ratfunc2_subs_n():
    f = RatFunc2(X2 * (N2 - 1), N2 - X2)
    assert f.subs_n(Fraction(2)) == RatFunc(X, 2 - X)
    assert f.subs_n(Fraction(3)) == RatFunc(2 * X, 3 - X)
    with pytest.raises(ZeroDivisionError):
        RatFunc2(Poly2.const(1), N2 - 2).subs_n(Fraction(2))


def test_ratfunc2_eval():
    f = RatFunc2(X2 * (N2 - 1), N2 - X2)
    assert f.eval(Fraction(2), Fraction(1)) == 1
    with pytest.raises(ZeroDivisionError):
        f.eval(Fraction(2), Fraction(2))


def test_ratfunc2_series_in_x():
    # x(n-1)/(n-x): coefficient of x^k is (n-1)/n^k for k >= 1
    f = RatFunc2(X2 * (N2 - 1), N2 - X2)
    out = f.series(4)
    assert out[0] == 0
    for k in range(1, 5):
        assert out[k] == RatFunc2(N2 - 1, N2**k)
    with pytest.raises(ZeroDivisionError):
        RatFunc2(Poly2.const(1), X2).series(2)
    with pytest.raises(ValueError):
        f.series(-1)


def test_ratfunc2_series_consistent_with_substitution():
    rng = random.Random(2205)
    f = RatFunc2(X2 * (N2 - 1) + N2, N2**2 - X2 * (N2 + 2))
    out = f.series(6)
    for _ in range(10):
        n0 = Fraction(rng.randint(2, 9))
        uni = f.subs_n(n0).series(6)
        for k in range(7):
            assert out[k].eval(n0, Fraction(0)) == uni[k]


def _lifted_series(f: RatFunc2, kmax: int) -> list[RatFunc2]:
    """Maclaurin coefficients by RatFunc2 field arithmetic, each x-coefficient
    lifted to a quotient and every step gcd-reduced; the reference for the
    series recurrence over powers of den(0)."""
    lift = {dx: RatFunc2(Poly2.from_poly_in_n(c)) for dx, c in f.den.as_x_coeffs().items()}
    num = {dx: RatFunc2(Poly2.from_poly_in_n(c)) for dx, c in f.num.as_x_coeffs().items()}
    d0 = lift.pop(0)
    out = []
    for k in range(kmax + 1):
        acc = num.get(k, RatFunc2(0))
        for j, dj in lift.items():
            if j <= k:
                acc = acc - dj * out[k - j]
        out.append(acc / d0)
    return out


def test_ratfunc2_series_with_non_monomial_constant_term():
    # den(0) = n^2 - 1 is not a monomial in n, so each coefficient is reduced
    # by real univariate gcds against copies of it
    cases = [
        RatFunc2(X2 * (N2 - 1) + N2, N2**2 - 1 - X2 * (N2 + 2)),
        RatFunc2((N2 + 1) * (1 + X2), (N2**2 - 1) * (N2 + 3) - X2 * (N2 + 1) + X2**2 * N2),
        RatFunc2(N2 - 1, (N2 - 1) ** 2 - X2),
    ]
    for f in cases:
        out = f.series(6)
        ref = _lifted_series(f, 6)
        assert [(c.num, c.den) for c in out] == [(c.num, c.den) for c in ref]
        for n0 in (Fraction(2), Fraction(3), Fraction(7, 2), Fraction(9, 4), Fraction(11)):
            assert [c.subs_n(n0) for c in out] == [RatFunc.from_fraction(v) for v in f.subs_n(n0).series(6)]


def test_series_windows_have_int_coefficients():
    # The recurrence reads the canonical rows as Polys in n over Z and starts
    # its scale from the int 1, so every numerator and denominator factor it
    # yields is over Z, and so is every coefficient _x_free reduces.
    cases = [
        pgf_symbolic(6).func,
        RatFunc2(X2 * (N2 - 1), N2 - X2),
        RatFunc2(N2 * X2 + 3),
        RatFunc2(N2 - 1, (N2 - 1) ** 2 - X2),
    ]
    for f in cases:
        terms = _series_numerators(f.num._c, f.den._c, 6)
        for num, den in terms:
            for p in (num, *den):
                assert isinstance(p, Poly) and all(type(v) is int for _, v in p.items()), f
        for c in f.series(6):
            assert all(type(v) is int for p in (c.num, c.den) for _, v in p.items())


def _over_q(p, scale):
    """p times a rational scale, with every coefficient a Fraction."""
    return type(p)({k: Fraction(v) * scale for k, v in p.items()})


def _assert_same_key(f, g):
    """f and g are one function in one canonical form, with int fields."""
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert {f: "f"}[g] == "f" and len({f, g}) == 1
    assert all(type(v) is int for h in (f, g) for p in (h.num, h.den) for _, v in p.items())


def test_fraction_inputs_settle_into_the_table_form():
    scale = Fraction(3, 7)
    for r in range(1, 6):
        table = pgf_symbolic(r).func
        golden = reference.symbolic_pgf(r)
        _assert_same_key(table, golden)
        _assert_same_key(table, RatFunc2(_over_q(golden.num, scale), _over_q(golden.den, scale)))
        _assert_same_key(table, ratfunc2_from_json(json.loads(json.dumps(ratfunc_to_json(table)))))
    # the descent PGF for alpha = 2/3, built from the Fraction steps
    # a_i = (2/3)^i, against the same product over ints:
    # 2^i x / (3^i - (3^i - 2^i) x) per step
    x = Poly.var()
    for r in range(0, 6):
        num, den = Poly.const(1), Poly.const(1)
        for i in range(1, r + 1):
            num, den = num * (2**i * x), den * (3**i - (3**i - 2**i) * x)
        _assert_same_key(chain_pgf(r, StepSequence.power(Fraction(2, 3))), RatFunc(num, den))
    for f in (pgf_numeric(4, 3).func, pgf_symbolic(4).func):
        third = f * Fraction(1, 3)
        _assert_same_key(third, type(f)(f.num, f.den * 3))
        _assert_same_key(third, type(f)(_over_q(f.num, Fraction(1, 3)), _over_q(f.den, Fraction(1))))
        _assert_same_key(third * 3, f)


def test_polynomial_text_ordering():
    assert polynomial_text(2 - X) == "2 - x"
    assert polynomial_text(Poly({0: 27, 1: -12, 2: 1})) == "27 - 12x + x^2"
    assert polynomial_text(Poly.zero()) == "0"
    assert polynomial_text(-X) == "-x"
    assert polynomial_text(Poly({1: Fraction(1, 2)})) == "(1/2)x"
    # bivariate terms print n-degree descending, then x-degree ascending
    assert polynomial_text(N2 - X2) == "n - x"
    assert polynomial_text(N2**2 + 2 * N2 * X2 - 3 * X2) == "n^2 + 2nx - 3x"


def test_polynomial_text_latex():
    assert polynomial_text(Poly({1: Fraction(1, 2)}), latex=True) == r"\frac{1}{2}x"
    assert polynomial_text(N2**2 - X2, latex=True) == "n^{2} - x"


def test_ratfunc_text():
    assert ratfunc_text(RatFunc(X, 2 - X)) == "x/(2 - x)"
    assert ratfunc_text(RatFunc(X)) == "x"
    assert ratfunc_text(RatFunc2(N2, N2 - 1)) == "n/(n - 1)"
    assert ratfunc_text(RatFunc(X + 1, 2 - X)) == "(1 + x)/(2 - x)"
    assert ratfunc_text(RatFunc(X, Poly({1: 2}))) == "1/2"
    assert ratfunc_text(RatFunc.from_fraction(Fraction(3, 4))) == "3/4"


def test_ratfunc_latex():
    assert ratfunc_latex(RatFunc(X, 2 - X)) == r"\frac{x}{2 - x}"
    assert ratfunc_latex(RatFunc(X)) == "x"
    factored = ratfunc_latex(
        RatFunc(X, (2 - X) * (3 - X)), den_factors=[2 - X, 3 - X]
    )
    assert factored == r"\frac{x}{\left(2 - x\right)\left(3 - x\right)}"


def test_json_round_trip_univariate():
    rng = random.Random(2206)
    for _ in range(30):
        f = rand_ratfunc(rng)
        wire = json.loads(json.dumps(ratfunc_to_json(f)))
        assert ratfunc_from_json(wire) == f
    p = Poly({0: Fraction(1, 3), 2: -2})
    assert poly_to_json(p) == [[0, "1/3"], [2, "-2"]]
    assert poly_from_json(poly_to_json(p)) == p


def test_json_round_trip_bivariate():
    f = RatFunc2(X2 * (N2 - 1), N2 - X2)
    wire = json.loads(json.dumps(ratfunc_to_json(f)))
    assert ratfunc2_from_json(wire) == f
    p = N2**2 - 3 * X2
    assert poly2_to_json(p) == [[[0, 1], "-3"], [[2, 0], "1"]]
    assert poly2_from_json(poly2_to_json(p)) == p


def test_json_values_are_strings_not_floats():
    wire = ratfunc_to_json(RatFunc(X, Poly({0: Fraction(2), 1: Fraction(-1, 3)})))
    flat = json.dumps(wire)
    assert "." not in flat
    for _, v in wire["num"] + wire["den"]:
        assert isinstance(v, str)
