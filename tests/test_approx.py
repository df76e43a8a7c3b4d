"""Harmonic-sum approximation, its exact error, and the error-limit estimator."""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, log10

import pytest

from ballcell.approx import (
    _digits,
    approx_mean,
    approx_report,
    approx_variance,
    error_limit,
    error_term,
)
from ballcell.game import transition_row
from ballcell.pgf import duration_variance, expected_duration
from ballcell.scalars import default_precision, to_decimal

# E_3(10), frozen output of the exact pipeline.
E3_AT_10 = Fraction(-141488086213, 8824570191360)


def test_partial_sums_by_hand():
    assert approx_mean(5, 0) == 0
    assert approx_mean(5, 1) == 1
    # n = 2 doubles each term: 1 + (1/2)*2 + (1/3)*4
    assert approx_mean(2, 3) == Fraction(10, 3)
    assert approx_mean(3, 2) == 1 + Fraction(3, 4)
    # variance partial sum at n = 2, r = 2: (1 + 1) - (1 + 1)
    assert approx_variance(2, 2) == 0
    assert approx_variance(3, 2) == 1 + Fraction(9, 16) - (1 + Fraction(3, 4))


def test_input_validation():
    with pytest.raises(ValueError):
        approx_mean(1, 3)
    with pytest.raises(ValueError):
        approx_variance(0, 3)
    with pytest.raises(ValueError):
        approx_mean(3, -1)
    with pytest.raises(ValueError):
        error_term(1, 3)


def test_two_cell_error_vanishes():
    for r in range(0, 61):
        assert error_term(2, r) == 0


def test_error_regression_value():
    assert error_term(3, 10) == E3_AT_10


def test_error_stays_small():
    for n in (3, 4, 5):
        for r in range(1, 3 * n + 1):
            assert abs(error_term(n, r)) < 1


def test_report_fields_are_consistent():
    rep = approx_report(4, 12)
    assert rep.cells == 4 and rep.balls == 12
    assert rep.approx_mean == approx_mean(4, 12)
    assert rep.exact_mean == expected_duration(12, 4)
    assert rep.error == rep.exact_mean - rep.approx_mean
    assert rep.exact_variance == duration_variance(12, 4)
    got = Fraction(str(rep.ratio_mean))
    want = rep.exact_mean / rep.approx_mean
    assert abs(got - want) < Fraction(1, 10**45)


def test_report_ratios_undefined_when_approx_is_zero():
    assert approx_report(3, 0).ratio_mean is None
    # the variance partial sum is zero through r = 1
    rep = approx_report(3, 1)
    assert rep.approx_variance == 0
    assert rep.ratio_variance is None
    assert rep.ratio_mean is not None


def test_limit_estimate_near_target():
    est = error_limit(3, rmax=200, digits=30)
    assert est.cells == 3 and est.rmax == 200 and est.digits == 30
    got = Fraction(str(est.estimate))
    assert abs(got - Fraction("0.04213658385")) < Fraction(1, 10**9)
    # the half-horizon gap brackets the convergence scale
    assert Decimal(0) < est.gap < Decimal("1e-10")


def test_limit_digit_budget_switch_is_lossless():
    # tiny digit budget forces the decimal continuation almost immediately;
    # it must agree with the all-exact run at the requested precision
    exact_path = error_limit(3, rmax=60, digits=12)
    decimal_path = error_limit(3, rmax=60, digits=12, digit_budget=50)
    assert exact_path.estimate == decimal_path.estimate


def test_limit_validation():
    with pytest.raises(ValueError):
        error_limit(2)
    with pytest.raises(ValueError):
        error_limit(3, rmax=1)


def test_stabilized_flag_is_conservative():
    # at 30 digits a 200-round horizon cannot have settled 30 digits
    est = error_limit(3, rmax=200, digits=30)
    assert est.stabilized is False
    # at 3 digits the same horizon has long converged
    est3 = error_limit(3, rmax=200, digits=3)
    assert est3.stabilized is True
    assert str(est3.estimate).startswith("0.0421")


def _reference_partial_sum(n: int, r: int, p: int) -> Fraction:
    """sum_{j=1}^r (1/j^p)(n/(n-1))^(p(j-1)), term by term in Fractions."""
    q = Fraction(n, n - 1) ** p
    total, power = Fraction(0), Fraction(1)
    for j in range(1, r + 1):
        total += power / j**p
        power *= q
    return total


def test_partial_sums_match_term_by_term_loop():
    for n in range(2, 12):
        for r in list(range(0, 41)) + [100, 257]:
            mean = _reference_partial_sum(n, r, 1)
            assert approx_mean(n, r) == mean, (n, r)
            assert approx_variance(n, r) == _reference_partial_sum(n, r, 2) - mean, (n, r)


def _reference_error_limit(n, rmax=400, digits=None, digit_budget=10**4):
    """error_limit with the mean recurrence held as reduced Fractions until
    one passes `digit_budget` digits, then in Decimal from the Fraction rows."""
    if digits is None:
        digits = default_precision()
    half = rmax // 2
    wp = digits + max(0, ceil(rmax * log10(n / (n - 1)))) + 10
    a_half = _reference_partial_sum(n, half, 1)
    a_full = _reference_partial_sum(n, rmax, 1)
    window = [Fraction(0)]
    exact = True
    with localcontext() as ctx:
        ctx.prec = wp
        for k in range(1, rmax + 1):
            probs = transition_row(n, k).probs
            stay = probs[0]
            if exact:
                acc = Fraction(1)
                for t in range(1, min(n, k) + 1):
                    if probs[t]:
                        acc += probs[t] * window[-t]
                m = acc / (1 - stay)
                if max(_digits(m.numerator), _digits(m.denominator)) > digit_budget:
                    window = [to_decimal(v, wp) for v in window]
                    m = to_decimal(m, wp)
                    exact = False
            else:
                acc = Decimal(1)
                for t in range(1, min(n, k) + 1):
                    if probs[t]:
                        acc += to_decimal(probs[t], wp) * window[-t]
                m = acc / to_decimal(1 - stay, wp)
            window = (window + [m])[-n:]
            if k == half:
                e_half = to_decimal(m - a_half, wp) if exact else m - to_decimal(a_half, wp)
        e_full = to_decimal(m - a_full, wp) if exact else m - to_decimal(a_full, wp)
        gap_wide = abs(e_full - e_half)
    with localcontext() as ctx:
        ctx.prec = digits
        return str(+e_full), str(+gap_wide), +gap_wide < Decimal(1).scaleb(-(digits + 2))


@pytest.mark.parametrize(
    "args",
    [(3, 60, 30, 200), (7, 150, 40, 500), (6, 300, 80, 10**4), (9, 50), (3, 1000)],
)
def test_limit_matches_fraction_reference(args):
    # The digit-budget switch falls at different steps here, and never at
    # (9, 50); either way the integer recurrence must give the same digits.
    est = error_limit(*args)
    assert (str(est.estimate), str(est.gap), est.stabilized) == _reference_error_limit(*args)
