"""Harmonic-sum approximation, its exact error, and the error-limit estimator."""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, log10

import json
import time

import pytest

from ballcell import approx, cli
from ballcell.approx import approx_mean, approx_report, approx_variance, error_limit, error_term
from ballcell.errors import BudgetExceededError
from ballcell.game import transition_row
from ballcell.pgf import duration_variance, expected_duration
from ballcell.scalars import BUDGET_ENV, PRECISION_ENV, decimal_quotient, default_precision, to_decimal
from oracles import harmonic_sum_from_scratch

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


def test_ratios_are_none_exactly_where_the_docstring_says():
    # The mean ratio is None at r = 0 alone; the variance ratio at r <= 1 and
    # at (2, 2), where the approximation is (1 + 1) - (1 + 1) = 0 against an
    # exact variance of 2.
    for n in range(2, 13):
        for r in range(41):
            rep = approx_report(n, r)
            assert (rep.ratio_mean is None) == (r == 0), (n, r)
            assert (rep.ratio_variance is None) == (r <= 1 or (n, r) == (2, 2)), (n, r)
            if rep.ratio_mean is None:
                assert rep.approx_mean == 0
            if rep.ratio_variance is None:
                assert rep.approx_variance == 0, (n, r)
    assert approx_report(2, 2).exact_variance == 2


def test_limit_estimate_near_target():
    est = error_limit(3, rmax=200, digits=30)
    assert est.cells == 3 and est.rmax == 200 and est.digits == 30
    got = Fraction(str(est.estimate))
    assert abs(got - Fraction("0.04213658385")) < Fraction(1, 10**9)
    # the half-horizon gap brackets the convergence scale
    assert Decimal(0) < est.gap < Decimal("1e-10")


# error_limit(n) at the defaults (400 rounds, 50 digits) as (estimate, gap,
# stabilized), recorded from the recurrence that summed each weighted term
# separately.
LIMIT_GOLDEN = {
    3: ("0.042136583849529744200633939119875660545665144511524",
        "1.3513115707035263881561533555778652347838542098706E-25", False),
    4: ("0.25446153007541651904941872388474526695528921260610",
        "9.7349530381834701965458986674849360974602142287011E-11", False),
    5: ("0.53134273350728946058124764097247558209585393713429",
        "0.0000051652866441127471060888725022675126311066875113773", False),
}


@pytest.mark.parametrize("n", sorted(LIMIT_GOLDEN))
def test_limit_golden_at_defaults(n, monkeypatch):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    est = error_limit(n)
    assert (est.cells, est.rmax, est.digits) == (n, 400, 50)
    assert (str(est.estimate), str(est.gap), est.stabilized) == LIMIT_GOLDEN[n]


def test_over_budget_limit_is_refused_before_it_runs(monkeypatch):
    # (3, 100000) ran for over an hour; its recurrence is estimated at
    # 4.64e12 digit products against 1e10 at the default budget.
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"about 4\.64e\+12 digit products; the budget is 1e\+10"):
        error_limit(3, rmax=100000)
    assert time.perf_counter() - started < 1


def test_limit_budget_follows_the_enumeration_budget(monkeypatch):
    # (3, 8000) runs in about 5 s at the default budget (6.9e9 of 1e10);
    # a budget a tenth as large refuses it, and the default requests stay
    # far inside one a hundredth as large.
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    approx._check_limit_budget(3, 8000, 50 + ceil(8000 * log10(1.5)) + 10)
    monkeypatch.setenv(BUDGET_ENV, str(10**6))
    with pytest.raises(BudgetExceededError, match=r"about 6\.92e\+09 digit products"):
        error_limit(3, rmax=8000)
    monkeypatch.setenv(BUDGET_ENV, str(10**5))
    for n in (3, 4, 5, 100):
        error_limit(n, rmax=approx.DEFAULT_LIMIT_ROUNDS if n < 100 else 60)


def test_limit_validation():
    with pytest.raises(ValueError):
        error_limit(2)
    with pytest.raises(ValueError):
        error_limit(3, rmax=1)


@pytest.mark.parametrize("digits", [0, -5])
def test_digits_below_one_are_refused_up_front(digits, monkeypatch, capsys):
    # Refused before the limit's budget estimate, let alone its recurrence,
    # and not by decimal's own "valid range for prec" once they have run.
    def ran(*args):
        raise AssertionError("error_limit ran before checking digits")

    monkeypatch.setattr(approx, "_check_limit_budget", ran)
    message = f"digits must be a positive integer, got {digits}"
    with pytest.raises(ValueError, match=message):
        error_limit(3, digits=digits)
    assert cli.run(["approx", "--cells", "3", "--limit", "--digits", str(digits)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setenv(PRECISION_ENV, str(digits))
    with pytest.raises(ValueError, match=f"{PRECISION_ENV} must be a positive integer, got {digits}"):
        default_precision()


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


# (n, r) requests in the orders a caller may send them: ascending and
# descending sweeps, repeats, two n interleaved, r = 0 and 1 after longer
# sums, n = 2 and n >= 100.
HARMONIC_SEQUENCES = [
    [(3, r) for r in range(0, 60)],
    [(4, r) for r in range(60, -1, -7)],
    [(5, 17), (5, 17), (5, 9), (5, 9), (5, 30), (5, 30)],
    [(n, r) for r in range(0, 45, 4) for n in (2, 7)],
    [(6, 40), (6, 1), (6, 0), (6, 1), (6, 41), (6, 0)],
    [(100, 3), (101, 50), (100, 80), (101, 49), (250, 120), (100, 2)],
]


@pytest.mark.parametrize("requests", HARMONIC_SEQUENCES)
def test_running_sums_match_the_from_scratch_sum(requests, monkeypatch):
    monkeypatch.setattr(approx, "_HARMONIC", {})
    for n, r in requests:
        for p in (1, 2):
            assert approx._harmonic_sum(n, r, p) == harmonic_sum_from_scratch(n, r, p), (n, r, p)


@pytest.mark.parametrize("precision", [7, 80])
def test_report_matches_fraction_arithmetic(precision, monkeypatch):
    # The ratios keep to_decimal's precision: equal Decimals, exponents and
    # trailing zeros included.
    monkeypatch.setenv(PRECISION_ENV, str(precision))
    for n, r in [(2, 0), (2, 1), (3, 1), (3, 2), (4, 12), (7, 30), (12, 5), (30, 30), (3, 60)]:
        num, den = harmonic_sum_from_scratch(n, r, 1)
        squares, _ = harmonic_sum_from_scratch(n, r, 2)
        a_mean, a_var = Fraction(num, den), Fraction(squares, den * den) - Fraction(num, den)
        e_mean, e_var = expected_duration(r, n), duration_variance(r, n)
        want = (n, r, a_mean, e_mean, e_mean - a_mean, to_decimal(e_mean / a_mean) if a_mean else None,
                a_var, e_var, to_decimal(e_var / a_var) if a_var else None)
        assert repr(approx_report(n, r)) == repr(approx.ApproxReport(*want)), (n, r)


def test_two_cell_mean_ratios_are_exactly_one():
    # The n = 2 error vanishes, so each mean ratio is an exact quotient.
    assert approx_report(2, 0).ratio_mean is None
    for r in range(1, 61):
        assert approx_report(2, r).ratio_mean.as_tuple() == Decimal(1).as_tuple(), r


def _digits(value: int) -> int:
    return (value.bit_length() * 30103) // 100000 + 1


def _in_context(value):
    """A Fraction as a Decimal of the active context's precision."""
    return decimal_quotient(value.numerator, value.denominator)


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
                    window = [_in_context(v) for v in window]
                    m = _in_context(m)
                    exact = False
            else:
                acc = Decimal(1)
                for t in range(1, min(n, k) + 1):
                    if probs[t]:
                        acc += _in_context(probs[t]) * window[-t]
                m = acc / _in_context(1 - stay)
            window = (window + [m])[-n:]
            if k == half:
                e_half = _in_context(m - a_half) if exact else m - _in_context(a_half)
        e_full = _in_context(m - a_full) if exact else m - _in_context(a_full)
        gap_wide = abs(e_full - e_half)
    with localcontext() as ctx:
        ctx.prec = digits
        return str(+e_full), str(+gap_wide), +gap_wide < Decimal(1).scaleb(-(digits + 2))


# (n, rmax, digits, the reference's digit budget): the reference switches
# from Fractions to Decimal at a different step in each case, and never at
# (9, 50) or (3, 60, 12, 10**4).
LIMIT_CASES = [
    (3, 60, 30, 200),
    (7, 150, 40, 500),
    (6, 300, 80, 10**4),
    (9, 50),
    (3, 1000),
    (4, 300, 50, 5000),
    (5, 400, 20, 3000),
    (3, 400, 60, 20000),
    (3, 60, 12, 50),
    (3, 60, 12, 10**4),
]


@pytest.mark.parametrize("args", LIMIT_CASES)
def test_limit_matches_fraction_reference(args):
    # Wherever the reference leaves its Fractions, the Decimal recurrence
    # must give the same digits.
    est = error_limit(*args[:3])
    assert (str(est.estimate), str(est.gap), est.stabilized) == _reference_error_limit(*args)


@pytest.mark.parametrize("n", range(3, 13))
def test_short_horizons_match_the_fraction_reference(n):
    # The reference stays in Fractions throughout and prints a terminating
    # value in its shortest form; error_limit prints every one of its 20
    # digits, so the two agree as values.
    for rmax in range(2, 9):
        est = error_limit(n, rmax, 20)
        estimate, gap, stabilized = _reference_error_limit(n, rmax, 20)
        assert (est.estimate, est.gap, est.stabilized) == (Decimal(estimate), Decimal(gap), stabilized), rmax
        assert len(est.estimate.as_tuple().digits) == len(est.gap.as_tuple().digits) == 20, rmax


def test_a_terminating_estimate_keeps_its_trailing_zeros(capsys):
    assert cli.run(["approx", "--cells", "3", "--limit", "--rmax", "2", "--digits", "20"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["estimate"], result["gap"]) == ("-0.25000000000000000000", "0.25000000000000000000")


@pytest.mark.parametrize("digits", [5, 20])
def test_a_short_terminating_estimate_prints_every_digit(digits, capsys):
    # -0.375 is exact in the recurrence's divisions, and still prints with
    # `digits` significant digits.
    assert cli.run(["approx", "--cells", "5", "--limit", "--rmax", "2", "--digits", str(digits)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["estimate"], result["gap"]) == ("-0.375" + "0" * (digits - 3), "0.375" + "0" * (digits - 3))
