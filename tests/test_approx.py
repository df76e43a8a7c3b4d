"""Harmonic-sum approximation, its exact error, and the error-limit estimator."""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, log10

import random
import time
from math import gcd

import pytest

from ballcell import approx, cli
from ballcell.approx import (
    _digits,
    _reduced_fits,
    approx_mean,
    approx_report,
    approx_variance,
    error_limit,
    error_term,
)
from ballcell.errors import BudgetExceededError
from ballcell.game import transition_row
from ballcell.pgf import duration_variance, expected_duration
from ballcell.scalars import BUDGET_ENV, PRECISION_ENV, decimal_sqrt, default_precision, to_decimal

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
    # (3, 100000) ran for over an hour; its Decimal phase is estimated at
    # 4.64e12 digit products against 1e10 at the default budget.
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"about 4\.64e\+12 digit products; the budget is 1e\+10"):
        error_limit(3, rmax=100000)
    assert time.perf_counter() - started < 1


def test_limit_budget_follows_the_enumeration_budget(monkeypatch):
    # (3, 8000) runs in about 8 s at the default budget (6.9e9 of 1e10);
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
    with pytest.raises(ValueError, match=message):
        to_decimal(Fraction(1, 3), digits)
    with pytest.raises(ValueError, match=message):
        decimal_sqrt(Fraction(2), digits)
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


def _reference_error_limit(n, rmax=400, digits=None, digit_budget=10**4, switched=None):
    """error_limit with the mean recurrence held as reduced Fractions until
    one passes `digit_budget` digits, then in Decimal from the Fraction rows.
    The step of the switch is appended to `switched` when one is given."""
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
                    if switched is not None:
                        switched.append(k)
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


# The digit-budget switch falls at different steps here, and never at
# (9, 50).  In every other case the switch test certifies some steps past the
# budget with gcd(P_k, g) and has to take the full gcd at others.
LIMIT_CASES = [
    (3, 60, 30, 200),
    (7, 150, 40, 500),
    (6, 300, 80, 10**4),
    (9, 50),
    (3, 1000),
    (4, 300, 50, 5000),
    (5, 400, 20, 3000),
    (3, 400, 60, 20000),
]


@pytest.mark.parametrize("args", LIMIT_CASES)
def test_limit_matches_fraction_reference(args):
    # Wherever the switch falls, the integer recurrence must give the same
    # digits as reduced Fractions.
    est = error_limit(*args)
    assert (str(est.estimate), str(est.gap), est.stabilized) == _reference_error_limit(*args)


@pytest.mark.parametrize("args", LIMIT_CASES)
def test_switch_falls_where_the_reduced_mean_passes_the_budget(args, monkeypatch):
    # The switch is asked once per exact step, and the reference reduces every
    # step and records where it switches.  A gcd whose second operand is the
    # last full gcd (1 before the first) is a certificate; every other one is
    # a full gcd, taken only when the certificate before it failed.
    verdicts, gcds = [], {"certificates": 0, "full": 0, "g": 1}
    real_fits, real_gcd = approx._reduced_fits, approx.gcd

    def recording_fits(p, q, g, budget):
        fits, g = real_fits(p, q, g, budget)
        verdicts.append(fits)
        return fits, g

    def counting_gcd(a, b):
        result = real_gcd(a, b)
        if b == gcds["g"]:
            gcds["certificates"] += 1
        else:
            gcds["full"] += 1
            gcds["g"] = result
        return result

    monkeypatch.setattr(approx, "_reduced_fits", recording_fits)
    monkeypatch.setattr(approx, "gcd", counting_gcd)
    error_limit(*args)
    switched = []
    _reference_error_limit(*args, switched=switched)
    assert switched == ([verdicts.index(False) + 1] if False in verdicts else []), args
    if args != (9, 50):
        proved = gcds["certificates"] - gcds["full"]
        assert proved > 0 and gcds["full"] > 0, (args, gcds)


def test_reduced_fits_agrees_with_the_reduced_fraction():
    # g runs over divisors of q, as in error_limit; the three ways out (the
    # unreduced form fits, gcd(p, g) certifies, the full gcd decides) all
    # occur.
    rng = random.Random(5)
    ways = {"unreduced": 0, "certified": 0, "full": 0}
    for _ in range(600):
        common = rng.randrange(1, 10 ** rng.randrange(1, 60))
        p = common * rng.randrange(1, 10 ** rng.randrange(1, 60))
        q = common * rng.randrange(1, 10 ** rng.randrange(1, 60))
        g = rng.choice([1, gcd(p, q), gcd(q, rng.randrange(1, 10**30)), gcd(q, common * rng.randrange(1, 100))])
        budget = rng.randrange(1, 80)
        m = Fraction(p, q)
        want = _digits(m.numerator) <= budget and _digits(m.denominator) <= budget
        fits, g_out = _reduced_fits(p, q, g, budget)
        assert fits == want, (p, q, g, budget)
        h = gcd(p, g)
        if max(_digits(p), _digits(q)) <= budget:
            ways["unreduced"] += 1
        elif max(_digits(p // h), _digits(q // h)) <= budget:
            ways["certified"] += 1
        else:
            ways["full"] += 1
            assert g_out == gcd(p, q)
            continue
        assert g_out == g
    assert min(ways.values()) > 30, ways
