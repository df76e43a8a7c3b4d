"""Harmonic-geometric approximation of the mean duration and its error.

The mean duration for r balls in n cells is approximated by the partial sum

    A_n(r) = sum_{j=1}^{r} (1/j) (n/(n-1))^(j-1)

and the variance by sum_{j=1}^{r} (1/j^2) (n/(n-1))^(2j-2) - A_n(r).  The
error E_n(r) = M_n(r) - A_n(r) vanishes identically at n = 2 and appears to
approach a small n-dependent constant as r grows; `error_limit` estimates that
constant.  E_n(r) is a tiny difference of enormous numbers (both terms grow
like (n/(n-1))^r / r).  The partial sums are exact: Horner passes over
integer numerators over lcm(1..r) (n-1)^(r-1), reduced once, not term by
term.  Each (n, p) keeps the last sum it ran, so a request at that r or
above resumes it, and one below starts again from j = 1.  The report's
ratios are decimal quotients of cross products, with no Fraction division.
The limit runs the mean recurrence in Decimal at a working precision wide
enough to absorb the cancellation, and meets the sums there through
`scalars.decimal_quotient`.  A limit request whose recurrence is estimated
past the budget is refused before it runs.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, lcm, log10
from typing import NamedTuple

# transition_row is no longer called here, but perfbench/tracer.py wraps
# approx.transition_row by name, so the attribute stays.
from .game import _check_state, _row_numerators, transition_row  # noqa: F401
from .law import duration_variance, expected_duration
from .scalars import DEFAULT_LIMIT_ROUNDS, _check_budget, check_precision, decimal_quotient

# error_limit refuses a request whose recurrence is estimated past
# enum_budget() * LIMIT_WORK_SCALE digit products: 10^10 at the default
# budget, about 10 s on a 2-vCPU Xeon VM.  n = 3 runs to R = 8000 (6.9·10^9,
# 4.5-4.8 s); R = 100000 (4.6·10^12, over an hour) is refused.
LIMIT_WORK_SCALE = 1000


class ApproxReport(NamedTuple):
    """Approximate vs exact mean and variance for one (n, r).

    `error` is exact_mean - approx_mean, exact.  Ratios are exact/approx at
    the active precision; None when the approximation is zero (r <= 1 for the
    variance), where the ratio is undefined.
    """

    cells: int
    balls: int
    approx_mean: Fraction
    exact_mean: Fraction
    error: Fraction
    ratio_mean: Decimal | None
    approx_variance: Fraction
    exact_variance: Fraction
    ratio_variance: Decimal | None


class LimitEstimate(NamedTuple):
    """E_n(rmax) in decimals, with the gap to the half-horizon value.

    `stabilized` records whether the gap beat 10^-(digits+2); with many
    requested digits the honest answer is often False even though far fewer
    digits have long since settled.
    """

    cells: int
    rmax: int
    digits: int
    estimate: Decimal
    gap: Decimal
    stabilized: bool


def _check_cells(n: int) -> None:
    if n < 2:
        raise ValueError(f"approximation needs cells >= 2, got {n}")


# (n, p) -> (r, N_r, lcm(1..r), n^(p r)): the last state `_harmonic_sum` held
# for that sum.  Each entry is replaced whole, never mutated.
_HARMONIC: dict[tuple[int, int], tuple[int, int, int, int]] = {}


def _harmonic_sum(n: int, r: int, p: int) -> tuple[int, int]:
    """(N, L) with sum_{j=1}^r (1/j^p)(n/(n-1))^(p(j-1)) = N / L^p, where
    L = lcm(1..r) (n-1)^(r-1).

    The sum runs from the state held for (n, p) when that state is at r or
    below, and from j = 1 otherwise.  Step j takes l_j = lcm(l_{j-1}, j) and
    N_j = N_{j-1} ((l_j / l_{j-1}) (n-1))^p + (l_j / j)^p n^(p(j-1)), one
    Horner step over integers, and the state at r replaces the held one.
    """
    _check_cells(n)
    _check_state(n, r)
    state = _HARMONIC.get((n, p))
    k, total, lcm_k, power = state if state is not None and state[0] <= r else (0, 0, 1, 1)
    x = n**p
    for j in range(k + 1, r + 1):
        lcm_j = lcm(lcm_k, j)
        total = total * (lcm_j // lcm_k * (n - 1)) ** p + (lcm_j // j) ** p * power
        lcm_k = lcm_j
        power *= x
    if r > k:
        _HARMONIC[n, p] = (r, total, lcm_k, power)
    return total, lcm_k * (n - 1) ** max(r - 1, 0)


def approx_mean(n: int, r: int) -> Fraction:
    """Partial sum sum_{j=1}^r (1/j)(n/(n-1))^(j-1), exact."""
    return Fraction(*_harmonic_sum(n, r, 1))


def _variance_over(n: int, r: int, total: int, den: int) -> Fraction:
    """approx_variance from the mean sum total / den = _harmonic_sum(n, r, 1);
    the squares share its L."""
    squares, _ = _harmonic_sum(n, r, 2)
    return Fraction(squares - total * den, den * den)


def approx_variance(n: int, r: int) -> Fraction:
    """Partial sum sum_{j=1}^r (1/j^2)(n/(n-1))^(2j-2) minus the mean sum."""
    return _variance_over(n, r, *_harmonic_sum(n, r, 1))


def error_term(n: int, r: int) -> Fraction:
    """E_n(r) = exact mean - approximate mean, exact."""
    _check_cells(n)
    return expected_duration(r, n) - approx_mean(n, r)


def _ratio(e: Fraction, a: Fraction) -> Decimal | None:
    """to_decimal(e / a) from the cross products, without the Fraction
    division's gcds; None when a is 0."""
    if not a:
        return None
    with localcontext() as ctx:
        ctx.prec = check_precision(None)
        return decimal_quotient(e.numerator * a.denominator, e.denominator * a.numerator)


def approx_report(n: int, r: int) -> ApproxReport:
    """Approximation against exact values, with error and convergence ratios."""
    total, den = _harmonic_sum(n, r, 1)
    a_mean = Fraction(total, den)
    a_var = _variance_over(n, r, total, den)
    e_mean = expected_duration(r, n)
    e_var = duration_variance(r, n)
    ratio_mean = _ratio(e_mean, a_mean)
    ratio_var = _ratio(e_var, a_var)
    return ApproxReport(n, r, a_mean, e_mean, e_mean - a_mean, ratio_mean, a_var, e_var, ratio_var)


def _significant(value: Decimal, digits: int) -> Decimal:
    """A nonzero `value` of at most `digits` significant digits written with
    exactly `digits` of them; 0 as it is."""
    return value.quantize(Decimal(1).scaleb(value.adjusted() + 1 - digits)) if value else value


def _check_limit_budget(n: int, rmax: int, wp: int) -> None:
    """Refuse an error_limit request whose recurrence passes the budget,
    before it runs.

    Step k turns min(n, k) capture numerators, n^k and n^k - a_0(k), ints
    of about D_k = k log10(n) digits, into Decimals once each, and takes
    about as many quotients and products at wp digits.  Each is taken as
    D^1.585 digit products (Karatsuba), D the longer of its operands, so the
    recurrence is estimated at sum_k min(n, k) (D_k^1.585 + wp^1.585),
    summed in closed form.  On a 2-vCPU Xeon VM a digit product of this
    estimate took 0.34-0.66 ns from (12, 3000) to (3, 8000) and 0.4 ns at
    (400, 200), more on small requests, where fixed costs weigh; at n = 3
    the recurrence grows as about R^2.8 (0.10, 0.66 and 4.6 s at R = 2000,
    4000 and 8000), so the estimate runs over.
    """
    a, m = 1.585, min(n, rmax)
    conversions = log10(n) ** a * (m ** (a + 2) / (a + 2) + n * (rmax ** (a + 1) - m ** (a + 1)) / (a + 1))
    work = conversions + wp**a * (m * (m + 1) / 2 + n * (rmax - m))
    reason = (f"the error limit of {n} cells to {rmax} rounds runs its Decimal recurrence at {wp} digits on "
              f"integers of up to {rmax * log10(n):.3g} digits,")
    _check_budget(reason, work, "digit products", LIMIT_WORK_SCALE)


def error_limit(n: int, rmax: int = DEFAULT_LIMIT_ROUNDS, digits: int | None = None) -> LimitEstimate:
    """Estimate lim_r E_n(r) as E_n(rmax), with the half-horizon gap.

    The mean recurrence M(k) = (1 + sum_{t>=1} p_t M(k-t)) / (1 - p_0), p_t
    the capture row of k balls, runs in Decimal at working precision
    digits + ceil(rmax log10(n/(n-1))) + 10: the middle term covers the
    magnitude of the two nearly-cancelling quantities M and A, so their
    difference still carries the requested number of correct digits.  Since
    sum_{t>=1} p_t = 1 - p_0, each M(k) is 1/(1 - p_0) plus a weighted mean
    of earlier means, so rounding errors are averaged, not amplified: about
    rmax (min(n, rmax) + 3) ulps after rmax steps, inside the 10 guard
    digits.  A nonzero estimate and gap print `digits` significant digits
    even where they terminate (-0.37500000000000000000 at (5, 2), 20
    digits).

    Raises BudgetExceededError before any step when `_check_limit_budget`
    estimates the recurrence past enum_budget() * LIMIT_WORK_SCALE.
    """
    if n < 3:
        raise ValueError(f"limit estimation needs cells >= 3 (the n = 2 error is identically 0), got {n}")
    if rmax < 2:
        raise ValueError(f"rmax must be >= 2, got {rmax}")
    digits = check_precision(digits)
    half = rmax // 2
    wp = digits + max(0, ceil(rmax * log10(n / (n - 1)))) + 10
    _check_limit_budget(n, rmax, wp)

    a_half = approx_mean(n, half)
    a_full = approx_mean(n, rmax)

    # Rolling window of the last n means; rows put no mass on t > n.
    ms = [0]
    with localcontext() as ctx:
        ctx.prec = wp
        for k in range(1, rmax + 1):
            row = _row_numerators(n, k)
            nk = n**k
            den = Decimal(nk)
            m = Decimal(1)
            for t in range(1, len(row)):
                if row[t]:
                    m += Decimal(row[t]) / den * ms[-t]
            m /= Decimal(nk - row[0]) / den
            ms.append(m)
            if len(ms) > n:
                del ms[0]
            if k == half:
                e_half = m - decimal_quotient(a_half.numerator, a_half.denominator)
        e_full = m - decimal_quotient(a_full.numerator, a_full.denominator)
        gap_wide = abs(e_full - e_half)
    with localcontext() as ctx:
        ctx.prec = digits
        estimate, gap = _significant(+e_full, digits), _significant(+gap_wide, digits)
    return LimitEstimate(n, rmax, digits, estimate, gap, gap < Decimal(1).scaleb(-(digits + 2)))
