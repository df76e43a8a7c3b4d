"""Harmonic-geometric approximation of the mean duration and its error.

The mean duration for r balls in n cells is approximated by the partial sum

    A_n(r) = sum_{j=1}^{r} (1/j) (n/(n-1))^(j-1)

and the variance by sum_{j=1}^{r} (1/j^2) (n/(n-1))^(2j-2) - A_n(r).  The
error E_n(r) = M_n(r) - A_n(r) vanishes identically at n = 2 and appears to
approach a small n-dependent constant as r grows; `error_limit` estimates that
constant.  E_n(r) is a tiny difference of enormous numbers (both terms grow
like (n/(n-1))^r / r), so everything here is exact rational arithmetic, with
the limit estimator switching to high-precision decimals only once exact
numerators pass a digit budget, at a working precision wide enough to absorb
the cancellation.  The partial sums and the limit's exact phase are Horner
passes over integer numerators with known denominators: lcm(1..r) (n-1)^(r-1)
for the sums, the product Q_k of `law`'s nested mean recurrence for the limit.
Each result is reduced once, not term by term, and the long exact quotients
become Decimals through `scalars.decimal_quotient`.  A limit request whose
Decimal phase is estimated past the budget is refused before it runs.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, gcd, lcm, log10
from typing import NamedTuple

# transition_row is no longer called here, but perfbench/tracer.py wraps
# approx.transition_row by name, so the attribute stays.
from .game import _check_state, _row_numerators, transition_row  # noqa: F401
from .law import duration_variance, expected_duration
from .scalars import DEFAULT_LIMIT_ROUNDS, _check_budget, check_precision, decimal_quotient, to_decimal

DEFAULT_DIGIT_BUDGET = 10**4

# error_limit refuses a request whose Decimal phase is estimated past
# enum_budget() * LIMIT_WORK_SCALE digit products: 10^10 at the default
# budget, about 10 s on a 2-vCPU Xeon VM.  n = 3 runs to R = 8000 (6.9·10^9,
# 7.9 s); R = 100000 (4.6·10^12, over an hour) is refused.
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


def _harmonic_sum(n: int, r: int, p: int) -> tuple[int, int]:
    """(N, L) with sum_{j=1}^r (1/j^p)(n/(n-1))^(p(j-1)) = N / L^p, where
    L = lcm(1..r) (n-1)^(r-1); the sum is one Horner pass over integers."""
    _check_cells(n)
    _check_state(n, r)
    lcm_r = lcm(*range(1, r + 1))
    x, y = n**p, (n - 1) ** p
    total = 0
    power = 1
    for j in range(1, r + 1):
        total = total * y + (lcm_r // j) ** p * power
        power *= x
    return total, lcm_r * (n - 1) ** max(r - 1, 0)


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


def approx_report(n: int, r: int) -> ApproxReport:
    """Approximation against exact values, with error and convergence ratios."""
    total, den = _harmonic_sum(n, r, 1)
    a_mean = Fraction(total, den)
    a_var = _variance_over(n, r, total, den)
    e_mean = expected_duration(r, n)
    e_var = duration_variance(r, n)
    ratio_mean = to_decimal(e_mean / a_mean) if a_mean else None
    ratio_var = to_decimal(e_var / a_var) if a_var else None
    return ApproxReport(n, r, a_mean, e_mean, e_mean - a_mean, ratio_mean, a_var, e_var, ratio_var)


def _digits(value: int) -> int:
    return (value.bit_length() * 30103) // 100000 + 1


def _fits(p: int, q: int, budget: int) -> bool:
    return _digits(p) <= budget and _digits(q) <= budget


def _reduced_fits(p: int, q: int, g: int, budget: int) -> tuple[bool, int]:
    """(whether the reduced p/q has at most `budget` digits in numerator and
    denominator, the last full gcd), for g a divisor of q: the last full gcd
    so far, returned as it is unless gcd(p, q) had to be taken.

    A reduced fraction is never longer than p/q, so p/q fitting settles it.
    Else any common divisor h of p and q bounds the reduced form by p/h and
    q/h, so h = gcd(p, g) proves the fit when those fit; it is cheap while g
    is far shorter than q.  Only when neither does is gcd(p, q) taken, and it
    decides.
    """
    if _fits(p, q, budget):
        return True, g
    h = gcd(p, g)
    if _fits(p // h, q // h, budget):
        return True, g
    g = gcd(p, q)
    return _fits(p // g, q // g, budget), g


def _minus(p, q: int, a: Fraction, exact: bool) -> Decimal:
    """p/q - a in the exact phase (p an integer), p - a in the Decimal phase,
    as a Decimal at the active precision."""
    if exact:
        return decimal_quotient(p * a.denominator - a.numerator * q, q * a.denominator)
    return p - decimal_quotient(a.numerator, a.denominator)


def _check_limit_budget(n: int, rmax: int, wp: int) -> None:
    """Refuse an error_limit request whose Decimal phase passes the budget,
    before it runs.

    Step k of that phase turns min(n, k) + 1 capture numerators and n^k,
    ints of about D_k = k log10(n) digits, into Decimals, and takes as many
    quotients and products at wp digits.  Each is taken as D^1.585 digit
    products (Karatsuba), D the longer of its operands, so the phase is
    estimated at sum_k min(n, k) (D_k^1.585 + wp^1.585), summed in closed
    form; the exact phase, which stops at the digit budget, is left out.  On
    a 2-vCPU Xeon VM a digit product of this estimate took 0.9-1.4 ns from
    (3, 2000) to (400, 200), more on small requests, where fixed costs
    weigh; at n = 3 the phase grows as about R^2.6 (0.21, 1.26 and 7.9 s at
    R = 2000, 4000 and 8000), and working precisions of a few thousand
    digits run 2-3 times faster than estimated.  Those times were taken while
    n^k became a Decimal once a term, not once a step: the estimate runs over.
    """
    a, m = 1.585, min(n, rmax)
    conversions = log10(n) ** a * (m ** (a + 2) / (a + 2) + n * (rmax ** (a + 1) - m ** (a + 1)) / (a + 1))
    work = conversions + wp**a * (m * (m + 1) / 2 + n * (rmax - m))
    reason = (f"the error limit of {n} cells to {rmax} rounds runs its Decimal phase at {wp} digits on "
              f"integers of up to {rmax * log10(n):.3g} digits,")
    _check_budget(reason, work, "digit products", LIMIT_WORK_SCALE)


def error_limit(
    n: int,
    rmax: int = DEFAULT_LIMIT_ROUNDS,
    digits: int | None = None,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> LimitEstimate:
    """Estimate lim_r E_n(r) as E_n(rmax), with the half-horizon gap.

    The mean recurrence runs exactly, as integer numerators P_k over Q_k,
    until the reduced P_k/Q_k passes `digit_budget` digits; it then continues
    in Decimal at working precision digits + ceil(rmax log10(n/(n-1))) + 10:
    the extra term covers the magnitude of the two nearly-cancelling
    quantities, so the final difference still carries the requested number of
    correct digits.  The window of exact means is handed to the Decimal phase
    through `decimal_quotient`, which equals Decimal(P) / Decimal(Q) and so
    the Decimal of the reduced mean.

    Each exact step asks `_reduced_fits` with g the last full gcd
    gcd(P_j, Q_j) it took (1 before the first): g divides Q_j, and Q_j
    divides Q_k for j < k, so gcd(P_k, g) is a common divisor of P_k and Q_k
    and certifies most steps past the budget without a full gcd.  The switch
    falls at the first step where the reduced P_k/Q_k passes the budget, as
    if every step were reduced.

    Raises BudgetExceededError before any step when `_check_limit_budget`
    estimates the Decimal phase past enum_budget() * LIMIT_WORK_SCALE.
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

    # Rolling windows of the last n steps of law's nested integer mean
    # recurrence (M(k) = P_k/Q_k over D_k = n^k - a_0(k)); rows put no mass on
    # t > n.  A correctly rounded quotient does not depend on how the value is
    # held, so the unreduced P_k/Q_k converts as the reduced one would.
    ps, qs, ds = [0], [1], [1]
    q = 1
    g = 1
    exact = True
    e_half: Decimal | None = None
    with localcontext() as ctx:
        ctx.prec = wp
        for k in range(1, rmax + 1):
            row = _row_numerators(n, k)
            nk = n**k
            d = nk - row[0]
            if exact:
                p = 0
                for t in range(len(row) - 1, 0, -1):
                    p = p * ds[-t] + row[t] * ps[-t]
                p += nk * q
                q *= d
                exact, g = _reduced_fits(p, q, g, digit_budget)
                if not exact:
                    ps = [decimal_quotient(v, u) for v, u in zip(ps, qs)]
                    p = decimal_quotient(p, q)
            else:
                den = Decimal(nk)
                p = Decimal(1)
                for t in range(1, len(row)):
                    if row[t]:
                        p += Decimal(row[t]) / den * ps[-t]
                p /= Decimal(d) / den
            ps.append(p)
            qs.append(q)
            ds.append(d)
            if len(ps) > n:
                del ps[0], qs[0], ds[0]
            if k == half:
                e_half = _minus(p, q, a_half, exact)
        e_full = _minus(p, q, a_full, exact)
        gap_wide = abs(e_full - e_half)
    with localcontext() as ctx:
        ctx.prec = digits
        estimate = +e_full
        gap = +gap_wide
    return LimitEstimate(n, rmax, digits, estimate, gap, gap < Decimal(1).scaleb(-(digits + 2)))
