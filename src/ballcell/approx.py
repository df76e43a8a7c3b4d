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
the cancellation.  The partial sums and the limit's exact phase run on
integer numerators over known denominators (lcm(1..r) (n-1)^(r-1) for the
sums, the product Q_k of the mean recurrence in `pgf`), so each result is
reduced once rather than term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, lcm, log10

# transition_row is no longer called here, but perfbench/tracer.py wraps
# approx.transition_row by name, so the attribute stays.
from .game import _row_numerators, transition_row  # noqa: F401
from .pgf import _weighted, duration_variance, expected_duration
from .scalars import default_precision, to_decimal

DEFAULT_LIMIT_ROUNDS = 400
DEFAULT_DIGIT_BUDGET = 10**4


@dataclass(frozen=True)
class ApproxReport:
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


@dataclass(frozen=True)
class LimitEstimate:
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
    if r < 0:
        raise ValueError(f"balls must be >= 0, got {r}")
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


def approx_variance(n: int, r: int) -> Fraction:
    """Partial sum sum_{j=1}^r (1/j^2)(n/(n-1))^(2j-2) minus the mean sum."""
    squares, den = _harmonic_sum(n, r, 2)
    total, _ = _harmonic_sum(n, r, 1)
    return Fraction(squares - total * den, den * den)


def error_term(n: int, r: int) -> Fraction:
    """E_n(r) = exact mean - approximate mean, exact."""
    _check_cells(n)
    return expected_duration(r, n) - approx_mean(n, r)


def approx_report(n: int, r: int) -> ApproxReport:
    """Approximation against exact values, with error and convergence ratios."""
    a_mean = approx_mean(n, r)
    a_var = approx_variance(n, r)
    e_mean = expected_duration(r, n)
    e_var = duration_variance(r, n)
    ratio_mean = to_decimal(e_mean / a_mean) if a_mean else None
    ratio_var = to_decimal(e_var / a_var) if a_var else None
    return ApproxReport(n, r, a_mean, e_mean, e_mean - a_mean, ratio_mean, a_var, e_var, ratio_var)


def _digits(value: int) -> int:
    return (value.bit_length() * 30103) // 100000 + 1


def _minus(p, q: int, a: Fraction, exact: bool) -> Decimal:
    """p/q - a in the exact phase (p an integer), p - a in the Decimal phase,
    as a Decimal at the active precision."""
    if exact:
        return Decimal(p * a.denominator - a.numerator * q) / Decimal(q * a.denominator)
    return p - Decimal(a.numerator) / Decimal(a.denominator)


def error_limit(
    n: int,
    rmax: int = DEFAULT_LIMIT_ROUNDS,
    digits: int | None = None,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> LimitEstimate:
    """Estimate lim_r E_n(r) as E_n(rmax), with the half-horizon gap.

    The mean recurrence runs exactly, as integer numerators P_k over Q_k,
    until the reduced P_k/Q_k passes `digit_budget` digits (the gcd is taken
    only once the unreduced P_k or Q_k does); it then continues in Decimal at
    working precision digits + ceil(rmax log10(n/(n-1))) + 10: the extra term
    covers the magnitude of the two nearly-cancelling quantities, so the final
    difference still carries the requested number of correct digits.
    """
    if n < 3:
        raise ValueError(f"limit estimation needs cells >= 3 (the n = 2 error is identically 0), got {n}")
    if rmax < 2:
        raise ValueError(f"rmax must be >= 2, got {rmax}")
    if digits is None:
        digits = default_precision()
    half = rmax // 2
    wp = digits + max(0, ceil(rmax * log10(n / (n - 1)))) + 10

    a_half = approx_mean(n, half)
    a_full = approx_mean(n, rmax)

    # Rolling windows of the last n steps of the integer mean recurrence in
    # pgf (M(k) = P_k/Q_k over D_k = n^k - a_0(k)); capture rows put no mass
    # on t > n, so the recurrence never reaches further back.  Decimal(a) /
    # Decimal(b) is correctly rounded, so it equals to_decimal of the reduced
    # a/b: how a value is held does not change the result.
    ps, qs, ds = [0], [1], [1]
    q = 1
    exact = True
    e_half: Decimal | None = None
    with localcontext() as ctx:
        ctx.prec = wp
        for k in range(1, rmax + 1):
            row = _row_numerators(n, k)
            nk = n**k
            d = nk - row[0]
            if exact:
                p = nk * q
                for t, a, w in _weighted(row, ds):
                    p += a * w * ps[-t]
                q *= d
                # a reduced fraction is never longer than its unreduced form,
                # so the reduced test (one gcd) is needed only past the budget
                if _digits(p) > digit_budget or _digits(q) > digit_budget:
                    m = Fraction(p, q)
                    if _digits(m.numerator) > digit_budget or _digits(m.denominator) > digit_budget:
                        ps = [Decimal(v) / Decimal(u) for v, u in zip(ps, qs)]
                        p = Decimal(p) / Decimal(q)
                        exact = False
            else:
                p = Decimal(1)
                for t in range(1, len(row)):
                    if row[t]:
                        p += Decimal(row[t]) / Decimal(nk) * ps[-t]
                p /= Decimal(d) / Decimal(nk)
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
