"""Exact scalars and their decimal presentation.

Rationals are stdlib ``fractions.Fraction`` values throughout the package:
always reduced, denominator positive, value equality, exact arithmetic, and a
``ZeroDivisionError`` on division by zero.  This module adds the pieces the
rest of the package needs around that: the "p/q" wire format used by the CLI,
conversion to fixed-precision decimals (round-half-even), the two
environment-configurable knobs (decimal precision, budget), and
`_check_budget`, the one refusal of every cost estimate.

Every exact-to-decimal conversion goes through `decimal_quotient`, which gives
``Decimal(p) / Decimal(q)`` bit for bit.  The decimal module converts an int
in time quadratic in its length (4.1 ms for a quotient of two 10k-digit
ints), so past INT_ROUTE_BITS the quotient is taken by one integer long
division to a few more digits than the context keeps, and the context rounds
that.

`chi_square_quantile` gives the statistical gate its threshold.
"""

from __future__ import annotations

import os
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from math import erfc, exp, floor, fsum, inf, lgamma, log, log10, sqrt

from .errors import BudgetExceededError

DEFAULT_PRECISION = 50
DEFAULT_ENUM_BUDGET = 10**7

# Rounds of approx.error_limit by default.  It sits here, with the other
# defaults, so that building the command-line parser imports no approx.
DEFAULT_LIMIT_ROUNDS = 400

# decimal_quotient divides with ints once an operand has more bits than this.
INT_ROUTE_BITS = 1500

PRECISION_ENV = "BALLCELL_PRECISION"
BUDGET_ENV = "BALLCELL_BUDGET"


def _env_int(name: str, default: int) -> int:
    """The positive integer in environment variable `name`, `default` when
    unset; a ValueError naming the variable for anything else."""
    raw = os.environ.get(name, str(default))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw}")
    return int(raw)


def default_precision() -> int:
    """Active decimal precision in significant digits (>= 1)."""
    return _env_int(PRECISION_ENV, DEFAULT_PRECISION)


def enum_budget() -> int:
    """The budget every cost refusal scales (BALLCELL_BUDGET, 10^7 by
    default): brute-force placements, simulation state size and words drawn,
    exact-law digits, mean-table and error-limit digit products."""
    return _env_int(BUDGET_ENV, DEFAULT_ENUM_BUDGET)


def _check_budget(reason: str, estimate: float, units: str, scale: int | Fraction = 1,
                  budget: int | None = None, is_log: bool = False) -> None:
    """Refuse an estimate past its budget with BudgetExceededError "<reason>
    about X <units>; the budget is Y (BALLCELL_BUDGET * scale)".  The budget
    is enum_budget() * scale rounded down, or the fixed `budget` of the
    symbolic ceiling, without the parenthesis.  With is_log, `estimate` is
    a natural log, for an estimate past the float range."""
    source = ""
    if budget is None:
        budget, source = enum_budget() * scale // 1, f" ({BUDGET_ENV} * {float(scale):g})"
    if estimate <= (log(budget) if is_log else budget):
        return
    about = _about(estimate if is_log else log(estimate))
    raise BudgetExceededError(f"{reason} about {about} {units}; the budget is {budget:g}{source}")


def _about(log_value: float) -> str:
    """exp(log_value) to 3 significant digits, also past the float range."""
    digits = log_value / log(10)
    try:
        return f"{10**digits:.3g}"
    except OverflowError:
        head, carry = f"{10 ** (digits % 1):.2e}".split("e")
        return f"{float(head):g}e+{int(digits) + int(carry)}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optionally signed) into an exact rational.

    Decimal-point input is deliberately rejected: the wire format is exact.
    """
    s = text.strip()
    if "." in s or not s:
        raise ValueError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a p/q rational: {text!r}") from exc


def to_decimal(q: Fraction) -> Decimal:
    """An exactly-held rational as a Decimal of default_precision()
    significant digits (BALLCELL_PRECISION), rounded half-even."""
    with localcontext() as ctx:
        ctx.prec = default_precision()
        return decimal_quotient(q.numerator, q.denominator)


def decimal_quotient(p: int, q: int) -> Decimal:
    """Decimal(p) / Decimal(q) under the active context: same as_tuple(),
    same signals.

    Past INT_ROUTE_BITS, |p| 10^s // |q| is taken with s chosen so that it
    has at least prec + 2 digits.  A nonzero remainder makes the quotient
    inexact, and a last digit 1 appended for it keeps the discarded tail on
    the same side of every rounding boundary as the true one, so `scaleb`
    rounds the signed digits exactly as the division would, in any rounding
    mode.  An exact quotient is left to the division, whose exponent follows
    the operands'.
    """
    if max(p.bit_length(), q.bit_length()) <= INT_ROUTE_BITS or not p or not q:
        return Decimal(p) / Decimal(q)
    # |p/q| > 2^(bits(p) - 1 - bits(q)); the floor may err by one digit in
    # float, which the margin of two absorbs.
    shift = getcontext().prec + 2 - floor((p.bit_length() - 1 - q.bit_length()) * log10(2))
    num, den = abs(p), abs(q)
    if shift > 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    digits, rem = divmod(num, den)
    if not rem:
        return Decimal(p) / Decimal(q)
    digits = 10 * digits + 1
    return Decimal(digits if (p < 0) == (q < 0) else -digits).scaleb(-shift - 1)


def decimal_sqrt(q: Fraction) -> Decimal:
    """Square root of a nonnegative rational to default_precision()
    significant digits (BALLCELL_PRECISION)."""
    digits = default_precision()
    if q < 0:
        raise ValueError(f"square root of negative value {q}")
    with localcontext() as ctx:
        # Two guard digits so the final quantity is good to `digits`.
        ctx.prec = digits + 2
        root = decimal_quotient(q.numerator, q.denominator).sqrt()
        ctx.prec = digits
        return +root


def _chi_square_sf(x: float, dof: int) -> float:
    """Pr[X > x] for X chi-square on an integer `dof` >= 1, at x > 0.

    Abramowitz & Stegun 26.4.4 (even dof) and 26.4.5 (odd dof) in h = x/2:
    e^-h times the sum of h^k / Gamma(k + 1) for k = dof/2 - 1, dof/2 - 2, ...
    down to 0 or 1/2, plus erfc(sqrt(h)) for odd dof.  Each term is taken in
    log space, because e^-h alone underflows at large dof.  The terms are
    Poisson probabilities of mean h (A&S 26.4.21), log-concave with curvature
    below -1/(k + 1), so those d >= 40 + sqrt(1600 + 80 (h + 1)) steps from the
    largest (within a step of k = h, or at an end) are under e^-40 of it and
    are left out.
    """
    h, half, count = x / 2, dof % 2 / 2, dof // 2
    log_h = log(h)
    top, width = min(max(round(h - half), 0), count - 1), 41 + sqrt(1600 + 80 * (h + 1))
    window = range(max(0, int(top - width)), min(count, int(top + width) + 1))
    head = erfc(sqrt(h)) if half else 0.0
    return head + fsum([exp((j + half) * log_h - h - lgamma(j + half + 1)) for j in window])


def chi_square_quantile(p: float, dof: int) -> float:
    """The x with Pr[X <= x] = p for X chi-square on an integer `dof` >= 1.

    The root is bracketed by doubling from 1, then bisected until the midpoint
    meets an endpoint.  1 - p is exact for p >= 1/2.

    The bisection evaluates only the midpoints near the root.  The computed
    sum carries a rounding error of about e = (2 + h |log h|) ulps of 1 - p,
    which makes it non-monotone within a few e / density of the root (several
    hundred ulps of x at dof 20000), so a bisection from another bracket could
    end on another float.  Newton steps on log Pr[X > x], safeguarded by
    midpoints, find an x whose sum is within 4e of 1 - p; a midpoint more than
    64 e / density(x) from that x takes the side the root is on without the
    sum, and the bisection ends where it would have ended.  The doubling
    bracket [hi/2, hi] ([0, 1] below 1) is found from 2^bit_length(dof).
    """
    if dof < 1 or not 0 < p < 1:
        raise ValueError(f"chi-square quantile needs dof >= 1 and 0 < p < 1, got dof={dof}, p={p}")
    tail = 1 - p
    hi = 2.0 ** dof.bit_length()
    while _chi_square_sf(hi, dof) > tail:
        hi *= 2
    while hi > 1 and _chi_square_sf(hi / 2, dof) <= tail:
        hi /= 2
    lo, hi = start = (hi / 2 if hi > 1 else 0.0), hi
    x, below, above = hi, -inf, inf
    while True:
        h, sf = x / 2, _chi_square_sf(x, dof)
        slack = 2.0**-50 * tail * (2 + h * abs(log(h)))
        density = exp((dof / 2 - 1) * log(h) - h - lgamma(dof / 2)) / 2
        if abs(sf - tail) <= slack:
            below, above = x - 16 * slack / density, x + 16 * slack / density
            break
        lo, hi = (x, hi) if sf > tail else (lo, x)
        step = x + log(sf / tail) * sf / density if sf and density else inf
        x = step if lo < step < hi else (lo + hi) / 2
        if not lo < x < hi:
            break
    lo, hi = start
    while lo < (mid := (lo + hi) / 2) < hi:
        if mid <= below or (mid < above and _chi_square_sf(mid, dof) > tail):
            lo = mid
        else:
            hi = mid
    return mid
