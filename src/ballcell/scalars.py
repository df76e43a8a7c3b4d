"""Exact scalars and their decimal presentation.

Rationals are stdlib ``fractions.Fraction`` values throughout the package:
always reduced, denominator positive, value equality, exact arithmetic, and a
``ZeroDivisionError`` on division by zero.  This module adds the pieces the
rest of the package needs around that: the "p/q" wire format used by the CLI,
conversion to fixed-precision decimals (round-half-even), and the two
environment-configurable knobs (decimal precision, enumeration budget).

Every exact-to-decimal conversion goes through `decimal_quotient`, which gives
``Decimal(p) / Decimal(q)`` bit for bit.  The decimal module converts an int
in time quadratic in its length (4.1 ms for a quotient of two 10k-digit
ints), so past INT_ROUTE_BITS the quotient is taken by one integer long
division to a few more digits than the context keeps, and the context rounds
that.
"""

from __future__ import annotations

import os
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from math import floor, log10

DEFAULT_PRECISION = 50
DEFAULT_ENUM_BUDGET = 10**7

# decimal_quotient divides with ints once an operand has more bits than this.
INT_ROUTE_BITS = 1500

PRECISION_ENV = "BALLCELL_PRECISION"
BUDGET_ENV = "BALLCELL_BUDGET"


def default_precision() -> int:
    """Active decimal precision in significant digits (>= 1)."""
    raw = os.environ.get(PRECISION_ENV)
    return DEFAULT_PRECISION if raw is None else check_precision(int(raw), PRECISION_ENV)


def check_precision(digits: int | None, name: str = "digits") -> int:
    """`digits`, default_precision() when None; a ValueError naming `name` unless >= 1."""
    if digits is None:
        return default_precision()
    if digits < 1:
        raise ValueError(f"{name} must be a positive integer, got {digits}")
    return digits


def enum_budget() -> int:
    """Maximum number of placements brute-force enumeration may visit."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_ENUM_BUDGET
    budget = int(raw)
    if budget < 1:
        raise ValueError(f"{BUDGET_ENV} must be a positive integer, got {raw!r}")
    return budget


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


def to_decimal(q: Fraction, digits: int | None = None) -> Decimal:
    """Convert exactly-held rational to a Decimal with `digits` significant digits.

    Rounding is round-half-even, matching the decimal module default.
    """
    with localcontext() as ctx:
        ctx.prec = check_precision(digits)
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


def decimal_sqrt(q: Fraction, digits: int | None = None) -> Decimal:
    """Square root of a nonnegative rational at the requested precision."""
    digits = check_precision(digits)
    if q < 0:
        raise ValueError(f"square root of negative value {q}")
    with localcontext() as ctx:
        # Two guard digits so the final quantity is good to `digits`.
        ctx.prec = digits + 2
        root = decimal_quotient(q.numerator, q.denominator).sqrt()
        ctx.prec = digits
        return +root
