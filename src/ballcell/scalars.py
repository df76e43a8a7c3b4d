"""Exact scalars and their decimal presentation.

Rationals are stdlib ``fractions.Fraction`` values throughout the package:
always reduced, denominator positive, value equality, exact arithmetic, and a
``ZeroDivisionError`` on division by zero.  This module adds the pieces the
rest of the package needs around that: the "p/q" wire format used by the CLI,
conversion to fixed-precision decimals (round-half-even), and the two
environment-configurable knobs (decimal precision, enumeration budget).
"""

from __future__ import annotations

import os
from decimal import Decimal, localcontext
from fractions import Fraction

DEFAULT_PRECISION = 50
DEFAULT_ENUM_BUDGET = 10**7

PRECISION_ENV = "BALLCELL_PRECISION"
BUDGET_ENV = "BALLCELL_BUDGET"


def default_precision() -> int:
    """Active decimal precision in significant digits (>= 1)."""
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_PRECISION
    digits = int(raw)
    if digits < 1:
        raise ValueError(f"{PRECISION_ENV} must be a positive integer, got {raw!r}")
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
    if digits is None:
        digits = default_precision()
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(q.numerator) / Decimal(q.denominator)


def decimal_sqrt(q: Fraction, digits: int | None = None) -> Decimal:
    """Square root of a nonnegative rational at the requested precision."""
    if q < 0:
        raise ValueError(f"square root of negative value {q}")
    if digits is None:
        digits = default_precision()
    with localcontext() as ctx:
        # Two guard digits so the final quantity is good to `digits`.
        ctx.prec = digits + 2
        root = (Decimal(q.numerator) / Decimal(q.denominator)).sqrt()
        ctx.prec = digits
        return +root
