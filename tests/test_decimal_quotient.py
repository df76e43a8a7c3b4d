"""scalars.decimal_quotient against the decimal module's own division.

Every case compares as_tuple() and the context's flags with
Decimal(p) / Decimal(q) taken under the same context, over operands of 1 to
24k digits on both sides of INT_ROUTE_BITS and precisions 1 to 400.
"""

import random
from decimal import ROUND_05UP, ROUND_DOWN, ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest

from ballcell.scalars import INT_ROUTE_BITS, PRECISION_ENV, decimal_quotient, to_decimal

PRECISIONS = (1, 2, 3, 9, 28, 50, 130, 400)


def _same(p, q, prec, rounding=ROUND_HALF_EVEN):
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = prec, rounding
        got = decimal_quotient(p, q)
        got_flags = dict(ctx.flags)
        ctx.clear_flags()
        want = Decimal(p) / Decimal(q)
        assert got.as_tuple() == want.as_tuple(), (p, q, prec, rounding)
        assert got_flags == dict(ctx.flags), (p, q, prec, rounding)


def _number(rng, digits):
    return rng.randrange(10 ** (digits - 1), 10**digits)


def test_random_operands_of_1_to_24k_digits():
    rng = random.Random(20231)
    sizes = (1, 2, 40, 451, 452, 460, 1000, 5000, 24000)
    routed = 0
    for _ in range(400):
        p, q = _number(rng, rng.choice(sizes)), _number(rng, rng.choice(sizes))
        p = -p if rng.random() < 0.3 else p
        q = -q if rng.random() < 0.1 else q
        routed += max(p.bit_length(), q.bit_length()) > INT_ROUTE_BITS
        _same(p, q, rng.choice(PRECISIONS))
    assert routed > 250


@pytest.mark.parametrize("prec", PRECISIONS)
def test_exact_quotients_keep_the_division_exponent(prec):
    q = 3**2000 * 7
    for m in (1, 10, 2**60, 10**prec, 5 * 10**(prec + 3), 123456789):
        _same(q * m, q, prec)
        _same(-q * m, q, prec)
        _same(q * m * 10**30, q * 10**30, prec)
    _same(0, q, prec)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_nines_carry_into_a_new_digit(prec):
    # 10^k - 1 rounds up to 10^k at any precision below k digits, and a
    # quotient just under a power of ten carries the same way.
    for k in (500, 3000, 24000):
        _same(10**k - 1, 1, prec)
        _same(10**k - 1, 3, prec)
        _same(-(10**k - 1), 7, prec)
    q = 11**1500
    for k in (0, 3, 40):
        _same(10**k * q - 1, q, prec)
        _same(10**k * q + 1, q, prec)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("rounding", (ROUND_HALF_EVEN, ROUND_HALF_UP, ROUND_DOWN, ROUND_05UP))
def test_exact_ties_and_their_neighbours(prec, rounding):
    # (c + 1/2) 10^s for a c of exactly prec digits sits on a rounding
    # boundary; one unit of q either side of it does not.
    rng = random.Random(prec)
    big = 2 * 10**700
    for _ in range(6):
        c = _number(rng, prec)
        for s in (-5, 0, 7):
            scale = 10**s if s >= 0 else 1
            den = big * (10**-s if s < 0 else 1)
            tie = (2 * c + 1) * (big // 2) * scale
            for p in (tie, tie - 1, tie + 1, -tie):
                _same(p, den, prec, rounding)


def test_round_down_context_on_random_operands():
    rng = random.Random(7)
    for _ in range(100):
        p = -_number(rng, rng.choice((600, 3000, 24000)))
        q = _number(rng, rng.choice((1, 600, 5000)))
        _same(p, q, rng.choice(PRECISIONS), ROUND_DOWN)


def test_to_decimal_goes_through_the_same_route(monkeypatch):
    monkeypatch.setenv(PRECISION_ENV, "60")
    value = Fraction(7**9000 + 1, 3**12000)
    with localcontext() as ctx:
        ctx.prec = 60
        want = Decimal(value.numerator) / Decimal(value.denominator)
    assert to_decimal(value).as_tuple() == want.as_tuple()
