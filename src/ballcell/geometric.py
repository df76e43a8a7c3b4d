"""The down-or-stay chain: product-form PGF, moment sums, power-law family.

A particle at state i moves down to i-1 with probability a(i), else stays.
Started at r, the time to reach 0 is a sum of independent geometric variables,
so its PGF is the product of a(i)x / (1 - x(1 - a(i))) over i = 1..r, the mean
is sum 1/a(i) and the variance sum 1/a(i)^2 - sum 1/a(i).

Two step families matter here.  The power law a(i) = alpha^i admits closed
forms for mean and variance and a full set of limiting scaled moments as
r grows.  The ball-cell law a(i) = i((n-1)/n)^(i-1) is the one-capture-
per-round caricature of the capture game: its chain mean is exactly the
harmonic-geometric approximation sum from `approx`, reached by a different
route.  Note a(i) may exceed 1 there (it is not a probability for every i);
the PGF constructor enforces the (0,1] range, while the plain mean/variance
sums only need positivity.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .pgf import MomentReport, moments_of
from .polys import Poly
from .ratfuncs import RatFunc
from .scalars import decimal_sqrt, to_decimal


class StepSequence:
    """Step probabilities a(i), i >= 1, from a table, a power law, or the
    ball-cell law."""

    __slots__ = ("kind", "label", "_fn")

    def __init__(self, kind: str, label: str, fn: Callable[[int], Fraction]):
        self.kind = kind
        self.label = label
        self._fn = fn

    def __repr__(self) -> str:
        return f"StepSequence({self.kind}, {self.label})"

    @classmethod
    def from_table(cls, values: list[Fraction]) -> "StepSequence":
        vals = [Fraction(v) for v in values]

        def fn(i: int) -> Fraction:
            if i > len(vals):
                raise ValueError(f"step table has {len(vals)} entries; state {i} requested")
            return vals[i - 1]

        return cls("table", f"table[{len(vals)}]", fn)

    @classmethod
    def power(cls, alpha: Fraction) -> "StepSequence":
        alpha = _alpha(alpha)
        return cls("power", f"alpha={alpha}", lambda i: alpha**i)

    @classmethod
    def ball_cell(cls, n: int) -> "StepSequence":
        if n < 2:
            raise ValueError(f"cells must be >= 2, got {n}")
        return cls("ball-cell", f"cells={n}", lambda i: i * Fraction(n - 1, n) ** (i - 1))

    def step(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError(f"state index must be >= 1, got {i}")
        return self._fn(i)


class LimitingMoments(NamedTuple):
    """Limiting scaled moments of the power-law chain as r grows.

    Squared quantities are exact; cv, skewness and the fifth moment are surds,
    so their plain values are decimal renderings at the active precision.
    """

    alpha: Fraction
    cv_squared: Fraction
    skewness_squared: Fraction
    kurtosis: Fraction
    m5_scaled_squared: Fraction
    m6_scaled: Fraction
    cv: Decimal
    skewness: Decimal
    kurtosis_decimal: Decimal
    m5_scaled: Decimal
    m6_scaled_decimal: Decimal


def _alpha(alpha: Fraction) -> Fraction:
    """alpha as a Fraction, checked to lie in (0, 1)."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    return alpha


def _steps(r: int, seq: StepSequence, probability: bool = False) -> Iterator[Fraction]:
    """a(1..r) from the start state r, each checked positive and, with
    `probability`, at most 1."""
    if r < 0:
        raise ValueError(f"start state must be >= 0, got {r}")
    for i in range(1, r + 1):
        a = seq.step(i)
        if probability and not 0 < a <= 1:
            raise ValueError(f"step probability a({i}) = {a} outside (0, 1]")
        if a <= 0:
            raise ValueError(f"step probability a({i}) = {a} must be positive")
        yield a


def chain_pgf(r: int, seq: StepSequence) -> RatFunc:
    """PGF of the descent time from r: product of geometric-step factors."""
    x = Poly.var()
    num = den = Poly.const(1)
    for a in _steps(r, seq, probability=True):
        num = num * (a * x)
        den = den * (Poly.const(1) - (1 - a) * x)
    # num is c*x^r and den has constant term 1, so x never divides den and
    # the quotient is already reduced.
    return RatFunc.from_coprime(num, den)


def chain_mean(r: int, seq: StepSequence) -> Fraction:
    """Expected descent time: sum of 1/a(i).  Needs a(i) > 0 only."""
    return sum((1 / a for a in _steps(r, seq)), Fraction(0))


def chain_variance(r: int, seq: StepSequence) -> Fraction:
    """Variance of the descent time: sum 1/a(i)^2 - sum 1/a(i)."""
    return sum((1 / (a * a) - 1 / a for a in _steps(r, seq)), Fraction(0))


def alpha_closed_forms(alpha: Fraction, r: int) -> tuple[Fraction, Fraction]:
    """(mean, variance) of the power-law chain in closed form:

    mean = (1 - alpha^r) / ((1 - alpha) alpha^r)
    variance = (1 - alpha^r)(1 - alpha^(r+1)) / ((1 - alpha^2) alpha^(2r))
    """
    alpha = _alpha(alpha)
    if r < 0:
        raise ValueError(f"start state must be >= 0, got {r}")
    ar = alpha**r
    mean = (1 - ar) / ((1 - alpha) * ar)
    variance = (1 - ar) * (1 - ar * alpha) / ((1 - alpha**2) * ar * ar)
    return mean, variance


def alpha_limits(alpha: Fraction) -> LimitingMoments:
    """Limiting scaled moments of the power-law chain (r -> infinity)."""
    a = _alpha(alpha)
    cv2 = (1 - a) / (1 + a)
    skew2 = 4 * (1 - a) * (1 + a) ** 3 / (a * a + a + 1) ** 2
    kurt = 3 * (3 - a * a) / (a * a + 1)
    m5s2 = (
        16
        * (1 - a)
        * (a**4 + a**3 - 5 * a**2 - 11 * a - 11) ** 2
        * (a + 1) ** 3
        / ((a * a + a + 1) ** 2 * (a**4 + a**3 + a**2 + a + 1) ** 2)
    )
    m6s = (
        5 * a**8 + 5 * a**7 - 45 * a**6 - 130 * a**5 - 180 * a**4
        - 50 * a**3 + 135 * a**2 + 265 * a + 265
    ) / ((a * a + 1) * (a * a - a + 1) * (a * a + a + 1) ** 2)
    return LimitingMoments(
        alpha=a,
        cv_squared=cv2,
        skewness_squared=skew2,
        kurtosis=kurt,
        m5_scaled_squared=m5s2,
        m6_scaled=m6s,
        cv=decimal_sqrt(cv2),
        skewness=decimal_sqrt(skew2),
        kurtosis_decimal=to_decimal(kurt),
        m5_scaled=decimal_sqrt(m5s2),
        m6_scaled_decimal=to_decimal(m6s),
    )


def alpha_moments(alpha: Fraction, r: int, order: int) -> MomentReport:
    """Moments of the power-law chain by building its PGF and running the
    same moment chain the game moments use.  Independent of the closed
    forms above on purpose; tests compare the two routes."""
    return moments_of(chain_pgf(r, StepSequence.power(alpha)), order)
