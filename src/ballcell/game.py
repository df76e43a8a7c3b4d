"""One-round transition law of the ball-and-cell capture game.

A round throws r balls uniformly and independently into n cells; every ball
that is the sole occupant of its cell is captured.  The chance that exactly t
balls are captured follows from inclusion-exclusion over which j cells hold
sole occupants:

    P[t captured] = sum_{j=t}^{min(n,r)} (-1)^(j-t) C(j,t) C(n,j) C(r,j) j!
                    (n-j)^(r-j) / n^r

with the convention 0^0 = 1 so the j = r term survives when all balls land
alone.  The module provides that law exactly for numeric n, symbolically with
n left as a variable, and through an independent brute-force enumeration used
as the oracle in tests.  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from .errors import BudgetExceededError
from .polys import Poly, Poly2
from .ratfuncs import RatFunc2
from .scalars import enum_budget


@dataclass(frozen=True)
class TransitionRow:
    """Exact distribution of the number of balls captured in one round.

    probs[t] is the probability that exactly t of the `balls` are captured
    when thrown into `cells` cells; the entries sum to 1.
    """

    cells: int
    balls: int
    probs: tuple[Fraction, ...]


def _check_state(n: int, r: int) -> None:
    if n < 1:
        raise ValueError(f"cells must be >= 1, got {n}")
    if r < 0:
        raise ValueError(f"balls must be >= 0, got {r}")


def _check_captured(r: int, t: int) -> None:
    if not 0 <= t <= r:
        raise ValueError(f"captured count {t} outside 0..{r}")


@lru_cache(maxsize=4096)
def _row_numerators(n: int, r: int) -> tuple[int, ...]:
    """Integer numerators of the capture distribution over the common
    denominator n^r."""
    m = min(n, r)
    # term[j] = C(n,j) C(r,j) j! (n-j)^(r-j); 0**0 == 1 natively.
    terms = [comb(n, j) * comb(r, j) * factorial(j) * (n - j) ** (r - j) for j in range(m + 1)]
    out = []
    for t in range(r + 1):
        acc = 0
        for j in range(t, m + 1):
            s = terms[j] * comb(j, t)
            acc = acc - s if (j - t) & 1 else acc + s
        out.append(acc)
    return tuple(out)


def transition_row(n: int, r: int) -> TransitionRow:
    """Full capture distribution for one round of r balls in n cells."""
    _check_state(n, r)
    den = n**r
    nums = _row_numerators(n, r)
    return TransitionRow(n, r, tuple(Fraction(a, den) for a in nums))


def transition_prob(n: int, r: int, t: int) -> Fraction:
    """Probability that exactly t balls are captured."""
    _check_state(n, r)
    _check_captured(r, t)
    return Fraction(_row_numerators(n, r)[t], n**r)


def _falling(j: int) -> Poly:
    """n(n-1)...(n-j+1) as a polynomial in n; equals C(n,j) j!."""
    p = Poly.const(1)
    for i in range(j):
        p = p * Poly({1: Fraction(1), 0: Fraction(-i)})
    return p


@lru_cache(maxsize=1024)
def transition_prob_symbolic(r: int, t: int) -> RatFunc2:
    """Capture probability as a rational function of the cell count n.

    The inclusion-exclusion sum runs to j = r (C(r,j) kills higher terms) and
    C(n,j) j! becomes the falling factorial polynomial, so the result is a
    polynomial in n over a power of n.  Evaluating at any integer n >= 1
    reproduces transition_prob(n, r, t): for n < j the falling factorial
    vanishes, which is exactly the C(n,j) = 0 cutoff of the numeric path.
    """
    _check_captured(r, t)
    num = Poly.zero()
    for j in range(t, r + 1):
        c = comb(j, t) * comb(r, j)
        if (j - t) & 1:
            c = -c
        term = _falling(j) * (Poly({1: Fraction(1), 0: Fraction(-j)}) ** (r - j)) * c
        num = num + term
    # n^r has no factor but n, so dividing out the lowest power of n in num
    # reduces num/n^r without a gcd; a zero row is 0/1 either way.
    low = num.min_exponent() if num else 0
    return RatFunc2.from_coprime(Poly2.from_poly_in_n(num.shift(-low)), Poly2.var_n() ** (r - low))


def brute_force_row(n: int, r: int, budget: int | None = None) -> TransitionRow:
    """Capture distribution by enumerating all n^r placements.

    Independent oracle: shares no code with the inclusion-exclusion path.
    Refuses to enumerate more than `budget` placements (default from
    BALLCELL_BUDGET, 10^7).
    """
    _check_state(n, r)
    if budget is None:
        budget = enum_budget()
    total = n**r
    if total > budget:
        raise BudgetExceededError(
            f"{n}^{r} = {total} placements exceeds budget {budget}; shrink n or r"
        )
    counts = [0] * (r + 1)
    for placement in product(range(n), repeat=r):
        occupancy = [0] * n
        for cell in placement:
            occupancy[cell] += 1
        counts[sum(1 for c in occupancy if c == 1)] += 1
    return TransitionRow(n, r, tuple(Fraction(c, total) for c in counts))
