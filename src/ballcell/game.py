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
from math import comb

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


def _inverse_binomial(terms: list) -> list:
    """a_t = sum_{j>=t} (-1)^(j-t) C(j,t) terms[j], for t = 0..len(terms)-1.

    These are the coefficients of sum_j terms[j] (y - 1)^j, so a Taylor shift
    by -1 (repeated c[j] -= c[j+1] sweeps) gives them with subtractions only.
    Works in place on any ring with subtraction.
    """
    m = len(terms) - 1
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            terms[j] = terms[j] - terms[j + 1]
    return terms


@lru_cache(maxsize=4096)
def _row_numerators(n: int, r: int) -> tuple[int, ...]:
    """Integer numerators of the capture distribution over the common
    denominator n^r, for t = 0..min(n, r); every later entry is zero."""
    # term[j] = C(n,j) C(r,j) j! (n-j)^(r-j); 0**0 == 1 natively.  The
    # first three factors are built up from j - 1: (n-j+1)(r-j+1)/j times it.
    terms = [n**r]
    c = 1
    for j in range(1, min(n, r) + 1):
        c = c * (n - j + 1) * (r - j + 1) // j
        terms.append(c * (n - j) ** (r - j))
    return tuple(_inverse_binomial(terms))


def transition_row(n: int, r: int) -> TransitionRow:
    """Full capture distribution for one round of r balls in n cells."""
    _check_state(n, r)
    den = n**r
    nums = _row_numerators(n, r)
    zeros = (Fraction(0),) * (r + 1 - len(nums))
    return TransitionRow(n, r, tuple(Fraction(a, den) for a in nums) + zeros)


def transition_prob(n: int, r: int, t: int) -> Fraction:
    """Probability that exactly t balls are captured."""
    _check_state(n, r)
    _check_captured(r, t)
    nums = _row_numerators(n, r)
    return Fraction(nums[t], n**r) if t < len(nums) else Fraction(0)


@lru_cache(maxsize=64)
def _symbolic_row_numerators(r: int) -> tuple[Poly, ...]:
    """Numerators over n^r of the capture law of r balls, as polynomials in n
    with int coefficients.

    The j-terms C(n,j) j! C(r,j) (n-j)^(r-j) are built once per r, the
    falling factorial C(n,j) j! = n(n-1)...(n-j+1) one factor at a time, and
    the row is their inverse binomial transform, as for numeric n.
    """
    terms = []
    falling = Poly._adopt({0: 1})
    for j in range(r + 1):
        shift = Poly._adopt({1: 1, 0: -j} if j else {1: 1})
        term = falling * comb(r, j)
        terms.append(term * shift ** (r - j) if j < r else term)
        falling = falling * shift
    return tuple(_inverse_binomial(terms))


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
    num = _symbolic_row_numerators(r)[t]
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
