"""One-round transition law of the ball-and-cell capture game.

A round throws r balls uniformly and independently into n cells; every ball
that is the sole occupant of its cell is captured.  The chance that exactly t
balls are captured follows from inclusion-exclusion over which j cells hold
sole occupants:

    P[t captured] = sum_{j=t}^{min(n,r)} (-1)^(j-t) C(j,t) C(n,j) C(r,j) j!
                    (n-j)^(r-j) / n^r

with the convention 0^0 = 1 so the j = r term survives when all balls land
alone.  The numerators come from counting instead: choose the t lone balls
and their cells, and place the other r - t balls in the other n - t cells so
that none is alone,

    A_t = n^r P[t captured] = C(r,t) n(n-1)...(n-t+1) a(n-t, r-t),

where a(m, k) = k! [x^k] (e^x - x)^m counts the placements of k balls in m
cells with no lone ball.  a(m, k) is a polynomial in m, so one recurrence,
in `_no_capture`, grows the table that serves every row, with n an int or
left as the variable of a `Poly`; the inclusion-exclusion sum is kept only
as the tests' oracle, beside an independent brute-force enumeration.  Every
function here is a pure function of its arguments.  Only the symbolic rows
need polynomials, so they import `polys` and `ratfuncs` themselves, and the
integer rows load with no polynomial code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import DivergentDurationError
from .scalars import _check_budget

if TYPE_CHECKING:
    from .polys import Poly
    from .ratfuncs import RatFunc2


class TransitionRow(NamedTuple):
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


def _check_terminating(n: int, r: int) -> None:
    """_check_state, then the one state whose game never ends: one cell
    and two or more balls, where no round changes the state."""
    _check_state(n, r)
    if n == 1 and r >= 2:
        raise DivergentDurationError("divergent duration: one cell can never isolate a ball")


def _check_captured(r: int, t: int) -> None:
    if not 0 <= t <= r:
        raise ValueError(f"captured count {t} outside 0..{r}")


# Column m holds a(m, k) for k = 0, 1, ...; only _no_capture grows it, from
# the lowest column up, so a column of length L always has one of length at
# least L - 1 below it.  The columns m = n - j of the Poly n are a table of
# their own, so that _NO_CAPTURE stays keyed by ints.
_NO_CAPTURE: dict[int, list[int]] = {}
_NO_CAPTURE_N: dict[Poly, list[Poly]] = {}


def _no_capture(n: int | Poly, r: int) -> dict:
    """The no-lone-ball table of n, grown to hold a(n-t, r-t) for
    t <= min(n, r).

    Differentiating (e^x - x)^m gives, with a(m, 0) = 1,

        a(m, k+1) = m (a(m, k) + k a(m-1, k-1) - a(m-1, k)),

    so column m to length L needs column m - 1 to length L - 1.  The columns
    grown are m = n - j to length r + 1 - j for j <= min(n, r): a triangle
    that stops at column n - r when r < n, however large n is.  The Poly n
    is above every r, so its triangle always has r + 1 columns.
    """
    table = _NO_CAPTURE if isinstance(n, int) else _NO_CAPTURE_N
    if len(table.get(n, ())) > r:
        return table
    below: list = []
    for j in range(min(n, r) if table is _NO_CAPTURE else r, -1, -1):
        m = n - j
        col = table.setdefault(m, [1])
        for k in range(len(col), r + 1 - j):
            # column 0 is 1, 0, 0, ...; at k = 1 the middle term is 0 * below[-1]
            col.append(m and m * (col[-1] + (k - 1) * below[k - 2] - below[k - 1]))
        below = col
    return table


def _row_numerators(n: int | Poly, r: int) -> tuple:
    """Numerators of the capture distribution over the common denominator
    n^r, for t = 0..min(n, r); every later entry is zero.  For the Poly n
    they are polynomials in n with int coefficients, for t = 0..r.

    A_t = C(r,t) n(n-1)...(n-t+1) a(n-t, r-t), a few products per entry
    once the table holds the row's triangle.  The falling product starts at
    n**0, so that every entry, r = 0's too, is in the ring of n.
    """
    table = _no_capture(n, r)
    row = []
    falling = n**0
    for t in range(min(n, r) + 1 if table is _NO_CAPTURE else r + 1):
        row.append(comb(r, t) * falling * table[n - t][r - t])
        falling = falling * (n - t)
    return tuple(row)


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
    with int coefficients: `_row_numerators` at the Poly n."""
    from .polys import Poly

    return _row_numerators(Poly.var(), r)


@lru_cache(maxsize=1024)
def transition_prob_symbolic(r: int, t: int) -> RatFunc2:
    """Capture probability as a rational function of the cell count n.

    The numerator is the row's entry from the same no-lone-ball table as the
    numeric rows, grown at the Poly n, so the result is a polynomial in n
    over a power of n.  Evaluating at any integer n >= 1 reproduces
    transition_prob(n, r, t): for n < t the falling factorial vanishes, which
    is the t <= min(n, r) cutoff of the numeric row.  The inclusion-exclusion
    sum of the module docstring is the tests' oracle for it.
    """
    from .polys import Poly2
    from .ratfuncs import RatFunc2

    _check_captured(r, t)
    num = _symbolic_row_numerators(r)[t]
    # n^r has no factor but n, so dividing out the lowest power of n in num
    # reduces num/n^r without a gcd; a zero row is 0/1 either way.
    low = num.min_exponent() if num else 0
    return RatFunc2.from_coprime(Poly2.from_poly_in_n(num.shift(-low)), Poly2.var_n() ** (r - low))


def brute_force_row(n: int, r: int) -> TransitionRow:
    """Capture distribution by enumerating all n^r placements.

    Independent oracle: shares no code with the table of `_no_capture`.
    Refuses to enumerate more than enum_budget() placements (BALLCELL_BUDGET,
    10^7 by default).
    """
    _check_state(n, r)
    total = n**r
    _check_budget(f"enumerating ({r} balls, {n} cells) visits {n}^{r},", total, "placements")
    counts = [0] * (r + 1)
    for placement in product(range(n), repeat=r):
        occupancy = [0] * n
        for cell in placement:
            occupancy[cell] += 1
        counts[sum(1 for c in occupancy if c == 1)] += 1
    return TransitionRow(n, r, tuple(Fraction(c, total) for c in counts))
