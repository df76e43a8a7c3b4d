"""Probability generating functions for the game's duration.

For r balls and n cells, let X be the number of rounds until every ball has
been captured.  Conditioning on the first round gives the recurrence

    F_r(x) = x / (1 - P[0 captured] x) * sum_{t=1}^{r} P[t captured] F_{r-t}(x)

with F_0 = 1, where the capture probabilities come from `game` and each F is a
rational function of x (numeric cell count) or of n and x (cell count left
symbolic).  This module builds those functions bottom-up and extracts
moments from them.  The integer layer, which needs no rational function,
lives in `law`: the exact distribution by walking the chain, and the fast
mean/variance recurrences.  Three of its names, the distribution, mean and
variance, still resolve here, loading `law` when first read through
`_lazy`, the package's helper for such names.

One table, keyed by cell count (None for symbolic n), holds every level,
and one loop grows it for numeric and symbolic n alike; a small row adapter
supplies what depends on the ring.  Each level is a numerator over
{factor: power}, and the only factors the recurrence introduces are b - a*x
from the reduced stay probability a/b, and n, since every capture
probability enters as an integer over n^r.  The factors b - a*x are
irreducible, so dividing out each factor that divides the numerator exactly
leaves a reduced quotient, and no polynomial gcd is ever computed.

Scalars follow the one rule of ``polys``: a coefficient is an int or a
Fraction, whichever the computation produced, only a real division makes a
Fraction, and a canonical quotient holds ints.  So the table works over the
integers: every polynomial it builds has int coefficients, and exact
division by a factor is integer long division, which by Gauss's lemma fails
exactly when the factor does not divide.  Each level's reduced function is
built once, when the level is appended, and is handed out as it is.

Moments come from one chain for numeric and symbolic n, run in the
coefficient ring (integers, or polynomials in n) on the int coefficients of
the canonical fields, over powers of d1 = den(1); each result is then
reduced once over the known factors of its denominator.

The degenerate state n = 1 with r >= 2 never terminates; the recurrence then
yields the zero function, which is kept, flagged, and refused by the moment
operations.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb, gcd, log, log10, prod
from operator import mul
from typing import NamedTuple

from . import _lazy
from .errors import BudgetExceededError
# transition_row and poly2_div_exact are no longer called here, but
# perfbench/tracer.py wraps pgf.transition_row and pgf.poly2_div_exact by
# name, so the attributes stay.
from .game import (  # noqa: F401
    _check_state,
    _check_terminating,
    _row_numerators,
    _symbolic_row_numerators,
    transition_prob_symbolic,
    transition_row,
)
from .polys import Poly, Poly2, int_div_exact, poly2_div_exact  # noqa: F401
from .ratfuncs import RatFunc, RatFunc2, _series_numerators
from .scalars import _about, _check_budget, decimal_sqrt

SYMBOLIC_CEILING = 40

# A numeric table is refused past enum_budget() * NUMERIC_TABLE_SCALE digit
# products: 5·10^8 at the default budget, about 10 s on a 2-vCPU Xeon VM.
# Level r's denominator, a product of stay factors b_k - a_k x with
# b_k <= n^k, has coefficients of up to about D = r(r + 1)/2 log10(n)
# digits, law._check_mean_budget's bound on Q_r.  Each of the r levels
# multiplies and divides numbers of that size, so the build is estimated at
# r D^1.585 digit products (Karatsuba).  Fresh-process cold builds took
# 1.2-2.4·10^-8 s per product from (60, 60) to (120, 120), (3, 200) and
# (20, 150), more at (150, 150): (100, 100) at 2.2·10^8 runs (4-9 s), (3, 200)
# at 4.1·10^8 runs (8-9 s), while (120, 120) at 5.0·10^8 (12-13 s), (20, 150)
# at 6.1·10^8 (15 s), (2, 300) at 1.1·10^9 (31 s) and (150, 150) at
# 1.4·10^9 (71 s, then an int-to-str crash) are refused.
NUMERIC_TABLE_SCALE = 50

# moments_symbolic refuses an estimate past enum_budget() *
# SYMBOLIC_MOMENTS_SCALE work units: 6·10^6 at the default budget, about 12 s
# on a 2-vCPU Xeon VM.  Its numerators have degree up to D = order·r(r - 1)
# in n; building and reducing them takes about D^4 / 80000 units, and from
# order 3 on the scaled moments' gcds about order^3·5^r / 25.  Fitted to cold
# builds of orders 1-4 at r <= 9 and orders 1-2 at r = 12-30, it is within a
# factor of 2 from r = 7 (orders 3-4) and r = 15 (orders 1-2): (9, order 4)
# estimates 5.1·10^6 (10-12 s), while (10, order 3) at 1.1·10^7 (15 s),
# (25, order 2) at 2.6·10^7 (51 s) and (14, order 4) at 1.6·10^10 are refused.
SYMBOLIC_MOMENTS_SCALE = Fraction(3, 5)

# The names of the integer layer that perfbench/workloads.py reads from
# here.  They resolve through `_lazy`, and law loads when one of them is
# first read, so the PGF commands never compile it.
_FROM_LAW = ("duration_distribution", "duration_variance", "expected_duration")
__getattr__, __dir__ = _lazy(globals(), {"law": _FROM_LAW})[1:]


class DurationPGF(NamedTuple):
    """The duration's generating function; cells is None on the symbolic path.

    `terminating` is False exactly in the degenerate one-cell multi-ball case,
    where `func` is identically zero.
    """

    balls: int
    cells: int | None
    func: RatFunc | RatFunc2
    terminating: bool


class ScaledMoment(NamedTuple):
    """Central moment m_i divided by m_2^(i/2).

    Odd i leaves the rational field, so the exact content is the squared value
    together with the sign of m_i; `value` is the signed square root at the
    active precision, and `exact` is the rational value when i is even.
    """

    order: int
    squared: Fraction
    sign: int
    value: Decimal
    exact: Fraction | None


class MomentReport(NamedTuple):
    """Exact moments of an integer-valued variable given by its PGF.

    raw[i-1] = E[X^i] for i = 1..order; central[i-2] = m_i for i = 2..order;
    scaled[i-3] covers i = 3..order and is None (undefined, not an error)
    when the variance is zero.
    """

    order: int
    raw: tuple[Fraction, ...]
    central: tuple[Fraction, ...]
    scaled: tuple[ScaledMoment, ...] | None
    mean: Fraction
    variance: Fraction | None


class SymbolicMomentReport(NamedTuple):
    """Moments as rational functions of the cell count n.

    Scaled moments of odd order are not rational functions of n, so the
    scaled entries carry the squared values only (i = 3..order); None when
    the variance is identically zero.
    """

    order: int
    raw: tuple[RatFunc2, ...]
    central: tuple[RatFunc2, ...]
    scaled_squared: tuple[RatFunc2, ...] | None
    mean: RatFunc2
    variance: RatFunc2 | None


def _check_symbolic(r: int) -> None:
    if r < 0:
        raise ValueError(f"balls must be >= 0, got {r}")
    if r > SYMBOLIC_CEILING:
        raise BudgetExceededError(f"the symbolic tables stop at r <= {SYMBOLIC_CEILING}; the request asks for "
                                  f"about {_about(log(r))} balls; the budget is {SYMBOLIC_CEILING}")


# ---------------------------------------------------------------------------
# The PGF table, grown bottom-up and cached per context, keyed as the module
# docstring says.  Each level is (numerator, {factor: power}, reduced
# function), all with int coefficients.  Factors are primitive with a
# positive head term, so associate factors meet as equal keys and the merge
# never needs a gcd.  A power of the monomial n is multiplied and divided out
# by a shift; linear factors keep the trial division that proves them coprime.
# Entries are replaced wholesale, never mutated, so any thread may read them.

_LEVELS: dict[int | None, list[tuple]] = {}
_VAR_N = Poly2.var_n()


def _times(p, f, m: int):
    """p * f^m; for the monomial n a shift by m, which may be negative."""
    if f == _VAR_N:
        return p._adopt({dx: row._adopt({e + m: v for e, v in row._c.items()}) for dx, row in p._c.items()})
    return p * f**m


def _merge_terms(terms: list, x, stay) -> tuple:
    """Numerator and factored denominator of x/(1 - p_0 x) * sum(terms).

    Each term is (numerator, {factor: power}); the sum runs over the common
    denominator, the largest power of each factor.  Folded from the lowest
    level up, as Horner's rule nests a sum (Knuth, TAOCP vol. 2, 4.6.4), a
    factor power multiplies the running sum once, where it first appears, and
    each term only by the powers it lacks.  `stay` writes 1/(1 - p_0 x) as
    scale/factor, or is None when p_0 = 0.
    """
    total, den = x.zero(), {}
    for num, own in reversed(terms):
        for f, m in own.items():
            extra = m - den.get(f, 0)
            if extra > 0:
                total, den[f] = _times(total, f, extra), m
        for f, m in den.items():
            extra = m - own.get(f, 0)
            if extra:
                num = _times(num, f, extra)
        total = num + total
    if stay is not None:
        scale, factor = stay
        total, den[factor] = total * scale, den.get(factor, 0) + 1
    return x * total, den


def _cancel_factors(num, den: dict, div_exact) -> tuple:
    """Divide out every denominator factor that exactly divides the numerator.

    Each factor is n (the monomial, or for numeric n a constant, a unit) or
    irreducible, linear and primitive in x, so taking each out as often as it
    divides reduces completely.  The monomial n comes off by one shift, as
    far as its multiplicity and num's least n-exponent allow; a numeric n by
    one division by n^j, j <= mult its valuation in num's content; any other
    factor by trial division, whose failure proves it coprime (Gauss's
    lemma).  A zero numerator returns at once, over {}.
    """
    if num.is_zero():
        return num, {}
    out = {}
    for f, mult in den.items():
        if f == _VAR_N:
            j = min(mult, *(row.min_exponent() for row in num._c.values()))
            num, mult = _times(num, f, -j), mult - j
        elif f.is_constant():
            n, j = f.leading_coeff(), 0
            g = gcd(n**mult, *num._c.values())
            while j < mult and g % n == 0:
                g, j = g // n, j + 1
            num, mult = div_exact(num, f**j) if j else num, mult - j
        else:
            while mult:
                try:
                    num = div_exact(num, f)
                except ValueError:
                    break
                mult -= 1
        if mult:
            out[f] = mult
    return num, out


def _expand(den: dict, one):
    """Multiply out a factored denominator; `one` is the ring's unit."""
    out = one
    for f, m in den.items():
        out = _times(out, f, m)
    return out


def _ring(n: int | None) -> tuple:
    """Unit, x, the factor n, the capture row of r balls and the quotient
    class of the table for n: all that depends on whether n is a number
    (polynomials in x over Z) or a symbol (over Z[n])."""
    if n is None:
        return Poly2.const(1), Poly2.var_x(), _VAR_N, _symbolic_row, RatFunc2
    return Poly.const(1), Poly.var(), Poly.const(n), partial(_numeric_row, n), RatFunc


def _numeric_row(n: int, r: int) -> list[int]:
    """a, b and A_1..A_r as ints, which scale a Poly without a product:
    p_0 = a/b reduced, p_t = A_t/n^r."""
    a, *caps = _row_numerators(n, r)
    g = gcd(a, n**r)
    return [a // g, n**r // g, *caps]


def _symbolic_row(r: int) -> list[Poly2]:
    """As _numeric_row for symbolic n, with p_0 = a/b reduced by
    transition_prob_symbolic."""
    stay = transition_prob_symbolic(r, 0)
    return [stay.num, stay.den, *map(Poly2.from_poly_in_n, _symbolic_row_numerators(r)[1:])]


def _check_numeric_budget(n: int, r: int) -> None:
    """Refuse a numeric table to r whose build passes NUMERIC_TABLE_SCALE's
    estimate, before any level is built."""
    digits = r * (r + 1) / 2 * log10(n)
    reason = (f"the PGF table of ({r} balls, {n} cells) holds coefficients of about {digits:.3g} digits; "
              "building it takes")
    _check_budget(reason, r * digits**1.585, "digit products", NUMERIC_TABLE_SCALE)


def _levels(n: int | None, rmax: int) -> list[tuple]:
    """Levels 0..rmax (at least) of the table for n, grown as needed."""
    levels = _LEVELS.get(n)
    if levels is not None and len(levels) > rmax:
        return levels
    if n is not None:
        _check_numeric_budget(n, rmax)
    one, x, var_n, row, quotient = _ring(n)
    levels = list(levels or [(one, {}, quotient.from_fraction(1))])
    for r in range(len(levels), rmax + 1):
        a, b, *caps = row(r)
        # Term t scales level r - t by p_t = A_t / n^r.
        terms = [(scale * num, {**den, var_n: den.get(var_n, 0) + r})
                 for scale, (num, den, _) in zip(caps, reversed(levels)) if scale]
        stay = (b, b - a * x) if a else None
        num, den = _cancel_factors(*_merge_terms(terms, x, stay), int_div_exact)
        levels.append((num, den, quotient.from_coprime(num, _expand(den, one))))
    _LEVELS[n] = levels
    return levels


def pgf_numeric(r: int, n: int) -> DurationPGF:
    """Duration PGF for r balls in n cells, exact and reduced."""
    _check_state(n, r)
    func = _levels(n, r)[r][2]
    return DurationPGF(r, n, func, terminating=not func.is_zero())


def symbolic_den_factors(r: int) -> list[Poly2]:
    """Denominator of pgf_symbolic(r) as its exact factor list (with
    multiplicity), ordered by degree.  Their product is the reduced
    denominator by construction."""
    _check_symbolic(r)
    den = _levels(None, r)[r][1]
    factors = []
    for f, m in den.items():
        factors.extend([f] * m)
    factors.sort(key=lambda f: (f.degree_n(), f.degree_x(), sorted(f.items())))
    return factors


def pgf_symbolic(r: int) -> DurationPGF:
    """Duration PGF with the cell count left as the variable n.

    Substituting any integer n >= 2 reproduces pgf_numeric(r, n).  Refused
    past SYMBOLIC_CEILING balls: bivariate coefficients grow quickly with r.
    """
    _check_symbolic(r)
    func = _levels(None, r)[r][2]
    return DurationPGF(r, None, func, terminating=True)


# ---------------------------------------------------------------------------
# Moments


def _moment_numerators(func: RatFunc | RatFunc2, order: int) -> tuple:
    """d1 = den(1) with the raw numerators R_1..R_order and central ones
    C_2..C_order in the coefficient ring: E[X^i] = R_i / d1^(i+1) and
    m_i = C_i / d1^(2i).  The series of F(1 + h) over powers of d1 gives
    E[(X)_k] = k! c_k / d1^(k+1); nothing is divided on the way.  The ring
    is Z or Z[n], read off the canonical fields' int coefficients, and the
    power chains start from the int 1, so every value returned is an int or
    a Poly in n with int coefficients."""
    num, den = (_shift_to_one(p._c, order) for p in (func.num, func.den))
    d1, cs = den[0], [c for c, _ in _series_numerators(num, den, order)]
    pw = list(accumulate([d1] * order, mul, initial=1))
    # Rows of the surjection triangle k! S(i, k) = k (sur(i-1, k-1) + sur(i-1, k)).
    sur, raw = [1], []
    for i in range(1, order + 1):
        sur = [k * (a + b) for k, a, b in zip(range(i + 1), [0, *sur], [*sur, 0])]
        raw.append(sum(sur[k] * cs[k] * pw[i - k] for k in range(1, i + 1)))
    # m_i d1^(2i) = (-R_1)^i + sum_{j>=1} C(i, j) R_j d1^(j-1) (-R_1)^(i-j)
    lead = list(accumulate([-raw[0]] * order, mul, initial=1))
    central = [
        lead[i] + sum(comb(i, j) * raw[j - 1] * pw[j - 1] * lead[i - j] for j in range(1, i + 1))
        for i in range(2, order + 1)
    ]
    return d1, raw, central


def _shift_to_one(coeffs: dict, top: int) -> dict:
    """{j: [h^j] p(1 + h)} for j <= top, p given as {power of x: coefficient}."""
    top = min(top, max(coeffs, default=-1))
    return {j: sum(comb(e, j) * a for e, a in coeffs.items() if e >= j) for j in range(top + 1)}


def moments_of(func: RatFunc, order: int) -> MomentReport:
    """Moment report for any PGF given as a rational function with f(1) = 1.

    Used for the game duration and for the down-or-stay chains; the caller
    is responsible for only passing genuine PGFs.  Scaled moments come from
    the central numerators: m_i^2 / m_2^i = C_i^2 / C_2^i.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    d1, raw_nums, central_nums = _moment_numerators(func, order)
    raw = [Fraction(v, d1 ** (i + 1)) for i, v in enumerate(raw_nums, 1)]
    central = [Fraction(v, d1 ** (2 * i)) for i, v in enumerate(central_nums, 2)]
    variance = central[0] if order >= 2 else None
    c2 = central_nums[0] if order >= 2 else 1
    scaled: tuple[ScaledMoment, ...] | None = None if order >= 3 and c2 == 0 else ()
    for i, ci in enumerate(central_nums[1:] if c2 else [], 3):
        squared = Fraction(ci * ci, c2**i)
        sign = (ci > 0) - (ci < 0)
        root = decimal_sqrt(squared)
        # copy_negate keeps all digits; context arithmetic would round
        value = root.copy_negate() if sign < 0 else root if sign else Decimal(0)
        exact = Fraction(ci, c2 ** (i // 2)) if i % 2 == 0 else None
        scaled += (ScaledMoment(i, squared, sign, value, exact),)
    return MomentReport(order, tuple(raw), tuple(central), scaled, raw[0], variance)


def moments(r: int, n: int, order: int) -> MomentReport:
    """Exact raw, central, and scaled duration moments up to `order`."""
    _check_terminating(n, r)
    return moments_of(pgf_numeric(r, n).func, order)


def moments_symbolic(r: int, order: int) -> SymbolicMomentReport:
    """Moments as reduced rational functions of the cell count: the numeric
    chain over Polys in n with int coefficients, each moment reduced once by
    ``RatFunc2._x_free`` against the denominator factors at x = 1 (times d1's
    constant, a Fraction).  Refused past SYMBOLIC_MOMENTS_SCALE's estimate.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_symbolic(r)
    # SYMBOLIC_MOMENTS_SCALE's estimate, in log form so that it stays finite for any order.
    work = (order * r * (r - 1)) ** 4 // 80000 + (order**3 * 5**r // 25 if order >= 3 else 0)
    _check_budget(f"the symbolic moments of {r} balls to order {order} take", log(max(work, 1)), "work units",
                  SYMBOLIC_MOMENTS_SCALE, is_log=True)
    d1, raw_nums, central_nums = _moment_numerators(pgf_symbolic(r).func, order)
    at_one = Counter(f.subs_x(1) for f in symbolic_den_factors(r))
    at_one[Poly.const(Fraction(d1.leading_coeff(), prod(f.leading_coeff() ** m for f, m in at_one.items())))] += 1

    def over_d1(v: Poly, power: int) -> RatFunc2:
        return RatFunc2._x_free(v, {f: m * power for f, m in at_one.items()})

    raw = [over_d1(v, i + 1) for i, v in enumerate(raw_nums, 1)]
    central = [over_d1(v, 2 * i) for i, v in enumerate(central_nums, 2)]
    variance = central[0] if order >= 2 else None
    scaled: tuple[RatFunc2, ...] | None = None if order >= 3 and variance.is_zero() else ()
    if scaled is not None and order >= 3:
        # m_i = a_i/b_i reduced: m_i^2/m_2^i = (a_i^2/a_2^i)(b_2^i/b_i^2), and a
        # common factor can only sit in a_i, a_2 or in b_2, b_i, so the two
        # quotients reduce apart and their product stays reduced.
        a2, b2 = variance.num.subs_x(1), variance.den.subs_x(1)
        for i, mi in enumerate(central[1:], 3):
            ai, bi = mi.num.subs_x(1), mi.den.subs_x(1)
            top, bottom = RatFunc2._x_free(ai * ai, {a2: i}), RatFunc2._x_free(b2**i, {bi: 2})
            scaled += (RatFunc2.from_coprime(top.num * bottom.num, top.den * bottom.den),)
    return SymbolicMomentReport(order, tuple(raw), tuple(central), scaled, raw[0], variance)
