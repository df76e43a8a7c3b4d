"""Probability generating functions for the game's duration.

For r balls and n cells, let X be the number of rounds until every ball has
been captured.  Conditioning on the first round gives the recurrence

    F_r(x) = x / (1 - P[0 captured] x) * sum_{t=1}^{r} P[t captured] F_{r-t}(x)

with F_0 = 1, where the capture probabilities come from `game` and each F is a
rational function of x (numeric cell count) or of n and x (cell count left
symbolic).  This module builds those functions bottom-up, extracts exact
distributions and moments from them, and carries the fast mean/variance
recurrences that skip the rational functions entirely: they run on integer
numerators over a known product of denominators, and a query builds its one
reduced Fraction at the end.

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
from itertools import accumulate, islice
from math import comb, gcd, lgamma, log, log1p, log10, prod
from operator import mul
from typing import NamedTuple

# transition_row and poly2_div_exact are no longer called here (the exact law
# walks _row_numerators), but perfbench/tracer.py wraps pgf.transition_row and
# pgf.poly2_div_exact by name, so the attributes stay.
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

DEFAULT_SYMBOLIC_CEILING = 40

# The mass an exact distribution covers by default, and the least that
# montecarlo.gof_compare accepts.
MIN_COVERAGE = Fraction(10**9 - 1, 10**9)

# exact_distribution refuses a law whose estimated horizon H gives terms over
# n^(r·H) of more than enum_budget() // LAW_DIGITS_DIVISOR digits: 10^4 at the
# default budget.  Just inside it, (11, 2) estimates 6.4k digits and (18, 3)
# 9.7k; each law takes 5-6 s, and law plus gof_compare 11-16 s (2-vCPU Xeon),
# while (12, 2), at 12.7k, is refused.  The --gof states of the benchmark
# estimate at most 1k digits.
LAW_DIGITS_DIVISOR = 1000

# expected_duration and duration_variance refuse a mean table whose build is
# estimated past enum_budget() * MEAN_WORK_SCALE digit products: 3·10^9 at the
# default budget, about 11 s on a 2-vCPU Xeon VM.  (150, 150) estimates
# 5.9·10^8, (180, 180) 1.3·10^9 (3.4-4.7 s) and (3, 800) 1.9·10^9 (5-7 s);
# (3, 1000) at 4.6·10^9 (19 s) and (250, 250) at 5.0·10^9 (23 s) are refused.
MEAN_WORK_SCALE = 300

# exact_distribution always walks the first LAW_MIN_TERMS terms (rounds 0..32),
# so its estimate takes a horizon of at least LAW_MIN_TERMS - 1 rounds: a
# short horizon at large r, such as (100, 150) at H = 4.1, still walks 32
# rounds of terms over n^(32·r).  That floor is checked against the budget
# on its own first, before any stay probability is built, so (30000, 2),
# whose 32 rounds need 2.9·10^5 digits, is refused at once.
LAW_MIN_TERMS = 33


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


def _check_symbolic(r: int, max_balls: int) -> None:
    if r < 0:
        raise ValueError(f"balls must be >= 0, got {r}")
    reason = f"the symbolic tables stop at r <= {max_balls}, the library argument max_balls; the request asks for"
    _check_budget(reason, r, "balls", budget=max_balls)


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


def _levels(n: int | None, rmax: int) -> list[tuple]:
    """Levels 0..rmax (at least) of the table for n, grown as needed."""
    levels = _LEVELS.get(n)
    if levels is not None and len(levels) > rmax:
        return levels
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


def symbolic_den_factors(r: int, max_balls: int = DEFAULT_SYMBOLIC_CEILING) -> list[Poly2]:
    """Denominator of pgf_symbolic(r) as its exact factor list (with
    multiplicity), ordered by degree.  Their product is the reduced
    denominator by construction."""
    _check_symbolic(r, max_balls)
    den = _levels(None, r)[r][1]
    factors = []
    for f, m in den.items():
        factors.extend([f] * m)
    factors.sort(key=lambda f: (f.degree_n(), f.degree_x(), sorted(f.items())))
    return factors


def pgf_symbolic(r: int, max_balls: int = DEFAULT_SYMBOLIC_CEILING) -> DurationPGF:
    """Duration PGF with the cell count left as the variable n.

    Substituting any integer n >= 2 reproduces pgf_numeric(r, n).  Guarded by
    `max_balls` because bivariate coefficients grow quickly with r.
    """
    _check_symbolic(r, max_balls)
    func = _levels(None, r)[r][2]
    return DurationPGF(r, None, func, terminating=True)


# ---------------------------------------------------------------------------
# Independent distribution oracle


def _duration_law(r: int, n: int):
    """CDF terms (c_k, n^(r·k)), c_k / n^(r·k) = Pr[duration <= k], for k >= 0.

    Walks the ball-count Markov chain directly (states r down to 0, one
    capture row per state); c_k is the absorbing state 0's mass.  After k
    rounds every state's mass is an integer over n^(r·k): state i's row is
    _row_numerators(n, i) over n^i, scaled by n^(r-i) to the common n^r.
    """
    scale = n**r
    rows = [[(t, a * n ** (r - i)) for t, a in enumerate(_row_numerators(n, i)) if a] for i in range(r + 1)]
    state = [0] * r + [1]
    den = 1
    while True:
        yield state[0], den
        den *= scale
        nxt = [0] * (r + 1)
        for i, w in enumerate(state):
            if w:
                for t, a in rows[i]:
                    nxt[i - t] += w * a
        state = nxt


def _law_probs(cdf: list[tuple[int, int]], scale: int) -> list[Fraction]:
    """Pr[duration = k] = (c_k - c_{k-1} n^r) / n^(r·k) from the CDF terms
    of _duration_law, scale = n^r: one reduced Fraction per term."""
    return [Fraction(c - b * scale, den) for (b, _), (c, den) in zip([(0, 1), *cdf], cdf)]


def duration_distribution(r: int, n: int, kmax: int) -> list[Fraction]:
    """Pr[duration = k] for k = 0..kmax by powering the transition matrix.

    Deliberately shares nothing with pgf_numeric; it is the oracle the PGF
    path is tested against.
    """
    _check_state(n, r)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return _law_probs(list(islice(_duration_law(r, n), kmax + 1)), n**r)


def exact_distribution(r: int, n: int, min_coverage: Fraction = MIN_COVERAGE) -> list[Fraction]:
    """Distribution to the first horizon 32 * 2^i at which its mass reaches
    min_coverage, the last CDF term; each doubling resumes the chain where
    the last one stopped.

    Refuses the non-terminating state, where no horizon can cover the mass,
    and a min_coverage of 1 or more, which no finite horizon reaches once
    r >= 2.  Refuses with BudgetExceededError when the terms after H rounds,
    over n^r per round, would pass enum_budget() // LAW_DIGITS_DIVISOR
    digits: first for the floor H = LAW_MIN_TERMS - 1, which costs nothing
    to check, then for H = max(log(1 - min_coverage) / log(p), the floor),
    p the largest stay probability of the states 2..r, taken in log form so
    that the estimate stays finite however close p is to 1.
    """
    _check_terminating(n, r)
    if min_coverage >= 1:
        raise ValueError(f"min_coverage must be below 1, got {min_coverage}")

    def refuse_past(digits: float, rounds: str, is_log: bool = False) -> None:
        reason = (f"the exact law of ({r} balls, {n} cells) walks about {rounds} to cover "
                  f"{float(min_coverage):.9f} of its mass, with terms of")
        _check_budget(reason, digits, "digits", Fraction(1, LAW_DIGITS_DIVISOR), is_log=is_log)

    # The floor goes first: the stay probabilities below are r - 1 exact
    # fractions over n^i, seconds of work at 30000 balls.
    floor = LAW_MIN_TERMS - 1
    refuse_past(floor * r * log10(n), f"{floor} rounds or more")
    # The slowest mode of the chain is its largest stay probability p, so the
    # mass left after H rounds is about p^H.  H is taken in log form from the
    # exact q = 1 - p, since -log(p) underflows a float when p is within
    # 2^-1075 of 1; below 2^-52, -log(p) is q to double precision.  No state
    # stays put when r < 2, and no mass needs covering when `need` is 0.
    need = -log(1 - min_coverage)
    if r >= 2 and need > 0:
        q = min(Fraction(n**i - _row_numerators(n, i)[0], n**i) for i in range(2, r + 1))
        log_decay = log(-log1p(-float(q))) if q > 2**-52 else log(q.numerator) - log(q.denominator)
        log_h = max(log(need) - log_decay, log(floor))
        refuse_past(log_h + log(r * log10(n)), f"{_about(log_h)} rounds (at least {floor})", is_log=True)
    law = _duration_law(r, n)
    cdf = list(islice(law, LAW_MIN_TERMS))
    while Fraction(*cdf[-1]) < min_coverage:
        cdf += islice(law, len(cdf) - 1)
    return _law_probs(cdf, n**r)


# ---------------------------------------------------------------------------
# Moments


def _surjections(i: int, k: int) -> int:
    """k! S(i, k): maps of i labelled items onto k labelled cells."""
    total = 0
    for j in range(k + 1):
        s = comb(k, j) * (k - j) ** i
        total = total - s if j & 1 else total + s
    return total


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
    raw = [sum(_surjections(i, k) * cs[k] * pw[i - k] for k in range(1, i + 1)) for i in range(1, order + 1)]
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


def moments_symbolic(r: int, order: int, max_balls: int = DEFAULT_SYMBOLIC_CEILING) -> SymbolicMomentReport:
    """Moments as reduced rational functions of the cell count: the numeric
    chain over Polys in n with int coefficients, each moment reduced once by
    ``RatFunc2._x_free`` against the denominator factors at x = 1 (times d1's
    constant, a Fraction).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    d1, raw_nums, central_nums = _moment_numerators(pgf_symbolic(r, max_balls).func, order)
    at_one = Counter(f.subs_x(1) for f in symbolic_den_factors(r, max_balls))
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


# ---------------------------------------------------------------------------
# Fast mean/variance recurrences (no rational functions in x, no gcds)
#
# Differentiating the PGF recurrence at x = 1 gives, with p_t = a_t / n^k,
#
#     M(k)(1 - p_0) = 1 + sum_{t>=1} p_t M(k-t)                M(k) = E[X]
#     S(k)(1 - p_0) = 2(M(k) - 1) + sum_{t>=1} p_t S(k-t)      S(k) = E[X(X-1)]
#
# Over the known denominators D_k = n^k - a_0(k) and Q_k = D_1 ... D_k, the
# numerators P_k = M(k) Q_k and R_k = S(k) Q_k^2 are integers:
#
#     P_k = n^k Q_{k-1} + sum_t a_t P_{k-t} D_{k-1} ... D_{k-t+1}
#     R_k = 2 n^k (P_k - Q_k) Q_{k-1} + D_k sum_t a_t R_{k-t} (D_{k-1} ... D_{k-t+1})^2
#
# with t running to m = min(n, k), since rows put no mass on more captures
# than cells.  Both sums are nested by Horner's rule, from t = m down to 1:
#
#     acc_P = acc_P D_{k-t} + a_t P_{k-t}      acc_R = acc_R D_{k-t}^2 + a_t R_{k-t}
#
# so every product is a row- or D-sized integer times a table-sized one.  A
# zero a_t still takes its D_{k-t}.  Nothing is reduced until a query builds
# its one Fraction.

_MEAN_TABLES: dict[int, tuple[list[int], list[int], list[int], list[int]]] = {}


def _check_mean_budget(n: int, r: int) -> None:
    """Refuse a table to r whose build passes the budget, before building it.

    Q_r has at most digits = min(r(r+1)/2 log10 n, log10 r! + r log10 n +
    r(r-1)/2 log10(n-1)), since D_k <= n^k and D_k <= k n (n-1)^(k-1) (count
    the placements with a lone ball by that ball), and the other entries are
    no longer than Q_r^2.  A step makes about w = min(n, r) row-by-table
    products and one table-by-table one, the cross term, which costs about
    digits^0.585 / 40 row products (Karatsuba), so the build is estimated at
    r digits (w + digits^0.585 / 40) digit products.  Fitted to cold builds
    from (10, 200) to (300, 300), the estimate is within a factor of 3.
    """
    digits = r * (r + 1) / 2 * log10(n)
    if n > 1:
        digits = min(digits, lgamma(r + 1) / log(10) + r * log10(n) + r * (r - 1) / 2 * log10(n - 1))
    reason = (f"the mean table of ({r} balls, {n} cells) holds integers of about {digits:.3g} digits over rows "
              f"of {min(n, r)} entries; building it takes")
    _check_budget(reason, r * digits * (min(n, r) + digits**0.585 / 40), "digit products", MEAN_WORK_SCALE)


def _mean_tables(n: int, rmax: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Integer lists P, R, Q, D for k = 0..rmax (at least), as defined above,
    so that M(k) = P_k/Q_k and S(k) = R_k/Q_k^2; callers refuse n = 1, r >= 2."""
    cached = _MEAN_TABLES.get(n)
    if cached is not None and len(cached[0]) > rmax:
        return cached
    _check_mean_budget(n, rmax)
    ps, rs, qs, ds = ([0], [0], [1], [1]) if cached is None else map(list, cached)
    for k in range(len(ps), rmax + 1):
        row = _row_numerators(n, k)
        nk = n**k
        d = nk - row[0]
        p_acc = r_acc = 0
        for t in range(len(row) - 1, 0, -1):
            p_acc = p_acc * ds[k - t] + row[t] * ps[k - t]
            r_acc = r_acc * ds[k - t] ** 2 + row[t] * rs[k - t]
        q_prev = qs[k - 1]
        q = q_prev * d
        p_acc += nk * q_prev
        ps.append(p_acc)
        rs.append(2 * nk * (p_acc - q) * q_prev + d * r_acc)
        qs.append(q)
        ds.append(d)
    _MEAN_TABLES[n] = (ps, rs, qs, ds)
    return ps, rs, qs, ds


def expected_duration(r: int, n: int) -> Fraction:
    """Mean duration, exact.  The table's integers reach about r^2/2 log10(n)
    digits, so a cold build grows fast: on a 2-vCPU Xeon VM, 0.45 s at n = 2,
    r = 2000, 1.1-1.5 s at n = r = 150, 3.4-4.7 s at n = r = 180 and 5-7 s
    at n = 3, r = 800.  Past the budget of _check_mean_budget, such as
    n = 3, r = 1000 (19 s) or n = r = 250 (23 s), it raises
    BudgetExceededError before building."""
    _check_terminating(n, r)
    ps, _, qs, _ = _mean_tables(n, r)
    return Fraction(ps[r], qs[r])


def duration_variance(r: int, n: int) -> Fraction:
    """Variance of the duration, exact: S + M - M^2 over Q_r^2."""
    _check_terminating(n, r)
    ps, rs, qs, _ = _mean_tables(n, r)
    p, q = ps[r], qs[r]
    return Fraction(rs[r] + p * q - p * p, q * q)


def diagonal_sequence(rmax: int) -> list[tuple[int, Fraction, Fraction]]:
    """(r, mean, variance) along the diagonal n = r, for r = 1..rmax."""
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    out = []
    for r in range(1, rmax + 1):
        out.append((r, expected_duration(r, r), duration_variance(r, r)))
    return out
