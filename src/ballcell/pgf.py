"""Probability generating functions for the game's duration.

For r balls and n cells, let X be the number of rounds until every ball has
been captured.  Conditioning on the first round gives the recurrence

    F_r(x) = x / (1 - P[0 captured] x) * sum_{t=1}^{r} P[t captured] F_{r-t}(x)

with F_0 = 1, where the capture probabilities come from `game` and each F is a
rational function of x (numeric cell count) or of n and x (cell count left
symbolic).  This module builds those functions bottom-up, extracts exact
distributions and moments from them, and carries the fast mean/variance
recurrences that skip the rational functions entirely.

One table, keyed by cell count (None for symbolic n), holds every level,
and one loop grows it for numeric and symbolic n alike; a small row adapter
supplies what depends on the ring.  Each level is a numerator over
{factor: power}, and the only factors the recurrence introduces are b - a*x
from the reduced stay probability a/b (plus the monomial n when n is
symbolic).  These factors are irreducible, so dividing out each one that
divides the numerator exactly leaves a reduced quotient, and no polynomial
gcd is ever computed.

The degenerate state n = 1 with r >= 2 never terminates; the recurrence then
yields the zero function, which is kept, flagged, and refused by the moment
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import comb, factorial

from .errors import BudgetExceededError, DivergentDurationError
from .game import _check_state, transition_prob_symbolic, transition_row
from .polys import Poly, Poly2, poly2_div_exact, poly_div_exact
from .ratfuncs import RatFunc, RatFunc2
from .scalars import decimal_sqrt

DEFAULT_SYMBOLIC_CEILING = 40

Q0 = Fraction(0)
Q1 = Fraction(1)


@dataclass(frozen=True)
class DurationPGF:
    """The duration's generating function; cells is None on the symbolic path.

    `terminating` is False exactly in the degenerate one-cell multi-ball case,
    where `func` is identically zero.
    """

    balls: int
    cells: int | None
    func: RatFunc | RatFunc2
    terminating: bool


@dataclass(frozen=True)
class ScaledMoment:
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


@dataclass(frozen=True)
class MomentReport:
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


@dataclass(frozen=True)
class SymbolicMomentReport:
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
    if r > max_balls:
        raise BudgetExceededError(
            f"symbolic table stops at r = {max_balls}; raise max_balls to go further"
        )


# ---------------------------------------------------------------------------
# The PGF table, grown bottom-up and cached per context.  Keyed by cell count,
# None standing for symbolic n; each level is (numerator, {factor: power},
# reduced function), with the denominator factored as the module docstring
# describes.  Factors are primitive with a positive head term, so associate
# factors meet as equal keys and the merge never needs a gcd.  Entries are
# replaced wholesale (never mutated in place) so completed levels are always
# safe to read from other threads.

_LEVELS: dict[int | None, list[tuple]] = {}


def _merge_terms(terms: list, x, stay) -> tuple:
    """Numerator and factored denominator of x/(1 - p_0 x) * sum(terms).

    Each term is (numerator, {factor: power}); the sum runs over the common
    denominator, which takes the largest power of each factor.  `stay`
    writes 1/(1 - p_0 x) as scale/factor, or is None when p_0 = 0.
    """
    den: dict = {}
    for _, own in terms:
        for f, m in own.items():
            if m > den.get(f, 0):
                den[f] = m
    total = 0
    for num, own in terms:
        for f, m in den.items():
            extra = m - own.get(f, 0)
            if extra:
                num = num * f**extra
        total = num + total
    num = x * total
    if stay is not None:
        scale, factor = stay
        num = num * scale
        den[factor] = den.get(factor, 0) + 1
    return num, den


def _cancel_factors(num, den: dict, div_exact) -> tuple:
    """Divide out every denominator factor that exactly divides the numerator.

    Each factor is irreducible (the monomial n, or a polynomial linear and
    primitive in x), so repeated exact division is a complete reduction: what
    survives is provably coprime to the numerator.  A zero numerator returns
    at once over the empty denominator, since every division would succeed.
    """
    if num.is_zero():
        return num, {}
    out = {}
    for f, mult in den.items():
        while mult > 0:
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
        out = out * f**m
    return out


# Row adapter: all that depends on whether n is a number or a symbol.


def _ring(n: int | None) -> tuple:
    """Unit, x, exact division and quotient class of the table for n."""
    if n is None:
        return Poly2.const(1), Poly2.var_x(), poly2_div_exact, RatFunc2
    return Poly.const(1), Poly.var(), poly_div_exact, RatFunc


def _row(n: int | None, r: int) -> tuple:
    """The capture law of r balls in the table's ring.

    Returns p_0 reduced as (a, b), and p_t for t = 1..r as (scale,
    {factor: power}) with p_t = scale / prod(factor^power): (p, {}) for
    numeric n, and (A, {n: e}) for p_t = A/n^e when n is symbolic.
    """
    if n is not None:
        probs = transition_row(n, r).probs
        return (probs[0].numerator, probs[0].denominator), [(p, {}) for p in probs[1:]]
    # transition_prob_symbolic returns each p_t reduced over a power of n
    var_n = Poly2.var_n()
    p0, *rest = [transition_prob_symbolic(r, t) for t in range(r + 1)]
    return (p0.num, p0.den), [(p.num, {var_n: p.den.degree_n()}) for p in rest]


def _levels(n: int | None, rmax: int) -> list[tuple]:
    """Levels 0..rmax (at least) of the table for n, grown as needed.

    The stay factor b - a*x of the reduced p_0 = a/b is primitive and linear
    in x; the capture probabilities add only their own factors (powers of n).
    """
    levels = _LEVELS.get(n)
    if levels is not None and len(levels) > rmax:
        return levels
    one, x, div_exact, quotient = _ring(n)
    levels = list(levels or [(one, {}, quotient.from_coprime(one, one))])
    for r in range(len(levels), rmax + 1):
        (a, b), row = _row(n, r)
        terms = []
        for t, (scale, own) in enumerate(row, 1):
            if scale:
                num, den = levels[r - t][:2]
                own = {f: den.get(f, 0) + m for f, m in own.items()}
                terms.append((scale * num, {**den, **own}))
        stay = (b, b - a * x) if a else None
        num, den = _cancel_factors(*_merge_terms(terms, x, stay), div_exact)
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
    """Pr[duration = k] for k = 0, 1, 2, ... without end.

    Walks the ball-count Markov chain directly (states r down to 0, one
    capture row per state) and differences the absorption probabilities.
    """
    rows = [transition_row(n, i).probs for i in range(r + 1)]
    state = [Q0] * (r + 1)
    state[r] = Q1
    absorbed = Q0
    while True:
        yield state[0] - absorbed
        absorbed = state[0]
        nxt = [Q0] * (r + 1)
        for i in range(r + 1):
            w = state[i]
            if w:
                row = rows[i]
                for t in range(i + 1):
                    if row[t]:
                        nxt[i - t] += w * row[t]
        state = nxt


def duration_distribution(r: int, n: int, kmax: int) -> list[Fraction]:
    """Pr[duration = k] for k = 0..kmax by powering the transition matrix.

    Deliberately shares nothing with pgf_numeric; it is the oracle the PGF
    path is tested against.
    """
    _check_state(n, r)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return list(islice(_duration_law(r, n), kmax + 1))


def exact_distribution(r: int, n: int, min_coverage: Fraction = Fraction(10**9 - 1, 10**9)) -> list[Fraction]:
    """Distribution to the first horizon 32 * 2^i at which its mass reaches
    min_coverage; each doubling resumes the chain where the last one stopped.

    Refuses the non-terminating state, where no horizon can cover the mass.
    """
    _check_state(n, r)
    if n == 1 and r >= 2:
        raise DivergentDurationError("divergent duration: one cell can never isolate a ball")
    law = _duration_law(r, n)
    probs = list(islice(law, 33))
    while sum(probs) < min_coverage:
        probs += islice(law, len(probs) - 1)
    return probs


# ---------------------------------------------------------------------------
# Moments


def _stirling2(i: int, k: int) -> int:
    total = 0
    for j in range(k + 1):
        s = comb(k, j) * (k - j) ** i
        total = total - s if j & 1 else total + s
    return total // factorial(k)


def _factorial_moments_numeric(f: RatFunc, order: int) -> list[Fraction]:
    """E[X(X-1)...(X-k+1)] for k = 1..order via the derivative chain.

    With F = N_0/D, the numerators N_{k+1} = N_k' D - (k+1) N_k D' satisfy
    F^(k) = N_k / D^(k+1), so no gcd reduction is ever needed mid-chain.
    """
    num, den = f.num, f.den
    dden = den.derivative()
    d1 = den.eval(Q1)
    out = []
    nk = num
    for k in range(1, order + 1):
        nk = nk.derivative() * den - k * nk * dden
        out.append(nk.eval(Q1) / d1 ** (k + 1))
    return out


def _factorial_moments_symbolic(f: RatFunc2, order: int) -> list[RatFunc2]:
    num, den = f.num, f.den
    dden = den.derivative_x()
    d1 = Poly2.from_poly_in_n(den.subs_x(Q1))
    out = []
    nk = num
    for k in range(1, order + 1):
        nk = nk.derivative_x() * den - k * nk * dden
        out.append(RatFunc2(Poly2.from_poly_in_n(nk.subs_x(Q1)), d1 ** (k + 1)))
    return out


def _raw_from_factorial(fact: list) -> list:
    """E[X^i] = sum_k S(i,k) E[(X)_k] with Stirling numbers of the second kind."""
    out = []
    for i in range(1, len(fact) + 1):
        acc = 0
        for k in range(1, i + 1):
            acc = acc + _stirling2(i, k) * fact[k - 1]
        out.append(acc)
    return out


def _central_from_raw(raw: list, order: int) -> list:
    mean = raw[0]
    out = []
    for i in range(2, order + 1):
        acc = (-mean) ** i
        for j in range(1, i + 1):
            acc = acc + comb(i, j) * raw[j - 1] * (-mean) ** (i - j)
        out.append(acc)
    return out


def moments_of(func: RatFunc, order: int) -> MomentReport:
    """Moment report for any PGF given as a rational function with f(1) = 1.

    Used for the game duration and for the down-or-stay chains; the caller
    is responsible for only passing genuine PGFs.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    fact = _factorial_moments_numeric(func, order)
    raw = _raw_from_factorial(fact)
    mean = raw[0]
    central = _central_from_raw(raw, order)
    variance = central[0] if order >= 2 else None
    scaled: tuple[ScaledMoment, ...] | None = ()
    if order >= 3:
        m2 = central[0]
        if m2 == 0:
            scaled = None
        else:
            entries = []
            for i in range(3, order + 1):
                mi = central[i - 2]
                squared = mi * mi / m2**i
                sign = 0 if mi == 0 else (1 if mi > 0 else -1)
                root = decimal_sqrt(squared)
                # copy_negate keeps all digits; context arithmetic would round
                value = root.copy_negate() if sign < 0 else root if sign else Decimal(0)
                exact = mi / m2 ** (i // 2) if i % 2 == 0 else None
                entries.append(ScaledMoment(i, squared, sign, value, exact))
            scaled = tuple(entries)
    return MomentReport(order, tuple(raw), tuple(central), scaled, mean, variance)


def moments(r: int, n: int, order: int) -> MomentReport:
    """Exact raw, central, and scaled duration moments up to `order`."""
    p = pgf_numeric(r, n)
    if not p.terminating:
        raise DivergentDurationError("divergent duration: one cell can never isolate a ball")
    return moments_of(p.func, order)


def moments_symbolic(r: int, order: int, max_balls: int = DEFAULT_SYMBOLIC_CEILING) -> SymbolicMomentReport:
    """Moments as reduced rational functions of the cell count."""
    if order < 1:
        raise ValueError("order must be >= 1")
    p = pgf_symbolic(r, max_balls)
    fact = _factorial_moments_symbolic(p.func, order)
    raw = _raw_from_factorial(fact)
    mean = raw[0]
    central = _central_from_raw(raw, order)
    variance = central[0] if order >= 2 else None
    scaled: tuple[RatFunc2, ...] | None = ()
    if order >= 3:
        m2 = central[0]
        if m2.is_zero():
            scaled = None
        else:
            scaled_list = []
            for i in range(3, order + 1):
                mi = central[i - 2]
                scaled_list.append(mi**2 / m2**i)
            scaled = tuple(scaled_list)
    return SymbolicMomentReport(order, tuple(raw), tuple(central), scaled, mean, variance)


# ---------------------------------------------------------------------------
# Fast mean/variance recurrences (no rational functions in x)

_MEAN_TABLES: dict[int, tuple[list[Fraction], list[Fraction]]] = {}


def _mean_tables(n: int, rmax: int) -> tuple[list[Fraction], list[Fraction]]:
    """M(k) = E[X] and S(k) = E[X(X-1)] for k = 0..rmax, from differentiating
    the PGF recurrence at x = 1:

        M(k)(1 - p_0) = 1 + sum_{t>=1} p_t M(k-t)
        S(k)(1 - p_0) = 2(M(k) - 1) + sum_{t>=1} p_t S(k-t)
    """
    cached = _MEAN_TABLES.get(n)
    if cached is not None and len(cached[0]) > rmax:
        return cached
    means, seconds = ([Q0], [Q0]) if cached is None else (list(cached[0]), list(cached[1]))
    for k in range(len(means), rmax + 1):
        probs = transition_row(n, k).probs
        stay = probs[0]
        if stay == 1:
            raise DivergentDurationError(
                "divergent duration: one cell can never isolate a ball"
            )
        m_acc = Q1
        s_acc = Q0
        for t in range(1, k + 1):
            if probs[t]:
                m_acc += probs[t] * means[k - t]
                s_acc += probs[t] * seconds[k - t]
        m = m_acc / (1 - stay)
        means.append(m)
        seconds.append((2 * (m - 1) + s_acc) / (1 - stay))
    _MEAN_TABLES[n] = (means, seconds)
    return means, seconds


def expected_duration(r: int, n: int) -> Fraction:
    """Mean duration, exact; fast enough for r in the thousands."""
    _check_state(n, r)
    return _mean_tables(n, r)[0][r]


def duration_variance(r: int, n: int) -> Fraction:
    """Variance of the duration, exact."""
    _check_state(n, r)
    means, seconds = _mean_tables(n, r)
    m = means[r]
    return seconds[r] + m - m * m


def diagonal_sequence(rmax: int) -> list[tuple[int, Fraction, Fraction]]:
    """(r, mean, variance) along the diagonal n = r, for r = 1..rmax."""
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    out = []
    for r in range(1, rmax + 1):
        out.append((r, expected_duration(r, r), duration_variance(r, r)))
    return out
