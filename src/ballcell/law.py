"""The duration law over the integers: the chain walk, the mean tables and
the fit of a simulated batch.

Everything here runs on `game`'s integer capture rows, numerators over n^r,
and builds a Fraction only for the value it returns, so it needs no
polynomial: `approx` and `simulate` load this module and none of `polys`,
`ratfuncs` or `pgf`.  The exact law comes from walking the ball-count
Markov chain (`duration_distribution`, `exact_distribution`), independently
of the PGF table, which the tests hold it against.  The mean and variance
come from integer recurrences over a known product of denominators
(`expected_duration`, `duration_variance`), and `gof_compare` fits a
batch of `montecarlo` against the exact law over one common denominator.
`pgf` still serves the chain walk and the mean tables, caches included,
by loading this module when one is first read; the fit is read from here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm, lgamma, log, log1p, log10
from operator import add
from typing import TYPE_CHECKING, NamedTuple

from .game import _check_state, _check_terminating, _row_numerators
from .scalars import _about, _check_budget

if TYPE_CHECKING:
    from .montecarlo import DurationLaw, SimBatch

# The mass an exact distribution covers, and the least that gof_compare
# accepts.
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


def exact_distribution(r: int, n: int) -> list[Fraction]:
    """Distribution to the first horizon 32 * 2^i at which its mass reaches
    MIN_COVERAGE, the last CDF term; each doubling resumes the chain where
    the last one stopped.  A law to a horizon of one's own choosing is
    duration_distribution, which never refuses.

    Refuses the non-terminating state, where no horizon can cover the mass.
    Refuses with BudgetExceededError when the terms after H rounds, over n^r
    per round, would pass enum_budget() // LAW_DIGITS_DIVISOR digits: first
    for the floor H = LAW_MIN_TERMS - 1, which costs nothing to check, then
    for H = max(log(1 - MIN_COVERAGE) / log(p), the floor), p the largest
    stay probability of the states 2..r, taken in log form so that the
    estimate stays finite however close p is to 1.
    """
    _check_terminating(n, r)

    def refuse_past(digits: float, rounds: str, is_log: bool = False) -> None:
        reason = (f"the exact law of ({r} balls, {n} cells) walks about {rounds} to cover "
                  f"{float(MIN_COVERAGE):.9f} of its mass, with terms of")
        _check_budget(reason, digits, "digits", Fraction(1, LAW_DIGITS_DIVISOR), is_log=is_log)

    # The floor goes first: the stay probabilities below are r - 1 exact
    # fractions over n^i, seconds of work at 30000 balls.
    floor = LAW_MIN_TERMS - 1
    refuse_past(floor * r * log10(n), f"{floor} rounds or more")
    # The slowest mode of the chain is its largest stay probability p, so the
    # mass left after H rounds is about p^H.  H is taken in log form from the
    # exact q = 1 - p, since -log(p) underflows a float when p is within
    # 2^-1075 of 1; below 2^-52, -log(p) is q to double precision.  No state
    # stays put when r < 2.
    if r >= 2:
        q = min(Fraction(n**i - _row_numerators(n, i)[0], n**i) for i in range(2, r + 1))
        log_decay = log(-log1p(-float(q))) if q > 2**-52 else log(q.numerator) - log(q.denominator)
        log_h = max(log(-log(1 - MIN_COVERAGE)) - log_decay, log(floor))
        refuse_past(log_h + log(r * log10(n)), f"{_about(log_h)} rounds (at least {floor})", is_log=True)
    law = _duration_law(r, n)
    cdf = list(islice(law, LAW_MIN_TERMS))
    while Fraction(*cdf[-1]) < MIN_COVERAGE:
        cdf += islice(law, len(cdf) - 1)
    return _law_probs(cdf, n**r)


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


# ---------------------------------------------------------------------------
# The fit of a simulated batch against the exact law


class GofBin(NamedTuple):
    """Chi-square cell: durations lo..hi, hi None for the open tail bin."""

    lo: int
    hi: int | None
    observed: int
    expected: Fraction


class GofReport(NamedTuple):
    tv_distance: Fraction
    chi_square: Fraction
    dof: int
    bins: tuple[GofBin, ...]


def gof_compare(batch: SimBatch, law: DurationLaw) -> GofReport:
    """Goodness of fit of a simulated batch against the exact law.

    The total-variation distance is taken on the outcome partition
    {0, 1, ..., kmax, tail}, where kmax is the truncation point of `law`;
    with the required coverage the difference from the untruncated TV is
    below 1e-9.  The chi-square statistic pools consecutive durations left to
    right into bins of expected count >= 5, with the final bin absorbing the
    tail; both it and the TV distance are exact rationals.  Every mass is an
    integer m_k = p_k·D over D, the lcm of the law's denominators, so only
    the TV, each bin's expected count e_b = m_b·T/D and the chi-square are
    Fractions.  Since the e_b sum to the trials T, the chi-square sum of
    (o_b - e_b)^2/e_b is (D/T)·sum o_b^2/m_b + T - 2·sum o_b, which is
    (D/T)·sum o_b^2/m_b - T when the histogram holds every trial.  Its terms
    are added as a balanced tree, so that each addition meets operands of
    like size (Bernstein, "Fast multiplication and its applications", 2008,
    section 12).
    """
    if (batch.balls, batch.cells) != (law.balls, law.cells):
        raise ValueError(
            f"batch ran ({batch.balls} balls, {batch.cells} cells) "
            f"but the law is for ({law.balls} balls, {law.cells} cells)"
        )
    den = lcm(*(p.denominator for p in law.probs))
    masses = [p.numerator * (den // p.denominator) for p in law.probs]
    covered = sum(masses)
    if covered * MIN_COVERAGE.denominator < MIN_COVERAGE.numerator * den:
        raise ValueError(
            f"law covers {float(Fraction(covered, den)):.12f} of the mass, below the required {float(MIN_COVERAGE):.9f}"
        )
    trials = batch.trials
    hist = batch.histogram
    tail = sum(c for k, c in hist.items() if k >= len(masses))
    tv = sum(abs(hist.get(k, 0) * den - m * trials) for k, m in enumerate(masses))
    tv = Fraction(tv + abs(tail * den - (den - covered) * trials), 2 * den * trials)

    spans: list[tuple[int, int | None, int]] = []
    lo = acc = 0
    for k, m in enumerate(masses):
        acc += m
        if acc * trials >= 5 * den:
            spans.append((lo, k, acc))
            lo, acc = k + 1, 0
    acc += den - covered
    if spans and acc * trials < 5 * den:
        lo, _, last = spans.pop()
        acc += last
    spans.append((lo, None, acc))

    bins = []
    terms = []
    for lo, hi, mass in spans:
        observed = sum(c for k, c in hist.items() if lo <= k and (hi is None or k <= hi))
        bins.append(GofBin(lo, hi, observed, Fraction(mass * trials, den)))
        terms.append(Fraction(observed * observed, mass))
    while len(terms) > 1:
        terms = [*map(add, terms[::2], terms[1::2]), *terms[len(terms) & ~1:]]
    chi = Fraction(den, trials) * terms[0] + trials - 2 * sum(b.observed for b in bins)
    return GofReport(tv, chi, len(bins) - 1, tuple(bins))
