"""Duration generating functions: golden forms, the matrix oracle, moments.

The central claim under test is that three independent routes agree: the PGF
recurrence, the transition-matrix powering in duration_distribution, and the
differentiated mean/variance recurrences.
"""

import hashlib
import json
import time
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import comb, factorial
from pathlib import Path

import pytest

from ballcell import pgf, reference
from ballcell.errors import BudgetExceededError, DivergentDurationError
from ballcell.game import transition_prob_symbolic, transition_row
from ballcell.pgf import (
    _cancel_factors,
    _expand,
    _merge_terms,
    diagonal_sequence,
    duration_distribution,
    duration_variance,
    exact_distribution,
    expected_duration,
    moments,
    moments_of,
    moments_symbolic,
    pgf_numeric,
    pgf_symbolic,
    symbolic_den_factors,
)
from ballcell.polys import Poly, Poly2, int_div_exact
from ballcell.ratfuncs import RatFunc, RatFunc2, ratfunc_text
from ballcell.scalars import BUDGET_ENV, to_decimal
from oracles import cancel_by_trial_division, div_exact_over_q, duration_law_over_q

X = Poly.var()

# Reduced diagonal forms as rendered; doubles as a display regression.
DIAGONAL_TEXT = {
    2: "x/(2 - x)",
    3: "(6x + 10x^2)/(27 - 12x + x^2)",
    4: "(192x + 948x^2 + 75x^3)/(2048 - 960x + 132x^2 - 5x^3)",
    5: "(375000x + 4371000x^2 + 1514760x^3 + 18408x^4)"
    "/(9765625 - 4000000x + 542250x^2 - 29240x^3 + 533x^4)",
}


def test_trivial_states():
    p = pgf_numeric(0, 3)
    assert p.func == 1 and p.terminating
    p = pgf_numeric(1, 1)
    assert p.func == RatFunc(X)
    for n in range(2, 6):
        assert pgf_numeric(1, n).func == RatFunc(X)


def _reference_numeric_funcs(n, rmax):
    """The PGF recurrence in plain RatFunc arithmetic, gcd-reduced at every
    step; the oracle for the factored numeric table."""
    table = [RatFunc.from_fraction(Fraction(1))]
    x = RatFunc.x()
    for r in range(1, rmax + 1):
        probs = transition_row(n, r).probs
        acc = RatFunc.from_fraction(Fraction(0))
        for t in range(1, r + 1):
            if probs[t]:
                acc = acc + probs[t] * table[r - t]
        table.append(x * acc / (1 - probs[0] * x))
    return table


def test_numeric_table_matches_gcd_reduced_reference():
    for n in range(1, 11):
        for r, ref in enumerate(_reference_numeric_funcs(n, 10)):
            got = pgf_numeric(r, n).func
            assert (got.num, got.den) == (ref.num, ref.den), (n, r)


def test_one_cell_never_terminates():
    for r in range(2, 9):
        p = pgf_numeric(r, 1)
        assert not p.terminating
        assert p.func.is_zero()
    with pytest.raises(DivergentDurationError):
        exact_distribution(2, 1)
    with pytest.raises(DivergentDurationError):
        moments(2, 1, 2)


def test_diagonal_golden_forms():
    for r in range(1, 6):
        assert pgf_numeric(r, r).func == reference.diagonal_pgf(r)
    for r, text in DIAGONAL_TEXT.items():
        assert ratfunc_text(pgf_numeric(r, r).func) == text


def test_symbolic_golden_forms():
    for r in range(1, 6):
        assert pgf_symbolic(r).func == reference.symbolic_pgf(r)


def test_symbolic_mean_golden_forms():
    for r in range(1, 6):
        assert moments_symbolic(r, 1).mean == reference.symbolic_mean(r)
    assert ratfunc_text(moments_symbolic(2, 1).mean) == "n/(n - 1)"


def test_pgf_is_a_probability_generating_function():
    for n in range(2, 7):
        for r in range(0, 7):
            f = pgf_numeric(r, n).func
            assert f.eval(Fraction(1)) == 1
            coeffs = f.series(50)
            assert all(c >= 0 for c in coeffs)
            assert sum(coeffs) <= 1


def test_series_matches_matrix_oracle():
    for n in range(2, 6):
        for r in range(2, 6):
            assert pgf_numeric(r, n).func.series(25) == duration_distribution(r, n, 25)
    for r in (20, 25):
        assert pgf_numeric(r, r).func.series(30) == duration_distribution(r, r, 30)


def test_symbolic_specializes_to_numeric():
    for r in range(0, 9):
        sym = pgf_symbolic(r).func
        coeffs = sym.series(6)
        for n in range(2, 7):
            f = pgf_numeric(r, n).func
            assert sym.subs_n(Fraction(n)) == f
            assert [c.eval(n, 0) for c in coeffs] == f.series(6)


def test_symbolic_levels_are_cached():
    assert pgf_symbolic(6).func is pgf_symbolic(6).func


def test_symbolic_denominator_factors_multiply_back():
    for r in range(1, 9):
        f = pgf_symbolic(r).func
        product = RatFunc2.from_fraction(Fraction(1))
        for fac in symbolic_den_factors(r):
            product = product * RatFunc2(fac)
        # factor product and reduced denominator agree up to a positive constant
        ratio = product / RatFunc2(f.den)
        assert ratio.num.is_constant() and ratio.den.is_constant()
        assert ratio.num.constant_value() > 0


def test_symbolic_ceiling(monkeypatch):
    # r = 41 is refused by all three symbolic functions before any level is built.
    assert pgf.SYMBOLIC_CEILING == 40

    def built(*args):
        raise AssertionError(f"_levels{args} ran past the ceiling")

    monkeypatch.setattr(pgf, "_levels", built)
    for call in (pgf_symbolic, symbolic_den_factors, lambda r: moments_symbolic(r, 2)):
        with pytest.raises(BudgetExceededError, match=r"stop at r <= 40; .* about 41 balls; the budget is 40$"):
            call(41)


def _fraction_levels(n, rmax):
    """The table grown on Fraction coefficients, as it was before it ran on
    ints: rows from the reduced transition probabilities, exact division over
    Q.  The oracle for pgf._levels; it shares only the merge, cancel and
    expand steps, which work in any ring."""
    if n is None:
        one, x, quotient = Poly2.const(1), Poly2.var_x(), RatFunc2
    else:
        one, x, quotient = Poly.const(1), Poly.var(), RatFunc
    levels = [(one, {}, quotient.from_coprime(one, one))]
    for r in range(1, rmax + 1):
        if n is None:
            p0, *rest = [transition_prob_symbolic(r, t) for t in range(r + 1)]
            a, b = p0.num, p0.den
            row = [(p.num, {Poly2.var_n(): p.den.degree_n()}) for p in rest]
        else:
            probs = transition_row(n, r).probs
            a, b = probs[0].numerator, probs[0].denominator
            row = [(p, {}) for p in probs[1:]]
        terms = []
        for t, (scale, own) in enumerate(row, 1):
            if scale:
                num, den = levels[r - t][:2]
                own = {f: den.get(f, 0) + m for f, m in own.items()}
                terms.append((scale * num, {**den, **own}))
        stay = (b, b - a * x) if a else None
        num, den = _cancel_factors(*_merge_terms(terms, x, stay), div_exact_over_q)
        levels.append((num, den, quotient.from_coprime(num, _expand(den, one))))
    return levels


def _int_levels(n, rmax):
    pgf._LEVELS.pop(n, None)
    return pgf._levels(n, rmax)


def test_integer_table_matches_fraction_table():
    pairs = zip(_int_levels(None, 12), _fraction_levels(None, 12), strict=True)
    for (num, den, func), (ref_num, ref_den, ref_func) in pairs:
        assert (func.num, func.den) == (ref_func.num, ref_func.den)
        assert num == ref_num and den == ref_den
    # A numeric level also keeps the powers of n its rows bring in: every
    # other factor and the function agree, and the numerator by that power.
    for n in range(1, 13):
        var_n = Poly.const(n)
        pairs = zip(_int_levels(n, 12), _fraction_levels(n, 12), strict=True)
        for (num, den, func), (ref_num, ref_den, ref_func) in pairs:
            assert (func.num, func.den) == (ref_func.num, ref_func.den), n
            k = den.get(var_n, 0)
            assert num == ref_num * n**k, n
            assert {f: m for f, m in den.items() if f != var_n} == ref_den, n
    assert _int_levels(1, 5)[5][0].is_zero() and pgf_numeric(5, 1).func.is_zero()


# First 16 hex digits of the sha256 of each level of the table for symbolic
# n (to r = 16) and n = 3, 10 and 50 (to r = 50): the repr of (numerator,
# factor map, function), the factor map as sorted (repr, power) pairs, since
# the order in which the merge meets the factors is no part of the level.
# Recorded when every term was raised to the full common denominator and n
# came off by trial division.
LEVEL_DIGESTS = json.loads((Path(__file__).parent / "pgf_level_digests.json").read_text())


def _level_digest(level):
    num, den, func = level
    factors = sorted((repr(f), m) for f, m in den.items())
    return hashlib.sha256(repr((num, factors, func)).encode()).hexdigest()[:16]


def test_table_levels_are_unchanged():
    for key, want in LEVEL_DIGESTS.items():
        n = None if key == "symbolic" else int(key)
        assert [_level_digest(level) for level in _int_levels(n, len(want) - 1)] == want, key


def test_cancel_factors_matches_trial_division(monkeypatch):
    # Every level's pre-cancel pair, then planted numerators whose power of
    # n is below, equal to and above its multiplicity, times a stay factor.
    pairs = []
    cancel = pgf._cancel_factors

    def recording(num, den, div_exact):
        pairs.append((num, dict(den)))
        return cancel(num, den, div_exact)

    monkeypatch.setattr(pgf, "_cancel_factors", recording)
    for n in (None, 2, 3, 7):
        _int_levels(n, 12)
    monkeypatch.undo()
    var_n = Poly2.var_n()
    num, den = pgf._levels(None, 6)[6][:2]
    stay = next(f for f in den if f != var_n)
    low = min(row.min_exponent() for row in num.as_x_coeffs().values())
    den = {**den, var_n: low + 3}
    pairs += [(num * stay * var_n**j, den) for j in (2, 3, 4)] + [(Poly2.zero(), den)]
    shifted = 0
    for num, den in pairs:
        got = _cancel_factors(num, den, int_div_exact)
        assert got == cancel_by_trial_division(num, den, int_div_exact)
        shifted += got[1].get(var_n, 0) < den.get(var_n, 0)
    assert len(pairs) == 4 * 12 + 4 and shifted >= 12


@pytest.mark.parametrize("n, r, seconds", [(None, 16, 2), (50, 50, 2)])
def test_fresh_table_budget(n, r, seconds):
    # A fresh symbolic table to r = 16 takes 0.11-0.19 s and a numeric one to
    # (50, 50) 0.21-0.37 s on a 2-vCPU Xeon VM.  With every term raised to
    # the full common denominator and n divided out by trial division, they
    # took 0.53-0.60 s and 2.1-2.2 s.
    pgf._LEVELS.pop(n, None)
    started = time.perf_counter()
    pgf._levels(n, r)
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"a fresh table to ({r}, {n}) took {elapsed:.1f}s, budget {seconds}s"


def _coefficients(p):
    return [v for _, v in p.items()]


def test_public_coefficients_are_ints():
    # Canonical fields and table factors hold ints, never a Fraction.
    for r in range(0, 10):
        funcs = [pgf_symbolic(r).func] + [pgf_numeric(r, n).func for n in range(1, 7)]
        polys = [p for f in funcs for p in (f.num, f.den)]
        polys += symbolic_den_factors(r)
        polys += [p for t in range(r + 1) for f in [transition_prob_symbolic(r, t)] for p in (f.num, f.den)]
        assert all(type(v) is int for p in polys for v in _coefficients(p)), r
    for levels in pgf._LEVELS.values():
        for _, _, func in levels:
            assert all(type(v) is int for p in (func.num, func.den) for v in _coefficients(p))


def test_cached_table_holds_ints():
    pgf_symbolic(10)
    pgf_numeric(10, 6)
    pgf_numeric(8, 1)
    assert None in pgf._LEVELS and 6 in pgf._LEVELS
    for levels in pgf._LEVELS.values():
        for num, den, _ in levels:
            assert all(type(v) is int for p in (num, *den) for v in _coefficients(p))


def test_duration_distribution_basics():
    assert duration_distribution(0, 3, 4) == [1, 0, 0, 0, 0]
    got = duration_distribution(2, 2, 5)
    assert got == [Fraction(0)] + [Fraction(1, 2**k) for k in range(1, 6)]
    with pytest.raises(ValueError):
        duration_distribution(2, 2, -1)


def test_exact_distribution_coverage():
    probs = exact_distribution(2, 2)
    assert len(probs) == 33
    assert sum(probs) >= Fraction(10**9 - 1, 10**9)
    assert probs == duration_distribution(2, 2, 32)
    # horizons 32 and 64 fall short here, so the chain resumes twice
    assert exact_distribution(6, 2) == duration_distribution(6, 2, 128)


# Every state to which the simulate_gof benchmark workload can send --gof:
# r = 2 + (22j)//39 for even j with r <= 12, and n from 2r - r//4 to 2r.
GOF_STATES = [(r, n) for r in (2, 3, 4, 5, 6, 7, 8, 9, 11, 12) for n in range(2 * r - r // 4, 2 * r + 1)]
# r = 0, r = 1, one cell with r <= 1, fewer cells than balls, and (12, 23).
LAW_STATES = [(0, 1), (0, 4), (1, 1), (1, 5), (5, 3), (9, 4), (6, 2), (12, 23)]


def _law_over_q(r, n):
    law = duration_law_over_q(r, n)
    probs = list(islice(law, 33))
    while sum(probs) < pgf.MIN_COVERAGE:
        probs += islice(law, len(probs) - 1)
    return probs


@pytest.mark.parametrize("r,n", sorted(set(LAW_STATES + GOF_STATES)))
def test_integer_law_matches_fraction_chain(r, n):
    probs = exact_distribution(r, n)
    assert probs == _law_over_q(r, n)
    assert all(type(p) is Fraction for p in probs)
    assert duration_distribution(r, n, 40) == list(islice(duration_law_over_q(r, n), 41))


def test_exact_distribution_refuses_long_horizons(monkeypatch):
    # (30, 2) stays put with probability 1 - 60/2^30 in its slowest state.
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"about 3\.71e\+08 rounds .* about 3\.35e\+09 digits"):
        exact_distribution(30, 2)
    assert time.perf_counter() - start < 1
    # (12, 2) estimates 12.7k digits.  duration_distribution, told its
    # horizon, never refuses.
    with pytest.raises(BudgetExceededError):
        exact_distribution(12, 2)
    assert duration_distribution(30, 2, 3) == list(islice(duration_law_over_q(30, 2), 4))
    # The budget scales with BALLCELL_BUDGET: (8, 2) estimates 773 digits.
    assert exact_distribution(8, 2)
    monkeypatch.setenv("BALLCELL_BUDGET", str(10**5))
    with pytest.raises(BudgetExceededError, match=r"about 773 digits; the budget is 100 \(BALLCELL_BUDGET \* 0\.001\)"):
        exact_distribution(8, 2)
    assert exact_distribution(3, 3) == _law_over_q(3, 3)
    # The walk takes at least LAW_MIN_TERMS terms, which the estimate counts:
    # (100, 150) covers its mass in H = 4.1 rounds but walks 32, whose terms
    # run to about 7k digits.
    monkeypatch.setenv("BALLCELL_BUDGET", str(5 * 10**6))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"about 32 rounds .* about 6\.96e\+03 digits"):
        exact_distribution(100, 150)
    assert time.perf_counter() - start < 1


def test_exact_distribution_refuses_its_floor_before_any_work(monkeypatch):
    # The first 32 rounds of (10^7, 2) alone run to terms of about 9.6·10^7
    # digits, which is refused before the stay probabilities of 10^7 - 1
    # states are built.
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"about 32 rounds or more .* about 9\.63e\+07 digits") as caught:
        exact_distribution(10**7, 2)
    assert time.perf_counter() - start < 1
    assert "inf" not in str(caught.value)


def test_two_ball_moments_by_hand():
    # (2, 2) is a round-by-round coin flip: duration is geometric with p = 1/2
    rep = moments(2, 2, 6)
    assert rep.mean == 2
    assert rep.variance == 2
    assert rep.raw == (2, 6, 26, 150, 1082, 9366)
    assert rep.central == (2, 6, 38, 270, 2342)
    assert rep.scaled[0].squared == Fraction(9, 2)
    assert rep.scaled[1].exact == Fraction(19, 2)
    assert rep.scaled[3].exact == Fraction(1171, 4)


def test_scaled_moment_consistency():
    rep = moments(3, 3, 6)
    for m in rep.scaled:
        if m.order % 2 == 0:
            assert m.exact is not None
            assert m.exact * m.exact == m.squared
            assert m.sign == (1 if m.exact > 0 else -1 if m.exact < 0 else 0)
        else:
            assert m.exact is None
        # decimal value squares back to the exact square
        assert abs(Fraction(str(m.value)) ** 2 - m.squared) < Fraction(1, 10**40)


def test_degenerate_moments_have_no_scaled_part():
    # a single ball is captured in round one, so the duration is constant
    rep = moments(1, 5, 4)
    assert rep.mean == 1
    assert rep.variance == 0
    assert rep.scaled is None


def test_moments_of_constant_variable():
    rep = moments_of(RatFunc(X**2), 3)
    assert rep.mean == 2
    assert rep.variance == 0
    assert rep.scaled is None
    with pytest.raises(ValueError):
        moments_of(RatFunc(X), 0)


def test_moment_chain_agrees_with_fast_recurrences():
    for n in range(2, 8):
        for r in range(0, 8):
            rep = moments(r, n, 2)
            assert rep.mean == expected_duration(r, n)
            assert rep.variance == duration_variance(r, n)


@pytest.mark.parametrize(
    "r,n,order,digest",
    [
        (3, 2, 60, "93e9f6f4c315a24c4d18b27bfb06633e7b44a0279a63fbd862a50873c2a098a6"),
        (6, 6, 30, "f7eeb22596ad6ec477817aa2ce8081ae781a3a6c9ae59b7a26b023085f90e63f"),
    ],
)
def test_high_order_moment_reports_are_pinned(r, n, order, digest):
    # The exact fields of two high-order reports, recorded when every k! S(i, k)
    # of the moment chain was an inclusion-exclusion sum rather than an entry
    # of the surjection triangle.
    rep = moments(r, n, order)
    exact = (rep.raw, rep.central, [(m.order, m.squared, m.sign, m.exact) for m in rep.scaled])
    assert hashlib.sha256(repr(exact).encode()).hexdigest() == digest


def test_moments_against_truncated_distribution():
    # raw moments recomputed from the tail-truncated law; the missing mass
    # is below 1e-9 and durations decay geometrically, so 1e-6 is generous
    rep = moments(3, 3, 3)
    probs = exact_distribution(3, 3)
    for i in range(1, 4):
        direct = sum(Fraction(k) ** i * p for k, p in enumerate(probs))
        assert abs(float(rep.raw[i - 1] - direct)) < 1e-6


def test_two_ball_mean_closed_form():
    # F for two balls is x(n-1)/(n-x), a geometric law with success (n-1)/n
    for n in range(2, 11):
        assert expected_duration(2, n) == Fraction(n, n - 1)
        assert duration_variance(2, n) == Fraction(n, (n - 1) ** 2)


def test_expected_duration_small_values():
    assert expected_duration(0, 4) == 0
    assert expected_duration(1, 7) == 1
    assert expected_duration(2, 2) == 2
    assert expected_duration(3, 3) == Fraction(9, 4)
    assert duration_variance(3, 3) == Fraction(9, 8)


def test_mean_recurrence_rejects_one_cell():
    with pytest.raises(DivergentDurationError):
        expected_duration(2, 1)


def _reference_mean_tables(n: int, rmax: int) -> tuple[list[Fraction], list[Fraction]]:
    """M(k) = E[X] and S(k) = E[X(X-1)] for k = 0..rmax, term by term in
    reduced Fractions:

        M(k)(1 - p_0) = 1 + sum_{t>=1} p_t M(k-t)
        S(k)(1 - p_0) = 2(M(k) - 1) + sum_{t>=1} p_t S(k-t)
    """
    means, seconds = [Fraction(0)], [Fraction(0)]
    for k in range(1, rmax + 1):
        probs = transition_row(n, k).probs
        stay = probs[0]
        if stay == 1:
            raise DivergentDurationError("divergent duration")
        m_acc, s_acc = Fraction(1), Fraction(0)
        for t in range(1, k + 1):
            if probs[t]:
                m_acc += probs[t] * means[k - t]
                s_acc += probs[t] * seconds[k - t]
        m = m_acc / (1 - stay)
        means.append(m)
        seconds.append((2 * (m - 1) + s_acc) / (1 - stay))
    return means, seconds


def test_mean_tables_match_fraction_reference():
    # The integer tables hold unreduced numerators over a product of known
    # denominators; every query must equal the reduced term-by-term values.
    # On the diagonal states the nested sums run over every t up to k.
    for n, top in [(n, 60) for n in range(2, 13)] + [(2, 400), (20, 20), (32, 32), (52, 52)]:
        means, seconds = _reference_mean_tables(n, top)
        for r in range(top + 1):
            assert expected_duration(r, n) == means[r], (n, r)
            assert duration_variance(r, n) == seconds[r] + means[r] - means[r] ** 2, (n, r)
    assert _reference_mean_tables(1, 1) == ([0, 1], [0, 0])
    assert (expected_duration(1, 1), duration_variance(1, 1)) == (1, 0)
    assert expected_duration(0, 1) == 0
    for r in range(2, 61):
        with pytest.raises(DivergentDurationError):
            expected_duration(r, 1)
        with pytest.raises(DivergentDurationError):
            duration_variance(r, 1)


def test_fresh_diagonal_mean_table_budget():
    # A cold (150, 150) table takes 1.5-2.3 s on a 2-vCPU Xeon VM with the
    # nested recurrence, and 18-25 s when each weight D_{k-1} ... D_{k-t+1}
    # is built and multiplied into a table entry.  Digits recorded from the
    # latter.
    pgf._MEAN_TABLES.pop(150, None)
    started = time.perf_counter()
    mean, variance = expected_duration(150, 150), duration_variance(150, 150)
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"mean and variance at (150, 150) took {elapsed:.1f}s, budget 10s"
    assert to_decimal(mean, 30) == Decimal("4.33838798686955435760977883231")
    assert to_decimal(variance, 30) == Decimal("0.248478514154298415926856736095")


# First 16 hex digits of the sha256 of the P, R, Q and D lists (hex ints,
# comma-joined) of each cell count's mean table, to the largest r that the
# mean_tables benchmark asks of it: the diagonal to 52 and the sweeps of
# MEAN_TABLE_TOPS.  Every table the benchmark reads is a prefix of one of
# these.  Recorded with the Taylor-shift capture rows.
MEAN_TABLE_TOPS = {2: 400, 3: 120, 4: 90, 6: 76, 8: 68, 10: 64}
MEAN_TABLE_DIGESTS = {
    2: ('9f763d79fad449df', '8e57458531e71960', '98a82c49b3bf5da7', 'fd3a7c9629be10ee'),
    3: ('75e5840a6ee4bc4f', 'fae472453ef2f291', '3b4182504ee671b9', '872aed546144f384'),
    4: ('5366762b20ed154c', 'a2196921dc5ed7f3', '8096fc1939b289a0', 'b1fe7472db027bb2'),
    5: ('3b2e714c56c3bd54', '0b14f595d95682fe', 'ea6f43175efe3cfe', '6ae6d3d8ba181dc2'),
    6: ('71260b5b2da0240d', '85903b23df54a3a6', 'de0f8084a05c9036', 'fcdc96a667a3730e'),
    7: ('53a5182fdaf1c4a1', 'e861eed50e8202fa', '423b3d171df9180b', 'd97a6f94d113ad78'),
    8: ('1377c6e3f4a7b846', 'c09a1f3ccc11a40e', 'bc3047c6abbccb18', '4e3a5fe52610e7b3'),
    9: ('4c1af2f1ff184b94', 'eb05a05f6fc7cace', '8dff56977cabb597', 'b5505eb29a3cc44c'),
    10: ('13b34deefa088040', '894318e9cfbf7005', 'b9389dc05b0b6bb6', 'e12bd1d8dfc1750d'),
    11: ('7b02ed831aab8359', '71f19932d7723f18', '7caf9b36cf63e330', '4852f1801514b916'),
    12: ('227998162113dee9', 'd83120dc5fea2377', '1faa30e84f827d17', '601cd668dbac7bea'),
    13: ('e4254df01e442c01', '1f0c5ac9fb2e0d7a', '076430a4cb7ecb17', '2ce5b7bb6c31cb51'),
    14: ('b7a92a9718f0bcdb', '412d433ef4a71be0', '1c597ce3d4e95f7c', '825bdec222392d74'),
    15: ('26adae30f45f2d60', '54326b6f10aa8054', 'ee88f46ba50375e3', '12f65e32e9e8a66e'),
    16: ('52731e79d3fee797', '1178a862e6a66dd6', '755677003e26fe52', '8f60ae169a29dff1'),
    17: ('3fe01ada6e6d394b', '063cd738f331031d', '53e33ad5450e2aea', 'bbce50ce9398db76'),
    18: ('a05250a66521989d', 'dddabda9c297f956', '948338677e07e7db', 'c7854f161e143039'),
    19: ('97df01abd872e04e', 'ec1e4b0c3261cb3e', 'd73a54899bd2a2e9', '600435343344c06a'),
    20: ('47e5cb089042c776', '9cb2cb212de7b05e', '8540420d9ea3f070', 'dab578de0fbaec9a'),
    21: ('c6daaab1d7ae3d48', 'dec9104d8cecd4e0', '9e8bf86539eda03b', 'c72053bcad8dcbdc'),
    22: ('cf9ff7a612fdd84d', 'af9b82a55d2b1f43', '653871257bd55164', '89fe6eb855ef1e72'),
    23: ('8b12fc7a79152470', '783b61c6b2dc11b1', '78b7fda6d8fad94c', '191de8819da0b1b7'),
    24: ('c09142d1c9352366', 'a64f5da8fe698feb', 'af3d3de05e6b36b7', '23928552fcd527b8'),
    25: ('c3b6915b8cc7bc91', '91c9e49cf29a29ca', '13fe515df637edfb', 'a512f7dfa3debab1'),
    26: ('bb5ca1774a22e568', '8b66e5cdf51a85a6', 'cd4800fc63f322b9', '06d3564ac09c7950'),
    27: ('2056172d66e2b6cf', '175d8245bc5ec13a', 'e6772143080984b2', '2199c7e105d4bdf4'),
    28: ('df55c117f0326c75', 'fa792ad1055ff918', '20f1cf47783a46ff', '74a3b9a15a56e0d2'),
    29: ('9ca5e8e07856fe7c', '5f8e2ef894537a36', '37bf50dca9b42a44', '3356c70c2bebd247'),
    30: ('ba07f16f00cdb3a3', '9a1aa5e6d8a4e611', '3f83a2c99ad2880d', '9d13d5a47c4d2b0c'),
    31: ('55a6f793e7ea6f97', '8c6e3f56bee479c3', '2ab79eacbacdb183', '7b7fd362ee25fe33'),
    32: ('3443d887f142d2d2', '1f16dc606ecdcdf5', '1f74dd247ba68749', '2ae8e96d6b30f7de'),
    33: ('d900e29006f29841', '38115d33d3855007', 'cd840c926472b5df', '67f1b89136105542'),
    34: ('3cc975b1733ac13c', '065e1aa16b6568a3', '9918aec255991b4d', '94b5f9fc0db19866'),
    35: ('7217dbba69e107af', '87aadc3a1cdb5aa0', 'a216fa1de67941ef', '20507f2fb812676b'),
    36: ('5171e9ba8cd0f6ae', '6e0671251dc69c3e', '121f3ac825923acc', '01c5d67e2f69a1ce'),
    37: ('a0b4571f4417787d', 'de9a1e70c39917f5', 'd5a4cbfe2cd9ee24', '74059aef15b3304c'),
    38: ('f7cfd8d5d8e21410', '327325f1eb632bad', '923b016d8ca807c6', 'd28bbb0c13c5696d'),
    39: ('19c9d35c11c8f60a', '21485dd193b7ef0b', '813ec5371bdbf99a', '5fed4c36501a8785'),
    40: ('47096fba8e3e83a2', 'd06c2a09ff542918', '555f78678c6fd4d5', '37c78c6bc9228a3d'),
    41: ('76caf889456f8078', '8c30349e219326a6', 'fc4c3594b41249be', '38823adc15d50e60'),
    42: ('af1d10f54cb314ea', '6440055d01b72d14', '5b7a5198b978ff8b', '0cefd02ffffce178'),
    43: ('bf89e94e2090d9fe', '2c31c1c53a86c8f9', '42c5e0cb2b30ee31', 'd23818f2ed17f4e2'),
    44: ('35f7ddd45a539785', '41c4f2912c8f0897', '45c6fda9412a1d2f', 'd5a9aa706e3e542f'),
    45: ('1e38c41471e2ff05', '8e5fb95e1a993997', '615fc69158d95fe3', '294ba12cf0012e71'),
    46: ('bd05e590f67441e7', '7eb0785847f50b4e', 'f020b028112b7df4', 'a0b0ee5aeedb922e'),
    47: ('924a740d6c97556f', 'db2bae2ecdd821a5', '17a6fb63aebdd1ad', '9a7c054620452d3c'),
    48: ('a1d8874ae414eedd', 'f53262405a66e84c', 'c8a2c6cfc8af1534', 'e597dd8062a5ec1a'),
    49: ('e1c986ea6ac59da2', '713f7ad79dee1e0b', 'fef5ab2f1926e790', 'aecacdb2e913a617'),
    50: ('05b602d614463aee', '53df9ddae16f5bb5', 'baf22e06531d5c54', 'b125a4a8c6d4cec1'),
    51: ('896652b3d812468a', '9b5e9522306ee8ec', 'c9a4b1f141a0aa50', '6e1820d91f439d49'),
    52: ('81eab7d5a5c452e4', 'ce70d24d34f2a986', 'c979e236c60128a7', '4781224a2269b08d'),
}


def _list_digest(values):
    return hashlib.sha256(",".join(map(hex, values)).encode()).hexdigest()[:16]


def test_mean_table_lists_are_unchanged():
    for n, want in MEAN_TABLE_DIGESTS.items():
        r = max(n, MEAN_TABLE_TOPS.get(n, 0))
        got = tuple(_list_digest(values[: r + 1]) for values in pgf._mean_tables(n, r))
        assert got == want, n


def test_over_budget_mean_table_is_refused_before_it_is_built():
    # (2000, 3) ran for minutes; its Q_r has about 6.08e5 digits.
    before = pgf._MEAN_TABLES.get(3)
    started = time.perf_counter()
    for query in (expected_duration, duration_variance):
        with pytest.raises(BudgetExceededError, match=r"about 6\.08e\+05 digits over rows of 3 entries"):
            query(2000, 3)
    assert time.perf_counter() - started < 1
    assert pgf._MEAN_TABLES.get(3) is before


def test_tested_and_benchmarked_states_are_under_the_mean_budget():
    # The diagonal of diagonal_sequence(100), the (150, 150) budget test, the
    # benchmark's sweeps and the three known-defect probes, which must keep
    # reaching the int-to-str limit rather than the budget.
    states = [(r, r) for r in range(1, 101)] + [(150, 150), (60, 60), (80, 80), (3, 200)]
    states += list(MEAN_TABLE_TOPS.items())
    for n, r in states:
        pgf._check_mean_budget(n, r)


def test_mean_budget_scales_with_the_enumeration_budget(monkeypatch):
    pgf._MEAN_TABLES.pop(21, None)
    monkeypatch.setenv(BUDGET_ENV, "100")
    with pytest.raises(BudgetExceededError, match=BUDGET_ENV):
        expected_duration(21, 21)
    assert 21 not in pgf._MEAN_TABLES
    monkeypatch.delenv(BUDGET_ENV)
    mean = expected_duration(21, 21)
    # a table already built answers without a new estimate
    monkeypatch.setenv(BUDGET_ENV, "100")
    assert expected_duration(21, 21) == mean


def test_symbolic_moments_specialize():
    rep = moments_symbolic(3, 2)
    for n in range(2, 7):
        assert rep.mean.subs_n(Fraction(n)) == RatFunc.from_fraction(expected_duration(3, n))
        assert rep.variance.subs_n(Fraction(n)) == RatFunc.from_fraction(duration_variance(3, n))
    with pytest.raises(ValueError):
        moments_symbolic(3, 0)


def _reference_symbolic_moments(r: int, order: int):
    """Raw, central and scaled-squared moments by RatFunc2 field arithmetic,
    gcd-reduced at every step: the derivative chain N_k = N_{k-1}' D -
    k N_{k-1} D' gives E[(X)_k] = N_k(1) / D(1)^(k+1), Stirling numbers give
    the raw moments, the binomial expansion around the mean the central
    ones, and m_i^2 / m_2^i the scaled squares."""
    def d_dx(p):
        return Poly2({(dn, dx - 1): v * dx for (dn, dx), v in p.items() if dx})

    f = pgf_symbolic(r).func
    num, den = f.num, f.den
    dden = d_dx(den)
    d1 = Poly2.from_poly_in_n(den.subs_x(Fraction(1)))
    fact = []
    nk = num
    for k in range(1, order + 1):
        nk = d_dx(nk) * den - k * nk * dden
        fact.append(RatFunc2(Poly2.from_poly_in_n(nk.subs_x(Fraction(1))), d1 ** (k + 1)))

    def stirling2(i, k):
        return sum((-1) ** j * comb(k, j) * (k - j) ** i for j in range(k + 1)) // factorial(k)

    raw = [sum((stirling2(i, k) * fact[k - 1] for k in range(1, i + 1)), RatFunc2(0)) for i in range(1, order + 1)]
    mean = raw[0]
    central = []
    for i in range(2, order + 1):
        acc = (-mean) ** i
        for j in range(1, i + 1):
            acc = acc + comb(i, j) * raw[j - 1] * (-mean) ** (i - j)
        central.append(acc)
    scaled = None if order >= 3 and central[0].is_zero() else tuple(
        central[i - 2] ** 2 / central[0] ** i for i in range(3, order + 1)
    )
    return tuple(raw), tuple(central), scaled


def _fields(funcs):
    return None if funcs is None else [(f.num, f.den) for f in funcs]


def test_symbolic_moments_match_field_arithmetic_reference():
    for r, order in [(r, 4) for r in range(0, 5)] + [(5, 3)]:
        rep = moments_symbolic(r, order)
        raw, central, scaled = _reference_symbolic_moments(r, order)
        assert _fields(rep.raw) == _fields(raw), r
        assert _fields(rep.central) == _fields(central), r
        assert _fields(rep.scaled_squared) == _fields(scaled), r
        assert rep.mean is rep.raw[0] and rep.variance is rep.central[0]


def test_symbolic_moment_chain_runs_over_int_coefficients():
    # d1 and the raw and central numerators are Polys in n over Z, and so
    # are the canonical fields of the reduced moments _x_free builds.
    d1, raw, central = pgf._moment_numerators(pgf_symbolic(5).func, 4)
    assert len(raw) == 4 and len(central) == 3
    for p in (d1, *raw, *central):
        assert isinstance(p, Poly) and all(type(v) is int for _, v in p.items())
    rep = moments_symbolic(5, 4)
    for f in (*rep.raw, *rep.central, *rep.scaled_squared):
        assert all(type(v) is int for p in (f.num, f.den) for _, v in p.items())


def test_symbolic_moments_specialize_to_numeric_moments():
    for r in range(1, 7):
        rep = moments_symbolic(r, 4)
        for n in range(2, 8):
            want = moments(r, n, 4)

            def at(f):
                return f.eval(Fraction(n), Fraction(0))

            assert [at(f) for f in rep.raw] == list(want.raw), (r, n)
            assert [at(f) for f in rep.central] == list(want.central), (r, n)
            if want.scaled is None:
                assert rep.scaled_squared is None
            else:
                assert [at(f) for f in rep.scaled_squared] == [m.squared for m in want.scaled], (r, n)
    assert moments_symbolic(1, 4).scaled_squared is None


@pytest.mark.parametrize(
    "label, seconds, call",
    [
        ("moments_symbolic(5, 4)", 20, lambda: moments_symbolic(5, 4)),
        ("pgf_symbolic(13).func.series(4)", 5, lambda: pgf_symbolic(13).func.series(4)),
    ],
)
def test_symbolic_series_and_moments_budget(label, seconds, call):
    # Wide margins: both run in under a second on a 2-vCPU Xeon VM, where a
    # return to one bivariate gcd per field operation takes about a minute
    # for the moments and over ten seconds for the series.
    pgf_symbolic(13)  # the table itself is not what is timed
    started = time.perf_counter()
    call()
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s, budget {seconds}s"


def test_long_numeric_series_budget():
    # The series numerators share one scale that is divided by its common
    # part with them at each step: 1.4-1.9 s on a 2-vCPU Xeon VM with
    # Python 3.11.  Kept over d0^(k+1) instead, they grow to about 13 times
    # the digits, and the same expansion takes 14-17 s there.
    f = pgf_numeric(25, 25).func
    started = time.perf_counter()
    coeffs = f.series(300)
    elapsed = time.perf_counter() - started
    assert elapsed < 8, f"series(300) at (25, 25) took {elapsed:.1f}s, budget 8s"
    assert coeffs[:31] == duration_distribution(25, 25, 30)


def test_diagonal_sequence():
    seq = diagonal_sequence(6)
    assert [r for r, _, _ in seq] == [1, 2, 3, 4, 5, 6]
    for r, mean, var in seq:
        assert mean == expected_duration(r, r)
        assert var == duration_variance(r, r)
    assert seq[0][1] == 1 and seq[0][2] == 0
    assert seq[2][1] == Fraction(9, 4)
    with pytest.raises(ValueError):
        diagonal_sequence(0)


def test_state_validation():
    with pytest.raises(ValueError):
        pgf_numeric(2, 0)
    with pytest.raises(ValueError):
        pgf_numeric(-1, 3)
    with pytest.raises(ValueError):
        pgf_symbolic(-1)
