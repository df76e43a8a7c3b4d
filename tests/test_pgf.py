"""Duration generating functions: golden forms, the matrix oracle, moments.

The central claim under test is that three independent routes agree: the PGF
recurrence, the transition-matrix powering in duration_distribution, and the
differentiated mean/variance recurrences.
"""

from fractions import Fraction

import pytest

from ballcell import reference
from ballcell.errors import BudgetExceededError, DivergentDurationError
from ballcell.game import transition_row
from ballcell.pgf import (
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
from ballcell.polys import Poly
from ballcell.ratfuncs import RatFunc, RatFunc2, ratfunc_text

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


def test_symbolic_ceiling():
    with pytest.raises(BudgetExceededError):
        pgf_symbolic(9, max_balls=8)
    with pytest.raises(BudgetExceededError):
        symbolic_den_factors(9, max_balls=8)


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
    for n, top in [(n, 60) for n in range(2, 13)] + [(2, 400)]:
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


def test_symbolic_moments_specialize():
    rep = moments_symbolic(3, 2)
    for n in range(2, 7):
        assert rep.mean.subs_n(Fraction(n)) == RatFunc.from_fraction(expected_duration(3, n))
        assert rep.variance.subs_n(Fraction(n)) == RatFunc.from_fraction(duration_variance(3, n))
    with pytest.raises(ValueError):
        moments_symbolic(3, 0)


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
