"""One-round capture law against hand counts, enumeration, and the symbolic path."""

import time
from fractions import Fraction
from math import comb, factorial

import pytest

from ballcell.errors import BudgetExceededError
from ballcell.game import (
    _NO_CAPTURE,
    _NO_CAPTURE_N,
    _row_numerators,
    _symbolic_row_numerators,
    brute_force_row,
    transition_prob,
    transition_prob_symbolic,
    transition_row,
)
from ballcell.polys import Poly, Poly2
from ballcell.ratfuncs import RatFunc2
from oracles import quotient_add, quotient_value, row_by_inclusion_exclusion

N = Poly2.var_n()


def falling(n: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= n - i
    return out


def test_two_balls_two_cells_by_hand():
    # both balls share a cell with probability 1/2, else both are alone
    row = transition_row(2, 2)
    assert row.probs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))


def test_two_balls_three_cells_by_hand():
    # same cell: 3/9; different cells: 6/9, both captured
    assert transition_row(3, 2).probs == (Fraction(1, 3), Fraction(0), Fraction(2, 3))


def test_single_ball_always_captured():
    for n in range(1, 6):
        assert transition_row(n, 1).probs == (Fraction(0), Fraction(1))


def test_no_balls():
    assert transition_row(4, 0).probs == (Fraction(1),)


def test_one_cell_crowding():
    # two or more balls in one cell never leave anyone alone
    assert transition_row(1, 2).probs == (Fraction(1), Fraction(0), Fraction(0))
    assert transition_row(1, 5).probs[0] == 1


def test_exactly_one_short_of_full_capture_impossible():
    # if r-1 balls are alone, the last one is alone too
    for n in range(2, 7):
        for r in range(2, 7):
            assert transition_prob(n, r, r - 1) == 0


def test_more_balls_than_cells_cannot_all_be_captured():
    assert transition_prob(3, 4, 4) == 0
    assert transition_prob(2, 5, 5) == 0


def test_full_capture_is_falling_factorial():
    # all balls alone: n(n-1)...(n-r+1) placements out of n^r
    for n in range(1, 8):
        for r in range(0, n + 1):
            assert transition_prob(n, r, r) == Fraction(falling(n, r), n**r)


def test_rows_are_distributions():
    for n in range(1, 9):
        for r in range(0, 9):
            row = transition_row(n, r)
            assert sum(row.probs) == 1
            assert len(row.probs) == r + 1
            assert all(p >= 0 for p in row.probs)


def test_matches_exhaustive_enumeration():
    for n in range(1, 6):
        for r in range(0, 6):
            assert transition_row(n, r).probs == brute_force_row(n, r).probs


def test_prob_consistent_with_row():
    row = transition_row(4, 5)
    for t in range(6):
        assert transition_prob(4, 5, t) == row.probs[t]


def test_argument_validation():
    with pytest.raises(ValueError):
        transition_row(0, 2)
    with pytest.raises(ValueError):
        transition_row(3, -1)
    with pytest.raises(ValueError):
        transition_prob(3, 2, 3)
    with pytest.raises(ValueError):
        transition_prob(3, 2, -1)


def test_enumeration_budget(monkeypatch):
    monkeypatch.delenv("BALLCELL_BUDGET", raising=False)
    with pytest.raises(BudgetExceededError):
        brute_force_row(10, 8)  # 10^8 placements
    # BALLCELL_BUDGET sets the limit: 2^3 placements fit a budget of 8, not 7
    monkeypatch.setenv("BALLCELL_BUDGET", "8")
    assert brute_force_row(2, 3).probs == transition_row(2, 3).probs
    monkeypatch.setenv("BALLCELL_BUDGET", "7")
    with pytest.raises(BudgetExceededError):
        brute_force_row(2, 3)


def test_enumeration_refusal_reads_past_the_float_range(monkeypatch):
    # 10^400 placements is past the float range; the estimate still reads to
    # three digits, with the rounding carried into the exponent.
    monkeypatch.delenv("BALLCELL_BUDGET", raising=False)
    with pytest.raises(BudgetExceededError, match=r"visits 10\^400, about 1e\+400 placements; the budget is 1e\+07 "):
        brute_force_row(10, 400)


def test_symbolic_two_ball_forms():
    assert transition_prob_symbolic(2, 0) == RatFunc2(Poly2.const(1), N)
    assert transition_prob_symbolic(2, 1) == 0
    assert transition_prob_symbolic(2, 2) == RatFunc2(N - 1, N)


def test_symbolic_rows_sum_to_one():
    for r in range(0, 7):
        total = RatFunc2.from_fraction(Fraction(0))
        for t in range(r + 1):
            total = quotient_add(total, transition_prob_symbolic(r, t))
        assert total == 1


def test_symbolic_matches_numeric_at_integers():
    for r in range(0, 7):
        for t in range(r + 1):
            p = transition_prob_symbolic(r, t)
            for n in range(1, 7):
                assert quotient_value(p, n, 0) == transition_prob(n, r, t)


def test_symbolic_rows_match_gcd_reducing_constructor():
    # Each row is built reduced by dividing out powers of n; the gcd-reducing
    # constructor on the same value over n^r must give the same fields.
    for r in range(0, 13):
        for t in range(r + 1):
            p = transition_prob_symbolic(r, t)
            low = r - p.den.degree_n()
            ref = RatFunc2(p.num * N**low, N**r)
            assert (p.num, p.den) == (ref.num, ref.den), (r, t)


def _inclusion_exclusion(top: int, t: int, term) -> object:
    """sum_{j=t}^{top} (-1)^(j-t) C(j,t) term(j), summed directly."""
    total = 0
    for j in range(t, top + 1):
        s = term(j) * comb(j, t)
        total = total - s if (j - t) & 1 else total + s
    return total


def _assert_row(n, r, want):
    top = min(n, r)
    assert list(_row_numerators(n, r)) == want[: top + 1], (n, r)
    assert not any(want[top + 1 :]), (n, r)


def test_rows_match_direct_inclusion_exclusion_sum():
    # The rows are counted through the no-lone-ball table; the module
    # docstring's sum, evaluated term by term, must give the same numerators
    # on square-ish states, where rows are wide, and on long sweeps at small
    # n, where the table's columns are long.
    states = [(n, r) for n in range(1, 61) for r in range(71)]
    states += [(n, r) for n in range(2, 6) for r in range(71, 421)]
    for n, r in states:
        want = row_by_inclusion_exclusion(n, r)
        _assert_row(n, r, want)
        if n < 30 and r < 40:
            assert transition_row(n, r).probs == tuple(Fraction(a, n**r) for a in want), (n, r)
    assert transition_prob(3, 10, 7) == 0


def test_rows_at_huge_n_grow_only_their_triangle():
    # A row of r balls reads columns n - r..n only, so a huge n builds a
    # triangle of (r + 1)(r + 2)/2 entries and never walks down toward 0.
    n = 1000003
    for m in range(n - 10, n + 1):
        _NO_CAPTURE.pop(m, None)
    started = time.perf_counter()
    for r in range(7):
        _assert_row(n, r, row_by_inclusion_exclusion(n, r))
    assert time.perf_counter() - started < 1
    grown = {m: len(col) for m, col in _NO_CAPTURE.items() if m > n - 1000}
    assert grown == {n - j: 7 - j for j in range(7)}


def test_numeric_rows_are_symbolic_rows_at_n():
    for r in range(13):
        sym = _symbolic_row_numerators(r)
        for n in range(1, 25):
            _assert_row(n, r, [p.eval(n) for p in sym])


def test_symbolic_rows_grow_only_their_triangle_over_z_n():
    # The symbolic rows read the same recurrence over Z[n]: r balls build the
    # columns n - j, j <= r, to length r + 1 - j, and a longer row only
    # extends them, leaving every entry already there as it was.
    n = Poly.var()
    _NO_CAPTURE_N.clear()
    _symbolic_row_numerators.cache_clear()
    _symbolic_row_numerators(6)
    assert {m: len(col) for m, col in _NO_CAPTURE_N.items()} == {n - j: 7 - j for j in range(7)}
    before = {m: list(col) for m, col in _NO_CAPTURE_N.items()}
    _symbolic_row_numerators(9)
    assert {m: len(col) for m, col in _NO_CAPTURE_N.items()} == {n - j: 10 - j for j in range(10)}
    for m, col in before.items():
        assert _NO_CAPTURE_N[m][: len(col)] == col, m


@pytest.mark.parametrize("r", [16, 24, 40])
def test_long_symbolic_rows_are_numeric_rows_at_n(r):
    sym = _symbolic_row_numerators(r)
    assert len(sym) == r + 1
    for n in range(1, 31):
        _assert_row(n, r, [p.eval(n) for p in sym])


def test_symbolic_rows_match_direct_inclusion_exclusion_sum():
    def shift(j):
        return Poly({1: Fraction(1), 0: Fraction(-j)})

    def falling_poly(j):
        out = Poly.const(1)
        for i in range(j):
            out = out * shift(i)
        return out

    for r in range(0, 13):
        for t in range(r + 1):
            num = _inclusion_exclusion(r, t, lambda j: falling_poly(j) * shift(j) ** (r - j) * comb(r, j))
            want = RatFunc2(Poly2.from_poly_in_n(num), N**r) if num else RatFunc2(Poly2.zero(), N**0)
            got = transition_prob_symbolic(r, t)
            assert (got.num, got.den) == (want.num, want.den), (r, t)


def test_symbolic_captured_range_checked():
    with pytest.raises(ValueError):
        transition_prob_symbolic(2, 3)
    with pytest.raises(ValueError):
        transition_prob_symbolic(2, -1)
