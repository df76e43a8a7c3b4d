"""One-round capture law against hand counts, enumeration, and the symbolic path."""

from fractions import Fraction

import pytest

from ballcell.errors import BudgetExceededError
from ballcell.game import (
    brute_force_row,
    transition_prob,
    transition_prob_symbolic,
    transition_row,
)
from ballcell.polys import Poly2
from ballcell.ratfuncs import RatFunc2

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


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        brute_force_row(10, 8)  # 10^8 placements
    # an explicit budget overrides the default
    assert brute_force_row(2, 3, budget=8).probs == transition_row(2, 3).probs
    with pytest.raises(BudgetExceededError):
        brute_force_row(2, 3, budget=7)


def test_symbolic_two_ball_forms():
    assert transition_prob_symbolic(2, 0) == RatFunc2(Poly2.const(1), N)
    assert transition_prob_symbolic(2, 1) == 0
    assert transition_prob_symbolic(2, 2) == RatFunc2(N - 1, N)


def test_symbolic_rows_sum_to_one():
    for r in range(0, 7):
        total = RatFunc2.from_fraction(Fraction(0))
        for t in range(r + 1):
            total = total + transition_prob_symbolic(r, t)
        assert total == 1


def test_symbolic_matches_numeric_at_integers():
    for r in range(0, 7):
        for t in range(r + 1):
            p = transition_prob_symbolic(r, t)
            for n in range(1, 7):
                assert p.eval(Fraction(n), Fraction(0)) == transition_prob(n, r, t)


def test_symbolic_rows_match_gcd_reducing_constructor():
    # Each row is built reduced by dividing out powers of n; the gcd-reducing
    # constructor on the same value over n^r must give the same fields.
    for r in range(0, 13):
        for t in range(r + 1):
            p = transition_prob_symbolic(r, t)
            low = r - p.den.degree_n()
            ref = RatFunc2(p.num * N**low, N**r)
            assert (p.num, p.den) == (ref.num, ref.den), (r, t)


def test_symbolic_captured_range_checked():
    with pytest.raises(ValueError):
        transition_prob_symbolic(2, 3)
    with pytest.raises(ValueError):
        transition_prob_symbolic(2, -1)
