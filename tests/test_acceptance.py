"""Acceptance gate: ten criteria, one test each.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Each test measures its own wall time against the stated budget,
so a pass also certifies the performance envelope.
"""

import time
from fractions import Fraction

from ballcell import reference
from ballcell.approx import approx_mean, approx_variance, error_limit, error_term
from ballcell.game import brute_force_row, transition_row
from ballcell.geometric import (
    StepSequence,
    alpha_closed_forms,
    alpha_limits,
    alpha_moments,
    chain_mean,
    chain_variance,
)
from ballcell.montecarlo import DurationLaw, gof_compare, simulate_batch
from ballcell.pgf import (
    diagonal_sequence,
    duration_distribution,
    duration_variance,
    expected_duration,
    moments_symbolic,
    pgf_numeric,
    pgf_symbolic,
)
from ballcell.scalars import chi_square_quantile

GATE_SEED = 20260822


class budget:
    """Context manager asserting the block stays under its time budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.started
            assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds:.0f}s"
        return False


def test_criterion_01_golden_generating_functions():
    with budget(10):
        for r in range(1, 6):
            computed = pgf_numeric(r, r).func
            golden = reference.diagonal_pgf(r)
            assert computed.num * golden.den == golden.num * computed.den
        for r in range(1, 6):
            computed = pgf_symbolic(r).func
            golden = reference.symbolic_pgf(r)
            assert computed.num * golden.den == golden.num * computed.den


def test_criterion_02_golden_symbolic_means():
    with budget(10):
        for r in range(1, 6):
            computed = moments_symbolic(r, 1).mean
            golden = reference.symbolic_mean(r)
            assert computed.num * golden.den == golden.num * computed.den


def test_criterion_03_oracle_equivalence():
    with budget(120):
        for n in range(1, 7):
            for r in range(0, 7):
                assert transition_row(n, r).probs == brute_force_row(n, r).probs
        for n in range(2, 7):
            for r in range(2, 7):
                series = pgf_numeric(r, n).func.series(25)
                assert series == duration_distribution(r, n, 25)


def test_criterion_04_error_limits():
    targets = {
        3: (Fraction("0.04213658385"), Fraction(1, 10**8)),
        4: (Fraction("0.254461"), Fraction(1, 10**4)),
        5: (Fraction("0.5312"), Fraction(1, 10**3)),
    }
    with budget(300):
        for n, (target, tol) in targets.items():
            est = error_limit(n)
            assert abs(Fraction(str(est.estimate)) - target) <= tol, (n, est.estimate)


def test_criterion_05_two_cell_error_vanishes():
    with budget(60):
        for r in range(1, 201):
            assert error_term(2, r) == 0


def test_criterion_06_error_bounded_by_one():
    with budget(120):
        for n in (3, 4, 5, 6):
            for r in range(1, 5 * n + 1):
                assert abs(error_term(n, r)) < 1


def test_criterion_07_chain_routes_agree_exactly():
    for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
        seq = StepSequence.power(alpha)
        for r in range(0, 31):
            mean, variance = alpha_closed_forms(alpha, r)
            assert mean == chain_mean(r, seq)
            assert variance == chain_variance(r, seq)
    for n in (3, 4, 5):
        seq = StepSequence.ball_cell(n)
        for r in range(0, 51):
            assert chain_mean(r, seq) == approx_mean(n, r)
            assert chain_variance(r, seq) == approx_variance(n, r)


def test_criterion_08_scaled_moments_reach_limits():
    with budget(60):
        for alpha in (Fraction(1, 2), Fraction(1, 3)):
            rep = alpha_moments(alpha, 40, 6)
            lim = alpha_limits(alpha)
            pairs = [
                (rep.variance / rep.mean**2, lim.cv_squared),
                (rep.scaled[0].squared, lim.skewness_squared),
                (rep.scaled[1].exact, lim.kurtosis),
                (rep.scaled[2].squared, lim.m5_scaled_squared),
                (rep.scaled[3].exact, lim.m6_scaled),
            ]
            for got, want in pairs:
                assert abs(got - want) / abs(want) < Fraction(1, 10**6), (alpha, got, want)


def test_criterion_09_statistical_gate():
    trials = 10**5
    with budget(120):
        for r, n in ((3, 3), (5, 5), (10, 10)):
            batch = simulate_batch(r, n, trials, GATE_SEED)
            mean = expected_duration(r, n)
            var = duration_variance(r, n)
            emp = Fraction(sum(batch.durations), trials)
            z = abs(float(emp - mean)) / float(var / Fraction(trials)) ** 0.5
            assert z < 4, f"({r},{n}): mean off by {z:.2f} standard errors"
            rep = gof_compare(batch, DurationLaw.compute(r, n))
            threshold = chi_square_quantile(0.999, rep.dof)
            assert float(rep.chi_square) < threshold, (
                f"({r},{n}): chi={float(rep.chi_square):.2f} "
                f"dof={rep.dof} threshold={threshold:.2f}"
            )


def test_criterion_10_diagonal_sequence_long_run():
    with budget(300):
        seq = diagonal_sequence(100)
    assert [r for r, _, _ in seq] == list(range(1, 101))
    means = [m for _, m, _ in seq]
    variances = [v for _, _, v in seq]
    assert means[0] == 1 and variances[0] == 0
    assert all(a < b for a, b in zip(means, means[1:]))
    assert all(v >= 0 for v in variances)
    for r in (1, 2, 25, 60, 100):
        assert seq[r - 1][1] == expected_duration(r, r)
        assert seq[r - 1][2] == duration_variance(r, r)
