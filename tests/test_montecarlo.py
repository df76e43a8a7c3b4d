"""Simulation determinism, trace bookkeeping, and goodness of fit.

Every simulated quantity here is a pure function of (state, seed), so the
tests can pin exact values.  The generator itself is checked against the
published output stream for its mixing constants before anything built on
top of it is trusted.
"""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from ballcell.errors import BudgetExceededError, DivergentDurationError
from ballcell.montecarlo import (
    MIN_COVERAGE,
    DurationLaw,
    SimBatch,
    SplitMix64,
    gof_compare,
    simulate_batch,
    simulate_game,
    simulate_game_verbose,
    trial_seed,
)
from ballcell.pgf import exact_distribution
from ballcell.scalars import to_decimal

# First outputs of the reference stream for two seeds.
STREAM_SEED_0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
STREAM_SEED_42 = (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52)


def test_generator_reference_vectors():
    g = SplitMix64(0)
    assert tuple(g.next_u64() for _ in range(3)) == STREAM_SEED_0
    g = SplitMix64(42)
    assert tuple(g.next_u64() for _ in range(3)) == STREAM_SEED_42


def test_generator_outputs_stay_in_range():
    g = SplitMix64(7)
    for _ in range(200):
        v = g.next_u64()
        assert 0 <= v < 2**64


def test_below_is_bounded_and_reachable():
    g = SplitMix64(123)
    seen = set()
    for _ in range(500):
        v = g.below(6)
        assert 0 <= v < 6
        seen.add(v)
    assert seen == set(range(6))


def test_trial_seed_equals_stream_position():
    for seed in (0, 42, 20260822):
        g = SplitMix64(seed)
        for i in range(40):
            expected = g.next_u64()
            assert trial_seed(seed, i) == expected
    with pytest.raises(ValueError):
        trial_seed(5, -1)


def test_game_regression_pin():
    assert simulate_game(2, 2, 2022) == 10


def test_trivial_games():
    for s in (0, 1, 99):
        assert simulate_game(0, 4, s) == 0
        assert simulate_game(0, 1, s) == 0
        assert simulate_game(1, 1, s) == 1
        assert simulate_game(1, 6, s) == 1


def test_game_determinism():
    for seed in (0, 17, 9001):
        assert simulate_game(4, 3, seed) == simulate_game(4, 3, seed)


def test_state_validation():
    with pytest.raises(ValueError):
        simulate_game(-1, 3, 0)
    with pytest.raises(ValueError):
        simulate_game(2, 0, 0)
    with pytest.raises(DivergentDurationError):
        simulate_game(2, 1, 0)
    with pytest.raises(BudgetExceededError):
        simulate_game(2, 10**7 + 1, 0)
    with pytest.raises(BudgetExceededError):
        simulate_game(10**7 + 1, 2, 0)


def test_verbose_trace_accounts_for_every_ball():
    rng = random.Random(4401)
    for _ in range(25):
        r = rng.randint(1, 6)
        n = rng.randint(2, 6)
        seed = rng.randint(0, 2**32)
        duration, rounds = simulate_game_verbose(r, n, seed)
        assert duration == simulate_game(r, n, seed)
        assert duration == len(rounds)
        assert [t.round_index for t in rounds] == list(range(1, duration + 1))
        balls = r
        for t in rounds:
            assert t.balls_before == balls
            assert len(t.assignment) == balls
            assert all(1 <= c <= n for c in t.assignment)
            assert tuple(sorted(t.assignment)) == t.assignment
            # captured balls are exactly the sole occupants of their cells
            occupancy = Counter(t.assignment)
            assert t.captured == sum(1 for c in t.assignment if occupancy[c] == 1)
            balls -= t.captured
        assert balls == 0


def test_batch_summaries_recompute():
    batch = simulate_batch(3, 3, 400, 11)
    assert batch.trials == 400 and len(batch.durations) == 400
    assert batch.histogram == dict(sorted(Counter(batch.durations).items()))
    mean = Fraction(sum(batch.durations), 400)
    var = sum((Fraction(d) - mean) ** 2 for d in batch.durations) / 400
    assert batch.mean == to_decimal(mean)
    assert batch.variance == to_decimal(var)
    # batches replay single games through per-trial seeds
    assert batch.durations[7] == simulate_game(3, 3, trial_seed(11, 7))


def test_batch_validation():
    with pytest.raises(ValueError):
        simulate_batch(2, 2, 0, 1)
    with pytest.raises(DivergentDurationError):
        simulate_batch(3, 1, 10, 1)


def test_duration_law_wraps_exact_distribution():
    law = DurationLaw.compute(2, 2)
    assert law.balls == 2 and law.cells == 2
    assert list(law.probs) == exact_distribution(2, 2)
    assert law.coverage() >= MIN_COVERAGE
    with pytest.raises(DivergentDurationError):
        DurationLaw.compute(2, 1)


def test_gof_exact_match_has_zero_distance():
    # synthetic batch hitting the (2, 2) law exactly: 2^(32-k) games of
    # duration k for k = 1..32 and a single longer game for the tail
    trials = 2**32
    hist = {k: 2 ** (32 - k) for k in range(1, 33)}
    hist[33] = 1
    batch = SimBatch(
        balls=2,
        cells=2,
        trials=trials,
        seed=0,
        durations=(),
        histogram=hist,
        mean=Decimal(2),
        variance=Decimal(2),
    )
    rep = gof_compare(batch, DurationLaw.compute(2, 2))
    assert rep.tv_distance == 0
    assert rep.chi_square == 0


def test_gof_regression_values():
    batch = simulate_batch(2, 2, 1000, 3)
    rep = gof_compare(batch, DurationLaw.compute(2, 2))
    assert rep.dof == 7
    assert rep.tv_distance == Fraction(863, 32000)


def test_gof_partition_structure():
    batch = simulate_batch(3, 3, 2000, 99)
    rep = gof_compare(batch, DurationLaw.compute(3, 3))
    assert rep.dof == len(rep.bins) - 1
    assert sum(b.observed for b in rep.bins) == 2000
    assert sum(b.expected for b in rep.bins) == 2000
    for b in rep.bins:
        assert b.expected >= 5
    # bins tile the durations left to right, last one open ended
    assert rep.bins[0].lo == 0
    assert rep.bins[-1].hi is None
    for prev, nxt in zip(rep.bins, rep.bins[1:]):
        assert prev.hi is not None and prev.hi + 1 == nxt.lo


def test_gof_rejects_mismatched_state():
    batch = simulate_batch(2, 2, 100, 1)
    with pytest.raises(ValueError):
        gof_compare(batch, DurationLaw.compute(3, 3))


def test_gof_rejects_thin_law():
    batch = simulate_batch(2, 2, 100, 1)
    thin = DurationLaw(2, 2, (Fraction(0), Fraction(1, 2)))
    with pytest.raises(ValueError):
        gof_compare(batch, thin)


def test_light_statistical_gate():
    # 20000 trials keep this quick; the acceptance suite runs the full gate
    from ballcell.pgf import duration_variance, expected_duration

    batch = simulate_batch(3, 3, 2 * 10**4, 20260822)
    mean = expected_duration(3, 3)
    var = duration_variance(3, 3)
    emp = Fraction(sum(batch.durations), batch.trials)
    z = abs(float(emp - mean)) / float(var / batch.trials) ** 0.5
    assert z < 4
    rep = gof_compare(batch, DurationLaw.compute(3, 3))
    assert rep.dof == 8
    # 99.9% quantile of chi-square with 8 degrees of freedom is 26.12
    assert float(rep.chi_square) < 26.12
    assert float(rep.tv_distance) < 0.02
