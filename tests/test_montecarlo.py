"""Simulation determinism, trace bookkeeping, and goodness of fit.

Every simulated quantity here is a pure function of (state, seed), so the
tests can pin exact values.  The generator itself is checked against the
published output stream for its mixing constants before anything built on
top of it is trusted.
"""

import hashlib
import math
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from ballcell.errors import BudgetExceededError, DivergentDurationError
from ballcell.montecarlo import (
    _GAMMA,
    _LANES,
    _MIX1,
    _MIX2,
    MASK64,
    MIN_COVERAGE,
    DurationLaw,
    _check_play_budget,
    _log_words,
    _simulate_batch,
    RoundTrace,
    SimBatch,
    SplitMix64,
    gof_compare,
    simulate_batch,
    simulate_game,
    simulate_game_verbose,
    trial_seed,
)
from ballcell.pgf import exact_distribution, expected_duration
from ballcell.scalars import BUDGET_ENV, to_decimal

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


# sha256 of repr((exact_distribution(r, n), gof_compare report)) for 2000
# trials at seed 5, recorded while the law re-summed its Fraction list at
# every horizon doubling and gof_compare summed Fractions term by term.  The
# chi-squares pass the 4300-digit int-to-str limit, which the test lifts for
# the repr and restores.
LAW_FIT_DIGESTS = {
    (8, 2): "f626f9fec6d0b39ec61c95a06f99e915a9728dec33bc39a3d30eed26ab9155b4",
    (9, 2): "5144415ab0d0773ee24b50afc08f95646bcd1c0d498e333c413feed2a8025221",
    (12, 3): "91a848a86f3ad9ef56df54b76f6b11c1fdab322f2510057fa3b3b36a36d974ee",
    (14, 3): "8adbda79ceeb9493edade243c131b1bcadfe7b197b4551184f5f41dd10309c6e",
    (16, 4): "82410d4dd123f69f120db8d60996eb763b5066a0293b73dc5f293de59d42f3d1",
}


@pytest.mark.parametrize("r,n", sorted(LAW_FIT_DIGESTS))
def test_law_and_fit_are_unchanged(r, n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        probs = exact_distribution(r, n)
        rep = gof_compare(simulate_batch(r, n, 2000, 5), DurationLaw(r, n, tuple(probs)))
        digest = hashlib.sha256(repr((probs, rep)).encode()).hexdigest()
    finally:
        sys.set_int_max_str_digits(limit)
    assert digest == LAW_FIT_DIGESTS[(r, n)]


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


# ---------------------------------------------------------------------------
# The per-ball loop the packed engine replaced, kept as its oracle.


def _reference_play(r: int, n: int, rng: SplitMix64, record: bool):
    balls = r
    rounds = 0
    traces: list[RoundTrace] = []
    while balls:
        rounds += 1
        counts: dict[int, int] = {}
        if record:
            # Cells are labeled 1..n in traces.
            hits = sorted(rng.below(n) + 1 for _ in range(balls))
            for c in hits:
                counts[c] = counts.get(c, 0) + 1
        else:
            for _ in range(balls):
                c = rng.below(n)
                counts[c] = counts.get(c, 0) + 1
        captured = sum(1 for v in counts.values() if v == 1)
        if record:
            traces.append(RoundTrace(rounds, balls, tuple(hits), captured))
        balls -= captured
    return rounds, tuple(traces)


def _reference_game(r: int, n: int, seed: int) -> int:
    return _reference_play(r, n, SplitMix64(seed), record=False)[0]


def _reference_verbose(r: int, n: int, seed: int):
    return _reference_play(r, n, SplitMix64(seed), record=True)


def _assert_matches_reference(r: int, n: int, seed: int) -> None:
    assert simulate_game(r, n, seed) == _reference_game(r, n, seed)
    assert simulate_game_verbose(r, n, seed) == _reference_verbose(r, n, seed)


# r = 0, (1, 1), (1, n), n = 2, powers of two (no word is ever rejected),
# odd n, and more balls than cells.
ORACLE_STATES = [(0, 1), (0, 5), (1, 1), (1, 6), (1, 9), (2, 2), (6, 2), (4, 8), (9, 16),
                 (5, 3), (7, 7), (12, 13), (10, 4), (20, 37)]


@pytest.mark.parametrize("r,n", ORACLE_STATES)
def test_games_match_per_ball_reference(r, n):
    for seed in (0, 1, 2022, 2**63 + 5, MASK64):
        _assert_matches_reference(r, n, seed)


@pytest.mark.parametrize("r,n", [(0, 3), (1, 1), (2, 2), (8, 9), (8, 16), (13, 25)])
def test_batch_matches_per_ball_reference_around_chunk_size(r, n):
    chunk = max(1, _LANES // max(r, 1))
    for trials in (1, chunk - 1, chunk, chunk + 1):
        seed = 7919 * trials + r
        batch = simulate_batch(r, n, trials, seed)
        assert batch.durations == tuple(_reference_game(r, n, trial_seed(seed, i)) for i in range(trials))


def test_round_larger_than_one_draw_is_split():
    r, n = _LANES + 5, 4099
    for seed in (3, 44):
        _assert_matches_reference(r, n, seed)
    batch = simulate_batch(r, n, 2, 12)
    assert batch.durations == tuple(_reference_game(r, n, trial_seed(12, i)) for i in range(2))


# ---------------------------------------------------------------------------
# Rejected words, placed on purpose by inverting the output mix.


def _unshift(z: int, k: int) -> int:
    """Inverse of z ^ (z >> k) on 64-bit words."""
    x = z
    for _ in range(64 // k + 1):
        x = z ^ (x >> k)
    return x


def _unmix64(w: int) -> int:
    z = _unshift(w, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & MASK64
    z = _unshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & MASK64
    return _unshift(z, 30)


def _seed_for_word(word: int, index: int = 0) -> int:
    """Stream seed whose word `index` (0-based) is `word`."""
    return (_unmix64(word) - (index + 1) * _GAMMA) & MASK64


# Stream whose first word is 2^64 - 1, rejected by below(n) for every n
# that is not a power of two; and a batch seed whose trial 0 runs on it.
REJECT_STREAM = 0x31628AF67B2131AB
REJECT_BATCH = 0x1FDB84807C8BC327


def test_rejection_seeds_are_built_by_inverting_the_mix():
    for w in (0, 1, MASK64, 0x0123456789ABCDEF):
        g = SplitMix64(_seed_for_word(w, 4))
        assert [g.next_u64() for _ in range(5)][4] == w
    assert _seed_for_word(MASK64) == REJECT_STREAM
    assert SplitMix64(REJECT_STREAM).next_u64() == MASK64
    assert _seed_for_word(REJECT_STREAM) == REJECT_BATCH
    assert trial_seed(REJECT_BATCH, 0) == REJECT_STREAM


@pytest.mark.parametrize("n", [3, 5, 6, 7, 10, 4, 8])
def test_rejected_first_word_matches_reference(n):
    for r in (1, 2, 4, 9):
        _assert_matches_reference(r, n, REJECT_STREAM)
    batch = simulate_batch(4, n, 5, REJECT_BATCH)
    assert batch.durations == tuple(_reference_game(4, n, trial_seed(REJECT_BATCH, i)) for i in range(5))


@pytest.mark.parametrize("k", [1, 3, 6])
def test_rejected_word_mid_round_matches_reference(k):
    r, n = 7, 5
    # Ball k + 1 of the first round draws the rejected word.
    seed = (REJECT_STREAM - k * _GAMMA) & MASK64
    _assert_matches_reference(r, n, seed)
    # The same stream as trial 2 of a batch, among games that draw no
    # rejected word in that round.
    batch_seed = _seed_for_word(seed, 2)
    assert trial_seed(batch_seed, 2) == seed
    batch = simulate_batch(r, n, 9, batch_seed)
    assert batch.durations == tuple(_reference_game(r, n, trial_seed(batch_seed, i)) for i in range(9))


@pytest.mark.parametrize("n", [3, 10, 1000003, 9999991])
def test_words_at_the_rejection_limit_match_reference(n):
    limit = (1 << 64) - (1 << 64) % n
    # The smallest rejected word and the largest accepted one, at the first
    # and the third ball of a round.
    for word in (limit, limit - 1):
        for index in (0, 2):
            _assert_matches_reference(3, n, _seed_for_word(word, index))


@pytest.mark.parametrize("r,n", [(0, 3), (1, 1), (4, 5), (8, 9), (13, 25)])
def test_recorded_batch_matches_per_ball_reference(r, n):
    # simulate --verbose takes every game's rounds from the batch's own pass.
    chunk = max(1, _LANES // max(r, 1))
    for trials, seed in ((5, REJECT_BATCH), (chunk + 1, 99)):
        batch, traces = _simulate_batch(r, n, trials, seed, record=True)
        assert batch == simulate_batch(r, n, trials, seed)
        want = [_reference_verbose(r, n, trial_seed(seed, i)) for i in range(trials)]
        assert list(zip(batch.durations, traces)) == want


def test_rejected_word_in_a_split_round_matches_reference():
    r, n = _LANES + 3, 2 * _LANES + 1
    # The rejected word falls in the second draw of the first round.
    _assert_matches_reference(r, n, (REJECT_STREAM - (_LANES + 1) * _GAMMA) & MASK64)


# ---------------------------------------------------------------------------
# Resource guards.


def test_simulation_imports_no_numpy_or_scipy():
    code = (
        "import sys, ballcell\n"
        "ballcell.simulate_batch(5, 7, 300, 1)\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_batch_memory_stays_bounded():
    trials = 10**5
    tracemalloc.start()
    try:
        simulate_batch(10, 10, trials, 99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The durations list and tuple take 8 bytes a trial each; the draws and
    # counts of one chunk stay well under a megabyte whatever the trial count.
    assert peak < 16 * trials + 2**20


def test_large_round_budget():
    start = time.perf_counter()
    batch = simulate_batch(5000, 10000, 3, 31)
    elapsed = time.perf_counter() - start
    assert batch.durations == tuple(_reference_game(5000, 10000, trial_seed(31, i)) for i in range(3))
    assert elapsed < 3


def test_long_requests_are_refused_before_play(monkeypatch):
    # One game of (40, 2) averages 28,233,101,920 rounds of up to 40 words.
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=rf"about 1\.13e\+12 random words; the budget is 2e\+07 \({BUDGET_ENV} \* 2\)"):
        simulate_game(40, 2, 1)
    for refused in (lambda: simulate_game_verbose(40, 2, 1), lambda: simulate_batch(40, 2, 1, 1),
                    lambda: _simulate_batch(40, 2, 1, 1, record=True), lambda: simulate_batch(2, 3, 10**8, 1)):
        with pytest.raises(BudgetExceededError, match="random words"):
            refused()
    assert time.perf_counter() - start < 1
    # The state checks come first and keep their own errors.
    with pytest.raises(BudgetExceededError, match="exceeds the budget of"):
        simulate_game(10**7 + 1, 2, 0)
    with pytest.raises(DivergentDurationError):
        simulate_batch(2, 1, 10**9, 1)
    with pytest.raises(ValueError, match="trials"):
        simulate_batch(40, 2, 0, 1)
    # The largest requests the tests and the stats gate make stay well inside,
    # and the budget follows BALLCELL_BUDGET.
    for r, n, trials in ((10, 10, 10**5), (11, 2, 2000), (5000, 10000, 3), (_LANES + 5, 4099, 2)):
        _check_play_budget(r, n, trials)
    monkeypatch.setenv(BUDGET_ENV, str(10**6))
    with pytest.raises(BudgetExceededError, match=rf"about 4\.66e\+06 random words; the budget is 2e\+06"):
        simulate_batch(11, 2, 2000, 1)


def test_word_estimate():
    # trials · (1 + r·A_n(r)): A_2(r) is the exact mean duration at n = 2.
    for r in (1, 2, 5, 20, 40, 63):
        want = 3 * (1 + r * expected_duration(r, 2))
        assert math.exp(_log_words(r, 2, 3)) == pytest.approx(want, rel=1e-12)
    assert math.exp(_log_words(0, 5, 7)) == pytest.approx(7)
    assert math.exp(_log_words(1, 1, 1)) == pytest.approx(2)
    # From j = 64 on, blocks of terms are taken at their first 1/j: at most
    # 1/64 over the sum.
    for r, n in ((64, 2), (100, 150), (1000, 1000), (5000, 10000), (3000, 7)):
        q = n / (n - 1)
        exact = 1 + r * math.fsum(math.exp((j - 1) * math.log(q) - math.log(j)) for j in range(1, r + 1))
        assert exact * (1 - 1e-12) <= math.exp(_log_words(r, n, 1)) <= exact * (1 + 1 / 64)
    # It decides in well under 10 ms for every state the state checks admit.
    for r, n, trials in ((10**7, 10**7, 1), (10**7, 2, 1), (10**6, 3, 10**9), (10**5, 10**7, 10**4)):
        best = min(_timed(_log_words, r, n, trials) for _ in range(3))
        assert best < 0.01


def _timed(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start
