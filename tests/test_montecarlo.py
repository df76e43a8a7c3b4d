"""Simulation determinism, trace bookkeeping, and goodness of fit.

Every simulated quantity here is a pure function of (state, seed), so the
tests can pin exact values.  The generator itself is checked against the
published output stream for its mixing constants before anything built on
top of it is trusted.
"""

import hashlib
import math
import os
import random
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from ballcell.errors import BudgetExceededError, DivergentDurationError
from ballcell.law import MIN_COVERAGE, exact_distribution, gof_compare
from ballcell.montecarlo import (
    _GAMMA,
    _LANES,
    _MIX1,
    _MIX2,
    MASK64,
    DurationLaw,
    _check_play_budget,
    _log_words,
    _simulate_batch,
    RoundTrace,
    SimBatch,
    SplitMix64,
    simulate_batch,
    simulate_game,
    simulate_game_verbose,
    trial_seed,
)
from ballcell.pgf import expected_duration
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


def test_more_cells_than_words_are_refused_before_any_draw(monkeypatch):
    # Past 2^64 cells the rejection limit 2^64 - (2^64 mod n) is 0 and no
    # word is ever accepted, so below and every game refuse at once, even
    # under a budget that admits the size; 2^64 cells take every word as is.
    monkeypatch.setenv(BUDGET_ENV, str(10**20))
    n = 2**64 + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"modulus must lie in \[1, 2\^64\]"):
        SplitMix64(0).below(n)
    for call, args in ((simulate_batch, (2, n, 1, 1)), (simulate_game, (2, n, 0)),
                       (simulate_game_verbose, (2, n, 0)), (DurationLaw.compute, (2, n))):
        with pytest.raises(ValueError, match=r"cells must be at most 2\^64"):
            call(*args)
    assert SplitMix64(0).below(2**64) == STREAM_SEED_0[0]
    assert simulate_batch(2, 2**64, 3, 1).durations == (1, 1, 1)
    assert time.perf_counter() - start < 1


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


def test_every_command_runs_without_numpy_or_scipy():
    requests = [
        ["verify", "--suite", "stats", "--budget", "small"],
        ["pgf", "--balls", "3", "--cells", "3", "--expand", "4"],
        ["moments", "--balls", "4", "--cells", "3", "--order", "3"],
        ["approx", "--cells", "3", "--balls", "10"],
        ["geo", "--alpha", "1/2", "--r", "3"],
        ["simulate", "--balls", "3", "--cells", "3", "--trials", "200", "--seed", "1", "--gof"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['numpy'] = None\n"
        "from ballcell import cli\n"
        f"print([cli.run(argv) for argv in {requests!r}], file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stderr.splitlines()[-1] == str([0] * len(requests)), out.stderr


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


def test_batch_memory_stays_bounded_in_one_process(monkeypatch):
    # With one CPU no helper plays half the batch out of tracemalloc's sight.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    test_batch_memory_stays_bounded()


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


def test_word_estimate_past_the_float_range_is_refused(monkeypatch):
    # 10^7 balls on 2 cells pass the size cap, and their words drawn, about
    # 2^(10^7), overflow a float: the estimate is compared and read as a log.
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"about \d\.\d+e\+30\d{5} random words; the budget is 2e\+07"):
        simulate_batch(10**7, 2, 1, 1)
    assert time.perf_counter() - start < 1


def test_word_estimate():
    # trials · (1 + r·A_n(r)): A_2(r) is the exact mean duration at n = 2.
    for r in (1, 2, 5, 20, 40, 63):
        want = 3 * (1 + r * expected_duration(r, 2))
        assert math.exp(_log_words(r, 2, 3)) == pytest.approx(want, rel=1e-12)
    assert math.exp(_log_words(0, 5, 7)) == pytest.approx(7)
    assert math.exp(_log_words(1, 1, 1)) == pytest.approx(2)
    # From j = 64 on, blocks of terms are taken at their first 1/j: at most
    # 1/64 over the sum.
    # n/(n - 1) rounds to 1.0 at the last two: the estimate takes log1p(1/(n - 1)).
    for r, n in ((64, 2), (100, 150), (1000, 1000), (5000, 10000), (3000, 7), (100, 10**18), (65, 2**60)):
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


# ---------------------------------------------------------------------------
# The batch helper: a forked process that plays the second half of an
# unrecorded batch of more than one chunk.  The CPU probe is set to two CPUs
# for the split and to one for the in-process reference, the thread probe
# to one thread (scipy's oracles leave BLAS threads in this process) and the
# words drawn to the fork threshold, so these tests split on any machine
# that can fork.

forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
linux_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")


@pytest.fixture
def helper(monkeypatch):
    """The batch helper module with a fresh state: none forked yet.  The
    helper this test forks is retired at its end, and the process's own
    state comes back."""
    from ballcell import batchhelper, montecarlo

    monkeypatch.setattr(batchhelper, "_helper", [0, 0, None, None])
    monkeypatch.setattr(montecarlo, "_one_thread", lambda: True)
    monkeypatch.setattr(montecarlo, "_drawn", [float(montecarlo._FORK_WORDS)])
    yield batchhelper
    batchhelper.retire()


def _cpus(monkeypatch, k: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _in_process(monkeypatch, *batch):
    _cpus(monkeypatch, 1)
    try:
        return simulate_batch(*batch)
    finally:
        _cpus(monkeypatch, 2)


def _assert_helper_played(helper) -> int:
    owner, pid, *_ = helper._helper
    assert owner == os.getpid() and pid > 0
    return pid


SPLIT_BATCH = (12, 23, 2001, 5)


def _split_once(helper, monkeypatch):
    """The in-process result of SPLIT_BATCH, once the batch has split equal
    to it, and the pid of the helper that played its second half."""
    want = _in_process(monkeypatch, *SPLIT_BATCH)
    assert simulate_batch(*SPLIT_BATCH) == want
    return want, _assert_helper_played(helper)


@forking
@pytest.mark.parametrize("r", [1, 2, 24, 25])
def test_split_batch_equals_the_in_process_batch(r, helper, monkeypatch):
    chunk = _LANES // r
    for trials in (chunk + 1 + chunk % 2, 2 * chunk + 1):
        assert trials % 2 == 1
        batch = (r, 2 * r + 3, trials, 7919 * trials + r)
        want = _in_process(monkeypatch, *batch)
        assert simulate_batch(*batch) == want
        _assert_helper_played(helper)


@forking
def test_the_helper_is_forked_once_the_batches_have_drawn_enough(helper, monkeypatch):
    from ballcell import montecarlo

    want = _in_process(monkeypatch, *SPLIT_BATCH)
    words = math.exp(_log_words(*SPLIT_BATCH[:3]))
    monkeypatch.setattr(montecarlo, "_drawn", [0.0])
    batches = 0
    while montecarlo._drawn[0] + words < montecarlo._FORK_WORDS:
        assert simulate_batch(*SPLIT_BATCH) == want
        assert helper._helper[0] == 0
        batches += 1
    assert batches >= 2
    assert simulate_batch(*SPLIT_BATCH) == want
    _assert_helper_played(helper)


@forking
def test_the_helper_holds_no_other_fd_of_its_process(helper, monkeypatch):
    # os.fork copies every fd, close-on-exec or not.  A pipe's read end sees
    # EOF once this process closes the write end only if the helper kept no
    # copy of it.
    read, write = os.pipe()
    try:
        _split_once(helper, monkeypatch)
        os.close(write)
        ready = select.select([read], [], [], 10)[0]
        assert ready and os.read(read, 1) == b""
    finally:
        os.close(read)
        try:
            os.close(write)
        except OSError:
            pass


@forking
def test_rejected_word_in_the_helpers_half_matches_reference(helper, monkeypatch):
    r, n = 4, 5
    trials = _LANES // r + 1
    k = trials - 1
    seed = _seed_for_word(REJECT_STREAM, k)
    assert trial_seed(seed, k) == REJECT_STREAM and k >= trials // 2
    want = _in_process(monkeypatch, r, n, trials, seed)
    assert want.durations[k] == _reference_game(r, n, REJECT_STREAM)
    assert simulate_batch(r, n, trials, seed) == want
    _assert_helper_played(helper)


@forking
def test_a_killed_helper_is_reaped_and_its_share_played_here(helper, monkeypatch):
    want, pid = _split_once(helper, monkeypatch)
    os.kill(pid, signal.SIGKILL)

    def no_fork():
        raise AssertionError("a retired helper is not forked again")

    monkeypatch.setattr(os, "fork", no_fork)
    assert simulate_batch(*SPLIT_BATCH) == want
    assert helper._helper[:2] == [os.getpid(), 0]
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    assert simulate_batch(*SPLIT_BATCH) == want


@forking
def test_a_stale_reply_retires_the_helper(helper, monkeypatch):
    want, pid = _split_once(helper, monkeypatch)
    # A request whose reply nobody reads: the next batch finds the wrong
    # sequence number first, retires the helper and plays its share here.
    helper._helper[2].write(b"0 12 23 5 0 10\n")
    assert simulate_batch(*SPLIT_BATCH) == want
    assert helper._helper[:2] == [os.getpid(), 0]
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@forking
def test_a_forked_process_neither_reads_nor_reaps_the_helper(helper, monkeypatch):
    want, pid = _split_once(helper, monkeypatch)
    read, write = os.pipe()
    child = os.fork()
    if not child:
        try:
            os.close(read)
            same = simulate_batch(*SPLIT_BATCH) == want
            owner, own, *_ = helper._helper
            helper.retire()
            os.write(write, b"%d %d %d" % (same, owner == os.getpid(), own not in (0, pid)))
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 30
    while os.waitpid(child, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            pytest.fail("the forked process did not finish its batch within 30 s")
        time.sleep(0.01)
    with os.fdopen(read, "rb") as answer:
        report = answer.read()
    # The child played the batch right, with a helper of its own.
    assert report == b"1 1 1"
    # The parent's helper still runs, still serves the parent, and only the
    # parent reaps it.
    os.kill(pid, 0)
    assert os.waitpid(pid, os.WNOHANG) == (0, 0)
    assert simulate_batch(*SPLIT_BATCH) == want
    assert helper._helper[1] == pid


def test_a_python_without_fork_plays_in_process(helper, monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork", raising=False)
    r, n, trials, seed = SPLIT_BATCH
    assert simulate_batch(*SPLIT_BATCH).durations == tuple(_reference_game(r, n, trial_seed(seed, i)) for i in range(trials))
    assert helper._helper[0] == 0


@forking
@linux_tasks
def test_no_split_while_another_thread_runs():
    # A fresh interpreter, so that no other test's threads run.  The thread
    # is started by _thread, as C code would start one: threading does not
    # count it, /proc/self/task does.  Once it ends the same batch splits.
    code = (
        "import _thread, os, sys, threading, time\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from ballcell import montecarlo\n"
        "hold, done = _thread.allocate_lock(), _thread.allocate_lock()\n"
        "hold.acquire()\n"
        "done.acquire()\n"
        "def other():\n"
        "    hold.acquire()\n"
        "    done.release()\n"
        "_thread.start_new_thread(other, ())\n"
        "assert threading.active_count() == 1\n"
        "alone = montecarlo.simulate_batch(24, 43, 12000, 1)\n"
        "print('ballcell.batchhelper' in sys.modules)\n"
        "hold.release()\n"
        "done.acquire()\n"
        "deadline = time.monotonic() + 10\n"
        "while len(os.listdir('/proc/self/task')) > 1 and time.monotonic() < deadline:\n"
        "    time.sleep(0.01)\n"
        "assert montecarlo.simulate_batch(24, 43, 12000, 1) == alone\n"
        "from ballcell import batchhelper\n"
        "print(batchhelper._helper[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, check=True)
    loaded, pid = out.stdout.split()
    assert loaded == "False" and int(pid) > 0


@forking
def test_the_helper_ends_with_its_process_and_uses_less_memory():
    # The report runs at exit after the helper's atexit handler, registered
    # later, has killed and reaped it.
    code = (
        "import atexit, os, resource\n"
        "def report():\n"
        "    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "    print(children, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "atexit.register(report)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from ballcell import batchhelper, montecarlo\n"
        "montecarlo.simulate_batch(24, 43, 12000, 1)\n"
        "print(batchhelper._helper[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, check=True)
    pid, children, own = map(int, out.stdout.split())
    assert pid > 0
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    assert 0 < children < own
