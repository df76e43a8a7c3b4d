"""Seeded simulation of the capture game, used as a statistical oracle.

Every random word comes from SplitMix64 (Steele, Lea, Flood 2014), coded
right here in a dozen lines.  The host platform's generator is never touched,
so a run reproduces bit-for-bit on any machine given the same seed.  Batches
derive one stream seed per trial in closed form, which makes the aggregate
independent of how trials are scheduled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import BudgetExceededError, DivergentDurationError
from .pgf import exact_distribution
from .scalars import enum_budget, to_decimal

MASK64 = (1 << 64) - 1

# SplitMix64 stream increment and output-mix constants.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

MIN_COVERAGE = Fraction(10**9 - 1, 10**9)


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit generator: the state walks by a fixed odd constant and each
    output is a bijective xor-shift-multiply mix of the new state.

    Reference sequence, usable to check any reimplementation word-for-word:
    seed 0 starts e220a8397b1dcdaf, 6e789e6aa1b965f4, 06c45d188009454f; seed
    42 starts bdd732262feb6e95, 28efe333b266f103, 47526757130f9f52.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return _mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so no modulo bias."""
        if n <= 0:
            raise ValueError(f"modulus must be positive, got {n}")
        # Largest multiple of n that fits in 64 bits.
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def trial_seed(seed: int, index: int) -> int:
    """Stream seed for trial `index` of a batch started at `seed`.

    Equals the (index+1)-th output of ``SplitMix64(seed)`` but is computed in
    closed form, so a worker can seed its own trials without sharing state.
    """
    if index < 0:
        raise ValueError(f"trial index must be >= 0, got {index}")
    return _mix64((seed + (index + 1) * _GAMMA) & MASK64)


@dataclass(frozen=True)
class RoundTrace:
    """One recorded round: who landed where and how many were captured."""

    round_index: int
    balls_before: int
    assignment: tuple[int, ...]
    captured: int


def _check_sim_state(r: int, n: int) -> None:
    if r < 0:
        raise ValueError(f"balls must be >= 0, got {r}")
    if n < 1:
        raise ValueError(f"cells must be >= 1, got {n}")
    if n == 1 and r >= 2:
        raise DivergentDurationError("divergent duration: one cell can never isolate a ball")
    budget = enum_budget()
    if r > budget or n > budget:
        raise BudgetExceededError(
            f"simulation state ({r} balls, {n} cells) exceeds the budget of {budget}"
        )


def _play(r: int, n: int, rng: SplitMix64, record: bool):
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


def simulate_game(r: int, n: int, stream_seed: int) -> int:
    """Play one game to the end and return its duration in rounds.

    Deterministic: the same (r, n, stream_seed) replays the identical game.
    Refuses the configuration that cannot terminate (two or more balls in a
    single cell).
    """
    _check_sim_state(r, n)
    duration, _ = _play(r, n, SplitMix64(stream_seed), record=False)
    return duration


def simulate_game_verbose(r: int, n: int, stream_seed: int) -> tuple[int, tuple[RoundTrace, ...]]:
    """As ``simulate_game``, additionally recording every round played.

    The recorded game is the same one simulate_game plays for this seed: the
    draw sequence does not depend on whether it is being recorded.
    """
    _check_sim_state(r, n)
    return _play(r, n, SplitMix64(stream_seed), record=True)


@dataclass(frozen=True)
class SimBatch:
    """Durations of `trials` independent games at one (balls, cells) state.

    mean and variance are decimal renderings of the exact sample mean and the
    exact population variance of `durations`.
    """

    balls: int
    cells: int
    trials: int
    seed: int
    durations: tuple[int, ...]
    histogram: dict[int, int]
    mean: Decimal
    variance: Decimal


def simulate_batch(r: int, n: int, trials: int, seed: int) -> SimBatch:
    """Aggregate `trials` games, each on its own derived stream seed.

    The duration multiset is a pure function of (r, n, trials, seed): trial i
    always runs on trial_seed(seed, i), and results are kept in trial order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_sim_state(r, n)
    durations = [simulate_game(r, n, trial_seed(seed, i)) for i in range(trials)]
    mean = Fraction(sum(durations), trials)
    variance = Fraction(sum(d * d for d in durations), trials) - mean * mean
    return SimBatch(
        balls=r,
        cells=n,
        trials=trials,
        seed=seed & MASK64,
        durations=tuple(durations),
        histogram=dict(sorted(Counter(durations).items())),
        mean=to_decimal(mean),
        variance=to_decimal(variance),
    )


@dataclass(frozen=True)
class DurationLaw:
    """Exact duration distribution pinned to the state it was computed for."""

    balls: int
    cells: int
    probs: tuple[Fraction, ...]

    @classmethod
    def compute(cls, r: int, n: int, min_coverage: Fraction = MIN_COVERAGE) -> "DurationLaw":
        return cls(r, n, tuple(exact_distribution(r, n, min_coverage)))

    def coverage(self) -> Fraction:
        return sum(self.probs, Fraction(0))


@dataclass(frozen=True)
class GofBin:
    """Chi-square cell: durations lo..hi, hi None for the open tail bin."""

    lo: int
    hi: int | None
    observed: int
    expected: Fraction


@dataclass(frozen=True)
class GofReport:
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
    tail; both it and the TV distance are exact rationals.
    """
    if (batch.balls, batch.cells) != (law.balls, law.cells):
        raise ValueError(
            f"batch ran ({batch.balls} balls, {batch.cells} cells) "
            f"but the law is for ({law.balls} balls, {law.cells} cells)"
        )
    coverage = law.coverage()
    if coverage < MIN_COVERAGE:
        raise ValueError(
            f"law covers {float(coverage):.12f} of the mass, below the required {float(MIN_COVERAGE):.9f}"
        )
    trials = batch.trials
    kmax = len(law.probs) - 1
    hist = batch.histogram

    tv = Fraction(0)
    for k, p in enumerate(law.probs):
        tv += abs(Fraction(hist.get(k, 0), trials) - p)
    emp_tail = Fraction(sum(c for k, c in hist.items() if k > kmax), trials)
    tv = (tv + abs(emp_tail - (1 - coverage))) / 2

    spans: list[tuple[int, int | None, Fraction]] = []
    lo = 0
    acc = Fraction(0)
    for k, p in enumerate(law.probs):
        acc += p
        if acc * trials >= 5:
            spans.append((lo, k, acc))
            lo = k + 1
            acc = Fraction(0)
    leftover = acc + (1 - coverage)
    if spans and leftover * trials < 5:
        prev_lo, _, prev_mass = spans.pop()
        spans.append((prev_lo, None, prev_mass + leftover))
    else:
        spans.append((lo, None, leftover))

    bins = []
    for span_lo, span_hi, mass in spans:
        if span_hi is None:
            observed = sum(c for k, c in hist.items() if k >= span_lo)
        else:
            observed = sum(hist.get(k, 0) for k in range(span_lo, span_hi + 1))
        bins.append(GofBin(span_lo, span_hi, observed, mass * trials))
    chi = sum(((Fraction(b.observed) - b.expected) ** 2 / b.expected for b in bins), Fraction(0))
    return GofReport(tv, chi, len(bins) - 1, tuple(bins))
