"""Seeded simulation of the capture game, used as a statistical oracle.

Every random word comes from SplitMix64 (Steele, Lea, Flood 2014), coded
right here in a dozen lines.  The host platform's generator is never touched,
so a run reproduces bit-for-bit on any machine given the same seed.  Batches
derive one stream seed per trial in closed form, which makes the aggregate
independent of how trials are scheduled.

SplitMix64 is counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011): word m of the stream at state s is mix(s + m·γ), so a
whole round can be drawn at once.  Each draw packs its words into 128-bit
lanes of one Python int (the state of every lane from a byte join, plus the
offsets m·γ from a lane table), runs the mix lane-wise as a dozen big-int
operations, and unpacks the low half of each lane through ``array``.  A
batch plays its trials in chunks of _LANES // r games, one draw per round of
a chunk, and counts the captures of all its games at once; a word that
``below`` would reject sends only the games that drew it back to the scalar
generator for that round.  The draw equals the scalar stream word for word,
so every duration, trace and batch is the one the per-ball loop gives.

The standard library is used and not numpy: importing numpy after ballcell
raises the interpreter's peak RSS from 16.6 to 28.1 MB (numpy 2.4, Python
3.11), while a whole process playing simulate requests peaks near 23 MB.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import chain, compress, repeat
from operator import add, and_, eq, floordiv, mod, mul, not_, sub

from .errors import BudgetExceededError, DivergentDurationError
from .pgf import MIN_COVERAGE, exact_distribution
from .scalars import enum_budget, to_decimal

MASK64 = (1 << 64) - 1

# SplitMix64 stream increment and output-mix constants.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Words per packed draw.  Chosen by measurement: larger draws gain little
# speed and cost peak memory.
_LANES = 2048
# Keeps the low 64 bits of every 128-bit lane of one draw.
_LANE_MASK = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")


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


def _mix_lanes(z: int) -> int:
    """``_mix64`` on every 128-bit lane of `z` at once.

    Each lane holds a word below 2^64.  The result's word is in the low half
    of its lane; the high half holds bits shifted down from the next lane.
    Masking before each multiply keeps every lane's product below 2^128, so
    no carry reaches a neighbour.
    """
    m = _LANE_MASK
    z = ((z ^ (z >> 30)) & m) * _MIX1 & m
    z = ((z ^ (z >> 27)) & m) * _MIX2 & m
    return z ^ (z >> 31)


@cache
def _steps() -> memoryview:
    """The stream offsets 1·γ, 2·γ, ... of one draw as consecutive 16-byte
    lanes, built on first use so that importing the package stays cheap."""
    return memoryview(b"".join((j * _GAMMA & MASK64).to_bytes(16, "little") for j in range(1, _LANES + 1)))


def _packed_words(states: Sequence[int], counts: Sequence[int]) -> array:
    """The next counts[i] words of the stream at states[i], for every i in
    order, drawn by one packed mix; sum(counts) is at most _LANES."""
    total = sum(counts)
    lanes = b"".join(map(bytes.__mul__, map(int.to_bytes, states, repeat(16), repeat("little")), counts))
    steps = b"".join(map(_steps().__getitem__, map(slice, repeat(0), map((16).__mul__, counts))))
    z = (int.from_bytes(lanes, "little") + int.from_bytes(steps, "little")) & _LANE_MASK
    words = array("Q", _mix_lanes(z).to_bytes(16 * total, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


def _draw(states: Sequence[int], counts: Sequence[int]) -> array:
    """As _packed_words for any total.  Only a single stream can need more
    than _LANES words, since a batch chunk holds _LANES // r games; its words
    are drawn in pieces that start at states s + j·_LANES·γ."""
    if sum(counts) <= _LANES:
        return _packed_words(states, counts)
    (s,), (count,) = states, counts
    words = array("Q")
    for j in range(0, count, _LANES):
        words += _packed_words([(s + j * _GAMMA) & MASK64], [min(_LANES, count - j)])
    return words


def _replay_rejected(states: Sequence[int], balls: Sequence[int], n: int, words: array, limit: int):
    """Cells and next states of a round in which some word is >= limit.

    Games without such a word keep their packed cells.  Each game with one
    replays the round with the scalar ``below`` from its round-start state,
    which skips rejected words exactly as a single stream does.
    """
    cells = list(map(mod, words, repeat(n)))
    moved = []
    start = 0
    for s, b in zip(states, balls):
        if max(words[start:start + b]) >= limit:
            rng = SplitMix64(s)
            cells[start:start + b] = [rng.below(n) for _ in range(b)]
            moved.append(rng._state)
        else:
            moved.append((s + b * _GAMMA) & MASK64)
        start += b
    return cells, moved


def _play(r: int, n: int, states: Sequence[int], record: bool = False):
    """Durations of the games with r balls on n cells that start at each
    stream state, and with `record` the rounds of each game.

    Every round of all live games is one packed draw: each game's balls take
    the next words of its stream in order, ball j of a game with b balls the
    word mix(s + (j+1)·γ), and its cell is word % n, exactly as b calls of
    ``SplitMix64.below`` would give unless a word is rejected.  Captures are
    counted on keys game·n + cell over the whole round.
    """
    durations = [0] * len(states)
    traces = [[] for _ in states] if record else []
    spare = (1 << 64) % n
    limit = (1 << 64) - spare
    # The top bytes of a word >= limit are all 0xff, so a round without this
    # run of bytes has no rejected word and skips the exact test.
    marker = b"\xff" * ((64 - spare.bit_length()) // 8)
    live = list(range(len(states))) if r else []
    balls = [r] * len(live)
    rounds = 0
    while live:
        rounds += 1
        words = _draw(states, balls)
        if spare and marker in words.tobytes() and max(words) >= limit:
            cells, states = _replay_rejected(states, balls, n, words, limit)
        else:
            cells = map(mod, words, repeat(n))
            states = list(map(and_, map(add, states, map(mul, balls, repeat(_GAMMA))), repeat(MASK64)))
        if record:
            cells = list(cells)
        owners = chain.from_iterable(map(repeat, range(0, len(live) * n, n), balls))
        counts = Counter(map(add, owners, cells))
        captured = Counter(map(floordiv, compress(counts, map(eq, counts.values(), repeat(1))), repeat(n)))
        left = list(map(sub, balls, map(captured.get, range(len(live)), repeat(0))))
        if record:
            start = 0
            for i, b, rest in zip(live, balls, left):
                hits = tuple(sorted(map(add, cells[start:start + b], repeat(1))))  # cells are labeled 1..n
                traces[i].append(RoundTrace(rounds, b, hits, b - rest))
                start += b
        for i in compress(live, map(not_, left)):
            durations[i] = rounds
        live = list(compress(live, left))
        states = list(compress(states, left))
        balls = list(compress(left, left))
    return durations, [tuple(t) for t in traces]


def simulate_game(r: int, n: int, stream_seed: int) -> int:
    """Play one game to the end and return its duration in rounds.

    Deterministic: the same (r, n, stream_seed) replays the identical game.
    Refuses the configuration that cannot terminate (two or more balls in a
    single cell).
    """
    _check_sim_state(r, n)
    (duration,), _ = _play(r, n, [stream_seed & MASK64])
    return duration


def simulate_game_verbose(r: int, n: int, stream_seed: int) -> tuple[int, tuple[RoundTrace, ...]]:
    """As ``simulate_game``, additionally recording every round played.

    The recorded game is the same one simulate_game plays for this seed: the
    draw sequence does not depend on whether it is being recorded.
    """
    _check_sim_state(r, n)
    (duration,), (traces,) = _play(r, n, [stream_seed & MASK64], record=True)
    return duration, traces


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
    return _simulate_batch(r, n, trials, seed)[0]


def _simulate_batch(r: int, n: int, trials: int, seed: int, record: bool = False):
    """simulate_batch, and with `record` the rounds of every trial from the
    same pass, each as simulate_game_verbose(r, n, trial_seed(seed, i))
    records them."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_sim_state(r, n)
    chunk = max(1, _LANES // max(r, 1))
    durations: list[int] = []
    traces: list[tuple[RoundTrace, ...]] = []
    for first in range(0, trials, chunk):
        # The chunk's trial seeds are the next words of the batch stream.
        seeds = _draw([(seed + first * _GAMMA) & MASK64], [min(chunk, trials - first)])
        played, recorded = _play(r, n, seeds, record)
        durations += played
        traces += recorded
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
    ), traces


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
