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
offsets m·γ from a prefix table: entry k of ``_steps()`` holds the first k
offsets, so a game's offsets cost one list index), runs the mix lane-wise as
a dozen big-int operations, and unpacks the low half of each lane through
``array``.  A batch plays its trials in chunks of _LANES // r games, one draw
per round of a chunk; a word that ``below`` would reject sends only the games
that drew it back to the scalar generator for that round.  The draw equals
the scalar stream word for word, so every duration, trace and batch is the
one the per-ball loop gives.

Captures are counted SIMD-within-a-register (Lamport, "Multiple byte
processing with full-word instructions", CACM 18(8), 1975), for all games of
a round at once where that pays.  With n <= 127 the round's cells are one
byte each of one int, and step d of top - 1 compares every ball with the
ball d places on in eight big-int operations, top the largest game's
balls; a ball is captured when no ball of its game shares its cell.  The
steps cost about top operations on the round's bytes, so this pairwise count
is taken while top is at most _PAIR_BALLS and at most twice the round's
games.  Other rounds, such as the first rounds of games of more than
_PAIR_BALLS balls, count per game: its occupancy is one int of n lanes of
w = r.bit_length() + 1 bits, the sum of its balls' entries 1 << (w·cell) in
a one-hot table, and a lane-wise test that no carry can cross counts the
lanes holding exactly one ball.  This costs one add a ball, of an n·w-bit
int, and beats the pairs from top = _PAIR_BALLS up at small n.  Past n·w =
_LANE_BITS, the table would cost O(n²·w) bits and each sum O(n·w), so such a
round counts its captures with a Counter over keys game·n + cell instead.

A batch whose words drawn are estimated past the budget is refused before
it plays: see _log_words.

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
from itertools import accumulate, chain, compress, islice, repeat
from math import exp, expm1, fsum, lcm, log
from operator import add, and_, eq, floordiv, mod, mul, not_, sub, xor

from .errors import BudgetExceededError, DivergentDurationError
from .pgf import MIN_COVERAGE, exact_distribution
from .scalars import BUDGET_ENV, enum_budget, to_decimal

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
# Largest n·w, in bits, for which _play counts captures in w-bit lanes of
# one int per game.  Measured against the Counter on full rounds of one
# draw (2-vCPU Xeon, Python 3.11): at 1024 bits the lanes take 0.6-0.8 of
# its time for r >= 8 and 0.85-1.0 for r = 2..5; they break even near 1536
# bits for small r and near 3072 for r >= 24.
_LANE_BITS = 1024
# simulate refuses a request whose estimated words drawn pass
# enum_budget() * PLAY_WORDS_SCALE: 2·10^7 at the default budget, about 10 s
# at the 2·10^6 words a second that batches draw on a 2-vCPU Xeon VM (0.6-5
# million measured, the fewest for one long game with n = 2).  The stats
# gate's (10, 10) × 10^5 estimates 4.0·10^6 words and (11, 2) × 2000 4.7·10^6;
# one game of (40, 2) 1.1·10^12.
PLAY_WORDS_SCALE = 2
# Largest game, in balls, of a round that _play counts pairwise.  Measured
# against the lanes on full rounds of one draw (2-vCPU Xeon, Python 3.11),
# as lanes time over pairs time: at top = 24 1.25 for n = 3 and 1.7-2.3 for
# n >= 10; at 32 0.7 for n = 3, 1.1-1.7 for n >= 10; at 48 0.5-0.95 for all
# n.  So the lanes keep larger games even though they lose to the pairs up
# to top = 40 for n >= 40.  Correct for any top <= 128 (see _left_by_pairs).
_PAIR_BALLS = 24
# _AFTER[b] holds the starting lanes of _left_by_pairs for a game of b <= 128
# balls: "balls after this one" + 127.
_AFTER = [bytes(range(126 + b, 126, -1)) for b in range(129)]


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


def _log_words(r: int, n: int, trials: int) -> float:
    """Natural log of trials · (1 + r·A_n(r)): the trial seeds, and r
    words a round for A_n(r) = sum_{j<=r} (1/j) (n/(n-1))^(j-1) rounds, the
    paper's harmonic-geometric mean, exact for n = 2.

    Terms j >= 64 are taken in blocks j..j + j//64 at the 1/j of their first
    term, a geometric sum each, so A_n(r) is over by at most 1/64 and takes
    under a thousand blocks for any r.  n = 1 admits r <= 1 only, whose one
    term is 1.
    """
    a = log(n / (n - 1)) if n > 1 else 0.0
    terms = []
    j = 1
    while j <= r:
        size = min(r + 1 - j, 1 + j // 64)
        geometric = log(expm1(-size * a) / expm1(-a)) if size > 1 else 0.0
        terms.append((j + size - 2) * a + geometric - log(j))
        j += size
    top = max(terms, default=0.0)
    per_game = log(r) + top + log(fsum(exp(t - top) for t in terms)) if r else float("-inf")
    return log(trials) + max(0.0, per_game) + log(1 + exp(-abs(per_game)))


def _check_play_budget(r: int, n: int, trials: int) -> None:
    """Refuse a request whose estimated words drawn, _log_words, pass
    enum_budget() * PLAY_WORDS_SCALE, before any game is played."""
    budget = enum_budget() * PLAY_WORDS_SCALE
    words = _log_words(r, n, trials)
    if words > log(budget):
        digits = words / log(10)
        raise BudgetExceededError(
            f"{trials} trial(s) of ({r} balls, {n} cells) would draw about {10 ** (digits % 1):.3g}e+{int(digits):02d} "
            f"random words; the budget is {budget:.3g} ({BUDGET_ENV} * {PLAY_WORDS_SCALE})"
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
def _steps() -> list[memoryview]:
    """Entry k holds the stream offsets 1·γ, ..., k·γ of one draw as
    consecutive 16-byte lanes, for k = 0.._LANES: prefixes of one buffer,
    built on first use so that importing the package stays cheap."""
    offsets = memoryview(b"".join((j * _GAMMA & MASK64).to_bytes(16, "little") for j in range(1, _LANES + 1)))
    return [offsets[:16 * k] for k in range(_LANES + 1)]


def _packed_words(states: Sequence[int], counts: Sequence[int]) -> array:
    """The next counts[i] words of the stream at states[i], for every i in
    order, drawn by one packed mix; sum(counts) is at most _LANES."""
    total = sum(counts)
    lanes = b"".join(map(bytes.__mul__, map(int.to_bytes, states, repeat(16), repeat("little")), counts))
    steps = b"".join(map(_steps().__getitem__, counts))
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


def _lanes(r: int, n: int):
    """The one-hot table onehot[c] = 1 << (w·c) of games with r balls on n
    cells, w = r.bit_length() + 1, and its lane masks low (bit 0 of every
    lane), fill (all bits of every lane but the top one) and top; None when
    n·w passes _LANE_BITS."""
    w = r.bit_length() + 1
    if n * w > _LANE_BITS:
        return None
    onehot = [1 << (w * c) for c in range(n)]
    low = sum(onehot)
    top = low << (w - 1)
    return onehot, low, top - low, top


def _left_by_lanes(lanes, balls: Sequence[int], cells) -> list[int]:
    """The balls each game keeps after a round in which game i threw the
    next balls[i] of `cells`, from the game's occupancy: lane c counts its
    balls in cell c.  No lane exceeds r < 2^(w-1), so ((occ ^ low) + fill) &
    top keeps the top bit of every lane not holding exactly one ball, and no
    carry crosses a lane."""
    onehot, low, fill, top = lanes
    occupancy = map(sum, map(islice, repeat(map(onehot.__getitem__, cells)), balls))
    crowded = map(int.bit_count, map(and_, map(add, map(xor, occupancy, repeat(low)), repeat(fill)), repeat(top)))
    return list(map(sub, balls, map(sub, repeat(len(onehot)), crowded)))


def _left_by_counter(n: int, balls: Sequence[int], cells) -> list[int]:
    """As _left_by_lanes, counting on keys game·n + cell over the round."""
    owners = chain.from_iterable(map(repeat, range(0, len(balls) * n, n), balls))
    counts = Counter(map(add, owners, cells))
    captured = Counter(map(floordiv, compress(counts, map(eq, counts.values(), repeat(1))), repeat(n)))
    return list(map(sub, balls, map(captured.get, range(len(balls)), repeat(0))))


def _left_by_pairs(balls: Sequence[int], top: int, cells: bytes) -> list[int]:
    """As _left_by_lanes, for n <= 127 and games of at most top <= 128
    balls, comparing the round's cells pairwise on one int c of byte lanes.

    Lane l of v starts at "balls after l in its game" + 127, so its top bit
    says whether ball l + d is in the same game while it counts down once a
    step d = 1..top-1.  Cells are below 128, so lane l of
    high - (c ^ (c >> 8d)) keeps its top bit exactly where balls l and l + d
    share a cell; no lane borrows or carries into the next.  A ball is left
    when its lane is hit by any such pair.  When every game holds top balls,
    the hits times the repunit of top lanes sum each game's hits into the
    game's last lane.
    """
    total = len(cells)
    uniform = len(balls) * top == total
    c = int.from_bytes(cells, "little")
    v = int.from_bytes(_AFTER[top] * len(balls) if uniform else b"".join(map(_AFTER.__getitem__, balls)), "little")
    ones = int.from_bytes(b"\x01" * total, "little")
    high = ones << 7
    hit = 0
    for d in range(8, 8 * top, 8):
        e = v & (high - (c ^ (c >> d)))
        hit |= e | e << d
        v -= ones
    hit &= high
    if uniform:
        sums = (hit >> 7) * int.from_bytes(b"\x01" * top, "little")
        return list(sums.to_bytes(total + top, "little")[top - 1:total:top])
    flags = hit.to_bytes(total, "little")
    return list(map(flags.count, repeat(b"\x80"), accumulate(balls, initial=0), accumulate(balls)))


def _play(r: int, n: int, states: Sequence[int], record: bool = False):
    """Durations of the games with r balls on n cells that start at each
    stream state, and with `record` the rounds of each game.

    Every round of all live games is one packed draw: each game's balls take
    the next words of its stream in order, ball j of a game with b balls the
    word mix(s + (j+1)·γ), and its cell is word % n, exactly as b calls of
    ``SplitMix64.below`` would give unless a word is rejected.  A round
    with n <= 127 whose largest game holds top <= _PAIR_BALLS balls, and at
    most twice as many balls as the round has games, counts its captures
    pairwise on one int of its cell bytes: the top - 1 steps cost about as
    much for a few games as for many, and few games do not repay them.
    Other rounds count in lanes per game while n·w is at most _LANE_BITS,
    else by a Counter.  A recorded round's traces read the cells its count
    read.
    """
    durations = [0] * len(states)
    traces = [[] for _ in states] if record else []
    spare = (1 << 64) % n
    limit = (1 << 64) - spare
    # The top bytes of a word >= limit are all 0xff, so a round without this
    # run of bytes has no rejected word and skips the exact test.
    marker = b"\xff" * ((64 - spare.bit_length()) // 8)
    lanes = _lanes(r, n)
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
        top = max(balls)
        pairs = n < 128 and top <= min(_PAIR_BALLS, 2 * len(balls))
        if pairs or record:
            cells = bytes(cells) if n < 128 else list(cells)
        if pairs:
            left = _left_by_pairs(balls, top, cells)
        else:
            left = _left_by_lanes(lanes, balls, cells) if lanes else _left_by_counter(n, balls, cells)
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
    _check_play_budget(r, n, 1)
    (duration,), _ = _play(r, n, [stream_seed & MASK64])
    return duration


def simulate_game_verbose(r: int, n: int, stream_seed: int) -> tuple[int, tuple[RoundTrace, ...]]:
    """As ``simulate_game``, additionally recording every round played.

    The recorded game is the same one simulate_game plays for this seed: the
    draw sequence does not depend on whether it is being recorded.
    """
    _check_sim_state(r, n)
    _check_play_budget(r, n, 1)
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
    _check_play_budget(r, n, trials)
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
    variance = Fraction(sum(map(mul, durations, durations)), trials) - mean * mean
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
        _check_sim_state(r, n)
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
    tail; both it and the TV distance are exact rationals.  Every mass is an
    integer m_k = p_k·D over D, the lcm of the law's denominators, so only
    the TV and each bin's expected count and chi-square term are Fractions.
    """
    if (batch.balls, batch.cells) != (law.balls, law.cells):
        raise ValueError(
            f"batch ran ({batch.balls} balls, {batch.cells} cells) "
            f"but the law is for ({law.balls} balls, {law.cells} cells)"
        )
    den = lcm(*(p.denominator for p in law.probs))
    masses = [p.numerator * (den // p.denominator) for p in law.probs]
    covered = sum(masses)
    if covered * MIN_COVERAGE.denominator < MIN_COVERAGE.numerator * den:
        raise ValueError(
            f"law covers {float(Fraction(covered, den)):.12f} of the mass, below the required {float(MIN_COVERAGE):.9f}"
        )
    trials = batch.trials
    hist = batch.histogram
    tail = sum(c for k, c in hist.items() if k >= len(masses))
    tv = sum(abs(hist.get(k, 0) * den - m * trials) for k, m in enumerate(masses))
    tv = Fraction(tv + abs(tail * den - (den - covered) * trials), 2 * den * trials)

    spans: list[tuple[int, int | None, int]] = []
    lo = acc = 0
    for k, m in enumerate(masses):
        acc += m
        if acc * trials >= 5 * den:
            spans.append((lo, k, acc))
            lo, acc = k + 1, 0
    acc += den - covered
    if spans and acc * trials < 5 * den:
        lo, _, last = spans.pop()
        acc += last
    spans.append((lo, None, acc))

    bins = []
    for lo, hi, mass in spans:
        observed = sum(c for k, c in hist.items() if lo <= k and (hi is None or k <= hi))
        bins.append(GofBin(lo, hi, observed, Fraction(mass * trials, den)))
    chi = sum(((Fraction(b.observed) - b.expected) ** 2 / b.expected for b in bins), Fraction(0))
    return GofReport(tv, chi, len(bins) - 1, tuple(bins))
