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
offsets m·γ: a game drawing k words takes the first k lanes of one buffer,
sliced once per count, and the first round of a chunk, where every game
draws r words, reuses one int of offsets across the chunks of a batch) and
runs the mix lane-wise as a dozen big-int operations.  With n <= 127 the
round's cells come straight from the mixed int: each word folds to below
2^39 and is reduced mod n by a precomputed reciprocal, exactly and in every
lane at once (Lemire, Kaser and Kurz 2019, after Barrett 1986 and Granlund
and Montgomery 1994), so no word becomes a Python int; adding 2^64 mod n to
every lane flags a word that ``below`` would reject.  The words are unpacked
through ``array`` only where they are needed: rounds holding such a word,
n >= 128, rounds longer than one draw, and the trial seeds.  A batch plays
its trials in chunks of _LANES // r games, one draw per round of a chunk; a
rejected word sends only the games that drew it back to the scalar generator
for that round.  The draw equals the scalar stream word for word, so every
duration, trace and batch is the one the per-ball loop gives.

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

An unrecorded batch of more than one chunk is played by two processes once
this process's batches have drawn _FORK_WORDS estimated words, this one
included, where it can fork (os.fork), can see its CPUs
(os.sched_getaffinity) and holds at least two of them, and it runs no other
OS thread (/proc/self/task, so C threads count too): see _splits.  This
process plays trials 0..h-1, h = trials // 2, and its batch helper
(`batchhelper`), forked on the first such batch and kept for the life of
this process, plays trials h..trials-1 with the same chunk loop,
_play_trials.  Trial i runs on
trial_seed(seed, i) whoever plays it, so every SimBatch, histogram, fit and
output byte is the one a single process gives.  A helper that fails (EOF, a
short reply, an OSError, a mismatched sequence number or an exception
between request and reply) retires: this process reaps it, plays the share
itself and forks no other.  Budget refusals come before any play; recorded
batches, single games, batches of one chunk, a process whose batches have
drawn fewer words (a one-batch `ballcell simulate` under about 10^6),
single-CPU machines and Pythons without fork, affinity or /proc take the
one-process path.  A CPU quota or a loaded host is not seen: there the
split costs one fork and a pipe round trip a batch.  The helper's memory is that of its own process, so the
benchmark's peak_rss_mb, its worker's ru_maxrss, does not count it (on
simulate_gof the helper peaks at 14.4 MB beside the worker's 22.6 MB, on a
2-vCPU Xeon VM with Python 3.11), and the benchmark's traced times see only
this process's share of the play.

`DurationLaw` pins the exact law of `law.exact_distribution` to its state.
The fit of a batch against it, `gof_compare` with its `GofBin` and
`GofReport`, lives in `law`, which needs no polynomial.

The standard library is used and not numpy: importing numpy after ballcell
raises the interpreter's peak RSS from 16.6 to 28.1 MB (numpy 2.4, Python
3.11), while a whole process playing simulate requests peaks near 23 MB.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from math import exp, expm1, fsum, log, log1p
from operator import add, and_, eq, floordiv, mod, mul, not_, sub, xor
from typing import NamedTuple

from .game import _check_terminating
from .law import exact_distribution
from .scalars import _check_budget, to_decimal

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
# Estimated words drawn by this process's batches (_log_words), and the
# total from which a batch may fork the batch helper.  Forking costs a fresh
# one-batch `ballcell simulate` about 6 ms, mostly the copy-on-write faults
# it brings on this process, and a word takes 0.08-0.6 us (2-vCPU Xeon VM,
# Python 3.11).  Fresh one-batch commands, 16-20 pairs each, broke even or
# lost (up to 1.05x) just past 2^19 words and took 0.70-1.01 of the time
# just past 2^20.  A helper once forked serves each later batch for one pipe
# round trip: with one running, batches of r = 1..200 balls from just over
# one chunk to 2000 trials took 0.52-0.97 of the one-process time (medians
# of 30 interleaved pairs, 35 states; one (60, 127) x 35 read 1.07, and
# 0.80 on a rerun).  Forking only once this process's play has paid for a
# fork (ski rental) keeps small one-batch runs on one process.
_FORK_WORDS = 1 << 20
_drawn = [0.0]
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
        """Uniform integer in [0, n) by rejection, so no modulo bias; past
        n = 2^64 no word would pass."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"modulus must lie in [1, 2^64], got {n}")
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


class RoundTrace(NamedTuple):
    """One recorded round: who landed where and how many were captured."""

    round_index: int
    balls_before: int
    assignment: tuple[int, ...]
    captured: int


def _check_sim_state(r: int, n: int) -> None:
    """The state checks of a game, n <= 2^64 among them, then its size cap:
    neither r nor n may pass enum_budget()."""
    _check_terminating(n, r)
    if n > 1 << 64:
        raise ValueError(f"cells must be at most 2^64 to be drawn from 64-bit words, got {n}")
    reason = f"simulation state ({r} balls, {n} cells) exceeds the budget of its larger side, with"
    _check_budget(reason, max(r, n), "balls or cells")


def _log_words(r: int, n: int, trials: int) -> float:
    """Natural log of trials · (1 + r·A_n(r)): the trial seeds, and r
    words a round for A_n(r) = sum_{j<=r} (1/j) (n/(n-1))^(j-1) rounds, the
    paper's harmonic-geometric mean, exact for n = 2.

    Terms j >= 64 are taken in blocks j..j + j//64 at the 1/j of their first
    term, a geometric sum each, so A_n(r) is over by at most 1/64 and takes
    under a thousand blocks for any r.  n = 1 admits r <= 1 only, whose one
    term is 1.
    """
    a = log1p(1 / (n - 1)) if n > 1 else 0.0
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


def _check_play_budget(r: int, n: int, trials: int) -> float:
    """Every refusal of play, before any game: _check_sim_state, then the
    estimated words drawn, _log_words, past enum_budget() * PLAY_WORDS_SCALE.
    Returns that estimate."""
    _check_sim_state(r, n)
    reason = f"{trials} trial(s) of ({r} balls, {n} cells) would draw"
    log_words = _log_words(r, n, trials)
    _check_budget(reason, log_words, "random words", PLAY_WORDS_SCALE, is_log=True)
    return log_words


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
def _offsets() -> bytes:
    """The stream offsets 1·γ, ..., _LANES·γ of one draw as consecutive
    16-byte lanes, built on first use so that importing the package stays
    cheap."""
    return b"".join((j * _GAMMA & MASK64).to_bytes(16, "little") for j in range(1, _LANES + 1))


@cache
def _prefix(k: int) -> memoryview:
    """The offsets of a game that draws k words: the first k lanes of
    _offsets(), built on first use for each count."""
    return memoryview(_offsets())[:16 * k]


@lru_cache(maxsize=4)
def _uniform_steps(k: int, games: int) -> int:
    """The offsets of a round in which each of `games` streams draws k
    words, as one int: the first round of every chunk of a batch is such a
    round, and the chunks reuse it."""
    return int.from_bytes(_prefix(k).tobytes() * games, "little")


@cache
def _lane_constants() -> tuple[int, int, int, int]:
    """Lane masks of _lane_cells, built on first use: 1 in every lane, the
    lane ones each shifted to bit 64, and the low 32 and low 48 bits of every
    lane.  The first has one lane more than a draw, so a right shift trims it
    to any draw's lanes."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * (_LANES + 1), "little")
    return ones, ones << 64, ones * ((1 << 32) - 1), ones * ((1 << 48) - 1)


@lru_cache(maxsize=1)
def _spares(n: int) -> int:
    """2^64 mod n in every lane of _lane_constants()'s ones, kept for the
    next round: every round of a game or batch has the same n."""
    return (1 << 64) % n * _lane_constants()[0]


def _mixed(states: Sequence[int], counts: Sequence[int], uniform: bool = False) -> int:
    """The next counts[i] words of the stream at states[i], for every i in
    order, as one packed mix: word j in the low half of 128-bit lane j.
    sum(counts) is at most _LANES; `uniform` says that all counts are equal."""
    lanes = b"".join(map(bytes.__mul__, map(int.to_bytes, states, repeat(16), repeat("little")), counts))
    if uniform:
        steps = _uniform_steps(counts[0], len(counts))
    else:
        steps = int.from_bytes(b"".join(map(_prefix, counts)), "little")
    return _mix_lanes((int.from_bytes(lanes, "little") + steps) & _LANE_MASK)


def _lane_cells(z: int, total: int, n: int) -> bytes | None:
    """word % n for each of the `total` words of the packed mix z, for
    n <= 127, or None when some word is at least the limit 2^64 - spare
    that ``below`` rejects, spare = 2^64 mod n.

    Adding spare to every lane carries into bit 64 exactly in the lanes
    holding a word >= limit.  Else each word w folds to x = hi·(2^32 mod n)
    + lo < 2^39 from its 32-bit halves, x ≡ w (mod n), and x mod n is
    ((x·c mod 2^48)·n) >> 48 for c = ceil(2^48 / n) (Lemire, Kaser and Kurz,
    "Faster remainder by direct computation", SPE 49(6), 2019: exact since
    48 >= 39 + 7 and n <= 2^7).  No lane's product reaches 2^128, and the
    cell is byte 6 of its lane.
    """
    _, carries, low32, low48 = _lane_constants()
    if ((z & _LANE_MASK) + (_spares(n) >> 128 * (_LANES + 1 - total))) & carries:
        return None
    x = (z >> 32 & low32) * ((1 << 32) % n) + (z & low32)
    return ((x * -(-(1 << 48) // n) & low48) * n).to_bytes(16 * total, "little")[6::16]


def _draw(states: Sequence[int], counts: Sequence[int]) -> array:
    """The next counts[i] words of the stream at states[i], for every i in
    order, one array item each.  Only a single stream can need more than
    _LANES words, since a batch chunk holds _LANES // r games; its words are
    drawn in pieces that start at states s + j·_LANES·γ."""
    total = sum(counts)
    if total > _LANES:
        (s,), (count,) = states, counts
        pieces = (_draw([(s + j * _GAMMA) & MASK64], [min(_LANES, count - j)]) for j in range(0, count, _LANES))
        return sum(pieces, array("Q"))
    words = array("Q", _mixed(states, counts).to_bytes(16 * total, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


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
    ``SplitMix64.below`` would give unless a word is rejected; with n <= 127
    _lane_cells reads the cells off the mixed int.  A round
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
        total = sum(balls)
        cells = _lane_cells(_mixed(states, balls, rounds == 1), total, n) if n < 128 and total <= _LANES else None
        moved = None
        if cells is None:
            # Rounds that hold a rejected word (drawn again here), and rounds
            # of n >= 128 or longer than one draw, take their cells from the
            # words.
            words = _draw(states, balls)
            if spare and marker in words.tobytes() and max(words) >= limit:
                cells, moved = _replay_rejected(states, balls, n, words, limit)
            else:
                cells = map(mod, words, repeat(n))
        states = moved or list(map(and_, map(add, states, map(mul, balls, repeat(_GAMMA))), repeat(MASK64)))
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
    _check_play_budget(r, n, 1)
    (duration,), _ = _play(r, n, [stream_seed & MASK64])
    return duration


def simulate_game_verbose(r: int, n: int, stream_seed: int) -> tuple[int, tuple[RoundTrace, ...]]:
    """As ``simulate_game``, additionally recording every round played.

    The recorded game is the same one simulate_game plays for this seed: the
    draw sequence does not depend on whether it is being recorded.
    """
    _check_play_budget(r, n, 1)
    (duration,), (traces,) = _play(r, n, [stream_seed & MASK64], record=True)
    return duration, traces


class SimBatch(NamedTuple):
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


def _play_trials(r: int, n: int, seed: int, first: int, stop: int, record: bool = False):
    """Durations, and with `record` rounds, of trials first..stop-1 of the
    batch at `seed`, in trial order: chunks of _LANES // r games from
    `first` on, each seeded by the next words of the batch stream."""
    chunk = max(1, _LANES // max(r, 1))
    durations: list[int] = []
    traces: list[tuple[RoundTrace, ...]] = []
    for start in range(first, stop, chunk):
        played, recorded = _play(r, n, _draw([(seed + start * _GAMMA) & MASK64], [min(chunk, stop - start)]), record)
        durations += played
        traces += recorded
    return durations, traces


def _one_thread() -> bool:
    """Whether this process runs one OS thread, counting those C code
    started (Linux's /proc/self/task), so that a fork copies no lock that
    another thread holds."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _splits(r: int, trials: int) -> bool:
    """Whether an unrecorded batch plays its second half in a helper
    process: it spans more than one chunk, this process's batches have
    drawn _FORK_WORDS, this Python can fork and see its CPUs, at least two
    of them are its own, and no other thread runs."""
    return (trials > max(1, _LANES // max(r, 1)) and _drawn[0] >= _FORK_WORDS and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1 and _one_thread())


def _simulate_batch(r: int, n: int, trials: int, seed: int, record: bool = False):
    """simulate_batch, and with `record` the rounds of every trial from the
    same pass, each as simulate_game_verbose(r, n, trial_seed(seed, i))
    records them."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # Capped past _FORK_WORDS: only whether the total reaches it matters.
    _drawn[0] += exp(min(_check_play_budget(r, n, trials), log(2 * _FORK_WORDS)))
    if record or not _splits(r, trials):
        durations, traces = _play_trials(r, n, seed, 0, trials, record)
    else:
        from .batchhelper import durations as split

        durations, traces = split(r, n, seed, trials), []
    # Both exact sums are read off the histogram: one pass over the durations.
    histogram = dict(sorted(Counter(durations).items()))
    mean = Fraction(sum(k * c for k, c in histogram.items()), trials)
    variance = Fraction(sum(k * k * c for k, c in histogram.items()), trials) - mean * mean
    return SimBatch(
        balls=r,
        cells=n,
        trials=trials,
        seed=seed & MASK64,
        durations=tuple(durations),
        histogram=histogram,
        mean=to_decimal(mean),
        variance=to_decimal(variance),
    ), traces


class DurationLaw(NamedTuple):
    """Exact duration distribution pinned to the state it was computed for."""

    balls: int
    cells: int
    probs: tuple[Fraction, ...]

    @classmethod
    def compute(cls, r: int, n: int) -> "DurationLaw":
        _check_sim_state(r, n)
        return cls(r, n, tuple(exact_distribution(r, n)))

    def coverage(self) -> Fraction:
        return sum(self.probs, Fraction(0))
