"""Packed capture counts against the Counter over game·n + cell keys
(property-based; skipped where hypothesis is not installed).

``_play`` counts a round's captures by comparing its cells pairwise on one
int of byte lanes while n <= 127 and its largest game holds at most
``_PAIR_BALLS`` balls (and at most twice as many as it has games); else from
one int per game whose w-bit lanes hold the game's cell occupancy, while n·w
is at most ``_LANE_BITS``; and with a Counter past it.  All three must give
every game the same balls left for any round: ragged and uniform ball
counts, crowded cells, cells replayed after a rejected word, and whole
recorded games on either side of each bound.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ballcell import montecarlo  # noqa: E402
from ballcell.montecarlo import (  # noqa: E402
    _LANE_BITS,
    _PAIR_BALLS,
    MASK64,
    _draw,
    _lanes,
    _left_by_counter,
    _left_by_lanes,
    _left_by_pairs,
    _play,
    _replay_rejected,
    _simulate_batch,
)
from test_montecarlo import REJECT_BATCH, REJECT_STREAM  # noqa: E402


@st.composite
def rounds(draw):
    """(r, n, balls, cells): up to 12 games of at most r balls each, n up to
    the lane bound, and cells that may pile many balls into few cells."""
    r = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=_LANE_BITS // (r.bit_length() + 1)))
    balls = draw(st.lists(st.integers(min_value=0, max_value=r), min_size=1, max_size=12))
    spread = draw(st.integers(min_value=1, max_value=n))
    cells = draw(st.lists(st.integers(min_value=0, max_value=spread - 1), min_size=sum(balls), max_size=sum(balls)))
    return r, n, balls, cells


@given(rounds())
@example((1, 1, [1], [0]))
@example((3, 2, [3, 1, 0, 2], [1, 1, 1, 0, 0, 1, 0]))
@example((7, 5, [7], [4] * 7))  # every ball in one lane: 7 = 2^(w-1) - 1
@example((8, 5, [8, 8], [0] * 8 + [4] * 8))  # 8 balls in one lane, the first r of w = 5
def test_lane_counts_match_counter(case):
    r, n, balls, cells = case
    lanes = _lanes(r, n)
    assert lanes is not None
    assert _left_by_lanes(lanes, balls, iter(cells)) == _left_by_counter(n, balls, iter(cells))


@pytest.mark.parametrize("r", [1, 3, 4, 7, 8, 40])
def test_lane_bound(r):
    w = r.bit_length() + 1
    at = _LANE_BITS // w
    assert _lanes(r, at) is not None
    assert _lanes(r, at + 1) is None
    onehot, low, fill, top = _lanes(r, at)
    assert onehot == [1 << (w * c) for c in range(at)]
    assert low == sum(onehot) and top == low << (w - 1) and fill == top - low


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=MASK64), st.data())
def test_lane_counts_match_counter_on_replayed_cells(r, seed, data):
    # Games whose round holds a word at the top of the 64-bit range replay it
    # with the scalar generator; their cells come from _replay_rejected.
    n = data.draw(st.sampled_from([3, 5, 6, 7, 10, 11]))
    games = data.draw(st.integers(min_value=1, max_value=8))
    states = [(seed + 977 * i) & MASK64 for i in range(games)]
    balls = data.draw(st.lists(st.integers(min_value=1, max_value=r), min_size=games, max_size=games))
    words = _draw(states, balls)
    for j in data.draw(st.lists(st.integers(min_value=0, max_value=len(words) - 1), min_size=1, max_size=3)):
        words[j] = MASK64
    limit = (1 << 64) - (1 << 64) % n
    cells, _ = _replay_rejected(states, balls, n, words, limit)
    assert _left_by_lanes(_lanes(r, n), balls, cells) == _left_by_counter(n, balls, cells)


@st.composite
def pair_rounds(draw):
    """(n, balls, cells) as the pairwise count takes them: n up to 127,
    games of 1 to _PAIR_BALLS balls, ragged or all alike, and cells that may
    pile every ball into one cell."""
    n = draw(st.integers(min_value=1, max_value=127))
    games = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        balls = [draw(st.integers(min_value=1, max_value=_PAIR_BALLS))] * games
    else:
        balls = draw(st.lists(st.integers(min_value=1, max_value=_PAIR_BALLS), min_size=games, max_size=games))
    spread = draw(st.integers(min_value=1, max_value=n))
    cells = draw(st.lists(st.integers(min_value=0, max_value=spread - 1), min_size=sum(balls), max_size=sum(balls)))
    return n, balls, cells


@given(pair_rounds())
@example((2, [1], [1]))
@example((5, [3, 1, 2], [1, 1, 1, 4, 0, 0]))
@example((127, [_PAIR_BALLS] * 4, [126] * (4 * _PAIR_BALLS)))  # every ball in the top cell
@example((127, [_PAIR_BALLS, 1, _PAIR_BALLS], list(range(2 * _PAIR_BALLS + 1))))  # no two alike
@example((3, [2] * 40, [0, 0, 1, 2] * 20))  # uniform, every other game captures both
def test_pair_counts_match_counter(case):
    n, balls, cells = case
    assert _left_by_pairs(balls, max(balls), bytes(cells)) == _left_by_counter(n, balls, cells)


@pytest.mark.parametrize("top", [_PAIR_BALLS, _PAIR_BALLS + 1, 64, 128])
def test_pair_counts_hold_to_128_balls(top):
    # A lane starts at "balls after" + 127 and counts down top - 1 times, so
    # the kernel is exact for any game up to 128 balls; _PAIR_BALLS is a
    # speed bound, not a correctness one.
    for balls in ([top] * 3, [top, 1, top - 1, 2]):
        for cells in ([126] * sum(balls), [c % 127 for c in range(sum(balls))],
                      [(7 * c) % 5 for c in range(sum(balls))]):
            assert _left_by_pairs(balls, top, bytes(cells)) == _left_by_counter(127, balls, cells)


def _counter_only(play, *args, **kwargs):
    """play(*args, **kwargs) with every round counted by the Counter."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(montecarlo, "_PAIR_BALLS", 0)
        m.setattr(montecarlo, "_LANE_BITS", 0)
        return play(*args, **kwargs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.integers(min_value=2, max_value=40),
       st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=20))
@example(4, 5, [REJECT_STREAM, (REJECT_STREAM - 2 * montecarlo._GAMMA) & MASK64, 1, 2])
def test_recorded_games_match_counter(r, n, seeds):
    want = _counter_only(_play, r, n, seeds, record=True)
    assert _play(r, n, seeds, record=True) == want
    assert _play(r, n, seeds)[0] == want[0]


def _routes(r, n, seeds):
    """Which count each round of _play(r, n, seeds) takes, in order."""
    taken = []
    with pytest.MonkeyPatch.context() as m:
        for name in ("_left_by_pairs", "_left_by_lanes", "_left_by_counter"):
            def spy(*args, _name=name, _count=getattr(montecarlo, name)):
                taken.append(_name[9:])
                return _count(*args)
            m.setattr(montecarlo, name, spy)
        played = _play(r, n, seeds, record=True)
    assert played == _counter_only(_play, r, n, seeds, record=True)
    return taken


def test_rounds_take_pairs_up_to_the_bounds():
    seeds = [(7919 * i) & MASK64 for i in range(60)]
    # At n = 127 a round of games of at most _PAIR_BALLS balls is compared
    # pairwise; one more ball sends the first round to the lanes, and the
    # rounds after it come back once the largest game fits.
    assert _routes(_PAIR_BALLS, 127, seeds)[0] == "pairs"
    routes = _routes(_PAIR_BALLS + 1, 127, seeds)
    assert routes[0] == "lanes" and "pairs" in routes
    # Cells from 128 up no longer fit a byte lane below its top bit.
    assert "pairs" not in _routes(_PAIR_BALLS, 128, seeds)
    # A lone game of more than two balls is counted in lanes: the pairwise
    # steps cost more than its few balls do.
    assert _routes(3, 7, seeds[:1])[0] == "lanes"
    assert _routes(2, 7, seeds[:1])[0] == "pairs"


@pytest.mark.parametrize("r,n", [(4, 5), (9, 10), (_PAIR_BALLS + 3, 60)])
def test_recorded_batches_match_counter(r, n):
    # REJECT_BATCH's trial 0 replays its first round with the scalar
    # generator; its cells reach the pairwise count from _replay_rejected.
    for seed in (REJECT_BATCH, 31):
        want = _counter_only(_simulate_batch, r, n, 40, seed, record=True)
        assert _simulate_batch(r, n, 40, seed, record=True) == want


@pytest.mark.parametrize("r", [2, 5, 12])
def test_games_at_and_past_the_bound_match_counter(r):
    w = r.bit_length() + 1
    seeds = [(7919 * i) & MASK64 for i in range(50)]
    for n in (_LANE_BITS // w, _LANE_BITS // w + 1):
        want = _counter_only(_play, r, n, seeds, record=True)
        assert _play(r, n, seeds, record=True) == want
