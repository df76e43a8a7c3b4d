"""Lane-packed capture counts against the Counter over game·n + cell keys
(property-based; skipped where hypothesis is not installed).

``_play`` counts a round's captures from one int per game whose w-bit lanes
hold the game's cell occupancy, while n·w is at most ``_LANE_BITS``, and with
a Counter past it.  Both must give every game the same balls left for any
round: ragged ball counts, crowded cells, cells replayed after a rejected
word, and whole recorded games on either side of the bound.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ballcell import montecarlo  # noqa: E402
from ballcell.montecarlo import (  # noqa: E402
    _LANE_BITS,
    MASK64,
    _draw,
    _lanes,
    _left_by_counter,
    _left_by_lanes,
    _play,
    _replay_rejected,
)


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


def _counter_play(*args, **kwargs):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(montecarlo, "_LANE_BITS", 0)
        return _play(*args, **kwargs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.integers(min_value=2, max_value=40),
       st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=20))
def test_recorded_games_match_counter(r, n, seeds):
    want = _counter_play(r, n, seeds, record=True)
    assert _play(r, n, seeds, record=True) == want
    assert _play(r, n, seeds)[0] == want[0]


@pytest.mark.parametrize("r", [2, 5, 12])
def test_games_at_and_past_the_bound_match_counter(r):
    w = r.bit_length() + 1
    seeds = [(7919 * i) & MASK64 for i in range(50)]
    for n in (_LANE_BITS // w, _LANE_BITS // w + 1):
        want = _counter_play(r, n, seeds, record=True)
        assert _play(r, n, seeds, record=True) == want
