"""The packed draw against the scalar stream: the lane-wise output mix word
for word, and the lane-wise cells word % n with their rejection flag
(property-based; skipped where hypothesis is not installed)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ballcell.montecarlo import _LANES, MASK64, _draw, _lane_cells, _mix64, _mix_lanes, _mixed  # noqa: E402

WORDS = st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=_LANES)
CELLS = st.integers(min_value=2, max_value=127)


@given(WORDS)
@example([0])
@example([MASK64])
@example([MASK64, 0, MASK64, 1] * 8)
def test_lane_mix_equals_scalar_mix(words):
    packed = sum(w << (128 * i) for i, w in enumerate(words))
    z = _mix_lanes(packed)
    assert [(z >> (128 * i)) & MASK64 for i in range(len(words))] == [_mix64(w) for w in words]


def _limit(n: int) -> int:
    """The smallest word that ``SplitMix64.below(n)`` rejects (2^64 when none is)."""
    return (1 << 64) - (1 << 64) % n


def _packed(words, junk=MASK64) -> int:
    """`words` one to a 128-bit lane, with `junk` in every lane's high half
    as the mix leaves bits there."""
    high = junk.to_bytes(8, "little")
    return int.from_bytes(b"".join(w.to_bytes(8, "little") + high for w in words), "little")


def _check_lane_cells(words, n, junk=MASK64):
    """_lane_cells gives None exactly when some word is rejected, else
    every word % n."""
    cells = _lane_cells(_packed(words, junk), len(words), n)
    if max(words) >= _limit(n):
        assert cells is None, (n, words)
    else:
        assert cells == bytes(w % n for w in words), (n, words)


def _edge_words(n: int) -> list[int]:
    top = MASK64 // n * n  # the largest multiple of n below 2^64
    return [0, n - 1, n, 2**32 - 1, 2**32, 2**63, top, top - 1, MASK64]


def test_lane_cells_on_edge_words():
    for n in range(2, 128):
        edges = _edge_words(n)
        kept = [w for w in edges if w < _limit(n)]
        _check_lane_cells(kept, n)
        # A whole draw, which takes the lane constants at their full width.
        _check_lane_cells((kept * _LANES)[:_LANES], n, junk=0)
        for w in edges:
            _check_lane_cells([w], n)
            _check_lane_cells(kept + [w] + kept, n)
            _check_lane_cells(kept * (_LANES // len(kept) - 1) + [w], n)


def test_lane_rejection_flag_at_the_limit():
    for n in range(2, 128):
        limit = _limit(n)
        for word in (limit - 1, limit):
            if word > MASK64:  # n a power of two: below() rejects no word
                continue
            for words in ([word], [word, 1, 2], [3, word], [7] * (_LANES - 1) + [word], [word] + [7] * (_LANES - 1)):
                rejected = _lane_cells(_packed(words), len(words), n) is None
                assert rejected == (word >= limit), (n, word, len(words))


@given(CELLS, WORDS, st.integers(min_value=0, max_value=MASK64))
@example(3, [_limit(3) - 1, _limit(3)], 0)
@example(127, [MASK64 // 127 * 127 - 1] * _LANES, MASK64)
def test_lane_cells_equal_word_mod_n(n, words, junk):
    _check_lane_cells(words, n, junk)


@given(CELLS, st.lists(st.tuples(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=64)),
                       min_size=1, max_size=32))
def test_lane_cells_of_a_real_draw(n, games):
    states, counts = map(list, zip(*games))
    words = _draw(states, counts)
    cells = _lane_cells(_mixed(states, counts), len(words), n)
    assert cells == (None if max(words) >= _limit(n) else bytes(w % n for w in words))
