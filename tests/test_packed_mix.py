"""The lane-wise output mix of the packed draw, word for word against the
scalar mix (property-based; skipped where hypothesis is not installed)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ballcell.montecarlo import _LANES, MASK64, _mix64, _mix_lanes  # noqa: E402

WORDS = st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=_LANES)


@given(WORDS)
@example([0])
@example([MASK64])
@example([MASK64, 0, MASK64, 1] * 8)
def test_lane_mix_equals_scalar_mix(words):
    packed = sum(w << (128 * i) for i, w in enumerate(words))
    z = _mix_lanes(packed)
    assert [(z >> (128 * i)) & MASK64 for i in range(len(words))] == [_mix64(w) for w in words]
