"""gof_compare, taken on integer masses over one denominator, against
``oracles.gof_over_q``, the same fit with every mass a Fraction (skipped
where hypothesis is not installed).

The laws are built by hand, with denominators that are no powers of the
cell count, and their coverage sits just above, at or just below
MIN_COVERAGE, so the refusal is compared too.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ballcell.law import MIN_COVERAGE, gof_compare  # noqa: E402
from ballcell.montecarlo import DurationLaw, SimBatch  # noqa: E402
from oracles import gof_over_q  # noqa: E402


def _batch(hist, trials):
    return SimBatch(2, 2, trials, 0, (), dict(sorted(hist.items())), Decimal(0), Decimal(0))


def _law(weights, coverage):
    """A law whose terms are in the ratios of `weights` and sum to `coverage`."""
    total = sum(weights)
    return DurationLaw(2, 2, tuple(coverage * w / total for w in weights))


def _outcome(gof, batch, law):
    try:
        return gof(batch, law)
    except ValueError as exc:
        return str(exc)


WEIGHTS = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10**6)),
    min_size=1,
    max_size=30,
).filter(any)
COVERAGES = st.one_of(
    st.integers(-3, 3).map(lambda d: MIN_COVERAGE + Fraction(d, 10**12)),
    st.fractions(min_value=MIN_COVERAGE, max_value=1, max_denominator=10**15),
    st.just(Fraction(1)),
)
# Durations past the law's 30 terms land in the tail; the counts run from
# a handful of trials, with no bin closed, to 10^12, where the tail alone
# fills a bin.
HISTOGRAMS = st.dictionaries(
    st.integers(0, 40), st.one_of(st.integers(1, 300), st.integers(1, 10**12)), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(WEIGHTS, COVERAGES, HISTOGRAMS, st.integers(1, 20))
def test_gof_matches_fraction_fit(weights, coverage, hist, unrecorded):
    # An empty histogram still needs trials: a batch of games none of which
    # was recorded.
    trials = sum(hist.values()) or unrecorded
    batch, law = _batch(hist, trials), _law(weights, coverage)
    assert _outcome(gof_compare, batch, law) == _outcome(gof_over_q, batch, law)


# p_k = 2/3^k for k = 1..20: coverage 1 - 3^-20, about 1 - 2.9e-10.
THIRDS = DurationLaw(2, 2, tuple(Fraction(2, 3**k) for k in range(1, 21)))


@pytest.mark.parametrize(
    "hist,merged",
    [
        # 1000 trials: the tail's 2.9e-7 expected games fold into the last
        # closed bin.
        ({1: 660, 2: 230, 3: 70, 4: 30, 7: 10}, True),
        # 10^12 trials: the leftover holds 290 expected games, a bin of its own.
        ({1: 6 * 10**11, 2: 3 * 10**11, 5: 10**11}, False),
        # 2 trials: no bin ever closes, so the tail bin holds everything.
        ({1: 1, 3: 1}, False),
        # Tail-heavy: every game outlasts the law's 20 terms.
        ({25: 400, 40: 100}, True),
        ({}, False),
    ],
)
def test_gof_leftover_merge(hist, merged):
    _check_merge(THIRDS, hist, sum(hist.values()) or 2, merged)


def test_gof_bins_of_exactly_five_close():
    # Over 10 trials the first term expects exactly 5 games and closes a
    # bin; the second, 5 - 10^-9, and the tail's 10^-9 leave exactly 5 for
    # the open bin, enough to keep it apart.
    law = DurationLaw(2, 2, (Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**10)))
    _check_merge(law, {0: 5, 1: 5}, 10, False)


def _check_merge(law, hist, trials, merged):
    batch = _batch(hist, trials)
    rep = gof_compare(batch, law)
    assert rep == gof_over_q(batch, law)
    # The open bin holds a closed span exactly when the leftover was merged.
    last = rep.bins[-1]
    assert (sum(law.probs[last.lo:]) * trials >= 5) is merged


def test_gof_refuses_below_coverage():
    thin = DurationLaw(2, 2, (Fraction(0), MIN_COVERAGE - Fraction(1, 10**15)))
    batch = _batch({1: 10}, 10)
    with pytest.raises(ValueError, match="below the required 0.999999999") as exc:
        gof_compare(batch, thin)
    assert str(exc.value) == _outcome(gof_over_q, batch, thin)
