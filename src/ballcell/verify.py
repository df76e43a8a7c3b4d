"""The built-in verification suites behind `ballcell verify`.

Each suite takes a budget ("small" or "full") and returns its checks as
{"name", "passed", "detail"} dicts, printing one ok/FAIL line per check to
stderr.  A suite imports the leaf modules it reads (`approx`, `geometric`,
`montecarlo`, the polynomial stack of `pgf` and `ratfuncs`, the golden
values of `reference`) when it runs, so a suite loads no more of the
package than it checks.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .game import brute_force_row, transition_row
from .law import duration_distribution, duration_variance, expected_duration, gof_compare
from .scalars import chi_square_quantile

_GATE_SEED = 20260822


def _check(checks: list, name: str, passed: bool, detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})
    print(("ok   " if passed else "FAIL ") + name, file=sys.stderr)


def _suite_oracle(budget: str) -> list[dict]:
    from .pgf import pgf_numeric

    top = 4 if budget == "small" else 6
    checks: list[dict] = []
    for n in range(1, top + 1):
        for r in range(top + 1):
            got = transition_row(n, r).probs
            want = brute_force_row(n, r).probs
            _check(checks, f"capture row n={n} r={r} matches enumeration", got == want)
    for n in range(2, top + 1):
        for r in range(2, top + 1):
            dist = duration_distribution(r, n, 25)
            series = pgf_numeric(r, n).func.series(25)
            _check(
                checks,
                f"distribution of ({r} balls, {n} cells) matches its generating function",
                dist == series,
            )
    return checks


def _cross_equal(got, want) -> bool:
    return got.num * want.den == want.num * got.den


def _suite_paper(budget: str) -> list[dict]:
    from . import reference
    from .pgf import moments_symbolic, pgf_numeric, pgf_symbolic
    from .ratfuncs import ratfunc_text

    checks: list[dict] = []
    for r in range(1, 6):
        same = _cross_equal(pgf_numeric(r, r).func, reference.diagonal_pgf(r))
        _check(checks, f"diagonal duration function r={r} matches its golden form", same)
    for r in range(1, 6):
        same = _cross_equal(pgf_symbolic(r).func, reference.symbolic_pgf(r))
        _check(checks, f"symbolic duration function r={r} matches its golden form", same)
    for r in range(1, 6):
        mean = moments_symbolic(r, 1).mean
        same = _cross_equal(mean, reference.symbolic_mean(r))
        _check(
            checks,
            f"symbolic mean r={r} matches its golden form",
            same,
            ratfunc_text(mean),
        )
    return checks


def _suite_limits(budget: str) -> list[dict]:
    from . import reference
    from .approx import error_limit, error_term
    from .geometric import alpha_limits, alpha_moments

    checks: list[dict] = []
    top_r = 50 if budget == "small" else 200
    ok = all(error_term(2, r) == 0 for r in range(1, top_r + 1))
    _check(checks, f"two-cell error vanishes for r <= {top_r}", ok)
    for n in (3, 4, 5, 6):
        ok = all(abs(error_term(n, r)) < 1 for r in range(1, 5 * n + 1))
        _check(checks, f"error magnitude stays below 1 for n={n}, r <= {5 * n}", ok)
    cells = (3,) if budget == "small" else (3, 4, 5)
    for n in cells:
        est = error_limit(n)
        target, tol = reference.LIMIT_TARGETS[n]
        got = Fraction(str(est.estimate))
        _check(
            checks,
            f"error limit for n={n} lands within {float(tol):g} of its target",
            abs(got - target) <= tol,
            str(est.estimate),
        )
    alphas = (Fraction(1, 2),) if budget == "small" else (Fraction(1, 2), Fraction(1, 3))
    for alpha in alphas:
        rep = alpha_moments(alpha, 40, order=6)
        lim = alpha_limits(alpha)
        pairs = [
            (rep.variance / rep.mean**2, lim.cv_squared),
            (rep.scaled[0].squared, lim.skewness_squared),
            (rep.scaled[1].exact, lim.kurtosis),
            (rep.scaled[2].squared, lim.m5_scaled_squared),
            (rep.scaled[3].exact, lim.m6_scaled),
        ]
        ok = all(abs(got - want) / abs(want) < Fraction(1, 10**6) for got, want in pairs)
        _check(checks, f"scaled moments at r=40 approach the alpha={alpha} limits", ok)
    return checks


def _suite_stats(budget: str) -> list[dict]:
    from .montecarlo import DurationLaw, simulate_batch

    checks: list[dict] = []
    states = [(3, 3)] if budget == "small" else [(3, 3), (5, 5), (10, 10)]
    trials = 10**5
    for r, n in states:
        batch = simulate_batch(r, n, trials, _GATE_SEED)
        mean = expected_duration(r, n)
        var = duration_variance(r, n)
        emp = Fraction(sum(batch.durations), trials)
        z = abs(float(emp - mean)) / float(var / trials) ** 0.5
        _check(
            checks,
            f"simulated mean of ({r},{n}) within 4 standard errors",
            z < 4,
            f"z={z:.3f}",
        )
        rep = gof_compare(batch, DurationLaw.compute(r, n))
        threshold = chi_square_quantile(0.999, rep.dof)
        _check(
            checks,
            f"chi-square of ({r},{n}) below the 99.9% quantile",
            float(rep.chi_square) < threshold,
            f"chi={float(rep.chi_square):.2f} dof={rep.dof} threshold={threshold:.2f}",
        )
    return checks


SUITES = {
    "oracle": _suite_oracle,
    "paper": _suite_paper,
    "limits": _suite_limits,
    "stats": _suite_stats,
}
