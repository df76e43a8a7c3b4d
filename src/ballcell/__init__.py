"""Exact analysis and seeded simulation of the ball-and-cell capture game.

Each round, r balls are thrown uniformly at random into n cells; every ball
that lands alone in its cell is captured and removed, and the survivors are
thrown again.  The package computes the distribution of the number of rounds
until no balls remain, exactly (as rational generating functions, numerically
in n or symbolically with n left as a variable), along with moments, a
harmonic-sum approximation of the mean with error tracking, the limiting
moment profile of related down-or-stay chains, and a seeded Monte Carlo
simulator with goodness-of-fit checks against the exact law.

`import ballcell` loads the core chain only: errors, scalars, polys,
ratfuncs, game and pgf.  The names of the leaf modules (approx, geometric,
montecarlo) resolve on first access, which imports their module then, so a
process pays to load only the parts it uses.
"""

from .errors import BudgetExceededError, DivergentDurationError
from .game import brute_force_row, transition_prob, transition_row
from .pgf import (
    diagonal_sequence,
    duration_variance,
    exact_distribution,
    expected_duration,
    moments,
    moments_symbolic,
    pgf_numeric,
    pgf_symbolic,
)
from .polys import Poly, Poly2, poly2_gcd, poly_gcd
from .ratfuncs import RatFunc, RatFunc2, polynomial_text, ratfunc_latex, ratfunc_text

# Names of the leaf modules, which load on first access (PEP 562).
_LAZY = {
    "approx_report": "approx",
    "error_limit": "approx",
    "error_term": "approx",
    "StepSequence": "geometric",
    "alpha_closed_forms": "geometric",
    "alpha_limits": "geometric",
    "alpha_moments": "geometric",
    "DurationLaw": "montecarlo",
    "gof_compare": "montecarlo",
    "simulate_batch": "montecarlo",
    "simulate_game": "montecarlo",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .leaf import name`, spelled so that -X importtime lists it.
    value = globals()[name] = getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DivergentDurationError",
    "DurationLaw",
    "Poly",
    "Poly2",
    "RatFunc",
    "RatFunc2",
    "StepSequence",
    "alpha_closed_forms",
    "alpha_limits",
    "alpha_moments",
    "approx_report",
    "brute_force_row",
    "diagonal_sequence",
    "duration_variance",
    "error_limit",
    "error_term",
    "exact_distribution",
    "expected_duration",
    "gof_compare",
    "moments",
    "moments_symbolic",
    "pgf_numeric",
    "pgf_symbolic",
    "poly_gcd",
    "poly2_gcd",
    "polynomial_text",
    "ratfunc_latex",
    "ratfunc_text",
    "simulate_batch",
    "simulate_game",
    "transition_prob",
    "transition_row",
    "__version__",
]
