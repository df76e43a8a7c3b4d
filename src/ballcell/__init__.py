"""Exact analysis and seeded simulation of the ball-and-cell capture game.

Each round, r balls are thrown uniformly at random into n cells; every ball
that lands alone in its cell is captured and removed, and the survivors are
thrown again.  The package computes the distribution of the number of rounds
until no balls remain, exactly (as rational generating functions, numerically
in n or symbolically with n left as a variable), along with moments, a
harmonic-sum approximation of the mean with error tracking, the limiting
moment profile of related down-or-stay chains, and a seeded Monte Carlo
simulator with goodness-of-fit checks against the exact law.

`import ballcell` loads only errors, scalars and game.  Every other name
resolves on first access, which imports its module then: the integer law
(law), the polynomial stack (polys, ratfuncs, pgf) and the leaves (approx,
geometric, montecarlo).  So a process pays to load only the parts it uses,
and `approx` and `simulate` never compile the polynomial stack.
"""

from .errors import BudgetExceededError, DivergentDurationError
from .game import brute_force_row, transition_prob, transition_row

# The modules that load on first access (PEP 562), and each name read from
# them.
_LAZY = {
    name: module
    for module, names in {
        "law": ("diagonal_sequence", "duration_variance", "exact_distribution", "expected_duration", "gof_compare"),
        "pgf": ("moments", "moments_symbolic", "pgf_numeric", "pgf_symbolic"),
        "polys": ("Poly", "Poly2", "poly2_gcd", "poly_gcd"),
        "ratfuncs": ("RatFunc", "RatFunc2", "polynomial_text", "ratfunc_latex", "ratfunc_text"),
        "approx": ("approx_report", "error_limit", "error_term"),
        "geometric": ("StepSequence", "alpha_closed_forms", "alpha_limits", "alpha_moments"),
        "montecarlo": ("DurationLaw", "simulate_batch", "simulate_game"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .module import name`, spelled so that -X importtime lists it.
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
