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
and `approx` and `simulate` never compile the polynomial stack.  `_lazy`
serves such names, here and in `ballcell.cli` and `ballcell.pgf`.
"""

from .errors import BudgetExceededError, DivergentDurationError
from .game import brute_force_row, transition_prob, transition_row

__version__ = "0.1.0"


def _lazy(namespace: dict, table: dict):
    """(load, __getattr__, __dir__) serving the names of `table` (module ->
    names) in the globals `namespace` on first use (PEP 562).  load(*modules),
    or a first read of one of a module's names, imports the module and binds
    all its names with setdefault, so that a name bound first (a tracer's
    wrapper, say) is kept."""
    from sys import modules as imported

    owner = {name: module for module, names in table.items() for name in names}

    def load(*modules: str) -> None:
        for module in modules:
            path = f"{__name__}.{module}"
            # `from .module import names`, spelled so that -X importtime lists it;
            # a loaded module comes from sys.modules, at a third of __import__'s cost.
            loaded = imported.get(path) or __import__(path, fromlist=table[module])
            for name in table[module]:
                namespace.setdefault(name, getattr(loaded, name))

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        load(owner[name])
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return load, __getattr__, __dir__


# The modules that load on first access, and the names read from each.
_LAZY = {
    "law": ("diagonal_sequence", "duration_variance", "exact_distribution", "expected_duration", "gof_compare"),
    "pgf": ("moments", "moments_symbolic", "pgf_numeric", "pgf_symbolic"),
    "polys": ("Poly", "Poly2", "poly2_gcd", "poly_gcd"),
    "ratfuncs": ("RatFunc", "RatFunc2", "polynomial_text", "ratfunc_latex", "ratfunc_text"),
    "approx": ("approx_report", "error_limit", "error_term"),
    "geometric": ("StepSequence", "alpha_closed_forms", "alpha_limits", "alpha_moments"),
    "montecarlo": ("DurationLaw", "simulate_batch", "simulate_game"),
}

# The public names: the classes and functions imported above, the version,
# and the names of _LAZY.
__all__ = [*(name for name, value in globals().items() if callable(value) and not name.startswith("_")),
           "__version__", *(name for names in _LAZY.values() for name in names)]

__getattr__, __dir__ = _lazy(globals(), _LAZY)[1:]
