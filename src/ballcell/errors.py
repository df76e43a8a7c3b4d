"""Package-wide error types that map onto distinct CLI exit codes."""

from __future__ import annotations


class DivergentDurationError(ValueError):
    """The requested quantity does not exist: the game never terminates.

    Raised for one cell and two or more balls by `game._check_terminating`,
    which `exact_distribution`, `expected_duration`, `duration_variance`,
    `moments`, `simulate_game(_verbose)`, `simulate_batch`,
    `DurationLaw.compute` and the CLI's `pgf` call first.
    """


class BudgetExceededError(RuntimeError):
    """A computation would exceed its budget, refused before any work.

    Raised by `scalars._check_budget` for `brute_force_row`, the symbolic
    tables past max_balls, the simulations, `exact_distribution`, the mean
    table and `error_limit`.
    """
