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

    Raised by `scalars._check_budget` for each refusal of the README's budget
    table: `brute_force_row`, the simulation size and words drawn,
    `exact_distribution`, the mean table, the numeric PGF table, `error_limit`,
    the symbolic tables past `pgf.SYMBOLIC_CEILING` and `moments_symbolic`'s
    work estimate.
    """
