"""Command-line surface for the package.

Every command prints a JSON envelope to stdout: command echo, parameters,
result payload, timing, and version.  The `pgf` command can instead print
plain text or LaTeX.  Handlers return library values, and `_wire` is the one
place the wire format is written: exact values as "p/q" strings, never as
floats, so any JSON parser round-trips them losslessly, and rational
functions as term lists plus their text.

Importing this module loads only errors, scalars and game, since every
command pays for the import first.  The other modules load with the first
command that needs them: pgf, polys and ratfuncs with `pgf`, `moments` and
`geo`; law with `approx` and `simulate`, which never load the polynomial
stack; approx with `approx`, geometric with `geo`, montecarlo with
`simulate`, and the suites of `ballcell.verify` with `verify`.  The
package's one helper, `_lazy`, serves the names that load on first use.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 configuration
that never terminates, 4 compute budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction

from . import __version__, _lazy
from .errors import BudgetExceededError, DivergentDurationError
from .game import _check_terminating
from .scalars import DEFAULT_LIMIT_ROUNDS, parse_rational

# The leaf modules and the names read from each, served by `_lazy`.  A leaf
# loads when a handler that needs it runs, or when one of its names is read
# from this module.  Either way its names are bound in these globals, which
# the handlers call through, and a name bound already, such as a tracer's
# wrapper, is kept.  perfbench/tracer.py wraps simulate_game_verbose by
# name, though no handler calls it.
_LEAVES = {
    "pgf": ("moments", "moments_symbolic", "pgf_numeric", "pgf_symbolic", "symbolic_den_factors"),
    "polys": ("Poly2",),
    "ratfuncs": ("RatFunc", "RatFunc2", "poly2_to_json", "ratfunc_latex", "ratfunc_text", "ratfunc_to_json"),
    "approx": ("approx_report", "error_limit", "error_term"),
    "geometric": (
        "StepSequence", "alpha_closed_forms", "alpha_limits", "alpha_moments", "chain_mean", "chain_variance",
    ),
    "law": ("gof_compare",),
    "montecarlo": ("DurationLaw", "_simulate_batch", "simulate_batch", "simulate_game_verbose"),
}

_load, __getattr__, __dir__ = _lazy(globals(), _LEAVES)

# The names of the suites in ballcell.verify, which loads when one runs.
_SUITES = ("limits", "oracle", "paper", "stats")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4


def _wire(value):
    """The wire form of a library value, and the one place it is written:
    rational functions as term lists plus their text, Poly2 as term lists,
    Fraction and Decimal as strings, records as their fields, dict keys
    as strings (before json sorts them), other tuples as lists.  No
    polynomial value can exist before ratfuncs loads, so only then are
    they looked for."""
    if f"{__package__}.ratfuncs" not in sys.modules:
        return _wired(value, (), ())
    _load("polys", "ratfuncs")
    return _wired(value, (RatFunc, RatFunc2), Poly2)


def _wired(value, ratfuncs, poly2):
    if isinstance(value, ratfuncs):
        return {**ratfunc_to_json(value), "text": ratfunc_text(value)}
    if isinstance(value, poly2):
        return poly2_to_json(value)
    if isinstance(value, (Fraction, Decimal)):
        return str(value)
    if hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {str(k): _wired(v, ratfuncs, poly2) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wired(v, ratfuncs, poly2) for v in value]
    return value


# ---------------------------------------------------------------------------
# Command handlers.  Each returns library values; `run` wires them into the
# envelope (or prints the plain rendering for pgf text/latex output).


def _cmd_pgf(args) -> dict:
    _load("pgf")
    if args.symbolic_n:
        p = pgf_symbolic(args.balls)
        result = {"den_factors": symbolic_den_factors(args.balls)}
    else:
        _check_terminating(args.cells, args.balls)
        p = pgf_numeric(args.balls, args.cells)
        result = {}
    result.update(balls=p.balls, cells=p.cells, pgf=p.func, terminating=p.terminating)
    if args.expand is not None:
        result["distribution"] = p.func.series(args.expand)
    return result


def _render_pgf(args, result) -> list[str]:
    _load("ratfuncs")
    f = result["pgf"]
    values = result.get("distribution", ())
    if args.format == "latex":
        factors = result.get("den_factors", ())
        head = ratfunc_latex(f, factors if len(factors) > 1 else None)
        values = [ratfunc_latex(RatFunc.from_fraction(c) if isinstance(c, Fraction) else c) for c in values]
    else:
        head = ratfunc_text(f)
        values = [str(c) if isinstance(c, Fraction) else ratfunc_text(c) for c in values]
    return [head] + [f"P({k}) = {v}" for k, v in enumerate(values)]


def _cmd_moments(args) -> dict:
    _load("pgf")
    if args.symbolic_n:
        rep = moments_symbolic(args.balls, args.order)
    else:
        rep = moments(args.balls, args.cells, args.order)
    return {"balls": args.balls, "cells": args.cells, **rep._asdict()}


def _cmd_approx(args):
    _load("approx")
    if args.limit:
        if args.balls is not None:
            raise ValueError("--limit takes no --balls")
        return error_limit(args.cells, int(args.rmax), args.digits)
    if args.balls is None:
        raise ValueError("either --balls or --limit is required")
    if args.digits is not None:
        raise ValueError("--digits applies only to --limit")
    if not isinstance(args.rmax, _Default):
        raise ValueError("--rmax applies only to --limit")
    return approx_report(args.cells, args.balls)


def _read_step_table(path: str) -> list[Fraction]:
    values = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                values.append(parse_rational(line))
    if not values:
        raise ValueError(f"step table {path!r} holds no values")
    return values


def _cmd_geo(args):
    _load("geometric")
    if args.table is not None:
        if args.limits or args.order is not None:
            raise ValueError("--limits and --order apply only to --alpha")
        if args.r is None:
            raise ValueError("--table needs --r")
        seq = StepSequence.from_table(_read_step_table(args.table))
        return {
            "kind": seq.kind,
            "label": seq.label,
            "r": args.r,
            "mean": chain_mean(args.r, seq),
            "variance": chain_variance(args.r, seq),
        }
    if args.limits:
        if args.r is not None or args.order is not None:
            raise ValueError("--limits takes neither --r nor --order")
        return alpha_limits(args.alpha)
    if args.r is None:
        raise ValueError("--alpha needs --r (or --limits)")
    mean, variance = alpha_closed_forms(args.alpha, args.r)
    result = {"alpha": args.alpha, "r": args.r, "mean": mean, "variance": variance}
    if args.order is not None:
        result["moments"] = alpha_moments(args.alpha, args.r, args.order)
    return result


def _cmd_simulate(args) -> dict:
    _load("law", "montecarlo")
    # The exact law comes first, so that its cost estimate refuses before play.
    law = DurationLaw.compute(args.balls, args.cells) if args.gof else None
    # Only --verbose needs the rounds, recorded in the same pass as the batch.
    if args.verbose:
        batch, traces = _simulate_batch(args.balls, args.cells, args.trials, args.seed, record=True)
    else:
        batch = simulate_batch(args.balls, args.cells, args.trials, args.seed)
    names = ("balls", "cells", "trials", "seed", "mean", "variance", "histogram")
    result = {name: getattr(batch, name) for name in names}
    if args.verbose:
        result["games"] = [
            {
                "trial": i,
                "duration": duration,
                "rounds": [
                    {"round": t.round_index, "balls": t.balls_before, "captured": t.captured}
                    for t in rounds
                ],
            }
            for i, (duration, rounds) in enumerate(zip(batch.durations, traces))
        ]
    if args.gof:
        result["gof"] = gof_compare(batch, law)
    return result


def _cmd_verify(args) -> dict:
    from .verify import SUITES

    checks = SUITES[args.suite](args.budget)
    return {
        "suite": args.suite,
        "budget": args.budget,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Parser and entry point.


class _Default(int):
    """An option's default, told apart from the same value given."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballcell",
        description="Exact analysis and simulation of the ball-and-cell capture game.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pgf", help="duration generating function for one state")
    p.add_argument("--balls", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cells", type=int)
    group.add_argument("--symbolic-n", action="store_true", help="leave the cell count as n")
    p.add_argument("--expand", type=int, metavar="K", help="also emit P(0)..P(K)")
    p.add_argument("--format", choices=("json", "text", "latex"), default="json")
    p.set_defaults(handler=_cmd_pgf)

    p = sub.add_parser("moments", help="exact raw, central, and scaled moments")
    p.add_argument("--balls", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cells", type=int)
    group.add_argument("--symbolic-n", action="store_true")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("approx", help="harmonic-sum approximation and its error")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--balls", type=int)
    p.add_argument("--limit", action="store_true", help="estimate the large-r error limit")
    p.add_argument("--rmax", type=int, default=_Default(DEFAULT_LIMIT_ROUNDS))
    p.add_argument("--digits", type=int)
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("geo", help="down-or-stay chain: closed forms and limits")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=parse_rational, metavar="P/Q")
    group.add_argument("--table", metavar="FILE", help="step probabilities, one p/q per line")
    p.add_argument("--r", type=int, help="start state")
    p.add_argument("--limits", action="store_true", help="limiting scaled moments")
    p.add_argument("--order", type=int, help="also run the moment extractor to this order")
    p.set_defaults(handler=_cmd_geo)

    p = sub.add_parser("simulate", help="seeded batches of the real game")
    p.add_argument("--balls", type=int, required=True)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--verbose", action="store_true", help="record every round of every game")
    p.add_argument("--gof", action="store_true", help="compare against the exact law")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--budget", choices=("small", "full"), default="full")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argparse exits 2 on usage
    errors.  `timing_ms` covers the command only, not parsing, serializing or
    printing.  A ValueError while serializing is a usage error too."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result = args.handler(args)
        elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
        if args.command == "pgf" and args.format != "json":
            out = "\n".join(_render_pgf(args, result))
        else:
            parameters = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
            envelope = {
                "command": args.command,
                "parameters": _wire(parameters),
                "result": _wire(result),
                "timing_ms": elapsed_ms,
                "version": __version__,
            }
            out = json.dumps(envelope, indent=2, sort_keys=True)
    except DivergentDurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(out)
    if args.command == "verify" and not result["passed"]:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(run())
