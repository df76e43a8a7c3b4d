"""Command-line surface for the package.

Every command prints a JSON envelope to stdout: command echo, parameters,
result payload, timing, and version.  The `pgf` command can instead print
plain text or LaTeX.  Handlers return library values, and `_wire` is the one
place the wire format is written: exact values as "p/q" strings, never as
floats, so any JSON parser round-trips them losslessly, and rational
functions as term lists plus their text.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 configuration
that never terminates, 4 compute budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, is_dataclass
from decimal import Decimal
from fractions import Fraction

from . import __version__, reference
from .approx import DEFAULT_LIMIT_ROUNDS, approx_report, error_limit, error_term
from .errors import BudgetExceededError, DivergentDurationError
from .game import brute_force_row, transition_row
from .geometric import (
    StepSequence,
    alpha_closed_forms,
    alpha_limits,
    alpha_moments,
    chain_mean,
    chain_variance,
)

# simulate_game_verbose is no longer called here, but perfbench/tracer.py
# wraps cli.simulate_game_verbose by name, so the attribute stays.
from .montecarlo import DurationLaw, _simulate_batch, gof_compare, simulate_batch, simulate_game_verbose  # noqa: F401
from .pgf import (
    duration_distribution,
    duration_variance,
    expected_duration,
    moments,
    moments_symbolic,
    pgf_numeric,
    pgf_symbolic,
    symbolic_den_factors,
)
from .polys import Poly2
from .ratfuncs import RatFunc, RatFunc2, poly2_to_json, ratfunc_latex, ratfunc_text, ratfunc_to_json
from .scalars import parse_rational

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4

_GATE_SEED = 20260822


def _wire(value):
    """The wire form of a library value, and the one place it is written:
    rational functions as term lists plus their text, Poly2 as term lists,
    Fraction and Decimal as strings, dataclasses as their fields, dict keys
    as strings (before json sorts them), tuples as lists."""
    if isinstance(value, (RatFunc, RatFunc2)):
        return {**ratfunc_to_json(value), "text": ratfunc_text(value)}
    if isinstance(value, Poly2):
        return poly2_to_json(value)
    if isinstance(value, (Fraction, Decimal)):
        return str(value)
    if is_dataclass(value):
        return {f.name: _wire(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wire(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Command handlers.  Each returns library values; `run` wires them into the
# envelope (or prints the plain rendering for pgf text/latex output).


def _cmd_pgf(args) -> dict:
    if args.symbolic_n:
        p = pgf_symbolic(args.balls)
        result = {"den_factors": symbolic_den_factors(args.balls)}
    else:
        p = pgf_numeric(args.balls, args.cells)
        if not p.terminating:
            raise DivergentDurationError(
                "divergent duration: one cell can never isolate a ball"
            )
        result = {}
    result.update(balls=p.balls, cells=p.cells, pgf=p.func, terminating=p.terminating)
    if args.expand is not None:
        result["distribution"] = p.func.series(args.expand)
    return result


def _render_pgf(args, result) -> list[str]:
    f = result["pgf"]
    if args.format == "latex":
        factors = result.get("den_factors", ())
        return [ratfunc_latex(f, factors if len(factors) > 1 else None)]
    return [ratfunc_text(f)] + [
        f"P({k}) = {str(c) if isinstance(c, Fraction) else ratfunc_text(c)}"
        for k, c in enumerate(result.get("distribution", ()))
    ]


def _cmd_moments(args) -> dict:
    if args.symbolic_n:
        rep = moments_symbolic(args.balls, args.order)
    else:
        rep = moments(args.balls, args.cells, args.order)
    return {"balls": args.balls, "cells": args.cells, **vars(rep)}


def _cmd_approx(args):
    if args.limit:
        return error_limit(args.cells, args.rmax, args.digits)
    if args.balls is None:
        raise ValueError("either --balls or --limit is required")
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
    # The exact law comes first, so that its cost estimate refuses before play.
    law = DurationLaw.compute(args.balls, args.cells) if args.gof else None
    batch, traces = _simulate_batch(args.balls, args.cells, args.trials, args.seed, record=args.verbose)
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


# ---------------------------------------------------------------------------
# Verification suites.


def _check(checks: list, name: str, passed: bool, detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})
    print(("ok   " if passed else "FAIL ") + name, file=sys.stderr)


def _suite_oracle(budget: str) -> list[dict]:
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
    from scipy.stats import chi2

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
        threshold = chi2.ppf(0.999, rep.dof)
        _check(
            checks,
            f"chi-square of ({r},{n}) below the 99.9% quantile",
            float(rep.chi_square) < threshold,
            f"chi={float(rep.chi_square):.2f} dof={rep.dof} threshold={threshold:.2f}",
        )
    return checks


_SUITES = {
    "oracle": _suite_oracle,
    "paper": _suite_paper,
    "limits": _suite_limits,
    "stats": _suite_stats,
}


def _cmd_verify(args) -> dict:
    checks = _SUITES[args.suite](args.budget)
    return {
        "suite": args.suite,
        "budget": args.budget,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Parser and entry point.


def _add_pgf(sub) -> None:
    p = sub.add_parser("pgf", help="duration generating function for one state")
    p.add_argument("--balls", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cells", type=int)
    group.add_argument("--symbolic-n", action="store_true", help="leave the cell count as n")
    p.add_argument("--expand", type=int, metavar="K", help="also emit P(0)..P(K)")
    p.add_argument("--format", choices=("json", "text", "latex"), default="json")
    p.set_defaults(handler=_cmd_pgf)


def _add_moments(sub) -> None:
    p = sub.add_parser("moments", help="exact raw, central, and scaled moments")
    p.add_argument("--balls", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cells", type=int)
    group.add_argument("--symbolic-n", action="store_true")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=_cmd_moments)


def _add_approx(sub) -> None:
    p = sub.add_parser("approx", help="harmonic-sum approximation and its error")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--balls", type=int)
    p.add_argument("--limit", action="store_true", help="estimate the large-r error limit")
    p.add_argument("--rmax", type=int, default=DEFAULT_LIMIT_ROUNDS)
    p.add_argument("--digits", type=int)
    p.set_defaults(handler=_cmd_approx)


def _add_geo(sub) -> None:
    p = sub.add_parser("geo", help="down-or-stay chain: closed forms and limits")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=parse_rational, metavar="P/Q")
    group.add_argument("--table", metavar="FILE", help="step probabilities, one p/q per line")
    p.add_argument("--r", type=int, help="start state")
    p.add_argument("--limits", action="store_true", help="limiting scaled moments")
    p.add_argument("--order", type=int, help="also run the moment extractor to this order")
    p.set_defaults(handler=_cmd_geo)


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate", help="seeded batches of the real game")
    p.add_argument("--balls", type=int, required=True)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--verbose", action="store_true", help="record every round of every game")
    p.add_argument("--gof", action="store_true", help="compare against the exact law")
    p.set_defaults(handler=_cmd_simulate)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--budget", choices=("small", "full"), default="full")
    p.set_defaults(handler=_cmd_verify)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballcell",
        description="Exact analysis and simulation of the ball-and-cell capture game.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_pgf(sub)
    _add_moments(sub)
    _add_approx(sub)
    _add_geo(sub)
    _add_simulate(sub)
    _add_verify(sub)
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
