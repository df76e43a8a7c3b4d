"""Request lists, known-defect probes and output checks of the four workloads.

A workload is a fixed list of `ballcell` argv lists.  The seed picks
simulation seeds, the order of independent request blocks, expansion depths
and states from narrow bands inside each workload's fixed ranges, so that the
cost of a list stays comparable from one seed to another.  The program only
ever sees the generated argv lists; the checks below run after the timed
passes.  They import ballcell lazily, because run.py imports this module
without the package on its path.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

DEFAULT_SEED = 20231

WORKLOADS = ("numeric_pgf", "mean_tables", "symbolic_n", "simulate_gof")

# The CLI formats exact values with str(), which Python refuses beyond this
# many digits unless the process raises its limit.  The benchmark never raises
# it: requests past the limit are the known defect the probes keep visible.
INT_STR_DEFECT = "Exceeds the limit (4300 digits) for integer string conversion"

# Requests the benchmark cannot finish inside its time budget, and why.  They
# are never sent; they are listed so that their absence is not silent.
UNFINISHABLE = (
    ("simulate --balls 40 --cells 2 --trials 1 --seed 1",
     "mean duration is exactly 28,233,101,920 rounds, so one game never ends in practice"),
    ("simulate --balls 30 --cells 2 --trials 1000 --seed 1 --gof",
     "exact_distribution keeps doubling kmax toward about 10^7 rounds"),
    ("pgf --balls 13 --cells 13 --expand 20",
     "4.6 s for the one request, half of a pass; the diagonal stops at 12"),
    ("pgf --balls 25 --cells 25",
     "numeric PGF cost grows about 2.5x per ball; r = 20 already takes over 10 minutes"),
    ("moments --symbolic-n --balls 5 --order 3",
     "7.9 s for the one request, half of a pass; the workload stops at order 2 for r = 5"),
    ("moments --symbolic-n --balls 5 --order 4",
     "about 81 s, almost all of it in the univariate Euclidean poly_gcd"),
    ("moments --symbolic-n --balls 6 --order 4",
     "runs for hours"),
    ("pgf --symbolic-n --balls 13 --format json",
     "0.9 s for the one request; the symbolic sweep stops at 12, and --expand 4 at 8"),
    ("pgf --symbolic-n --balls 13 --expand 4",
     "14.6 s for the one request, longer than a whole workload pass"),
)


def _cmd(*parts) -> list[str]:
    return [str(p) for p in parts]


def _shuffled_blocks(rng: random.Random, blocks: list[list[list[str]]]) -> list[list[str]]:
    rng.shuffle(blocks)
    return [argv for block in blocks for argv in block]


def _numeric_pgf(rng: random.Random, tiny: bool) -> list[list[str]]:
    # One sweep per cell count, R ascending as a user sweeps, then the
    # diagonal.  Each sweep fills its own per-n table, so the seeded block
    # order and expansion depths leave the cost alone.
    cells = (3,) if tiny else (3, 6, 10)
    top = 4 if tiny else 12
    blocks = []
    for n in cells:
        block = []
        for r in range(2, top + 1):
            block.append(_cmd("pgf", "--cells", n, "--balls", r, "--expand", rng.randint(19, 21)))
            block.append(_cmd("moments", "--cells", n, "--balls", r, "--order", 4))
        blocks.append(block)
    diagonal = []
    for r in range(2, (3 if tiny else 12) + 1):
        diagonal.append(_cmd("pgf", "--cells", r, "--balls", r, "--expand", rng.randint(19, 21)))
        diagonal.append(_cmd("moments", "--cells", r, "--balls", r, "--order", 4))
    return _shuffled_blocks(rng, blocks) + diagonal


# Largest R per cell count that every offset below still keeps under the
# int-to-str limit at this commit; the states past it are the probes.
_SAFE_TOP = {2: 400, 3: 120, 4: 90, 6: 76, 8: 68, 10: 64}
_DIAGONAL_TOP = 52


def _mean_tables(rng: random.Random, tiny: bool) -> list[list[str]]:
    if tiny:
        return [_cmd("approx", "--cells", 2, "--balls", 30), _cmd("approx", "--cells", 4, "--balls", 4),
                _cmd("approx", "--cells", 3, "--limit")]
    blocks = [[_cmd("approx", "--cells", r, "--balls", r) for r in range(2, _DIAGONAL_TOP + 1)]]
    for n, count, stride in ((2, 40, 10), (3, 12, 10)):
        off = rng.randint(0, stride - 1)
        blocks.append([_cmd("approx", "--cells", n, "--balls", _SAFE_TOP[n] - off - stride * j)
                       for j in reversed(range(count))])
    for n in (4, 6, 8, 10):
        off = rng.randint(0, 3)
        blocks.append([_cmd("approx", "--cells", n, "--balls", _SAFE_TOP[n] - off - 8 * j)
                       for j in reversed(range(5))])
    blocks.append([_cmd("approx", "--cells", n, "--limit") for n in (3, 4, 5)])
    return _shuffled_blocks(rng, blocks)


def _symbolic_n(rng: random.Random, tiny: bool) -> list[list[str]]:
    # Every r is sent in every format, so no state is left for the seed to
    # pick.  The order is fixed too: the first request for each r pays that
    # level of the cached symbolic table, and a seeded order moved that cost
    # between requests and the tail percentile with it.
    top, expand_top, moment_orders = (3, 2, {2: 2}) if tiny else (12, 8, {1: 4, 2: 4, 3: 4, 4: 4, 5: 2})
    out = [_cmd("pgf", "--symbolic-n", "--balls", r, "--format", f)
           for r in range(1, top + 1) for f in ("json", "text", "latex")]
    out += [_cmd("pgf", "--symbolic-n", "--balls", r, "--expand", 4) for r in range(1, expand_top + 1)]
    out += [_cmd("moments", "--symbolic-n", "--balls", r, "--order", o)
            for r, orders in moment_orders.items() for o in range(1, orders + 1)]
    return out


def _simulate_gof(rng: random.Random, tiny: bool) -> list[list[str]]:
    # n between 1.75r and 2r keeps games short.  --gof goes to every other
    # state up to r = 12 only: the exact law behind it grows fast with r, and
    # the cost has to stay with play for this workload to be the control.
    states, trials = (4, 300) if tiny else (40, 2000)
    out = []
    for j in range(states):
        r = 2 + (j * 22) // (states - 1)
        n = 2 * r - rng.randint(0, r // 4)
        gof = ["--gof"] if j % 2 == 0 and r <= 12 else []
        out.append(_cmd("simulate", "--balls", r, "--cells", n, "--trials", trials,
                        "--seed", rng.randrange(2**32), *gof))
    for r in (3, 5, 8)[: 1 if tiny else 3]:
        out.append(_cmd("simulate", "--balls", r, "--cells", r + 1, "--trials", 50,
                        "--seed", rng.randrange(2**32), "--verbose"))
    rng.shuffle(out)
    return out


_BUILDERS = {
    "numeric_pgf": _numeric_pgf,
    "mean_tables": _mean_tables,
    "symbolic_n": _symbolic_n,
    "simulate_gof": _simulate_gof,
}


def build(name: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The request list of one workload for one seed."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), tiny)


def probes(name: str, seed: int) -> list[list[str]]:
    """States that fail at this commit with the int-to-str defect.

    They run after the timed passes, so the timed workloads stay free of
    failing requests while the defect keeps showing in every run.
    """
    rng = random.Random(f"{name}:{seed}:probes")
    if name == "mean_tables":
        return [_cmd("approx", "--cells", n, "--balls", r) for r, n in ((60, 60), (80, 80), (200, 3))]
    if name == "simulate_gof":
        return [_cmd("simulate", "--balls", r, "--cells", n, "--trials", 2000,
                     "--seed", rng.randrange(2**32), "--gof") for r, n in ((8, 2), (12, 3), (16, 4))]
    return []


# ---------------------------------------------------------------------------
# Output checks.  Each returns None when the output is right, else a reason.

_TIMING = re.compile(r'^  "timing_ms": [-+0-9.eE]+,\n', re.MULTILINE)


def strip_timing(stdout: str) -> str:
    """The envelope without its timing_ms line, the one field that varies."""
    return _TIMING.sub("", stdout)


def _opt(argv: list[str], flag: str) -> int | None:
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


def _poly2(data):
    from ballcell.ratfuncs import poly2_from_json

    return poly2_from_json(data)


def _at_n(p2, n0: int):
    """A Poly2 with n replaced by n0, as a Poly in x."""
    return p2.subs_n(Fraction(n0))


_SUBSTITUTE_N = (2, 3)


def _check_numeric_pgf(argv, result) -> str | None:
    from ballcell.pgf import duration_distribution

    r, n, k = _opt(argv, "--balls"), _opt(argv, "--cells"), _opt(argv, "--expand")
    got = [Fraction(v) for v in result["distribution"]]
    if got != duration_distribution(r, n, k):
        return "distribution differs from duration_distribution"
    return None


def _check_numeric_moments(argv, result) -> str | None:
    from ballcell.pgf import duration_variance, expected_duration

    r, n = _opt(argv, "--balls"), _opt(argv, "--cells")
    if Fraction(result["mean"]) != expected_duration(r, n):
        return "mean differs from expected_duration"
    if Fraction(result["variance"]) != duration_variance(r, n):
        return "variance differs from duration_variance"
    return None


def _check_symbolic_pgf(argv, result) -> str | None:
    from ballcell import reference
    from ballcell.pgf import duration_distribution, pgf_numeric

    r = _opt(argv, "--balls")
    num, den = _poly2(result["pgf"]["num"]), _poly2(result["pgf"]["den"])
    for n0 in _SUBSTITUTE_N:
        want = pgf_numeric(r, n0).func
        if _at_n(num, n0) * want.den != want.num * _at_n(den, n0):
            return f"substituting n = {n0} differs from pgf_numeric"
    if r <= 5:
        gold = reference.symbolic_pgf(r)
        if num * gold.den != gold.num * den:
            return "differs from the golden symbolic form"
    product = type(den).const(1)
    for f in result["den_factors"]:
        product = product * _poly2(f)
    if product * den.head_coeff() != den * product.head_coeff():
        return "den_factors do not multiply to the denominator"
    k = _opt(argv, "--expand")
    if k is not None:
        for n0 in _SUBSTITUTE_N:
            want = duration_distribution(r, n0, k)
            for c, w in zip(result["distribution"], want, strict=True):
                value = _poly2(c["num"]).eval(n0, 0) / _poly2(c["den"]).eval(n0, 0)
                if value != w:
                    return f"expanded distribution at n = {n0} differs from duration_distribution"
    return None


def _check_symbolic_moments(argv, result) -> str | None:
    from ballcell.pgf import moments

    r, order = _opt(argv, "--balls"), _opt(argv, "--order")

    def at(rf, n0):
        return _poly2(rf["num"]).eval(n0, 0) / _poly2(rf["den"]).eval(n0, 0)

    for n0 in _SUBSTITUTE_N:
        want = moments(r, n0, order)
        if at(result["mean"], n0) != want.mean:
            return f"mean at n = {n0} differs from the numeric moments"
        if [at(v, n0) for v in result["raw"]] != list(want.raw):
            return f"raw moments at n = {n0} differ from the numeric moments"
        if [at(v, n0) for v in result["central"]] != list(want.central):
            return f"central moments at n = {n0} differ from the numeric moments"
    return None


def _check_approx(argv, result) -> str | None:
    from ballcell import reference
    from ballcell.geometric import StepSequence, chain_mean

    n = _opt(argv, "--cells")
    if "--limit" in argv:
        target, tol = reference.LIMIT_TARGETS[n]
        if abs(Fraction(result["estimate"]) - target) > tol:
            return f"limit estimate {result['estimate']} is not within {tol} of {target}"
        return None
    r = _opt(argv, "--balls")
    approx, exact, error = (Fraction(result[k]) for k in ("approx_mean", "exact_mean", "error"))
    if approx != chain_mean(r, StepSequence.ball_cell(n)):
        return "approximate mean differs from chain_mean of the ball-cell steps"
    if error != exact - approx:
        return "error is not exact_mean - approx_mean"
    if n == 2 and error != 0:
        return "two-cell error term is not zero"
    return None


def _check_simulate(argv, result) -> str | None:
    from ballcell.pgf import duration_variance, expected_duration

    r, n, trials = _opt(argv, "--balls"), _opt(argv, "--cells"), _opt(argv, "--trials")
    hist = {int(k): v for k, v in result["histogram"].items()}
    if sum(hist.values()) != trials:
        return "histogram does not total the trial count"
    mean, var = expected_duration(r, n), duration_variance(r, n)
    if abs(float(result["mean"]) - float(mean)) > 6 * math.sqrt(float(var) / trials):
        return f"sample mean {result['mean']} is more than 6 standard errors from {float(mean)}"
    if "--gof" in argv and sum(b["observed"] for b in result["gof"]["bins"]) != trials:
        return "gof bins do not total the trial count"
    if "--verbose" in argv:
        games = result["games"]
        if len(games) != trials or Counter(g["duration"] for g in games) != Counter(hist):
            return "verbose games disagree with the histogram"
        for g in games:
            if len(g["rounds"]) != g["duration"] or sum(t["captured"] for t in g["rounds"]) != r:
                return f"verbose game {g['trial']} is inconsistent"
    return None


def check(argv: list[str], code, stdout: str, context: dict) -> str | None:
    """Reason the request's output is wrong, or None when it is right.

    `context` maps the balls of each symbolic JSON pgf request to its output
    in the same pass, so text and LaTeX renderings can be held against the
    JSON envelope that was itself checked against the numeric path.
    """
    if code != 0:
        return f"exit code {code}"
    if argv[0] == "pgf" and "--format" in argv and argv[argv.index("--format") + 1] != "json":
        return _check_rendering(argv, stdout, context)
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return f"output is not a JSON envelope: {exc}"
    symbolic = "--symbolic-n" in argv
    if argv[0] == "pgf":
        return _check_symbolic_pgf(argv, result) if symbolic else _check_numeric_pgf(argv, result)
    if argv[0] == "moments":
        return _check_symbolic_moments(argv, result) if symbolic else _check_numeric_moments(argv, result)
    if argv[0] == "approx":
        return _check_approx(argv, result)
    if argv[0] == "simulate":
        return _check_simulate(argv, result)
    return f"no check for command {argv[0]!r}"


def _check_rendering(argv, stdout, context) -> str | None:
    from ballcell.ratfuncs import RatFunc2, ratfunc_latex

    r = _opt(argv, "--balls")
    fmt = argv[argv.index("--format") + 1]
    source = context.get(r)
    if source is None:
        return "no JSON envelope of the same request to compare against"
    env = json.loads(source)["result"]
    if fmt == "text":
        want = env["pgf"]["text"]
    else:
        func = RatFunc2.from_coprime(_poly2(env["pgf"]["num"]), _poly2(env["pgf"]["den"]))
        factors = [_poly2(f) for f in env["den_factors"]]
        want = ratfunc_latex(func, factors if len(factors) > 1 else None)
    if stdout != want + "\n":
        return f"{fmt} rendering differs from the JSON envelope"
    return None


def rendering_context(requests: list[list[str]], outputs) -> dict:
    """balls -> stdout of each symbolic JSON pgf request."""
    return {
        _opt(argv, "--balls"): out[1]
        for argv, out in zip(requests, outputs)
        if argv[0] == "pgf" and "--symbolic-n" in argv and "--expand" not in argv
        and argv[argv.index("--format") + 1] == "json"
    }


def probe_status(argv: list[str], code, stdout: str, stderr: str) -> str:
    """'defect' while the known failure persists, 'fixed' once the request
    succeeds with a correct output, 'broken' for anything else."""
    if code == 2 and INT_STR_DEFECT in stderr:
        return "defect"
    if code == 0 and check(argv, code, stdout, {}) is None:
        return "fixed"
    return "broken"


_DIGITS = re.compile(r"\d+")


def max_coeff_digits(stdout: str) -> int:
    """Largest integer, in digits, among the rational-function coefficients
    of an output: the num/den lists of JSON envelopes, or the whole text of
    a text or LaTeX rendering."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return max((len(m) for m in _DIGITS.findall(stdout)), default=0)
    best = 0
    stack = [data]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if isinstance(node.get("num"), list) and isinstance(node.get("den"), list):
                for term in node["num"] + node["den"]:
                    best = max(best, *(len(m) for m in _DIGITS.findall(term[-1])))
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return best
