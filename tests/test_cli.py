"""CLI envelope contract, command payloads, and exit codes.

Commands run in-process through cli.run so exit codes and streams are
asserted directly; nothing here shells out.
"""

import hashlib
import json
import re
import time

import pytest

from ballcell import __version__, cli
from ballcell.errors import DivergentDurationError
from ballcell.law import exact_distribution
from ballcell.montecarlo import DurationLaw, simulate_batch, simulate_game, simulate_game_verbose
from ballcell.pgf import duration_variance, expected_duration, moments
from oracles import trial_seed


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_envelope_shape(capsys):
    env = run_json(capsys, "pgf", "--balls", "2", "--cells", "2")
    assert set(env) == {"command", "parameters", "result", "timing_ms", "version"}
    assert env["command"] == "pgf"
    assert env["version"] == __version__
    assert env["parameters"]["balls"] == 2
    assert env["parameters"]["cells"] == 2
    assert isinstance(env["timing_ms"], float)


def test_pgf_numeric_json(capsys):
    env = run_json(capsys, "pgf", "--balls", "2", "--cells", "2")
    result = env["result"]
    assert result["terminating"] is True
    assert result["pgf"]["text"] == "x/(2 - x)"
    assert result["pgf"]["num"] == [[1, "1"]]
    assert result["pgf"]["den"] == [[0, "2"], [1, "-1"]]


def test_pgf_expand_lists_exact_probabilities(capsys):
    env = run_json(capsys, "pgf", "--balls", "2", "--cells", "2", "--expand", "4")
    assert env["result"]["distribution"] == ["0", "1/2", "1/4", "1/8", "1/16"]


def test_pgf_text_output(capsys):
    code, out, err = run_cli(capsys, "pgf", "--balls", "2", "--cells", "2", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "x/(2 - x)"


def test_pgf_text_expansion_lines(capsys):
    code, out, _ = run_cli(
        capsys, "pgf", "--balls", "2", "--cells", "2", "--format", "text", "--expand", "3"
    )
    assert code == 0
    assert out.splitlines() == ["x/(2 - x)", "P(0) = 0", "P(1) = 1/2", "P(2) = 1/4", "P(3) = 1/8"]


def test_pgf_latex_output(capsys):
    code, out, _ = run_cli(capsys, "pgf", "--balls", "2", "--cells", "2", "--format", "latex")
    assert code == 0
    assert out.strip() == r"\frac{x}{2 - x}"
    code, out, _ = run_cli(capsys, "pgf", "--balls", "2", "--symbolic-n", "--format", "latex")
    assert code == 0
    assert out.strip() == r"\frac{nx - x}{n - x}"


def test_pgf_latex_expansion_lines(capsys):
    # --expand prints one P(k) line in LaTeX as it does in text, for a
    # Fraction and for a rational function of n alike.
    code, out, _ = run_cli(
        capsys, "pgf", "--balls", "2", "--cells", "2", "--format", "latex", "--expand", "3"
    )
    assert code == 0
    assert out.splitlines() == [
        r"\frac{x}{2 - x}", "P(0) = 0", r"P(1) = \frac{1}{2}", r"P(2) = \frac{1}{4}", r"P(3) = \frac{1}{8}"
    ]
    code, out, _ = run_cli(
        capsys, "pgf", "--balls", "2", "--symbolic-n", "--format", "latex", "--expand", "3"
    )
    assert code == 0
    assert out.splitlines() == [
        r"\frac{nx - x}{n - x}",
        "P(0) = 0",
        r"P(1) = \frac{n - 1}{n}",
        r"P(2) = \frac{n - 1}{n^{2}}",
        r"P(3) = \frac{n - 1}{n^{3}}",
    ]


def test_pgf_symbolic_json(capsys):
    env = run_json(capsys, "pgf", "--balls", "2", "--symbolic-n", "--expand", "2")
    result = env["result"]
    assert result["cells"] is None
    assert result["pgf"]["text"] == "(nx - x)/(n - x)"
    assert len(result["den_factors"]) == 1
    dist = result["distribution"]
    assert dist[0]["text"] == "0"
    assert dist[1]["text"] == "(n - 1)/n"


def test_moments_numeric(capsys):
    env = run_json(capsys, "moments", "--balls", "2", "--cells", "2", "--order", "4")
    result = env["result"]
    assert result["mean"] == "2"
    assert result["variance"] == "2"
    assert result["raw"] == ["2", "6", "26", "150"]
    assert result["central"] == ["2", "6", "38"]
    scaled = result["scaled"]
    assert scaled[0]["order"] == 3 and scaled[0]["squared"] == "9/2"
    assert scaled[1]["exact"] == "19/2"


def test_moments_degenerate_scaled_is_null(capsys):
    env = run_json(capsys, "moments", "--balls", "1", "--cells", "9", "--order", "3")
    result = env["result"]
    assert result["mean"] == "1"
    assert result["variance"] == "0"
    assert result["scaled"] is None


def test_moments_symbolic(capsys):
    env = run_json(capsys, "moments", "--balls", "2", "--symbolic-n", "--order", "2")
    result = env["result"]
    assert result["mean"]["text"] == "n/(n - 1)"
    assert result["variance"]["text"] == "n/(n^2 - 2n + 1)"


def test_approx_report(capsys):
    env = run_json(capsys, "approx", "--cells", "2", "--balls", "50")
    assert env["result"]["error"] == "0"
    assert env["result"]["approx_mean"] == env["result"]["exact_mean"]


def test_approx_limit(capsys):
    env = run_json(capsys, "approx", "--cells", "3", "--limit", "--rmax", "200", "--digits", "12")
    result = env["result"]
    assert result["estimate"].startswith("0.04213658384")
    assert result["stabilized"] is False
    assert result["rmax"] == 200


def test_approx_needs_balls_or_limit(capsys):
    code, _, err = run_cli(capsys, "approx", "--cells", "3")
    assert code == 2
    assert "either --balls or --limit" in err


def test_geo_closed_forms(capsys):
    env = run_json(capsys, "geo", "--alpha", "1/2", "--r", "3")
    assert env["result"]["mean"] == "14"
    assert env["result"]["variance"] == "70"
    assert env["parameters"]["alpha"] == "1/2"


def test_geo_limits(capsys):
    env = run_json(capsys, "geo", "--alpha", "1/2", "--limits")
    result = env["result"]
    assert result["cv_squared"] == "1/3"
    assert result["skewness_squared"] == "108/49"
    assert result["kurtosis"] == "33/5"
    assert result["kurtosis_decimal"].startswith("6.6")


def test_geo_moments_section(capsys):
    env = run_json(capsys, "geo", "--alpha", "1/2", "--r", "1", "--order", "2")
    assert env["result"]["moments"]["mean"] == "2"
    assert env["result"]["moments"]["variance"] == "2"


def test_geo_table_file(capsys, tmp_path):
    table = tmp_path / "steps.txt"
    table.write_text("# two states\n1/2\n1/2  # floor\n", encoding="utf-8")
    env = run_json(capsys, "geo", "--table", str(table), "--r", "2")
    assert env["result"]["mean"] == "4"
    assert env["result"]["variance"] == "4"
    assert env["result"]["kind"] == "table"


def test_geo_table_usage_errors(capsys, tmp_path):
    table = tmp_path / "steps.txt"
    table.write_text("1/2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "geo", "--table", str(table))
    assert code == 2 and "--r" in err
    code, _, err = run_cli(capsys, "geo", "--table", str(table), "--r", "1", "--limits")
    assert code == 2
    code, _, err = run_cli(capsys, "geo", "--table", str(table), "--r", "1", "--order", "4")
    assert code == 2 and "--order apply only to --alpha" in err
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "geo", "--table", str(empty), "--r", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "geo", "--table", str(tmp_path / "absent.txt"), "--r", "1")
    assert code == 2
    # A missing --r is reported before the file is read.
    code, _, err = run_cli(capsys, "geo", "--table", str(tmp_path / "absent.txt"))
    assert code == 2 and "--table needs --r" in err


def test_geo_limits_usage_errors(capsys):
    for extra in (("--order", "4"), ("--r", "3"), ("--r", "3", "--order", "4")):
        code, out, err = run_cli(capsys, "geo", "--alpha", "1/2", "--limits", *extra)
        assert code == 2 and out == ""
        assert "--limits takes neither --r nor --order" in err


def test_approx_flag_usage_errors(capsys):
    code, out, err = run_cli(capsys, "approx", "--cells", "3", "--balls", "10", "--digits", "5")
    assert code == 2 and out == ""
    assert "--digits applies only to --limit" in err
    code, out, err = run_cli(capsys, "approx", "--cells", "3", "--balls", "10", "--limit")
    assert code == 2 and out == ""
    assert "--limit takes no --balls" in err
    # An explicit --rmax is refused even at its default value.
    for rmax in ("5", "400"):
        code, out, err = run_cli(capsys, "approx", "--cells", "3", "--balls", "10", "--rmax", rmax)
        assert code == 2 and out == ""
        assert "--rmax applies only to --limit" in err


def test_simulate_trivial_histogram(capsys):
    env = run_json(capsys, "simulate", "--balls", "1", "--cells", "1", "--trials", "100", "--seed", "5")
    result = env["result"]
    assert result["histogram"] == {"1": 100}
    assert result["mean"] == "1"
    assert result["variance"] == "0"


def test_simulate_histogram_keys_sort_as_strings(capsys):
    # Keys are strings before json sorts them, so "10" precedes "4" in the
    # printed envelope; json.loads keeps the printed order.
    env = run_json(capsys, "simulate", "--balls", "5", "--cells", "2", "--trials", "30", "--seed", "11")
    keys = list(env["result"]["histogram"])
    assert keys == sorted(keys) and len({len(k) for k in keys}) == 2


def test_simulate_deterministic_modulo_timing(capsys):
    args = ("simulate", "--balls", "3", "--cells", "3", "--trials", "200", "--seed", "7")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


# sha256 of each request's stdout without its timing_ms line, recorded while
# to_decimal and decimal_sqrt still took a per-call precision.  Every decimal
# of these outputs follows BALLCELL_PRECISION: moment roots, limiting moments,
# the simulated mean and variance, and the approximation ratios.
PRECISION_DIGESTS = [
    ("7", "approx --cells 3 --balls 10",
     "8fb28faa3da8e382800854b79532cd675df0b8609c6b3eb5897688c95526dee2"),
    ("7", "moments --cells 4 --balls 4 --order 4",
     "b4e09cd2ead2012d480e8ab1614ee6b31cfb8898788b3dce63870e853bc7fbb8"),
    ("7", "geo --alpha 1/3 --limits",
     "18327f6b824429f0baeba343574fcd6b64b4cfca242a1eff43f4aa505bcf6a11"),
    ("7", "simulate --balls 5 --cells 9 --trials 300 --seed 4",
     "0ab0c8ed4042ff003b01caf70bec93aee0a045cac8c63f8ecd1e5f5ca8631474"),
    ("80", "approx --cells 3 --balls 10",
     "fbdf0fee5a85bc6b3f269b89d45d0a6dd2cc033bd9bb4131b2d97e233894e6e8"),
    ("80", "moments --cells 4 --balls 4 --order 4",
     "b994addda55a87e8b377dadb0a3ac51d8233ff322765a8de9ad1ee0c1bd98e11"),
    ("80", "geo --alpha 1/3 --limits",
     "fcaf906a19528d3cde29d8ce619d400fcf60b203cf090a22bd45f64f96548870"),
    ("80", "simulate --balls 5 --cells 9 --trials 300 --seed 4",
     "d6cd19cd49f767a95a833f2996c9bce2af3930b80828639f5f3e9db0d306eabe"),
]


@pytest.mark.parametrize("precision,request_text,digest", PRECISION_DIGESTS)
def test_outputs_at_a_set_precision_are_unchanged(precision, request_text, digest, capsys, monkeypatch):
    monkeypatch.setenv("BALLCELL_PRECISION", precision)
    code, out, err = run_cli(capsys, *request_text.split())
    assert code == 0, err
    out = re.sub(r'^  "timing_ms": [-+0-9.eE]+,\n', "", out, flags=re.MULTILINE)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_verbose_games(capsys):
    env = run_json(
        capsys,
        "simulate", "--balls", "3", "--cells", "3", "--trials", "4", "--seed", "2", "--verbose",
    )
    games = env["result"]["games"]
    assert len(games) == 4
    for game in games:
        assert game["duration"] == len(game["rounds"])
        assert sum(rd["captured"] for rd in game["rounds"]) == 3
    # Each game is the one simulate_game_verbose plays on the trial's seed.
    for i, game in enumerate(games):
        duration, rounds = simulate_game_verbose(3, 3, trial_seed(2, i))
        assert game == {
            "trial": i,
            "duration": duration,
            "rounds": [
                {"round": t.round_index, "balls": t.balls_before, "captured": t.captured} for t in rounds
            ],
        }


def test_simulate_gof_section(capsys):
    env = run_json(
        capsys,
        "simulate", "--balls", "2", "--cells", "2", "--trials", "1000", "--seed", "3", "--gof",
    )
    gof = env["result"]["gof"]
    assert gof["dof"] == 7
    assert gof["tv_distance"] == "863/32000"
    assert sum(b["observed"] for b in gof["bins"]) == 1000


def test_verify_suites_small(capsys):
    for suite in ("oracle", "paper", "limits"):
        env = run_json(capsys, "verify", "--suite", suite, "--budget", "small")
        assert env["result"]["passed"] is True
        assert all(c["passed"] for c in env["result"]["checks"])
    _, _, err = run_cli(capsys, "verify", "--suite", "oracle", "--budget", "small")
    assert "ok   " in err


def test_exit_code_domain(capsys):
    code, _, err = run_cli(capsys, "pgf", "--balls", "2", "--cells", "1")
    assert code == 3
    assert "error:" in err


def test_exit_code_budget(capsys):
    code, _, err = run_cli(capsys, "pgf", "--balls", "50", "--symbolic-n")
    assert code == 4
    assert "error:" in err
    code, _, _ = run_cli(
        capsys, "simulate", "--balls", "2", "--cells", str(10**8), "--trials", "1", "--seed", "0"
    )
    assert code == 4


# Every estimate refusal ends in one tail, "about X <units>; the budget is Y",
# with "(BALLCELL_BUDGET * s)" after it where the budget scales
# BALLCELL_BUDGET.
BUDGET_TAIL = re.compile(r" about [\d.e+]+ [a-z ]+; the budget is [\d.e+]+( \(BALLCELL_BUDGET \* [\d.e+-]+\))?$")

REFUSALS = [
    pytest.param(
        ["approx", "--cells", "3", "--balls", "2000"], {},
        ["about 6.08e+05 digits", "BALLCELL_BUDGET"], id="mean-table",
    ),
    pytest.param(
        ["approx", "--cells", "3", "--limit", "--rmax", "100000"], {},
        ["about 4.64e+12 digit products", "BALLCELL_BUDGET"], id="limit",
    ),
    # (30, 2) averages about 10^8 rounds a game and its law about 3.7e8 rounds
    # of horizon: the estimate refuses before a single game is played.
    pytest.param(
        ["simulate", "--balls", "30", "--cells", "2", "--trials", "1000", "--seed", "1", "--gof"], {},
        ["about 3.71e+08 rounds", "BALLCELL_BUDGET"], id="gof-long-law",
    ),
    # One game of (40, 2) averages 2.8e10 rounds: the word estimate refuses it.
    pytest.param(
        ["simulate", "--balls", "40", "--cells", "2", "--trials", "1", "--seed", "1"], {},
        ["about 1.13e+12 random words", "BALLCELL_BUDGET"], id="simulate-long-game",
    ),
    # (100, 150) covers its mass in about 4 rounds, but the law always walks
    # 32, over terms of about 7k digits: past a budget of 5000 digits.
    pytest.param(
        ["simulate", "--balls", "100", "--cells", "150", "--trials", "10", "--seed", "1", "--gof"],
        {"BALLCELL_BUDGET": "5000000"},
        ["about 32 rounds", "about 6.96e+03 digits; the budget is 5000 (BALLCELL_BUDGET * 0.001)"],
        id="gof-short-horizon-walks-32-rounds",
    ),
    # The first 32 rounds of (30000, 2) alone need terms of about 2.9e5
    # digits: refused before the stay probabilities of its states are built.
    pytest.param(
        ["simulate", "--balls", "30000", "--cells", "2", "--trials", "1", "--seed", "0", "--gof"], {},
        ["about 32 rounds or more", "about 2.89e+05 digits", "BALLCELL_BUDGET"],
        id="gof-floor-before-any-work",
    ),
    # Under a larger budget (3000, 2) passes its floor, and its slowest state
    # stays put with probability 1 - 6000/2^3000, within 2^-1075 of 1: the
    # horizon, taken in log form, is finite past the float range.
    pytest.param(
        ["simulate", "--balls", "3000", "--cells", "2", "--trials", "1", "--seed", "0", "--gof"],
        {"BALLCELL_BUDGET": "1000000000"},
        ["about 4.25e+900 rounds (at least 32)", "about 3.84e+903 digits; the budget is 1e+06"],
        id="gof-horizon-past-the-float-range",
    ),
    pytest.param(
        ["pgf", "--symbolic-n", "--balls", "41"], {},
        ["stop at r <= 40; the request asks for about 41 balls; the budget is 40"],
        id="pgf-symbolic-ceiling",
    ),
    pytest.param(
        ["moments", "--symbolic-n", "--balls", "41", "--order", "2"], {},
        ["stop at r <= 40; the request asks for about 41 balls; the budget is 40"], id="moments-symbolic-ceiling",
    ),
    # Order 4 costs about 5x more per ball from r = 7: the estimate refuses
    # (14, order 4), and (40, order 4) before the symbolic table is built.
    pytest.param(
        ["moments", "--symbolic-n", "--balls", "14", "--order", "4"], {},
        ["symbolic moments of 14 balls to order 4", "about 1.56e+10 work units", "BALLCELL_BUDGET * 0.6"],
        id="moments-symbolic-estimate",
    ),
    pytest.param(
        ["moments", "--symbolic-n", "--balls", "40", "--order", "4"], {},
        ["about 2.33e+28 work units", "BALLCELL_BUDGET"], id="moments-symbolic-estimate-at-the-ceiling",
    ),
    # The numeric table's estimate refuses before any level is built, also
    # through the moments: (150, 150) ran 71 s and then crashed on
    # int-to-str, (2, 300) ran 31 s.
    pytest.param(
        ["pgf", "--cells", "150", "--balls", "150"], {},
        ["PGF table of (150 balls, 150 cells)", "about 1.37e+09 digit products", "BALLCELL_BUDGET * 50"],
        id="pgf-numeric-table",
    ),
    pytest.param(
        ["pgf", "--cells", "2", "--balls", "300"], {},
        ["PGF table of (300 balls, 2 cells)", "about 1.07e+09 digit products", "BALLCELL_BUDGET * 50"],
        id="pgf-numeric-table-two-cells",
    ),
    pytest.param(
        ["moments", "--cells", "2", "--balls", "300", "--order", "2"], {},
        ["PGF table of (300 balls, 2 cells)", "about 1.07e+09 digit products"], id="moments-numeric-table",
    ),
    pytest.param(
        ["simulate", "--balls", "2", "--cells", str(10**8), "--trials", "1", "--seed", "0"], {},
        ["exceeds the budget of", "about 1e+08 balls or cells; the budget is 1e+07 (BALLCELL_BUDGET * 1)"],
        id="simulate-size-cap",
    ),
]


@pytest.mark.parametrize("argv,env,substrings", REFUSALS)
def test_over_budget_requests_are_refused_before_any_work(argv, env, substrings, capsys, monkeypatch):
    monkeypatch.delenv("BALLCELL_BUDGET", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert err.startswith("error: ")
    for text in substrings:
        assert text in err
    assert BUDGET_TAIL.search(err.rstrip("\n")), err
    assert not re.search(r"\binf\b", err), err


DIVERGENT = "divergent duration: one cell can never isolate a ball"


@pytest.mark.parametrize(
    "argv",
    [
        ["pgf", "--balls", "2", "--cells", "1"],
        ["moments", "--balls", "3", "--cells", "1", "--order", "2"],
        ["simulate", "--balls", "2", "--cells", "1", "--trials", "10", "--seed", "1"],
        ["simulate", "--balls", "2", "--cells", "1", "--trials", "10", "--seed", "1", "--gof"],
    ],
    ids=["pgf", "moments", "simulate", "simulate-gof"],
)
def test_divergent_commands_exit_3_with_the_one_message(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {DIVERGENT}\n"


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_distribution(2, 1),
        lambda: expected_duration(2, 1),
        lambda: duration_variance(5, 1),
        lambda: moments(2, 1, 2),
        lambda: simulate_batch(2, 1, 10, 1),
        lambda: simulate_game(3, 1, 0),
        lambda: simulate_game_verbose(3, 1, 0),
        lambda: DurationLaw.compute(2, 1),
    ],
    ids=[
        "exact_distribution", "expected_duration", "duration_variance", "moments",
        "simulate_batch", "simulate_game", "simulate_game_verbose", "DurationLaw.compute",
    ],
)
def test_divergent_library_calls_raise_the_one_message(call):
    with pytest.raises(DivergentDurationError) as info:
        call()
    assert str(info.value) == DIVERGENT


@pytest.mark.parametrize(
    "name,value,argv",
    [
        ("BALLCELL_BUDGET", "abc", ["simulate", "--balls", "2", "--cells", "2", "--trials", "1", "--seed", "1"]),
        ("BALLCELL_BUDGET", "1e7", ["approx", "--cells", "3", "--limit"]),
        ("BALLCELL_BUDGET", "0", ["simulate", "--balls", "2", "--cells", "2", "--trials", "1", "--seed", "1"]),
        ("BALLCELL_PRECISION", "x", ["approx", "--cells", "3", "--balls", "10"]),
    ],
)
def test_bad_environment_values_name_their_variable(name, value, argv, capsys, monkeypatch):
    monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {name} must be a positive integer, got {value}\n"


@pytest.mark.parametrize("cells", [2**64 + 1, 2 * 10**19])
def test_more_cells_than_words_is_a_usage_error(cells, capsys, monkeypatch):
    # Past 2^64 cells no 64-bit word passes the draw's rejection test: the
    # request is refused before any draw, under a budget that admits it.
    monkeypatch.setenv("BALLCELL_BUDGET", str(10**20))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--balls", "2", "--cells", str(cells), "--trials", "1", "--seed", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: cells must be at most 2^64 to be drawn from 64-bit words, got {cells}\n"


def test_words_estimate_stays_finite_for_huge_cell_counts(capsys, monkeypatch):
    # n/(n - 1) rounds to 1.0 at 10^18 cells, and 100 balls reach the
    # estimate's blocks of terms: it takes log1p(1/(n - 1)), not a 0/0.
    monkeypatch.setenv("BALLCELL_BUDGET", str(10**20))
    env = run_json(capsys, "simulate", "--balls", "100", "--cells", str(10**18), "--trials", "1", "--seed", "1")
    assert env["result"]["histogram"] == {"1": 1}


def test_exit_code_usage_from_values(capsys):
    code, _, err = run_cli(capsys, "approx", "--cells", "1", "--balls", "3")
    assert code == 2
    assert "error:" in err
    code, _, _ = run_cli(capsys, "geo", "--alpha", "3/2", "--r", "1")
    assert code == 2


def test_serialization_error_is_a_usage_error(capsys, monkeypatch):
    def broken(f):
        raise ValueError("cannot render")

    monkeypatch.setattr(cli, "ratfunc_text", broken)
    for fmt in ("json", "text"):
        code, out, err = run_cli(capsys, "pgf", "--cells", "2", "--balls", "2", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "error: cannot render\n"


def test_argparse_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["pgf"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["nonsense"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert __version__ in out
