"""CLI envelope contract, command payloads, and exit codes.

Commands run in-process through cli.run so exit codes and streams are
asserted directly; nothing here shells out.
"""

import json
import time

import pytest

from ballcell import __version__, cli
from ballcell.montecarlo import simulate_game_verbose, trial_seed


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


def test_gof_refuses_a_long_law_before_play(capsys):
    # (30, 2) averages about 10^8 rounds a game and its law about 3.7e8 rounds
    # of horizon: the estimate refuses before a single game is played.
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "simulate", "--balls", "30", "--cells", "2", "--trials", "1000", "--seed", "1", "--gof"
    )
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert "about 3.71e+08 rounds" in err and "BALLCELL_BUDGET" in err


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
