"""Self-test of the benchmark harness on tiny versions of the four workloads.

Run from the root of a checkout:  python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_line(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_reports_every_end_to_end_metric(name):
    result = _last_line(["--workload", name, "--tiny", "--seconds", "0", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_tiny_traced_run_reports_every_per_layer_metric():
    result = _last_line(["--workload", "symbolic_n", "--tiny", "--seconds", "0", "--trace", "1"])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["polys.gcd2_calls"]["value"] > 0
    assert result["metrics"]["montecarlo.games"]["value"] == 0


def test_seed_picks_the_lists_and_is_repeatable():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 1) == workloads.build(name, 1)
        assert len(workloads.build(name, 1)) == len(workloads.build(name, 2))
        assert len(workloads.build(name, 1, tiny=True)) < len(workloads.build(name, 1))
    assert workloads.build("simulate_gof", 1) != workloads.build("simulate_gof", 2)


def _tampered(argv, edit):
    code, stdout, _ = worker._send(argv)
    assert code == 0 and workloads.check(argv, code, stdout, {}) is None
    envelope = json.loads(stdout)
    edit(envelope["result"])
    return workloads.check(argv, code, json.dumps(envelope), {})


def test_checks_reject_wrong_outputs():
    def bump_last(key):
        def edit(result):
            result[key][-1] = "1/7"
        return edit

    assert _tampered(["pgf", "--cells", "3", "--balls", "3", "--expand", "5"], bump_last("distribution"))
    assert _tampered(["moments", "--cells", "3", "--balls", "3", "--order", "2"],
                     lambda r: r.update(variance="1"))
    assert _tampered(["pgf", "--symbolic-n", "--balls", "3"],
                     lambda r: r["pgf"]["num"].append([[0, 0], "1"]))
    assert _tampered(["moments", "--symbolic-n", "--balls", "2", "--order", "2"],
                     lambda r: r["mean"]["num"].append([[0, 0], "1"]))
    assert _tampered(["approx", "--cells", "2", "--balls", "10"], lambda r: r.update(error="1/3"))
    short_limit = ["approx", "--cells", "3", "--limit", "--rmax", "60"]
    assert workloads.check(short_limit, *worker._send(short_limit)[:2], {})
    assert _tampered(["simulate", "--balls", "3", "--cells", "3", "--trials", "50", "--seed", "1"],
                     lambda r: r["histogram"].update({"99": 1}))
    assert workloads.check(["pgf", "--cells", "2", "--balls", "2"], 2, "", {}) == "exit code 2"


def test_rendering_is_checked_against_the_json_envelope():
    requests = [["pgf", "--symbolic-n", "--balls", "3", "--format", f] for f in ("json", "text", "latex")]
    outputs = [worker._send(argv) for argv in requests]
    context = workloads.rendering_context(requests, outputs)
    for argv, (code, stdout, _) in zip(requests, outputs):
        assert workloads.check(argv, code, stdout, context) is None
    assert workloads.check(requests[1], 0, "x\n", context)


def test_probe_status_separates_the_known_defect():
    argv = ["approx", "--cells", "60", "--balls", "60"]
    assert workloads.probe_status(argv, 2, "", f"error: {workloads.INT_STR_DEFECT}; more") == "defect"
    assert workloads.probe_status(argv, 2, "", "error: something else") == "broken"


def test_tracer_restores_originals_and_splits_self_time():
    import ballcell.cli
    import ballcell.montecarlo
    import ballcell.ratfuncs

    before = (ballcell.cli.run, ballcell.ratfuncs.poly_gcd, ballcell.montecarlo.DurationLaw.__dict__["compute"])
    with tracing.Tracer() as t:
        t.request = 0
        assert worker._send(["pgf", "--cells", "4", "--balls", "4"])[0] == 0
        t.request = 1
        assert worker._send(["simulate", "--balls", "3", "--cells", "3", "--trials", "20",
                             "--seed", "1", "--gof"])[0] == 0
    after = (ballcell.cli.run, ballcell.ratfuncs.poly_gcd, ballcell.montecarlo.DurationLaw.__dict__["compute"])
    assert after == before
    for request in (0, 1):
        selfs = t.self_times(range(request, request + 1))
        root = [s for s in t.spans if s[0] == "cli" and s[4] == request]
        assert len(root) == 1
        assert sum(selfs.values()) == pytest.approx(root[0][2] - root[0][1])
    calls, notes = t.tally(range(1, 2))
    assert calls["montecarlo.play"] == 20 and notes["montecarlo.play"] >= 20
    assert calls["montecarlo.law"] == 1 and calls["polys.gcd"] == 0


def test_tail_is_the_eleventh_largest_latency():
    assert worker.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert worker.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "numeric_pgf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
