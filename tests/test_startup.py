"""What a process pays before its first command, and what loads on first use.

Every command pays `import ballcell.cli` first, and with bytecode writing
off every import compiles its module.  So `import ballcell` and
`import ballcell.cli` load only errors, scalars and game.  The rest loads
when a command or an attribute access first needs it: the integer law of
`law` with `approx` and `simulate`, the polynomial stack (pgf, polys,
ratfuncs) with `pgf`, `moments` and `geo`, and the leaf modules approx,
geometric, montecarlo, verify and the golden values of reference with
their commands, and batchhelper with the first simulate batch that splits
between two processes.  `approx` and `simulate` never load the polynomial
stack.
The records are NamedTuples, not dataclasses, which import `inspect` and
generate their methods by `exec`.

pytest itself imports much of this, so each import is checked in a fresh
interpreter.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ballcell import cli, verify
from ballcell.approx import ApproxReport, LimitEstimate
from ballcell.cli import _SUITES
from ballcell.game import TransitionRow
from ballcell.geometric import LimitingMoments
from ballcell.law import GofBin, GofReport
from ballcell.montecarlo import DurationLaw, RoundTrace, SimBatch
from ballcell.pgf import DurationPGF, MomentReport, ScaledMoment, SymbolicMomentReport

RECORDS = [
    TransitionRow,
    DurationPGF, ScaledMoment, MomentReport, SymbolicMomentReport,
    ApproxReport, LimitEstimate,
    LimitingMoments,
    RoundTrace, SimBatch, DurationLaw, GofBin, GofReport,
]

CORE = ["ballcell", "ballcell.errors", "ballcell.game", "ballcell.scalars"]
POLYNOMIAL = ["ballcell.pgf", "ballcell.polys", "ballcell.ratfuncs"]
LEAVES = ["ballcell.approx", "ballcell.batchhelper", "ballcell.geometric", "ballcell.law", "ballcell.montecarlo",
          "ballcell.pgf", "ballcell.polys", "ballcell.ratfuncs", "ballcell.reference", "ballcell.verify"]

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# Prints, as its last line, the ballcell modules loaded so far.
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ballcell'))))\n"


def _fresh(code: str) -> list:
    """Run `code` in a fresh interpreter and return the JSON of its last line."""
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("statement", ["import ballcell", "import ballcell.cli"])
def test_imports_load_only_the_core_chain(statement):
    loaded = _fresh(statement + "\n" + LOADED)
    assert sorted(set(loaded) - {"ballcell.cli"}) == CORE
    assert not set(loaded) & set(LEAVES)


@pytest.mark.parametrize("command,leaves", [
    ("pgf --cells 3 --balls 3 --expand 4", POLYNOMIAL),
    ("pgf --symbolic-n --balls 3 --format latex", POLYNOMIAL),
    ("moments --cells 3 --balls 3 --order 3", POLYNOMIAL),
    ("moments --symbolic-n --balls 3 --order 2", POLYNOMIAL),
    ("approx --cells 3 --balls 10", ["ballcell.approx", "ballcell.law"]),
    ("approx --cells 3 --limit --rmax 40", ["ballcell.approx", "ballcell.law"]),
    ("geo --alpha 1/2 --r 3", ["ballcell.geometric", *POLYNOMIAL]),
    ("simulate --balls 3 --cells 3 --trials 20 --seed 1 --gof", ["ballcell.law", "ballcell.montecarlo"]),
    ("verify --suite oracle --budget small", ["ballcell.law", *POLYNOMIAL, "ballcell.verify"]),
    ("verify --suite paper --budget small", ["ballcell.law", *POLYNOMIAL, "ballcell.reference", "ballcell.verify"]),
    ("verify --suite stats --budget small", ["ballcell.law", "ballcell.montecarlo", "ballcell.verify"]),
])
def test_each_command_loads_only_its_own_leaves(command, leaves):
    loaded = _fresh(f"from ballcell import cli\nassert cli.run({command.split()!r}) == 0\n" + LOADED)
    assert [m for m in loaded if m in LEAVES] == leaves


@pytest.mark.parametrize("code", [
    "import ballcell.law",
    "from ballcell import cli\nassert cli.run(['approx', '--cells', '3', '--balls', '10']) == 0",
    "from ballcell import cli\n"
    "assert cli.run(['simulate', '--balls', '3', '--cells', '3', '--trials', '20', '--seed', '1', '--gof']) == 0",
])
def test_the_integer_law_loads_no_polynomial_stack(code):
    loaded = _fresh(code + "\n" + LOADED)
    assert "ballcell.law" in loaded
    assert not {"ballcell.pgf", "ballcell.polys", "ballcell.ratfuncs"} & set(loaded)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus,leaves", [
    (2, ["ballcell.batchhelper", "ballcell.law", "ballcell.montecarlo"]),
    (1, ["ballcell.law", "ballcell.montecarlo"]),
])
def test_the_batch_helper_loads_with_the_first_batch_that_splits(cpus, leaves):
    # 12000 trials of (24, 43) draw past the fork threshold: with two CPUs
    # the batch splits, and with one it plays in-process as before.
    code = (
        f"import os\nos.sched_getaffinity = lambda pid: set(range({cpus}))\n"
        "from ballcell import cli\n"
        "assert cli.run(['simulate', '--balls', '24', '--cells', '43', '--trials', '12000', '--seed', '1']) == 0\n"
    )
    loaded = _fresh(code + LOADED)
    assert [m for m in loaded if m in LEAVES] == leaves


def test_pgf_serves_the_names_of_the_integer_law_on_first_read():
    code = (
        "from ballcell import pgf\n"
        "before = 'ballcell.law' in sys.modules\n"
        "from ballcell import law\n"
        "same = [name for name in pgf._FROM_LAW if getattr(pgf, name) is getattr(law, name)]\n"
        "print(json.dumps([before, same == list(pgf._FROM_LAW), hasattr(pgf, 'no_such_name')]))\n"
    )
    assert _fresh(code) == [False, True, False]


# The envelope's timing_ms line, the one part of stdout that varies.
_TIMING = re.compile(r'^  "timing_ms": [-+0-9.eE]+,\n', re.MULTILINE)


def test_wire_binds_the_polynomial_names_whenever_they_load():
    # cli._wire looks for rational functions only once ratfuncs has loaded,
    # and binds their names then.  Loading ratfuncs and building a symbolic
    # table outside cli first, before any request, must wire as a cold start.
    requests = [
        ["pgf", "--symbolic-n", "--balls", "3"],
        ["pgf", "--cells", "3", "--balls", "3", "--expand", "4"],
        ["moments", "--symbolic-n", "--balls", "3", "--order", "2"],
    ]
    play = (
        "import contextlib, io\n"
        "from ballcell import cli\n"
        "outs = []\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert cli.run(argv) == 0\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps(outs))\n"
    )
    early = _fresh("import ballcell.ratfuncs\nfrom ballcell.pgf import pgf_symbolic\npgf_symbolic(3)\n" + play)
    cold = _fresh(play)
    assert [_TIMING.sub("", out) for out in early] == [_TIMING.sub("", out) for out in cold]
    assert all('"pgf": {' in out or '"mean": {' in out for out in cold)


def test_verify_suite_names_match_the_suites():
    assert list(_SUITES) == sorted(verify.SUITES)


def test_every_public_name_resolves():
    code = (
        "import ballcell\n"
        "missing = [name for name in ballcell.__all__ if getattr(ballcell, name, None) is None]\n"
        "star = {}\n"
        "exec('from ballcell import *', star)\n"
        "unbound = sorted(set(ballcell.__all__) - set(star))\n"
        "try:\n"
        "    ballcell.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps([missing, unbound, '__all__' in dir(ballcell), set(ballcell.__all__) <= set(dir(ballcell)),"
        " unknown]))\n"
    )
    assert _fresh(code) == [[], [], True, True, "AttributeError"]


def test_tracer_targets_on_cli_resolve_and_their_wrappers_are_called():
    # The names are read from perfbench/tracer.py.  Each resolves before any
    # request; then a counting wrapper is set on each, and the requests below
    # must call the wrapper, not the leaf's own function bound on load.
    # simulate_game_verbose is wrapped by the tracer but called by no handler.
    requests = [
        ["pgf", "--cells", "3", "--balls", "3", "--expand", "4"],
        ["pgf", "--symbolic-n", "--balls", "3", "--format", "latex"],
        ["pgf", "--symbolic-n", "--balls", "3"],
        ["moments", "--cells", "3", "--balls", "3", "--order", "3"],
        ["moments", "--symbolic-n", "--balls", "3", "--order", "2"],
        ["approx", "--cells", "3", "--balls", "10"],
        ["approx", "--cells", "3", "--limit", "--rmax", "40"],
        ["simulate", "--balls", "3", "--cells", "3", "--trials", "20", "--seed", "1", "--gof"],
    ]
    code = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "from ballcell import cli\n"
        "names = [attr for owner, attr, *_ in tracer.TARGETS if owner == 'ballcell.cli']\n"
        "calls = dict.fromkeys(names, 0)\n"
        "def counting(name, fn):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls[name] += 1\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "for name in names:\n"
        "    setattr(cli, name, counting(name, getattr(cli, name)))\n"
        f"codes = [cli.run(argv) for argv in {requests!r}]\n"
        "print(json.dumps([codes, calls]))\n"
    )
    codes, calls = _fresh(code)
    assert codes == [0] * len(requests)
    assert {"run", "approx_report", "error_limit", "simulate_batch", "simulate_game_verbose", "gof_compare"} <= set(calls)
    assert calls["run"] == len(requests)
    assert {name for name, count in calls.items() if count == 0} == {"simulate_game_verbose"}


def test_cli_import_leaves_out_dataclasses_and_the_goldens():
    code = (
        "from ballcell import cli\n"
        "unwanted = ('dataclasses', 'inspect', 'ballcell.reference')\n"
        "before = sorted(m for m in unwanted if m in sys.modules)\n"
        "code = cli.run(['verify', '--suite', 'paper', '--budget', 'small'])\n"
        "print(json.dumps([before, code, 'ballcell.reference' in sys.modules]))\n"
    )
    assert _fresh(code) == [[], 0, True]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_are_immutable(record):
    value = record(*range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


# One request for each output check of perfbench/workloads.py.  The checks
# read the library too (Poly.eval and Poly2.eval, Poly2.subs_n, the ring
# operations and head_coeff, poly2_from_json, RatFunc2.from_coprime and
# ratfunc_latex), so a name they need that goes turns the benchmark's
# `correct` false.  The LaTeX rendering is held against the JSON envelope
# of the symbolic request.
CHECKED = [
    "pgf --cells 4 --balls 4 --expand 6",
    "pgf --symbolic-n --balls 4 --expand 4",
    "pgf --symbolic-n --balls 4 --format latex",
    "moments --symbolic-n --balls 4 --order 2",
    "moments --cells 4 --balls 4 --order 2",
    "approx --cells 3 --balls 10",
    "simulate --balls 4 --cells 5 --trials 50 --seed 1 --gof --verbose",
]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", CHECKED)
def test_the_benchmark_checks_pass_on_one_request_each(command, workloads, capsys):
    context = {}
    if "latex" in command:
        assert cli.run(CHECKED[1].split()) == 0
        context = {4: capsys.readouterr().out}
    code = cli.run(command.split())
    out = capsys.readouterr().out
    assert workloads.check(command.split(), code, out, context) is None
