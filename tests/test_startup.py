"""What a process pays before its first command, and what loads on first use.

Every command pays `import ballcell.cli` first, and with bytecode writing
off every import compiles its module.  So `import ballcell` and
`import ballcell.cli` load only the core chain (errors, scalars, polys,
ratfuncs, game, pgf).  The leaf modules, approx, geometric, montecarlo,
verify and the golden values of reference, load when a command or an
attribute access first needs them.  The records are NamedTuples, not
dataclasses, which import `inspect` and generate their methods by `exec`.

pytest itself imports much of this, so each import is checked in a fresh
interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ballcell import verify
from ballcell.approx import ApproxReport, LimitEstimate
from ballcell.cli import _SUITES
from ballcell.game import TransitionRow
from ballcell.geometric import LimitingMoments
from ballcell.montecarlo import DurationLaw, GofBin, GofReport, RoundTrace, SimBatch
from ballcell.pgf import DurationPGF, MomentReport, ScaledMoment, SymbolicMomentReport

RECORDS = [
    TransitionRow,
    DurationPGF, ScaledMoment, MomentReport, SymbolicMomentReport,
    ApproxReport, LimitEstimate,
    LimitingMoments,
    RoundTrace, SimBatch, DurationLaw, GofBin, GofReport,
]

CORE = ["ballcell", "ballcell.errors", "ballcell.game", "ballcell.pgf", "ballcell.polys", "ballcell.ratfuncs",
        "ballcell.scalars"]
LEAVES = ["ballcell.approx", "ballcell.geometric", "ballcell.montecarlo", "ballcell.reference", "ballcell.verify"]

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

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
    ("pgf --cells 3 --balls 3 --expand 4", []),
    ("pgf --symbolic-n --balls 3 --format latex", []),
    ("moments --cells 3 --balls 3 --order 3", []),
    ("moments --symbolic-n --balls 3 --order 2", []),
    ("approx --cells 3 --balls 10", ["ballcell.approx"]),
    ("approx --cells 3 --limit --rmax 40", ["ballcell.approx"]),
    ("geo --alpha 1/2 --r 3", ["ballcell.geometric"]),
    ("simulate --balls 3 --cells 3 --trials 20 --seed 1 --gof", ["ballcell.montecarlo"]),
    ("verify --suite oracle --budget small", ["ballcell.verify"]),
    ("verify --suite paper --budget small", ["ballcell.reference", "ballcell.verify"]),
])
def test_each_command_loads_only_its_own_leaves(command, leaves):
    loaded = _fresh(f"from ballcell import cli\nassert cli.run({command.split()!r}) == 0\n" + LOADED)
    assert [m for m in loaded if m in LEAVES] == leaves


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
    # simulate_batch and simulate_game_verbose are wrapped by the tracer but
    # called by no handler.
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
    assert {name for name, count in calls.items() if count == 0} == {"simulate_batch", "simulate_game_verbose"}


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
