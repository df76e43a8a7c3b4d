"""What `import ballcell.cli` costs, and the report records that keep it
small.

Every command pays the import first, so the package leaves out what it
does not need: the records are NamedTuples, not dataclasses (which import
`inspect` and generate their methods by `exec`), and the golden values of
`ballcell.reference` load only when a verify suite reads them.
"""

import subprocess
import sys

import pytest

from ballcell.approx import ApproxReport, LimitEstimate
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


def test_cli_import_leaves_out_dataclasses_and_the_goldens():
    # pytest itself imports dataclasses and inspect, so the import is
    # checked in a fresh interpreter.
    code = (
        "import sys\n"
        "from ballcell import cli\n"
        "unwanted = ('dataclasses', 'inspect', 'ballcell.reference')\n"
        "print(sorted(m for m in unwanted if m in sys.modules))\n"
        "code = cli.run(['verify', '--suite', 'paper', '--budget', 'small'])\n"
        "print(code, 'ballcell.reference' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[0] == "[]"
    assert out.stdout.splitlines()[-1] == "0 True"


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_are_immutable(record):
    value = record(*range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
