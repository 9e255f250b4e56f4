"""scripts/unit_timing.py: in-process unit times of benchmark units, per checkout."""

import importlib.util
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("unit_timing", _ROOT / "scripts" / "unit_timing.py")
unit_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unit_timing)


def test_times_sir_lattice_units_of_this_checkout(capsys):
    assert unit_timing.main([str(_ROOT), "--workload", "sir-lattice", "--units", "3", "--rounds", "1"]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header.startswith("sir-lattice, seed 0: 3 units x 1 rounds")
    found = re.fullmatch(rf"{re.escape(str(_ROOT))}: min (\S+), p10 (\S+), median (\S+); round minimums (\S+)", line)
    assert found, line
    least, p10, median, round_min = map(float, found.groups())
    assert 0 < least <= p10 <= median and round_min == least


def test_rejects_an_unknown_workload(capsys):
    assert unit_timing.main([str(_ROOT), "--workload", "no-such"]) == 1
    assert "unknown workload no-such" in capsys.readouterr().err
