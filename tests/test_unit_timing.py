"""scripts/unit_timing.py: in-process unit times of benchmark units, per checkout."""

import importlib.util
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("unit_timing", _ROOT / "scripts" / "unit_timing.py")
unit_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unit_timing)


def test_times_sir_lattice_units_of_this_checkout(capsys):
    # The checkout twice: two interpreters per round, and their ratio line.
    assert unit_timing.main([str(_ROOT), str(_ROOT), "--workload", "sir-lattice", "--units", "3", "--rounds", "2"]) == 0
    header, first, second, ratio_line = capsys.readouterr().out.splitlines()
    assert header.startswith("sir-lattice, seed 0: 3 units x 2 rounds")
    round_minimums = []
    for line in (first, second):
        found = re.fullmatch(
            rf"{re.escape(str(_ROOT))}: min (\S+), p10 (\S+), median (\S+); round minimums (\S+) (\S+)", line
        )
        assert found, line
        least, p10, median, *mins = map(float, found.groups())
        assert 0 < least <= p10 <= median and least == min(mins)
        round_minimums.append(mins)
    root = re.escape(str(_ROOT))
    found = re.fullmatch(
        rf"{root} / {root}: round-minimum ratios (\S+) (\S+); median (\S+), range (\S+) to (\S+)", ratio_line
    )
    assert found, ratio_line
    *ratios, median, low, high = map(float, found.groups())
    # The ratios of the printed round minimums, to the printed digits: each
    # minimum is rounded to 0.0005 ms and each ratio to 0.00005.
    for ratio, a, b in zip(ratios, *round_minimums):
        assert ratio == pytest.approx(b / a, abs=(0.0005 / a + 0.0005 / b) * b / a + 5e-5)
    assert low == min(ratios) and high == max(ratios) and low <= median <= high


def test_rejects_an_unknown_workload(capsys):
    assert unit_timing.main([str(_ROOT), "--workload", "no-such"]) == 1
    assert "unknown workload no-such" in capsys.readouterr().err
