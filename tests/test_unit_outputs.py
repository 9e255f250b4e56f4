"""scripts/unit_outputs.py: a benchmark unit's outputs, written where two checkouts can be compared."""

import importlib.util
from pathlib import Path

import pytest

from oamlink.experiments import ExperimentSpec, parse_config, run

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unit_outputs.py"
_spec = importlib.util.spec_from_file_location("unit_outputs", _SCRIPT)
unit_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unit_outputs)


def test_sir_lattice_unit_matches_a_run_of_its_config(tmp_path):
    assert unit_outputs.main([str(tmp_path / "tree"), "--units", "8:222", "--workload", "sir-lattice"]) == 0
    unit = tmp_path / "tree" / "sir-lattice" / "8-222"
    assert sorted(p.name for p in unit.iterdir()) == ["monotonicity", "unit.cfg"]
    assert sorted(p.name for p in (unit / "monotonicity").iterdir()) == ["manifest.txt", "monotonicity.csv"]
    values = parse_config((unit / "unit.cfg").read_text())
    assert values["monotonicity.count"] == 12  # the workload's fixed grid length
    csv_path, _ = run(ExperimentSpec.resolve("monotonicity", values), tmp_path / "direct")
    assert (unit / "monotonicity" / "monotonicity.csv").read_bytes() == csv_path.read_bytes()


def test_rejects_an_unknown_workload_and_a_malformed_unit(tmp_path, capsys):
    assert unit_outputs.main([str(tmp_path), "--units", "1:2", "--workload", "no-such"]) == 1
    assert "unknown workload no-such" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:
        unit_outputs.main([str(tmp_path), "--units", "12"])
    assert exited.value.code == 2
    assert "expected SEED:UNIT" in capsys.readouterr().err
