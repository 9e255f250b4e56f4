"""The output contract of every experiment, run through scripts/reproduce_all.py."""

import csv
import importlib.util
from pathlib import Path

from oamlink.experiments import EXPERIMENT_NAMES

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Columns of integers and of text; every other column holds floats.
INTEGER_COLUMNS = {"mode", "outer_iter", "accepted", "n_elements", "p_data"}
TEXT_COLUMNS = {"axis", "scheme"}


def test_every_csv_cell_round_trips_and_manifests_count_rows(tmp_path):
    _load("reproduce_all").main(["--out", str(tmp_path)])
    for name in EXPERIMENT_NAMES:
        with open(tmp_path / name / f"{name}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and all(len(row) == len(header) for row in rows), name
        # Floats are Python's shortest round-trip repr, integers plain decimal.
        for column, cells in zip(header, zip(*rows)):
            if column in INTEGER_COLUMNS:
                assert all(str(int(c)) == c for c in cells), (name, column)
            elif column not in TEXT_COLUMNS:
                assert all(repr(float(c)) == c for c in cells), (name, column)
        manifest = (tmp_path / name / "manifest.txt").read_text()
        assert f"# rows = {len(rows)}\n" in manifest, name
    out = str(tmp_path)
    assert _load("compare_results").main([out, out, "--rtol", "0"]) == 0
