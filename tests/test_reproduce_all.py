"""The output contract of every experiment, run through scripts/reproduce_all.py."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from oamlink.experiments import EXPERIMENT_NAMES

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPTS = _ROOT / "scripts"
# The seven default CSVs as scripts/reproduce_all.py wrote them; a change that
# moves a figure on purpose regenerates its golden and says so in CHANGES.md.
_GOLDEN = Path(__file__).resolve().parent / "golden"


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
    # At rtol 1e-12 an integer cell below 10^12 (sa-trace's accept counts among
    # them) can only match itself, and text cells always compare exactly.
    assert _load("compare_results").main([str(_GOLDEN), str(tmp_path), "--rtol", "1e-12"]) == 0


# numpy picks its SIMD kernels at run time; this runs reproduce_all with every
# dispatch target above numpy's baseline that this CPU has turned off, and the
# subprocess first checks that they are off.
_BASELINE_ONLY = """
import runpy, sys
from numpy._core._multiarray_umath import __cpu_features__
assert not any(__cpu_features__[t] for t in sys.argv[1].split()), "dispatch targets still on"
sys.argv = sys.argv[2:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_default_csvs_hold_on_numpy_baseline_dispatch_path(tmp_path):
    # Across dispatch paths cells move by rounding (at most 3.6e-15 relative
    # measured), well inside the goldens' rtol; the annealer's accept decisions
    # and so the sa-trace bytes must not move at all.
    targets = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": targets,
        "PYTHONPATH": os.pathsep.join([str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
    }
    script = str(_SCRIPTS / "reproduce_all.py")
    subprocess.run(
        [sys.executable, "-c", _BASELINE_ONLY, targets, script, "--out", str(tmp_path)],
        env=env, check=True, capture_output=True,
    )
    assert _load("compare_results").main([str(_GOLDEN), str(tmp_path), "--rtol", "1e-12"]) == 0
    trace = Path("sa-trace", "sa-trace.csv")
    assert (tmp_path / trace).read_bytes() == (_GOLDEN / trace).read_bytes()
