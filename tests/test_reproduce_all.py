"""The output contract of every experiment, run through scripts/reproduce_all.py."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
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


def _reproduce_in_subprocess(out: Path, env: dict, prelude: str, *prelude_args: str) -> None:
    """Run reproduce_all into ``out`` after ``prelude``, then check it against the goldens.

    Across kernels cells move by rounding, well inside the goldens' rtol; the
    annealer's accept decisions and so the sa-trace bytes must not move at all.
    """
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join([str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    script = str(_SCRIPTS / "reproduce_all.py")
    subprocess.run([sys.executable, "-c", prelude, *prelude_args, script, "--out", str(out)], env=env, check=True, capture_output=True)
    assert _load("compare_results").main([str(_GOLDEN), str(out), "--rtol", "1e-12"]) == 0
    trace = Path("sa-trace", "sa-trace.csv")
    assert (out / trace).read_bytes() == (_GOLDEN / trace).read_bytes()


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
    # At most 3.6e-15 relative measured on the AVX2 and baseline paths.
    targets = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    _reproduce_in_subprocess(tmp_path, {"NPY_DISABLE_CPU_FEATURES": targets}, _BASELINE_ONLY, targets)


# numpy's OpenBLAS also picks its kernels at run time, by CPU; this runs
# reproduce_all on its AVX2 (Haswell) kernels, and the subprocess first checks
# that OpenBLAS reports them.
_HASWELL_BLAS = """
import ctypes, glob, os, runpy, sys
import numpy
lib, = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
assert corename() == b"Haswell", corename()
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_default_csvs_hold_on_openblas_haswell_kernels(tmp_path):
    # On an AVX-512 host the Haswell kernels move sweep-yaw, sweep-pitch and
    # hybrid-compare cells by up to 4.2e-15 relative.
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas["name"] != "scipy-openblas" or not (__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")):
        pytest.skip(f"needs numpy's scipy-openblas on an AVX2 CPU, found {blas['name']}")
    _reproduce_in_subprocess(tmp_path, {"OPENBLAS_CORETYPE": "Haswell"}, _HASWELL_BLAS)
