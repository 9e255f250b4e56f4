"""scripts/compare_results.py: CSV-by-CSV comparison of two results trees."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_results.py"
_spec = importlib.util.spec_from_file_location("compare_results", _SCRIPT)
compare_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_results)

GOLDEN = "axis,mode,sir_linear\nyaw,-4,1.25\npitch,0,inf\n"


def tree(root: Path, text: str, name: str = "monotonicity.csv") -> Path:
    (root / "run").mkdir(parents=True)
    (root / "run" / name).write_text(text)
    (root / "run" / "manifest.txt").write_text(f"# wall_time_s = {len(str(root))}\n")
    return root


@pytest.mark.parametrize(
    "text, code",
    [
        (GOLDEN, 0),
        ("axis,mode,sir_linear\nyaw,-4,1.2500000000001\npitch,0,inf\n", 0),  # within rtol
        ("axis,mode,sir_linear\nyaw,-4,1.2500001\npitch,0,inf\n", 1),  # beyond rtol
        ("axis,mode,sir_linear\nyaw,-4,1.25\npitch,0,-inf\n", 1),  # infinities differ
        ("axis,mode,sir_linear\nroll,-4,1.25\npitch,0,inf\n", 1),  # text cell
        ("axis,mode,sir\nyaw,-4,1.25\npitch,0,inf\n", 1),  # header
        ("axis,mode,sir_linear\nyaw,-4,1.25\n", 1),  # row count
    ],
)
def test_compare_results_exit_code(tmp_path, text, code):
    golden = tree(tmp_path / "golden", GOLDEN)
    new = tree(tmp_path / "new", text)
    assert compare_results.main([str(golden), str(new), "--rtol", "1e-12"]) == code


@pytest.mark.parametrize("rtol", ["-1", "nan", "inf"])
def test_compare_results_rejects_negative_or_non_finite_rtol(tmp_path, capsys, rtol):
    golden = tree(tmp_path / "golden", GOLDEN)
    new = tree(tmp_path / "new", "axis,mode,sir_linear\nyaw,-4,1.5\npitch,0,inf\n")
    with pytest.raises(SystemExit) as exited:
        compare_results.main([str(golden), str(new), "--rtol", rtol])
    assert exited.value.code == 2
    assert "--rtol must be non-negative and finite" in capsys.readouterr().err


def test_compare_results_missing_csv_is_a_mismatch(tmp_path):
    golden = tree(tmp_path / "golden", GOLDEN)
    new = tree(tmp_path / "new", GOLDEN, name="other.csv")
    assert compare_results.main([str(golden), str(new)]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert compare_results.main([str(empty), str(empty)]) == 1
