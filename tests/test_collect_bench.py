"""scripts/collect_bench.py: benchmark result.json files merged into BENCH_<sha>.json."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "collect_bench.py"
_spec = importlib.util.spec_from_file_location("collect_bench", _SCRIPT)
collect_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(collect_bench)

SHA = "0123456789abcdef0123456789abcdef01234567"


def bench_run(root: Path, seed: int, p50: float, workload: str = "grid-sweep", sha: str = SHA) -> Path:
    out = root / f"run{seed}"
    (out / workload / "trace0").mkdir(parents=True)
    result = {
        "workload": workload,
        "seed": seed,
        "failed": 0,
        "attempted": 20,
        "end_to_end": {"unit_p50_s": [p50, "s"], "peak_rss_mb": [70.0, "MB"]},
        "environment": {"git_sha": sha, "nproc": 2, "python": "3.11", "numpy": "2", "scipy": "1"},
    }
    (out / workload / "trace0" / "result.json").write_text(json.dumps(result))
    return out


def test_medians_and_quartiles_over_runs(tmp_path):
    runs = [bench_run(tmp_path, seed, p50) for seed, p50 in enumerate([0.4, 0.1, 0.3, 0.2, 0.5])]
    runs.append(bench_run(tmp_path, 9, 1.0, workload="sir-lattice"))
    out = tmp_path / "bench.json"
    assert collect_bench.main([*map(str, runs), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["git_sha"] == SHA and summary["nproc"] == 2
    grid = summary["workloads"]["grid-sweep"]
    assert grid["runs"] == 5 and grid["seeds"] == [0, 1, 2, 3, 4] and grid["attempted"] == 100
    p50 = grid["metrics"]["unit_p50_s"]
    assert (p50["median"], p50["q1"], p50["q3"], p50["unit"]) == (0.3, 0.2, 0.4, "s")
    single = summary["workloads"]["sir-lattice"]["metrics"]["unit_p50_s"]
    assert single["median"] == single["q1"] == single["q3"] == 1.0


def test_default_name_uses_short_sha(tmp_path, monkeypatch):
    run = bench_run(tmp_path, 0, 0.2)
    monkeypatch.chdir(tmp_path)
    assert collect_bench.main([str(run)]) == 0
    assert (tmp_path / f"BENCH_{SHA[:7]}.json").is_file()


@pytest.mark.parametrize("mixed", [False, True])
def test_rejects_empty_or_mixed_commits(tmp_path, mixed):
    runs = [tmp_path / "empty"]
    runs[0].mkdir()
    if mixed:
        runs = [bench_run(tmp_path, 0, 0.2), bench_run(tmp_path, 1, 0.2, sha="f" * 40)]
    assert collect_bench.main([*map(str, runs), "--out", str(tmp_path / "x.json")]) == 1
    assert not (tmp_path / "x.json").exists()
