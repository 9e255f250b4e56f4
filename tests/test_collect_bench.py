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


def bench_run(root: Path, seed: int, p50: float, workload: str = "grid-sweep", sha: str = SHA, rate: float = 10.0) -> Path:
    out = root / sha[:7] / f"run{seed}"
    (out / workload / "trace0").mkdir(parents=True)
    result = {
        "workload": workload,
        "seed": seed,
        "failed": 0,
        "attempted": 20,
        "end_to_end": {"unit_p50_s": [p50, "s"], "units_per_s": [rate, "1/s"], "peak_rss_mb": [70.0, "MB"]},
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


def bench_file(root: Path, sha: str, p50_by_seed: dict[int, float]) -> Path:
    """BENCH_<sha>.json of one grid-sweep run per seed, units_per_s = 1 / unit_p50_s."""
    runs = [bench_run(root, seed, p50, sha=sha, rate=1.0 / p50) for seed, p50 in p50_by_seed.items()]
    out = root / f"BENCH_{sha[:7]}.json"
    assert collect_bench.main([*map(str, runs), "--out", str(out)]) == 0
    return out


def compare_rows(tmp_path, parent: dict[int, float], change: dict[int, float]) -> dict[str, dict]:
    summaries = [json.loads(bench_file(tmp_path, sha, p50s).read_text()) for sha, p50s in ((SHA, parent), ("f" * 40, change))]
    better = {"unit_p50_s": "lower", "units_per_s": "higher", "peak_rss_mb": "lower"}
    return {row["metric"]: row for row in collect_bench.compare(*summaries, better)}


PARENT_P50 = {seed: 1.0 + 0.01 * (seed % 5) for seed in range(10)}  # median 1.02, IQR 0.02


@pytest.mark.parametrize(
    "change, wins, claim",
    [
        ({seed: p50 - 0.1 for seed, p50 in PARENT_P50.items()}, 10, True),
        ({seed: p50 - (0.1 if seed else -0.1) for seed, p50 in PARENT_P50.items()}, 9, True),
        ({seed: p50 - (0.1 if seed > 1 else -0.1) for seed, p50 in PARENT_P50.items()}, 8, False),
        ({seed: p50 - 0.01 for seed, p50 in PARENT_P50.items()}, 10, False),  # 10 wins, gain 0.01 < IQR 0.02
        ({seed: 1.0 for seed in range(3, 13)}, 6, False),  # 7 pairs by seed (3..9); seed 5's tie counts for neither
    ],
    ids=["all", "nine", "eight", "within-iqr", "seeds"],
)
def test_compare_applies_the_claim_rule_to_seed_matched_pairs(tmp_path, change, wins, claim):
    rows = compare_rows(tmp_path, PARENT_P50, change)
    pairs = len(PARENT_P50.keys() & change.keys())
    # units_per_s is higher-is-better and moves opposite to unit_p50_s, so it wins the same pairs
    for name in ("unit_p50_s", "units_per_s"):
        assert (rows[name]["pairs"], rows[name]["wins"]) == (pairs, wins), name
    assert rows["unit_p50_s"]["claim"] is claim
    assert rows["unit_p50_s"]["parent_median"] == 1.02 and rows["unit_p50_s"]["parent_iqr"] == pytest.approx(0.02)
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["claim"]) == (0, False)  # all ties


def test_compare_prints_every_metric_and_rejects_a_repeated_seed(tmp_path, capsys):
    parent = bench_file(tmp_path, SHA, PARENT_P50)
    change = bench_file(tmp_path, "f" * 40, {seed: p50 - 0.1 for seed, p50 in PARENT_P50.items()})
    capsys.readouterr()
    assert collect_bench.main(["--compare", str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[0].split()[:2] == ["workload", "metric"]
    p50 = next(line.split() for line in lines if "unit_p50_s" in line)
    assert p50[2:5] == ["10/10", "1.02", "0.92"] and p50[-2] == "yes"
    summary = json.loads(change.read_text())
    summary["workloads"]["grid-sweep"]["seeds"][1] = 0
    change.write_text(json.dumps(summary))
    assert collect_bench.main(["--compare", str(parent), str(change)]) == 1
    assert "seed" in capsys.readouterr().err
