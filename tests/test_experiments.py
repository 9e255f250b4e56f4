"""Config parsing, experiment runs, manifests and the CLI surface."""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oamlink import default_link, experiments
from oamlink.cli import main
from oamlink.experiments import (
    ConfigError,
    EXPERIMENT_NAMES,
    SCHEMA,
    ExperimentSpec,
    parse_config,
    run,
    serialize_config,
)


def read_rows(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def test_empty_config_gives_defaults():
    assert parse_config("") == {}
    spec = ExperimentSpec.resolve("hybrid-compare", {})
    assert spec["scenario.n_elements"] == 10
    assert spec["scenario.n_subcarriers"] == 8
    assert spec["servo.accuracy_deg"] == 0.3


def test_angle_sweeps_default_to_six_subcarriers():
    assert ExperimentSpec.resolve("sweep-yaw")["scenario.n_subcarriers"] == 6
    assert ExperimentSpec.resolve("roll-profile")["scenario.n_subcarriers"] == 6
    override = ExperimentSpec.resolve("sweep-yaw", {"scenario.n_subcarriers": 4})
    assert override["scenario.n_subcarriers"] == 4


def test_parse_config_comments_and_values():
    text = """
    # a comment
    scenario.n_elements = 12   # trailing comment
    sa.cooling = 0.8
    pose.gamma_deg = -12.5
    """
    parsed = parse_config(text)
    assert parsed == {"scenario.n_elements": 12, "sa.cooling": 0.8, "pose.gamma_deg": -12.5}


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2.*scenario.n_antennas"):
        parse_config("\nscenario.n_antennas = 4\n")


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("scenario.n_elements 10")


def test_parse_config_bad_value_type():
    with pytest.raises(ConfigError, match="scenario.n_elements"):
        parse_config("scenario.n_elements = ten")


def test_parse_config_domain_error_names_key():
    with pytest.raises(ConfigError, match="scenario.n_elements"):
        parse_config("scenario.n_elements = 0")
    with pytest.raises(ConfigError, match="pose.gamma_deg"):
        parse_config("pose.gamma_deg = 95.0")


def test_mode_count_exceeding_elements_rejected():
    with pytest.raises(ConfigError):
        ExperimentSpec.resolve("sweep-yaw", {"scenario.n_elements": 6})  # 9 modes > 6


def test_serialize_parse_round_trip():
    spec = ExperimentSpec.resolve("sweep-yaw")
    text = serialize_config(spec)
    spec2 = ExperimentSpec.resolve("sweep-yaw", parse_config(text))
    assert spec2.values == spec.values
    assert serialize_config(spec2) == text


def test_config_experiment_name_mismatch():
    with pytest.raises(ConfigError, match="requested"):
        ExperimentSpec.resolve("sweep-yaw", {"experiment.name": "complexity"})


FAST_SWEEP = {
    "sweep.count": 5,
    "sweep.stop_deg": 60.0,
    "snr.step_db": 10.0,
}


def test_sweep_yaw_outputs_and_determinism(tmp_path):
    spec = ExperimentSpec.resolve("sweep-yaw", dict(FAST_SWEEP))
    csv1, manifest1 = run(spec, tmp_path / "a")
    csv2, _ = run(spec, tmp_path / "b")
    assert csv1.read_bytes() == csv2.read_bytes()
    header, rows = read_rows(csv1)
    assert header == ["angle_deg", "snr_db", "scheme", "capacity_bps_hz"]
    assert len(rows) == 5 * 4 * 3
    assert {r[2] for r in rows} == {"aligned", "none", "electronic"}
    for row in rows:
        assert math.isfinite(float(row[3]))


def test_manifest_reruns_byte_identical(tmp_path):
    spec = ExperimentSpec.resolve("sa-trace", {"sa.seed": 5})
    csv1, manifest = run(spec, tmp_path / "a")
    overrides = parse_config(manifest.read_text())
    spec2 = ExperimentSpec.resolve(overrides["experiment.name"], overrides)
    csv2, _ = run(spec2, tmp_path / "b")
    assert csv1.read_bytes() == csv2.read_bytes()


def _dispatch_targets(manifest: Path) -> list[str]:
    """The SIMD targets a manifest's numpy line names, after checking the line's form."""
    line = manifest.read_text().splitlines()[2]
    head, _, targets = line.partition(", SIMD targets on: ")
    assert head == f"# numpy {np.__version__}", line
    return [] if targets == "none" else targets.split()


def test_manifest_records_numpy_dispatch_targets(tmp_path):
    # The CSV bytes hold on one numpy build and dispatch path, so the manifest
    # names both, in a comment: its config lines still parse back to the spec.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    spec = ExperimentSpec.resolve("complexity", SMALL["complexity"])
    _, manifest = run(spec, tmp_path / "all")
    on = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    assert _dispatch_targets(manifest) == on
    assert ExperimentSpec.resolve("complexity", parse_config(manifest.read_text())) == spec
    # With the targets above the lowest one on also turned off, the line names none of them.
    cfg = tmp_path / "small.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in SMALL["complexity"].items()))
    disabled = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *on[1:]]).strip()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=str(Path(experiments.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "oamlink.cli", "complexity", "--config", str(cfg), "--out", str(tmp_path / "fewer")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert _dispatch_targets(tmp_path / "fewer" / "manifest.txt") == on[:1]


def test_run_rejects_columns_of_unequal_length(tmp_path, monkeypatch):
    spec = ExperimentSpec.resolve("complexity", SMALL["complexity"])
    earlier = {path.name: path.read_bytes() for path in run(spec, tmp_path / "earlier")}
    monkeypatch.setitem(experiments._RUNNERS, "complexity", lambda spec: {"a": np.arange(2), "b": np.ones(3)})
    with pytest.raises(ValueError, match="column 'b' has 3 rows"):
        run(spec, tmp_path / "empty")
    assert list((tmp_path / "empty").iterdir()) == []
    # Rerun into the earlier run's directory: its CSV and manifest stay as they were.
    with pytest.raises(ValueError, match="column 'b' has 3 rows"):
        run(spec, tmp_path / "earlier")
    assert {path.name: path.read_bytes() for path in (tmp_path / "earlier").iterdir()} == earlier


# Small configs of every experiment, for tests that run each one.
SMALL = {
    "sweep-yaw": FAST_SWEEP,
    "sweep-pitch": FAST_SWEEP,
    "roll-profile": {"roll.count": 9},
    "hybrid-compare": {"snr.step_db": 10.0},
    "sa-trace": {"sa.cooling": 0.5},
    "monotonicity": {"monotonicity.count": 3},
    "complexity": {"complexity.n_max": 10, "complexity.p_max": 6},
}


@pytest.mark.parametrize("lines_per_write", [experiments._LINES_PER_WRITE, 4])
@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_csv_bytes_match_csv_writer(tmp_path, monkeypatch, name, lines_per_write):
    # Oracle: the standard library's writer on the runner's own columns, cells
    # formatted as documented (float repr, integer decimal, text as it is).
    monkeypatch.setattr(experiments, "_LINES_PER_WRITE", lines_per_write)
    spec = ExperimentSpec.resolve(name, SMALL[name])
    columns = experiments._RUNNERS[name](spec)
    cells = [
        col if isinstance(col, list) else [repr(v) if col.dtype.kind == "f" else str(v) for v in col.tolist()]
        for col in columns.values()
    ]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    path, _ = run(spec, tmp_path)
    assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize(
    "columns, named",
    [
        ({"a": np.arange(2), "b": ["x", "y,z"]}, "'b'"),
        ({"a": np.arange(2), "b": ['say "hi"', "x"]}, "'b'"),
        ({"a": np.arange(2), "b": ["x", "two\nlines"]}, "'b'"),
        ({"a": np.arange(2), "b": ["x\r", "y"]}, "'b'"),
        ({"a,b": np.arange(2)}, "'a,b'"),
        ({"a": ["x", "y"], 'c"d': np.ones(2)}, "'c\"d'"),
    ],
)
def test_run_refuses_cells_that_need_quoting(tmp_path, monkeypatch, columns, named):
    spec = ExperimentSpec.resolve("complexity")
    monkeypatch.setitem(experiments._RUNNERS, "complexity", lambda spec: columns)
    with pytest.raises(ValueError, match=f"column {named}.*quoting"):
        run(spec, tmp_path)
    assert list(tmp_path.iterdir()) == []


def writer_bytes(columns) -> bytes:
    """The bytes csv.writer writes for the columns: header, then rows; floats as repr, CRLF line ends."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(zip(*(col if isinstance(col, list) else col.tolist() for col in columns.values())))
    return expected.getvalue().encode()


def test_csv_formats_repeated_and_special_values_as_csv_writer(tmp_path, monkeypatch):
    # run() formats each distinct value once, told apart by bit pattern: -0.0
    # keeps its sign next to 0.0, and nan and +-inf repeat among other values.
    columns = {
        "x": np.array([0.1, -0.0, 0.0, 0.1, math.nan, math.inf, -math.inf, -0.0, 1e-300, math.nan, 0.1]),
        "unique": np.array([0.1, -0.0, 0.0, 0.2, math.nan, math.inf, -math.inf, 1.0, 1e-300, 2.0, 1 / 3]),
        "n": np.array([3, -1, 3, 0, 0, 2**62, 3, -1, 7, 7, 0]),
        "label": ["yaw", "pitch", "yaw", "yaw", "a", "b", "a", "yaw", "c", "c", "yaw"],
    }
    spec = ExperimentSpec.resolve("complexity")
    monkeypatch.setitem(experiments._RUNNERS, "complexity", lambda spec: columns)
    path, _ = run(spec, tmp_path)
    assert path.read_bytes() == writer_bytes(columns)
    assert path.read_text().splitlines()[2:4] == ["-0.0,-0.0,-1,pitch", "0.0,0.0,3,yaw"]


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_default_csv_bytes_match_csv_writer(tmp_path, monkeypatch, name):
    # Every default runner's columns, written by run() and by the standard library.
    spec = ExperimentSpec.resolve(name)
    columns = experiments._RUNNERS[name](spec)
    monkeypatch.setitem(experiments._RUNNERS, name, lambda spec: columns)
    path, _ = run(spec, tmp_path)
    assert path.read_bytes() == writer_bytes(columns)


def test_monotonicity_evaluates_bessel_functions_once(monkeypatch):
    # Both tilt axes and every chunk of angles share one jv call.
    import scipy.special

    from oamlink.metrics import SIR_CHUNK

    calls = []
    jv = scipy.special.jv
    monkeypatch.setattr(scipy.special, "jv", lambda *args: calls.append(args) or jv(*args))
    spec = ExperimentSpec.resolve("monotonicity", {"monotonicity.count": 2 * SIR_CHUNK + 1})
    experiments._run_monotonicity(spec)
    assert len(calls) == 1


def test_rerun_into_same_directory_replaces_outputs(tmp_path):
    long = ExperimentSpec.resolve("monotonicity", {"monotonicity.count": 5})
    short = ExperimentSpec.resolve("monotonicity", {"monotonicity.count": 2})
    run(long, tmp_path / "reused")
    csv_reused, manifest_reused = run(short, tmp_path / "reused")
    csv_fresh, manifest_fresh = run(short, tmp_path / "fresh")
    assert csv_reused.read_bytes() == csv_fresh.read_bytes()
    assert parse_config(manifest_reused.read_text()) == parse_config(manifest_fresh.read_text())
    assert sorted(p.name for p in (tmp_path / "reused").iterdir()) == ["manifest.txt", "monotonicity.csv"]


def test_seed_override_changes_trace(tmp_path):
    c1, _ = run(ExperimentSpec.resolve("sa-trace", {"sa.seed": 1}), tmp_path / "a")
    c2, _ = run(ExperimentSpec.resolve("sa-trace", {"sa.seed": 2}), tmp_path / "b")
    c3, _ = run(ExperimentSpec.resolve("sa-trace", {"sa.seed": 1}), tmp_path / "c")
    assert c1.read_bytes() == c3.read_bytes()
    assert c1.read_bytes() != c2.read_bytes()


def test_hybrid_compare_ordering(tmp_path):
    spec = ExperimentSpec.resolve("hybrid-compare", {"snr.step_db": 10.0})
    path, _ = run(spec, tmp_path)
    header, rows = read_rows(path)
    caps = {}
    for angle, snr, scheme, cap in rows:
        caps[(float(angle), float(snr), scheme)] = float(cap)
    angles = sorted({a for a, _, _ in caps})
    snrs = sorted({s for _, s, _ in caps})
    for a in angles:
        for s in snrs:
            assert caps[(a, s, "hybrid")] >= caps[(a, s, "electronic")] - 1e-9
    # no misalignment to correct: hybrid meets the roll-matched reference
    # exactly, while electronic-only (which never rolls) sits below it by
    # the interferometry roll gain
    for s in snrs:
        assert abs(caps[(0.0, s, "hybrid")] - caps[(0.0, s, "perfect")]) < 1e-6
        assert caps[(0.0, s, "hybrid")] > caps[(0.0, s, "electronic")]


@pytest.mark.parametrize("pose_deg", [60.0, 36.0])
def test_hybrid_compare_zero_residual_ties_exactly(tmp_path, pose_deg):
    # Where the servo grid holds the pose exactly (angle 0, and the multiples
    # of its 0.3 degree step such as 30 and 60), the residual is 0, the E1/E2
    # weights are exactly 1 + 0j and hybrid must equal perfect bit for bit:
    # the benchmark asserts hybrid <= perfect with no tolerance.
    from oamlink.servo import ServoConfig, execute_rotation

    overrides = {"pose.gamma_deg": pose_deg, "pose.psi_deg": pose_deg, "snr.step_db": 5.0}
    path, _ = run(ExperimentSpec.resolve("hybrid-compare", overrides), tmp_path)
    caps = {(angle, snr, scheme): cap for angle, snr, scheme, cap in read_rows(path)[1]}
    ties = 0
    for angle, snr, scheme in list(caps):
        if scheme != "hybrid":
            continue
        target = math.radians(float(angle))
        if target - execute_rotation(target, ServoConfig())[0] == 0.0:
            ties += 1
            assert caps[(angle, snr, "hybrid")] == caps[(angle, snr, "perfect")]
    assert ties >= 3 * 7  # at least three angles, every SNR


def test_sweep_capacity_declines_with_angle(tmp_path):
    # pinned regression: electronic-only capacity is nonincreasing in the
    # tilt up to 80 degrees within 0.01 bits (small low-SNR ripple near
    # alignment measured at 5.7e-3; a grazing-angle revival appears past 80)
    spec = ExperimentSpec.resolve(
        "sweep-yaw", {"sweep.count": 17, "sweep.stop_deg": 80.0, "snr.step_db": 6.0}
    )
    path, _ = run(spec, tmp_path)
    _, rows = read_rows(path)
    series: dict = {}
    for angle, snr, scheme, cap in rows:
        if scheme == "electronic":
            series.setdefault(float(snr), []).append((float(angle), float(cap)))
    for snr, pts in series.items():
        caps = [c for _, c in sorted(pts)]
        increases = np.diff(caps)
        assert increases.max() < 1e-2, f"snr {snr}"
        assert caps[-1] < 0.05 * caps[0]


def test_roll_profile_cycles(tmp_path):
    spec = ExperimentSpec.resolve("roll-profile", {"roll.count": 2001})
    path, _ = run(spec, tmp_path)
    _, rows = read_rows(path)
    caps = np.array([float(r[2]) for r in rows])
    thetas = np.array([float(r[1]) for r in rows])
    period = 2 * math.pi / 10
    # shift by one period on the uniform grid: 2001 points over 2*pi -> 200 steps
    steps = round(period / (thetas[1] - thetas[0]))
    assert np.abs(caps[steps:] - caps[:-steps]).max() < 1e-9


def test_sa_trace_columns(tmp_path):
    spec = ExperimentSpec.resolve("sa-trace")
    path, _ = run(spec, tmp_path)
    header, rows = read_rows(path)
    assert header == ["outer_iter", "temperature", "best_theta_rad", "best_capacity_bps_hz", "accepted"]
    best = [float(r[3]) for r in rows]
    assert all(b >= a for a, b in zip(best, best[1:]))
    assert len(rows) == 110


def test_monotonicity_experiment(tmp_path):
    spec = ExperimentSpec.resolve("monotonicity", {"monotonicity.count": 12})
    path, _ = run(spec, tmp_path)
    header, rows = read_rows(path)
    assert header == ["axis", "mode", "angle_deg", "sir_linear", "sir_asymptotic"]
    assert len(rows) == 2 * 9 * 12
    for axis in ("yaw", "pitch"):
        for mode in range(-4, 5):
            vals = [float(r[3]) for r in rows if r[0] == axis and int(r[1]) == mode]
            assert all(b < a for a, b in zip(vals, vals[1:]))


def test_complexity_experiment(tmp_path):
    spec = ExperimentSpec.resolve("complexity")
    path, _ = run(spec, tmp_path)
    _, rows = read_rows(path)
    assert len(rows) == 25 * 13
    ratios = [float(r[4]) for r in rows]
    assert min(ratios) >= 1.009 and max(ratios) <= 1.026


def test_cli_success_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["complexity", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert (out / "complexity.csv").exists()
    assert (out / "manifest.txt").exists()
    assert str(out / "complexity.csv") in printed
    assert main(["complexity", "--out", str(out), "--workers", "4"]) == 0  # accepted and ignored

    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.n_elements = 0\n")
    assert main(["complexity", "--config", str(bad), "--out", str(out)]) == 1
    assert main(["complexity", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]) == 1
    assert main(["complexity", "--out", str(out), "--seed", "-1"]) == 1

    ro = tmp_path / "blocked"
    ro.write_text("not a directory")
    assert main(["complexity", "--out", str(ro)]) == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sweep-yaw", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["sweep-yaw", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["no-such-experiment"], "argument experiment: invalid choice: 'no-such-experiment'"),
    ],
)
def test_cli_bad_command_line_exits_1_naming_argument(capsys, argv, named):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: oamlink")
    assert f"config error: {named}" in err


def test_cli_config_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"sweep.count = 3\n\xff\xfe\n")
    assert main(["sweep-yaw", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err, err
    assert not (tmp_path / "out").exists()


def test_cli_module_run_warns_once_naming_no_package_line(tmp_path):
    # Under python -m oamlink.cli the CLI module's __name__ is __main__; the
    # far-field warning must still walk past it, so resolve and run share one line.
    cfg = tmp_path / "near.cfg"
    cfg.write_text("scenario.range_wavelengths = 20\nroll.count = 73\n")
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "oamlink.cli", "roll-profile", "--config", str(cfg), "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sum("far-field" in line for line in done.stderr.splitlines()) == 1, done.stderr
    assert "oamlink/cli.py" not in done.stderr, done.stderr


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["sa-trace", "--help"]):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: oamlink")


def test_cli_parser_reuse_carries_no_state(tmp_path):
    # The parser is built once per process; a --seed given to one call must
    # not reach the next, which runs at the config's own seed.
    cfg = tmp_path / "trace.cfg"
    cfg.write_text("sa.seed = 3\nsa.cooling = 0.5\n")
    assert main(["sa-trace", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "seeded")]) == 0
    assert main(["sa-trace", "--config", str(cfg), "--out", str(tmp_path / "after")]) == 0
    own, _ = run(ExperimentSpec.resolve("sa-trace", parse_config(cfg.read_text())), tmp_path / "own")
    after = (tmp_path / "after" / "sa-trace.csv").read_bytes()
    assert after == own.read_bytes()
    assert after != (tmp_path / "seeded" / "sa-trace.csv").read_bytes()


@pytest.mark.parametrize(
    "name, n_subcarriers",
    [("sweep-yaw", 6), ("sweep-pitch", 6), ("roll-profile", 6), ("hybrid-compare", 8), ("sa-trace", 8),
     ("monotonicity", 8), ("complexity", 8)],
)
def test_default_config_resolves_to_the_reference_link(name, n_subcarriers):
    # SCHEMA's scenario.* defaults and default_link's signature both state the
    # reference link: a default moved on one side only fails here
    assert ExperimentSpec.resolve(name).link() == default_link(n_subcarriers=n_subcarriers)


@pytest.mark.parametrize("key", [key for key in SCHEMA if key.startswith("scenario.")])
def test_every_scenario_key_changes_the_link(key):
    base = ExperimentSpec.resolve("sa-trace")
    value = base[key]
    moved = value + 1 if isinstance(value, int) else 1.01 * value + 0.5
    assert ExperimentSpec.resolve("sa-trace", {key: moved}).link() != base.link()


@pytest.mark.parametrize("key", [key for key in SCHEMA if key.startswith("scenario.")])
def test_every_scenario_key_changes_the_roll_profile(tmp_path, key):
    # the roll model reads the whole link: no scenario key may leave its CSV as it was
    base = ExperimentSpec.resolve("roll-profile", {"roll.count": 73})
    value = base[key]
    moved = value + 1 if isinstance(value, int) else 1.01 * value + 0.5
    before, _ = run(base, tmp_path / "base")
    after, _ = run(ExperimentSpec.resolve("roll-profile", {"roll.count": 73, key: moved}), tmp_path / "moved")
    assert after.read_bytes() != before.read_bytes()


@pytest.mark.parametrize("key", [key for key in SCHEMA if key.startswith("servo.")])
def test_every_servo_key_moves_the_servo(key):
    from oamlink.servo import execute_rotation

    base = ExperimentSpec.resolve("sa-trace").servo_config()
    moved = ExperimentSpec.resolve("sa-trace", {key: 1.01 * SCHEMA[key][0]}).servo_config()
    targets = np.radians(np.linspace(-80.0, 80.0, 33))
    assert moved.reachable_range != base.reachable_range or any(
        execute_rotation(t, moved) != execute_rotation(t, base) for t in targets
    )


def test_all_experiment_names_have_runners():
    for name in EXPERIMENT_NAMES:
        assert ExperimentSpec.resolve(name).name == name


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("sweep-yaw", "snr.step_db", "0"),
        ("sweep-yaw", "snr.step_db", "-1"),
        ("sweep-yaw", "snr.start_db", "40"),
        ("sweep-yaw", "snr.step_db", "1e-9"),
        ("sa-trace", "sa.cooling", "1.5"),
        ("sa-trace", "sa.cooling", "0.999999999"),
        ("sa-trace", "sa.t_init", "1e308\nsa.t_min = 1e-308"),
        ("hybrid-compare", "servo.accuracy_deg", "0"),
        ("hybrid-compare", "servo.pulse_mid_s", "0.0019"),
        ("hybrid-compare", "servo.pulse_mid_s", "0.00195\npose.gamma_deg = 0\npose.psi_deg = 0"),  # roll
        ("hybrid-compare", "servo.accuracy_deg", "100"),  # 60 degrees rounds to 100, out of reach
        ("hybrid-compare", "pose.aoa_error_gamma_deg", "1e300"),
        ("hybrid-compare", "scenario.n_elements", "1\nscenario.mode_min = 0\nscenario.mode_max = 0"),  # roll +-pi
        ("sweep-yaw", "scenario.rx_initial_angle_deg", "1e17"),  # every element at one angle
        ("roll-profile", "roll.start_deg", "-1e17"),
        ("sweep-pitch", "sweep.start_deg", "nan"),
        ("roll-profile", "roll.start_deg", "inf"),
        ("roll-profile", "roll.start_deg", "-1e308\nroll.stop_deg = 1e308"),
        ("sweep-yaw", "snr.stop_db", "4000"),
        ("sweep-yaw", "snr.start_db", "-4000"),
        ("monotonicity", "monotonicity.s_coupling", "nan"),
        ("monotonicity", "monotonicity.s_coupling", "-1"),
        ("monotonicity", "monotonicity.s_coupling", "1e6"),
        ("monotonicity", "monotonicity.stop_deg", "inf"),
        ("complexity", "complexity.p_coarse", "10"),
        ("complexity", "complexity.n_min", "40"),
        ("sweep-yaw", "sweep.count", "10000000"),  # (A, P, U, U) channels: 72 GiB
        ("sweep-pitch", "sweep.count", "10001"),
        ("roll-profile", "roll.count", "100000000"),  # minutes in bounded memory
        ("roll-profile", "roll.count", "100001"),
        ("monotonicity", "monotonicity.count", "10000000"),  # (2A, 21) jv arrays: 3.1 GiB
        ("monotonicity", "monotonicity.count", "1001"),
        ("sa-trace", "sa.seed", "-1"),  # numpy's default_rng exited 2
        ("complexity", "complexity.theta_star_deg", "1e308"),  # inf costs
        ("complexity", "servo.accuracy_deg", "1e-320"),  # inf costs
        ("hybrid-compare", "servo.accuracy_deg", "1e-320"),  # OverflowError in the servo dry run
        ("sweep-yaw", "sweep.count", "10000\nsnr.step_db = 0.004"),  # 7 501 SNR points: 2.25e8 rows
        ("sweep-yaw", "sweep.count", "10000\nscenario.n_subcarriers = 64"),  # 5.2e7 channel entries
        ("sweep-yaw", "scenario.n_subcarriers", "1000000\nsweep.count = 10"),  # 1.49 GiB channel tensor
        ("sweep-yaw", "scenario.n_elements", "1001\nscenario.mode_min = -500\nscenario.mode_max = 500"),
        ("complexity", "complexity.p_fine", str(10**103)),  # exited 2: int too large to convert to float
        ("complexity", "complexity.n_max", "100000"),
        ("complexity", "complexity.n_max", "10000\ncomplexity.p_max = 10000"),  # 10^8 CSV rows
        ("roll-profile", "scenario.freq_start_hz", "1.7e308"),  # band starts above its stop
        ("roll-profile", "scenario.freq_start_hz", "4e9\nscenario.freq_stop_hz = 4e9"),  # 8 equal subcarriers
        ("roll-profile", "scenario.freq_stop_hz", "4e9\nscenario.freq_start_hz = 4e9"),
        ("roll-profile", "scenario.freq_start_hz", "4.98e-272"),  # overflowing coupling
        ("roll-profile", "scenario.range_wavelengths", "5e-324"),  # range underflows to 0 m
        ("roll-profile", "scenario.radius_tx_wavelengths", "5e-324"),
        ("roll-profile", "scenario.mode_min", "-6"),  # 11 modes on 10 elements
    ],
)
def test_cli_out_of_domain_value_exits_1_naming_key(tmp_path, capsys, experiment, key, value):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(f"{key} = {value}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["scenario.mode_max = 5", "scenario.n_elements = 9"])
def test_cli_monotonicity_outside_the_closed_form_exits_1_naming_keys(tmp_path, capsys, line):
    # asymptotic_sir holds for even N with no mode at N/2 (mod N); with mode 5
    # at N = 10, sir_linear / sir_asymptotic reached 32.4 at 89 degrees yaw.
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(line + "\n")
    assert main(["monotonicity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert all(key in err for key in ("scenario.n_elements", "scenario.mode_min", "scenario.mode_max")), err
    assert not (tmp_path / "out").exists()


def test_cli_residual_past_90_degrees_exits_1_naming_the_aoa_error(tmp_path, capsys):
    # The servo, its range now [-150, 30] degrees, reaches the first pose's yaw
    # command of -100 degrees; the residual of 100 degrees leaves the pose domain.
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("servo.pulse_mid_s = 0.0018333\npose.aoa_error_gamma_deg = -100\n")
    assert main(["hybrid-compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "pose.aoa_error_gamma_deg" in err and "|angle| < pi/2" in err, err
    assert not (tmp_path / "out").exists()


def test_cli_servo_error_gives_the_target_in_degrees(tmp_path, capsys):
    # A 1.95 ms mid pulse moves the servo's range to [-171, 9] degrees, so the end
    # pi/N = 18 degrees of the annealer's roll interval is out of reach.  The keys
    # are in degrees, and so is the target the message names.
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("servo.pulse_mid_s = 0.00195\npose.gamma_deg = 0\npose.psi_deg = 0\n")
    assert main(["hybrid-compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert all(key in err for key in ("scenario.n_elements", "servo.pulse_mid_s")), err
    assert "(18 degrees)" in err and "([-171, 9] degrees)" in err, err
    assert not (tmp_path / "out").exists()


def test_cli_overflowing_coupling_exits_1_without_runtime_warning(tmp_path, capsys):
    # A band from 4.98e-272 Hz to the default stop makes the upper subcarriers'
    # coupling k_p R_r R_t / r overflow; the link check reports it as a config error.
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("scenario.freq_start_hz = 4.98e-272\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["roll-profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "coupling" in capsys.readouterr().err


def test_snr_grid_length_checked_before_allocating():
    # 3e7 points would take 240 MB; the count is checked from start, stop and step
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="snr.step_db"):
            ExperimentSpec.resolve("sweep-yaw", {"snr.step_db": 1e-6})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# Numeric keys the cheap experiments read, by prefix.  Every resolve also
# builds the link, grids, annealer and servo, so all of these reach it.
FUZZ_PREFIXES = {
    "roll-profile": ("scenario.", "roll."),
    "monotonicity": ("scenario.", "monotonicity."),
    "complexity": ("scenario.", "complexity.", "sa.", "pose.", "servo."),
}
# Integer ranges keep one example to milliseconds; floats range over every double.
FUZZ_INT_RANGES = {
    "scenario.n_elements": (-1, 12),
    "scenario.n_subcarriers": (-1, 4),
    "roll.count": (-1, 50),
    "monotonicity.count": (-1, 8),
}


def _fuzz_value(key):
    default, typ, _ = SCHEMA[key]
    if typ is int:
        return st.integers(*FUZZ_INT_RANGES.get(key, (-2, 40)))
    near = 2.0 * abs(default) + 1.0
    return st.floats() | st.floats(-near, near)


# The fuzz draws near-field links on purpose; only their far-field warning is expected.
@pytest.mark.filterwarnings("ignore:range below 10x the summed radii:UserWarning")
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_config_fuzz_exits_0_or_1_without_nan(tmp_path_factory, data):
    experiment = data.draw(st.sampled_from(sorted(FUZZ_PREFIXES)))
    keys = [k for k, (_, typ, _) in SCHEMA.items() if typ is not str and k.startswith(FUZZ_PREFIXES[experiment])]
    chosen = data.draw(st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=6))
    values = {key: data.draw(_fuzz_value(key), label=key) for key in chosen}
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "fuzz.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    code = main([experiment, "--config", str(cfg), "--out", str(tmp / "out")])
    assert code in (0, 1)
    if code == 0:
        _, rows = read_rows(tmp / "out" / f"{experiment}.csv")
        assert rows
        assert not any(cell.lower() == "nan" for row in rows for cell in row)
