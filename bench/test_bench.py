"""Tests of the benchmark itself: inputs, tracer arithmetic, count repeatability, checks.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
from oamlink import metrics  # noqa: E402
from oamlink.experiments import ExperimentSpec, parse_config  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


def _sizes(spec: ExperimentSpec) -> tuple:
    return (
        len(spec.sweep_grid_deg()),
        len(spec.snr_grid_db()),
        spec["roll.count"],
        spec["monotonicity.count"],
        spec.sa_params().outer_iterations * spec["sa.inner_iters"],
        spec["scenario.n_subcarriers"],
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_give_different_inputs_of_the_same_size(name):
    workload = WORKLOADS[name]
    a, b = workload.inputs(1, 0), workload.inputs(2, 0)
    assert a != b
    assert a.keys() == b.keys()
    assert workload.inputs(1, 0) == a
    for exp in workload.experiments:
        spec_a = ExperimentSpec.resolve(exp, parse_config(config_text(a)))
        spec_b = ExperimentSpec.resolve(exp, parse_config(config_text(b)))
        assert spec_a.values != spec_b.values
        assert _sizes(spec_a) == _sizes(spec_b)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    outer = tr.open("outer")  # 0 .. 10
    a = tr.open("a")  # 1 .. 2
    tr.close(a)
    b = tr.open("b")  # 4 .. 8
    c = tr.open("c")  # 5 .. 6
    tr.close(c)
    tr.close(b)
    tr.close(outer)
    arrays = tr.arrays()
    own = tracing.self_times(arrays["start"], arrays["end"], arrays["parent"])
    assert own.tolist() == [10.0 - 1.0 - 4.0, 1.0, 4.0 - 1.0, 1.0]
    calls, seconds = tracing.span_totals(tr, [-1])
    assert calls == {"outer": 1, "a": 1, "b": 1, "c": 1}
    assert seconds["outer"] == 5.0 and seconds["b"] == 3.0


def test_tail_keeps_ten_units_above_it():
    times = [float(i) for i in range(1, 41)]
    value, how = harness.tail(times)
    assert value == 30.0
    assert sum(t > value for t in times) == 10
    assert how.startswith("p75.0")
    assert harness.tail([3.0, 1.0])[0] == 3.0


def test_adjusted_times_scale_by_host_speed():
    ref = harness.PROBE_REF_S
    phase = harness.Phase([
        harness.Unit(0, 1.0, 0.9, probe_seconds=ref),
        harness.Unit(1, 2.0, 1.8, probe_seconds=2 * ref),
        harness.Unit(2, 0.5, 0.5, probe_seconds=ref / 2),
    ])
    assert phase.adjusted == [1.0, 1.0, 1.0]
    assert phase.seconds == [1.0, 2.0, 0.5]
    assert harness.Unit(3, 1.5, 1.5).host_scale == 1.0


def _counts(per_layer: dict) -> dict:
    timed = (".self_s", "trace.overhead", "roll_profile.share")
    return {k: v for k, (v, _) in per_layer.items() if not k.endswith(timed)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    original = metrics.sinr
    first = harness.measure(name, 7, 0.1, True, tmp_path / "a")
    second = harness.measure(name, 7, 0.1, True, tmp_path / "b")
    assert first["failed"] == second["failed"] == 0, first["problems"] + second["problems"]
    assert set(first["per_layer"]) == {
        f"{n}.{kind}" for n in tracing.TRACED for kind in ("calls", "self_s")
    } | {
        "channel.entries_built",
        "channel.bytes_computed",
        "optimizer.objective_evals",
        "optimizer.profile_angles",
        "optimizer.accept_ratio",
        "servo.steps",
        "experiments.csv_bytes",
        "experiments.roll_profile.share",
        "trace.overhead",
    }
    assert _counts(first["per_layer"]) == _counts(second["per_layer"])
    assert first["per_layer"]["experiments.run.calls"][0] == len(WORKLOADS[name].experiments)
    assert metrics.sinr is original  # the tracer restored the package


@pytest.fixture(scope="module")
def unit_outputs(tmp_path_factory):
    """One checked unit of each workload, with its checker."""
    outputs = {}
    for name in WORKLOADS:
        runner = harness.Runner(name, 3, tmp_path_factory.mktemp(name))
        unit, output = runner.run(0)
        runner.finish_checks()
        assert unit.problems == []
        outputs[name] = (output, runner.checker)
    return outputs


def _tamper(output, experiment: str, column: str, row: int, factor: float):
    lines = output.csv[experiment].splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(float(cells[j]) * factor)
    lines[row + 1] = ",".join(cells)
    output.csv[experiment] = "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "name, experiment, column, row, factor",
    [
        ("grid-sweep", "roll-profile", "capacity_bps_hz", None, 1.0 + 1e-8),
        ("grid-sweep", "sweep-yaw", "capacity_bps_hz", None, 1.0 + 1e-8),
        ("hybrid-anneal", "hybrid-compare", "capacity_bps_hz", 1, 1.5),
        ("hybrid-anneal", "sa-trace", "best_capacity_bps_hz", -1, 0.999),
        ("sir-lattice", "monotonicity", "sir_linear", 3, 1.5),
    ],
)
def test_checks_reject_tampered_output(unit_outputs, name, experiment, column, row, factor):
    output, checker = unit_outputs[name]
    tampered = harness.UnitOutput(output.index, dict(output.csv), output.config)
    n_rows = len(output.rows(experiment))
    rows = range(n_rows) if row is None else [row % n_rows]
    for r in rows:
        _tamper(tampered, experiment, column, r, factor)
    problems = WORKLOADS[name].check(tampered, checker)
    problems += [p for check in checker.deferred for p in check()]
    checker.deferred.clear()
    assert problems
