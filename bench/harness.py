"""The measurement loop: closed loop, one client, one unit after another.

``measure`` runs one workload in this process with ``workers=1``.  A warm-up
unit (unit 0, untimed) fills caches and finishes lazy imports; its CSVs are
kept to check that the timed repeat of unit 0 is byte-identical.  Untraced
units then run until the time is up.  With tracing on, the untraced phase
takes the first third of the time and gives the base of
``trace.overhead``; the traced phase restarts at unit 0 and takes the rest.

The host is shared with other tenants, which for stretches of seconds to
minutes slow every instruction of this process by up to a factor of two,
in CPU time as much as in wall time.  So a fixed probe that uses nothing
from oamlink runs before the first unit and after every unit, and each
unit's times are also reported scaled by ``PROBE_REF_S`` over the mean of
the two probes around it: the time the unit would take on a host where the
probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

import reference
import tracer as tracing
from workloads import SA_GRID_RESOLUTION, WORKLOADS, Checker, UnitOutput, config_text

# Counts are averaged over this many traced units (0..K-1), the same inputs
# in every run of a seed, so that they repeat exactly however many units fit.
COUNT_UNITS = 4
TAIL_BEYOND = 10
# Scale of the adjusted times: a round figure for the probe's time on a
# shared 2-vCPU VM with Python 3.11, numpy 2.4 and scipy 1.17, where its
# median over a 35 s run ranged from 6.8 ms to 12.1 ms with the load of
# other tenants.  The ratio between two commits does not depend on it.
PROBE_REF_S = 0.010
_PROBE_MATRIX = np.exp(1j * np.outer(np.arange(16), np.arange(16)) / 7.0)


def probe() -> float:
    """Seconds the host-speed probe takes now.

    The same mix of work as the workloads, at a fixed size: scalar Bessel
    calls, small complex matrix products and FFTs, and plain Python
    arithmetic.  It imports nothing from oamlink, so a change to the
    program cannot move it.
    """
    a = _PROBE_MATRIX
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += special.jv(i % 9, 0.1 + 0.01 * (i % 13))
        acc += float(np.abs(np.fft.fft((a @ a.conj().T)[0])).sum())
        acc += sum(j * 0.5 for j in range(30))
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("host-speed probe produced a non-finite sum")
    return seconds


@dataclass
class Unit:
    index: int
    seconds: float
    cpu_seconds: float
    problems: list[str] = field(default_factory=list)
    # Mean of the probes before and after the unit (PROBE_REF_S if unprobed).
    probe_seconds: float = PROBE_REF_S

    @property
    def host_scale(self) -> float:
        return PROBE_REF_S / self.probe_seconds


@dataclass
class Phase:
    units: list[Unit] = field(default_factory=list)

    @property
    def seconds(self) -> list[float]:
        return [u.seconds for u in self.units]

    @property
    def adjusted(self) -> list[float]:
        """Unit wall times at the reference host speed."""
        return [u.seconds * u.host_scale for u in self.units]

    @property
    def failed(self) -> int:
        return sum(1 for u in self.units if u.problems)


class Runner:
    """Writes a unit's config, calls ``cli.main`` per experiment, collects the outputs."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        from oamlink import cli
        from oamlink.experiments import ExperimentSpec, parse_config
        from oamlink.optimizer import grid_search_roll

        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = out_dir
        self.main = cli.main
        self.tracer: tracing.Tracer | None = None

        def grid_search(values):
            scenario = "".join(f"{k} = {v}\n" for k, v in values.items() if k.startswith("scenario."))
            spec = ExperimentSpec.resolve("sa-trace", parse_config(scenario))
            return grid_search_roll(spec.link(), SA_GRID_RESOLUTION)[1]

        self.checker = Checker(grid_search)
        self.deferred: list[tuple[Unit, Callable[[], list[str]]]] = []

    def config_path(self, index: int) -> Path:
        path = self.out_dir / "inputs" / f"unit-{index}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(config_text(self.workload.inputs(self.seed, index)))
        return path

    def run(self, index: int) -> tuple[Unit, UnitOutput]:
        cfg = str(self.config_path(index))
        out = self.out_dir / "outputs"
        codes = {}
        tr = self.tracer
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cpu0, t0 = time.process_time(), time.perf_counter()
            if tr is None:
                for exp in self.workload.experiments:
                    codes[exp] = self.main([exp, "--config", cfg, "--out", str(out / exp), "--workers", "1"])
            else:
                tr.unit = index
                unit_span = tr.open(tracing.UNIT_SPAN)
                for exp in self.workload.experiments:
                    span = tr.open(tracing.MAIN_SPAN)
                    codes[exp] = self.main([exp, "--config", cfg, "--out", str(out / exp), "--workers", "1"])
                    tr.close(span)
                tr.close(unit_span)
                tr.unit = -1
            t1, cpu1 = time.perf_counter(), time.process_time()
        unit = Unit(index, t1 - t0, cpu1 - cpu0)
        output = UnitOutput(index, {}, {})
        for exp, code in codes.items():
            if code != 0:
                unit.problems.append(f"{exp}: exit code {code}")
                continue
            output.csv[exp] = (out / exp / f"{exp}.csv").read_text()
            output.config[exp] = reference.parse_manifest((out / exp / "manifest.txt").read_text())
        if not unit.problems:
            try:
                unit.problems += self.workload.check(output, self.checker)
            except (KeyError, ValueError, IndexError) as exc:
                unit.problems.append(f"check could not read the output: {exc!r}")
        self.deferred += [(unit, check) for check in self.checker.deferred]
        self.checker.deferred.clear()
        return unit, output

    def finish_checks(self) -> None:
        for unit, check in self.deferred:
            unit.problems += check()
        self.deferred.clear()

    def loop(self, seconds: float, warm: UnitOutput, min_units: int = 1) -> Phase:
        """Run units 0, 1, ... until ``seconds`` have passed and ``min_units`` ran.

        The host-speed probe runs before the first unit and after each one.
        """
        phase = Phase()
        deadline = time.perf_counter() + seconds
        index = 0
        before = probe()
        while index < min_units or time.perf_counter() < deadline:
            unit, output = self.run(index)
            after = probe()
            unit.probe_seconds = (before + after) / 2
            before = after
            if index == 0 and output.csv != warm.csv:
                unit.problems.append("unit 0 CSV differs from the warm-up run of the same config")
            phase.units.append(unit)
            index += 1
        return phase


def tail(seconds: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND units above it, and how it was taken."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"maximum: only {n} units, fewer than {TAIL_BEYOND + 1}"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - 1 - TAIL_BEYOND], f"p{pct:.1f}: {TAIL_BEYOND + 1}th largest of {n} units"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; returns the result record (metrics, counts, failures)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, out_dir)
    warm_unit, warm = runner.run(0)
    untraced = runner.loop(seconds / 3 if trace else seconds, warm=warm)
    phases = [untraced]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
    if not trace:
        units = untraced.units
        n = len(units)
        times = untraced.adjusted
        value, how = tail(times)
        result["end_to_end"] = {
            "units_per_s": (n / sum(times), "1/s"),
            "unit_p50_s": (statistics.median(times), "s"),
            "unit_tail_s": (value, "s"),
            "cpu_s_per_unit": (sum(u.cpu_seconds * u.host_scale for u in units) / n, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        wall = untraced.seconds
        result["wall"] = {
            "units_per_s": n / sum(wall),
            "unit_p50_s": statistics.median(wall),
            "unit_tail_s": tail(wall)[0],
            "cpu_s_per_unit": sum(u.cpu_seconds for u in units) / n,
        }
        result["tail"] = how
        result["unit_seconds"] = wall
        result["probe_seconds"] = [u.probe_seconds for u in units]
    else:
        tr = tracing.Tracer()
        runner.tracer = tr
        restore = tracing.install(tr)
        try:
            traced = runner.loop(seconds - seconds / 3, warm=warm, min_units=COUNT_UNITS)
        finally:
            restore()
            runner.tracer = None
        phases.append(traced)
        tr.save(out_dir / "spans.npz")
        result["per_layer"], result["shares"] = layer_metrics(tr, traced, untraced)
    runner.finish_checks()
    # The warm-up is a unit like the others, so it counts as attempted.
    phases.insert(0, Phase([warm_unit]))
    result.update(
        attempted=sum(len(p.units) for p in phases),
        failed=sum(p.failed for p in phases),
        units=len(untraced.units),
        problems=[f"unit {u.index}: {p}" for ph in phases for u in ph.units for p in u.problems][:20],
    )
    return result


def layer_metrics(tr: tracing.Tracer, traced: Phase, untraced: Phase) -> tuple[dict, dict]:
    """Per-layer metrics: counts over units 0..COUNT_UNITS-1, self times over all traced units."""
    n = len(traced.units)
    count_units = range(COUNT_UNITS)
    calls, _ = tracing.span_totals(tr, count_units)
    _, own = tracing.span_totals(tr, range(n))
    metrics = {}
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / COUNT_UNITS, "count")
        metrics[f"{name}.self_s"] = (own.get(name, 0.0) / n, "s")

    def counted(counter, units=count_units):
        return sum(tr.counters.get((counter, u), 0.0) for u in units)

    for counter, unit in (
        ("channel.entries_built", "count"),
        ("channel.bytes_computed", "B"),
        ("optimizer.objective_evals", "count"),
        ("optimizer.profile_angles", "count"),
        ("servo.steps", "count"),
        ("experiments.csv_bytes", "B"),
    ):
        metrics[counter] = (counted(counter) / COUNT_UNITS, unit)
    evals = counted("optimizer.sa_evals")
    metrics["optimizer.accept_ratio"] = (counted("optimizer.sa_accepted") / evals if evals else 0.0, "ratio")
    unit_seconds = sum(traced.seconds)
    shares = {
        key.split(".", 1)[1]: counted(key, range(n)) / unit_seconds
        for key in sorted({k for k, _ in tr.counters if k.startswith("experiment_s.")})
    }
    metrics["experiments.roll_profile.share"] = (shares.get("roll-profile", 0.0), "ratio")
    overhead = statistics.median(traced.adjusted) / statistics.median(untraced.adjusted)
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics, shares
