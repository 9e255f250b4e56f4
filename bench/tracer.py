"""In-memory span tracer that times calls into oamlink's public functions.

The tracer sits outside the package: ``install`` replaces each traced
function (and every module-level binding of it made by ``from .x import
y``) with a wrapper that records one span per call, and the returned undo
function puts the originals back.  Spans live in compact arrays (name,
start, end, parent, unit id) until the run ends; self time is computed
afterwards as a span's duration minus the durations of its direct
children, which never overlap because the benchmark is single-threaded.

Hooks attached to some functions turn return values into work counters
(channel entries built, objective evaluations, servo steps, CSV bytes).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

UNIT_SPAN = "unit"
MAIN_SPAN = "cli.main"


class Tracer:
    """Span recorder; ``unit`` tags every span opened while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.unit_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.unit = -1
        self.counters: dict[tuple[str, int], float] = defaultdict(float)

    def _name(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit_id.append(self.unit)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> float:
        """End span ``idx`` (the innermost open one); returns its duration."""
        self.end[idx] = self.clock()
        self._stack.pop()
        return self.end[idx] - self.start[idx]

    def caller(self) -> str | None:
        """Name of the innermost open span, i.e. the caller of a closed one."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def count(self, counter: str, value: float) -> None:
        self.counters[(counter, self.unit)] += value

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording a span per call; ``hook(tracer, args, kwargs, result, seconds)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, result, seconds)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "unit": np.array(self.unit_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span duration minus the summed durations of its direct children."""
    duration = end - start
    covered = np.bincount(parent + 1, weights=duration, minlength=len(duration) + 1)[1:]
    return duration - covered


def span_totals(tracer: Tracer, units) -> tuple[dict[str, int], dict[str, float]]:
    """(calls, self seconds) per span name, summed over spans of ``units``."""
    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    keep = np.isin(a["unit"], np.fromiter(units, dtype=np.int32))
    n_names = len(tracer.names)
    calls = np.bincount(a["name_id"][keep], minlength=n_names)
    seconds = np.bincount(a["name_id"][keep], weights=own[keep], minlength=n_names)
    return (
        {name: int(calls[i]) for i, name in enumerate(tracer.names)},
        {name: float(seconds[i]) for i, name in enumerate(tracer.names)},
    )


def _channel_built(tracer, args, kwargs, result, seconds):
    tracer.count("channel.entries_built", result.entries.size)
    tracer.count("channel.bytes_computed", result.entries.nbytes)


def _profile(tracer, args, kwargs, result, seconds):
    # capacity_objective evaluates one angle through capacity_profile; only
    # calls from elsewhere are the batched use.
    if tracer.caller() != "optimizer.capacity_objective":
        tracer.count("optimizer.profile_angles", len(result))


def _objective(tracer, args, kwargs, result, seconds):
    tracer.count("optimizer.objective_evals", 1)
    if tracer.caller() == "optimizer.optimize_roll":
        tracer.count("optimizer.sa_evals", 1)


def _annealed(tracer, args, kwargs, result, seconds):
    tracer.count("optimizer.sa_accepted", sum(result[1].accepted_counts))


def _servo(tracer, args, kwargs, result, seconds):
    tracer.count("servo.steps", result[1])


def _experiment(tracer, args, kwargs, result, seconds):
    tracer.count("experiments.csv_bytes", os.path.getsize(result[0]))
    tracer.count(f"experiment_s.{args[0].name}", seconds)  # cli.main passes the spec first


# (span name, module, attribute, hook).  geometry has no public function on
# the hot path: channel._distance_grid calls only geometry._stage_angles, so
# geometry time is part of channel.channel_matrix's self time.
LAYERS = (
    ("config.default_link", "config", "default_link", None),
    ("config.wavenumber", "config", "LinkConfig.wavenumber", None),
    ("config.eta", "config", "LinkConfig.eta", None),
    ("config.coupling", "config", "LinkConfig.coupling", None),
    ("channel.channel_matrix", "channel", "channel_matrix", _channel_built),
    ("channel.channel_matrices", "channel", "channel_matrices", None),
    ("channel.oam_effective", "channel", "oam_effective", None),
    ("channel.partial_dft", "channel", "partial_dft", None),
    ("steering.phases_eo", "steering", "phases_eo", None),
    ("steering.phases_e1", "steering", "phases_e1", None),
    ("steering.phases_e2", "steering", "phases_e2", None),
    ("steering.mechanical_pitch_yaw", "steering", "mechanical_pitch_yaw", None),
    ("steering.mechanical_roll", "steering", "mechanical_roll", None),
    ("metrics.capacity", "metrics", "capacity", None),
    ("metrics.sinr", "metrics", "sinr", None),
    ("metrics.steered_sir", "metrics", "steered_sir", None),
    ("metrics.steered_mode_entry", "metrics", "steered_mode_entry", None),
    ("metrics.asymptotic_sir", "metrics", "asymptotic_sir", None),
    ("optimizer.optimize_roll", "optimizer", "optimize_roll", _annealed),
    ("optimizer.capacity_objective", "optimizer", "capacity_objective", _objective),
    ("optimizer.capacity_profile", "optimizer", "capacity_profile", _profile),
    ("servo.execute_rotation", "servo", "execute_rotation", _servo),
    ("pipeline.hybrid_pipeline", "pipeline", "hybrid_pipeline", None),
    ("experiments.run", "experiments", "run", _experiment),
)

TRACED = (MAIN_SPAN,) + tuple(name for name, *_ in LAYERS)


def install(tracer: Tracer, package: str = "oamlink"):
    """Wrap every function in LAYERS; returns a function that undoes it."""
    modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
    undo = []
    for name, module, attr, hook in LAYERS:
        owner = sys.modules[f"{package}.{module}"]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        wrapped = tracer.wrap(name, original, hook)
        bindings = [(owner, leaf)] + [
            (m, key) for m in modules for key, value in vars(m).items() if value is original
        ]
        for obj, key in dict.fromkeys(bindings):
            setattr(obj, key, wrapped)
            undo.append((obj, key, original))

    def restore():
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)

    return restore
