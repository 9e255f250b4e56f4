"""Experiment harness: key-value configs, named runs, CSV results, manifests.

Configs are flat ``key = value`` text with dotted namespaces and ``#``
comments; unknown keys are hard errors.  The ``scenario.*`` defaults are
the reference link of ``config.default_link`` (described in the ``config``
module docstring), with the angle-sweep and roll-profile runs defaulting to
6 subcarriers as in the corresponding workbench plots.  A run writes one CSV
plus a ``manifest.txt`` that is itself a valid config resolving to the exact
same run: re-running a manifest reproduces the CSV byte for byte on the same
numpy build and SIMD dispatch path, which a comment line of the manifest
names.  numpy picks its SIMD kernels at run time, and on another path
(``NPY_DISABLE_CPU_FEATURES``) float cells may move by rounding: at most
3.6e-15 relative was measured, and the annealer's decisions held.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import mode_channels
from .config import LinkConfig, default_link
from .geometry import Pose
from .metrics import AXES, asymptotic_sir, capacity, check_closed_form_domain, steered_sir
from .optimizer import SaParams, capacity_profile, optimize_roll
from .pipeline import align_pitch_yaw, hybrid_pipeline
from .servo import ServoConfig, execute_rotation
from .steering import phases_eo
from .complexity import ComplexityParams, cost_electronic, cost_hybrid

EXPERIMENT_NAMES = (
    "sweep-yaw",
    "sweep-pitch",
    "roll-profile",
    "hybrid-compare",
    "sa-trace",
    "monotonicity",
    "complexity",
)


class ConfigError(ValueError):
    """Invalid experiment configuration (parse failure or out-of-domain value)."""


# The values a key accepts: test(value) holds; description completes "must be ...".
_Domain = namedtuple("_Domain", "test description")


def _count(most: int) -> _Domain:
    return _Domain(lambda v: 1 <= v <= most, f"an integer in [1, {most}]")


# Every numeric domain is finite; the comparisons below also hold for Python ints
# too large for a float, where math.isfinite would raise.
_ANY = _Domain(lambda v: -math.inf < v < math.inf, "finite")
_POSITIVE = _Domain(lambda v: 0 < v < math.inf, "positive and finite")
_TILT = _Domain(lambda v: abs(v) < 90.0, "an angle with |angle| < 90 degrees")
# Keeps 10^(dB/10) finite and non-zero; capacity itself reads 0.0 below about
# -170 dB (ROADMAP item 11).
_SNR = _Domain(lambda v: abs(v) <= 1000.0, "a level with |dB| <= 1000")
# The steered-SIR Bessel lattice takes the orders |q| <= q_max of its tail bound from
# one jv call for both axes at q = 0..q_max: q_max = 10 at S = 0.01 and 168 at S = 100
# (N = 10).  A run at the count bound below takes 1.5-1.7 s at S = 100 and 0.85-0.88 s
# at S = 0.01.  The experiment studies small coupling (the reference link's is 5.6).
_COUPLING = _Domain(lambda v: 0 < v <= 100.0, "a coupling in (0, 100]")
# Elements N and subcarriers P: mode_channels holds POSE_CHUNK = 8 poses of P N^2
# complex entries per temporary, 34 MB at 64 and 64.  The paper has N <= 32, P = 8.
_LINK_SIZE = _count(64)
# Modes fold modulo N, so larger indices add nothing; the bound keeps
# range(mode_min, mode_max + 1) small before LinkConfig counts its modes.
_MODE = _Domain(lambda v: abs(v) <= 64, "a mode index with |mode| <= 64")
# Grid points per run.  The largest arrays: the sweeps' (A, P, U, U) complex
# channels (7.8 KB per angle at 6 subcarriers, 9 modes: 78 MB at the bound),
# the roll profile's grid, capacities and CSV columns (0.75 s and 47 MB per 10^5 angles, 0.4 s of it the CSV)
# and the monotonicity run's (V, A, U) closed-form terms (its Bessel lattice is built 64 rows at a
# time): 1000 angles with 63 modes (N = 64) peak at 150 MB RSS in 0.85-0.88 s at S = 0.01, and at
# 147 MB in 1.5-1.7 s at S = 100 (cold CLI, shared 2-core Intel Xeon).
_SWEEP_COUNT, _ROLL_COUNT, _MONOTONICITY_COUNT = _count(10_000), _count(100_000), _count(1_000)
# Complexity-model counts: the estimation grids enter cubed, so p^3 u^3 <= 10^24,
# and the steering term is P U N^2 <= 6.4e13 (U is the link's at most 64 modes),
# all finite doubles (p_fine = 10^103 overflowed the float conversion).  The
# paper's sweep stops at N = 32, P = 16.
_COMPLEXITY_COUNT = _count(10_000)
# numpy's default_rng takes non-negative seeds only.
_SEED = _Domain(lambda v: v >= 0, "a non-negative integer")
# Servo steps and the complexity terms divide angles below 2 pi rad by nu; nu >=
# 1e-300 degrees (1.7e-302 rad) keeps angle / nu below 4e302, a finite double.
_ACCURACY = _Domain(lambda v: 1e-300 <= v < math.inf, "an accuracy in [1e-300, inf) degrees")
# Element and roll angles enter sin/cos as angle + 2 pi j / N, which far beyond a
# turn loses the element offsets (at 1e17 degrees every element got one angle);
# every angle equals one within a turn.
_ANGLE = _Domain(lambda v: abs(v) <= 360.0, "an angle with |angle| <= 360 degrees")
# Every roll equals one within a half turn (the optimum lies within 180/N).
_HALF_TURN = _Domain(lambda v: abs(v) <= 180.0, "an angle with |angle| <= 180 degrees")
_NAME = _Domain(lambda v: v in EXPERIMENT_NAMES, f"one of {', '.join(EXPERIMENT_NAMES)}")

# key -> (default, type, domain); order fixes the serialization layout.
SCHEMA: dict[str, tuple] = {
    "experiment.name": ("", str, _NAME),
    "scenario.n_elements": (10, int, _LINK_SIZE),
    "scenario.n_subcarriers": (8, int, _LINK_SIZE),
    "scenario.freq_start_hz": (3.9982e9, float, _POSITIVE),
    "scenario.freq_stop_hz": (4.2387e9, float, _POSITIVE),
    "scenario.mode_min": (-4, int, _MODE),
    "scenario.mode_max": (4, int, _MODE),
    "scenario.radius_rx_wavelengths": (20.0, float, _POSITIVE),
    "scenario.radius_tx_wavelengths": (20.0, float, _POSITIVE),
    "scenario.range_wavelengths": (450.0, float, _POSITIVE),
    "scenario.rx_initial_angle_deg": (0.0, float, _ANGLE),
    "scenario.tx_initial_angle_deg": (0.0, float, _ANGLE),
    "scenario.snr_db": (20.0, float, _SNR),
    "pose.gamma_deg": (60.0, float, _TILT),
    "pose.psi_deg": (60.0, float, _TILT),
    "pose.aoa_error_gamma_deg": (0.0, float, _ANY),
    "pose.aoa_error_psi_deg": (0.0, float, _ANY),
    "snr.start_db": (0.0, float, _SNR),
    "snr.stop_db": (30.0, float, _SNR),
    "snr.step_db": (2.0, float, _POSITIVE),
    "sweep.start_deg": (0.0, float, _TILT),
    "sweep.stop_deg": (85.0, float, _TILT),
    "sweep.count": (18, int, _SWEEP_COUNT),
    "roll.start_deg": (-180.0, float, _ANGLE),
    "roll.stop_deg": (180.0, float, _ANGLE),
    "roll.count": (1441, int, _ROLL_COUNT),
    "sa.t_init": (100.0, float, _ANY),
    "sa.t_min": (1e-3, float, _ANY),
    "sa.cooling": (0.9, float, _ANY),
    "sa.inner_iters": (20, int, _POSITIVE),
    "sa.seed": (0, int, _SEED),
    "servo.pulse_min_s": (0.001, float, _ANY),
    "servo.pulse_mid_s": (0.0015, float, _ANY),
    "servo.pulse_max_s": (0.002, float, _ANY),
    "servo.accuracy_deg": (0.3, float, _ACCURACY),
    "monotonicity.s_coupling": (0.01, float, _COUPLING),
    "monotonicity.start_deg": (1.0, float, _TILT),
    "monotonicity.stop_deg": (89.0, float, _TILT),
    "monotonicity.count": (50, int, _MONOTONICITY_COUNT),
    "complexity.p_coarse": (4, int, _COMPLEXITY_COUNT),
    "complexity.u_coarse": (4, int, _COMPLEXITY_COUNT),
    "complexity.p_fine": (8, int, _COMPLEXITY_COUNT),
    "complexity.u_fine": (8, int, _COMPLEXITY_COUNT),
    "complexity.theta_star_deg": (10.0, float, _HALF_TURN),
    "complexity.n_min": (8, int, _COMPLEXITY_COUNT),
    "complexity.n_max": (32, int, _COMPLEXITY_COUNT),
    "complexity.p_min": (4, int, _COMPLEXITY_COUNT),
    "complexity.p_max": (16, int, _COMPLEXITY_COUNT),
}
_ORDERED_PAIRS = (
    ("scenario.freq_start_hz", "scenario.freq_stop_hz"),
    ("scenario.mode_min", "scenario.mode_max"),
    ("snr.start_db", "snr.stop_db"),
    ("sweep.start_deg", "sweep.stop_deg"),
    ("monotonicity.start_deg", "monotonicity.stop_deg"),
    ("complexity.p_coarse", "complexity.p_fine"),
    ("complexity.u_coarse", "complexity.u_fine"),
    ("complexity.n_min", "complexity.n_max"),
    ("complexity.p_min", "complexity.p_max"),
)

# Subcarrier counts for the plots that use the narrower grid.
_EXPERIMENT_OVERRIDES = {
    name: {"scenario.n_subcarriers": 6} for name in ("sweep-yaw", "sweep-pitch", "roll-profile")
}

# Annealer candidate evaluations per run (outer levels x inner iterations);
# the default schedule makes 2 200, at 8-13 us each on the default link and up
# to about 1 ms at N = P = U = 64 where the roll model sums the N elements.
_MAX_SA_EVALUATIONS = 100_000
# SNR points per run; the sweeps and hybrid-compare evaluate the capacity
# once per SNR, angle and scheme (16 points by default).
_MAX_SNR_POINTS = 10_000
# Sweep sizes: its CSV has 3 rows per (angle, SNR) point (10^4 angles at the default 16 SNR
# points took 2.2-2.9 s, 1.2 s of it the CSV, at a 116 MB peak RSS, 78 MB of it the 6-subcarrier
# channels); its channels are one complex (A, P, U, U) array (10^4 angles at
# 8 subcarriers and 9 modes: 6.5e6 entries, 104 MB).
_MAX_SWEEP_POINTS = 10_000 * 16
_MAX_SWEEP_ENTRIES = 10_000 * 8 * 9 * 9
# Rows of the complexity CSV, one per (N, P) grid point (325 by default): 10^5
# rows take 0.4 s, nearly all of it formatting the CSV.
_MAX_COMPLEXITY_ROWS = 100_000


def parse_config(text: str) -> dict:
    """Parse flat key-value config text into an overrides dict.

    Raises ConfigError with the line number on malformed lines and for
    unknown keys or out-of-domain values.
    """
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        _, typ, _ = SCHEMA[key]
        try:
            parsed = typ(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None
        overrides[key] = parsed
    _validate_domains(overrides)
    return overrides


def _validate_domains(values: dict) -> None:
    for key, (_, _, domain) in SCHEMA.items():
        if key in values and not domain.test(values[key]):
            raise ConfigError(f"key {key!r} must be {domain.description}, got {values[key]!r}")
    for lo, hi in _ORDERED_PAIRS:
        if lo in values and hi in values and values[lo] > values[hi]:
            raise ConfigError(f"keys {lo!r}, {hi!r} must satisfy {lo} <= {hi}")


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment with its fully resolved configuration."""

    name: str
    values: dict

    @classmethod
    def resolve(cls, name: str, overrides: dict | None = None) -> "ExperimentSpec":
        overrides = dict(overrides or {})
        cfg_name = overrides.pop("experiment.name", "")
        if cfg_name and cfg_name != name:
            raise ConfigError(
                f"config names experiment {cfg_name!r} but {name!r} was requested"
            )
        values = {key: default for key, (default, _, _) in SCHEMA.items()}
        values.update(_EXPERIMENT_OVERRIDES.get(name, {}))
        values.update(overrides)
        values["experiment.name"] = name
        _validate_domains(values)
        spec = cls(name, values)
        # Build every derived object now, so an out-of-domain value exits as
        # a config error naming its key instead of failing inside the run.
        link = spec.link()
        spec.sweep_grid_deg()  # and the SNR grid
        spec.roll_grid_deg()
        spec.monotonicity_grid_deg()
        spec.complexity_grid()
        spec.sa_params()
        servo = spec.servo_config()
        if name == "hybrid-compare":  # the servo stages of the run, on its own poses
            poses, aoa_error = spec.hybrid_poses()
            with _cited_keys(_F1_KEYS):
                align_pitch_yaw(poses, servo, aoa_error)
            with _cited_keys(_ROLL_KEYS):  # the annealer's theta* lies in [-pi/N, pi/N]
                for end in (-math.pi / link.n_elements, math.pi / link.n_elements):
                    execute_rotation(end, servo)
        if name == "monotonicity":
            with _cited_keys(("scenario.n_elements", "scenario.mode_min", "scenario.mode_max")):
                check_closed_form_domain(link.modes, link.n_elements)
        return spec

    def __getitem__(self, key: str):
        return self.values[key]

    def link(self) -> LinkConfig:
        with _cited_keys(_LINK_KEYS):
            return default_link(
                n_elements=self["scenario.n_elements"],
                n_subcarriers=self["scenario.n_subcarriers"],
                modes=tuple(range(self["scenario.mode_min"], self["scenario.mode_max"] + 1)),
                radius_rx_wavelengths=self["scenario.radius_rx_wavelengths"],
                radius_tx_wavelengths=self["scenario.radius_tx_wavelengths"],
                range_wavelengths=self["scenario.range_wavelengths"],
                snr_db=self["scenario.snr_db"],
                rx_initial_angle=math.radians(self["scenario.rx_initial_angle_deg"]),
                tx_initial_angle=math.radians(self["scenario.tx_initial_angle_deg"]),
                freq_start_hz=self["scenario.freq_start_hz"],
                freq_stop_hz=self["scenario.freq_stop_hz"],
            )

    def sa_params(self) -> SaParams:
        fields = {field: self[key] for field, key in _SA_KEYS.items()}
        with _cited_keys(_SA_KEYS):
            sa = SaParams(**fields, rng_seed=self["sa.seed"])
        evaluations = sa.outer_iterations * sa.inner_iters
        if evaluations > _MAX_SA_EVALUATIONS:
            raise ConfigError(
                "keys 'sa.t_init', 'sa.t_min', 'sa.cooling', 'sa.inner_iters': the schedule makes"
                f" {evaluations} objective evaluations, more than {_MAX_SA_EVALUATIONS}"
            )
        return sa

    def servo_config(self) -> ServoConfig:
        fields = {field: self[key] for field, key in _SERVO_KEYS.items()}
        fields["accuracy_nu"] = math.radians(fields["accuracy_nu"])
        with _cited_keys(_SERVO_KEYS):
            return ServoConfig(**fields)

    def hybrid_grid_deg(self) -> np.ndarray:
        """Equal yaw and pitch swept together from alignment up to the config pose."""
        return np.linspace(0.0, max(self["pose.gamma_deg"], self["pose.psi_deg"]), 7)

    def hybrid_poses(self) -> tuple[list[Pose], tuple[float, float]]:
        """The poses of the hybrid grid and the (yaw, pitch) arrival-angle error [rad] F1 adds to them."""
        aoa_error = (math.radians(self["pose.aoa_error_gamma_deg"]), math.radians(self["pose.aoa_error_psi_deg"]))
        return [Pose(a, a) for a in np.radians(self.hybrid_grid_deg())], aoa_error

    def snr_grid_db(self) -> np.ndarray:
        start, stop, step = self["snr.start_db"], self["snr.stop_db"] + 1e-9, self["snr.step_db"]
        # np.arange's length is ceil((stop - start) / step); check it before allocating.
        if not (stop - start) / step <= _MAX_SNR_POINTS:
            raise ConfigError(
                f"key 'snr.step_db': {self['snr.step_db']!r} makes more than {_MAX_SNR_POINTS}"
                " points between 'snr.start_db' and 'snr.stop_db'"
            )
        return np.arange(start, stop, step)

    def sweep_grid_deg(self) -> np.ndarray:
        count, modes = self["sweep.count"], self["scenario.mode_max"] - self["scenario.mode_min"] + 1
        if count * len(self.snr_grid_db()) > _MAX_SWEEP_POINTS:
            raise ConfigError(f"keys 'sweep.count', 'snr.step_db': more than {_MAX_SWEEP_POINTS} (angle, SNR) points")
        if count * self["scenario.n_subcarriers"] * modes**2 > _MAX_SWEEP_ENTRIES:
            raise ConfigError(
                f"keys 'sweep.count', 'scenario.n_subcarriers', 'scenario.mode_min', 'scenario.mode_max':"
                f" the sweep's channels have more than {_MAX_SWEEP_ENTRIES} entries"
            )
        return np.linspace(self["sweep.start_deg"], self["sweep.stop_deg"], count)

    def roll_grid_deg(self) -> np.ndarray:
        return np.linspace(self["roll.start_deg"], self["roll.stop_deg"], self["roll.count"])

    def monotonicity_grid_deg(self) -> np.ndarray:
        return np.linspace(self["monotonicity.start_deg"], self["monotonicity.stop_deg"], self["monotonicity.count"])

    def complexity_grid(self) -> tuple[range, range]:
        """Element counts N and subcarrier counts P of the complexity sweep."""
        ns = range(self["complexity.n_min"], self["complexity.n_max"] + 1)
        ps = range(self["complexity.p_min"], self["complexity.p_max"] + 1)
        if len(ns) * len(ps) > _MAX_COMPLEXITY_ROWS:
            raise ConfigError(
                "keys 'complexity.n_min', 'complexity.n_max', 'complexity.p_min', 'complexity.p_max':"
                f" the (N, P) grid has more than {_MAX_COMPLEXITY_ROWS} points"
            )
        return ns, ps


# A word of each message of default_link's checks -> the scenario keys that set what it
# checks.  Lengths are in first-carrier wavelengths, so freq_start_hz scales all of them.
_LINK_KEYS = {
    "frequencies": ("scenario.freq_start_hz", "scenario.freq_stop_hz", "scenario.n_subcarriers"),
    "modes": ("scenario.mode_min", "scenario.mode_max", "scenario.n_elements"),
    "finite": ("scenario.freq_start_hz", "scenario.freq_stop_hz", "scenario.radius_rx_wavelengths",
               "scenario.radius_tx_wavelengths", "scenario.range_wavelengths"),
    "range": ("scenario.freq_start_hz", "scenario.range_wavelengths"),
    "radius": ("scenario.freq_start_hz", "scenario.radius_rx_wavelengths", "scenario.radius_tx_wavelengths"),
}
# Field of SaParams / ServoConfig -> the config key that sets it.
_SA_KEYS = {
    "t_init": "sa.t_init",
    "t_min": "sa.t_min",
    "cooling": "sa.cooling",
    "inner_iters": "sa.inner_iters",
}
_SERVO_KEYS = {
    "pulse_min": "servo.pulse_min_s",
    "pulse_mid": "servo.pulse_mid_s",
    "pulse_max": "servo.pulse_max_s",
    "accuracy_nu": "servo.accuracy_deg",
}
# The keys that set each servo stage hybrid-compare runs: F1 turns yaw and pitch to
# the poses plus their arrival-angle error, F2 rolls within [-pi/N, pi/N].
_F1_KEYS = ("pose.gamma_deg", "pose.psi_deg", "pose.aoa_error_gamma_deg", "pose.aoa_error_psi_deg", *_SERVO_KEYS.values())
_ROLL_KEYS = ("scenario.n_elements", *_SERVO_KEYS.values())


@contextmanager
def _cited_keys(keys: tuple[str, ...] | dict[str, str | tuple[str, ...]]):
    """Re-raise a ValueError as a ConfigError naming the config keys that set what failed.

    ``keys`` holds the keys, or maps a word of the message to the key or keys
    that set what the word names; a message holding none of the words names them all.
    """
    try:
        yield
    except ValueError as exc:
        if isinstance(keys, dict):
            named = [ks for word, ks in keys.items() if word in str(exc)] or keys.values()
            keys = [key for ks in named for key in ((ks,) if isinstance(ks, str) else ks)]
        cited = list(dict.fromkeys(keys))
        raise ConfigError(f"{'key' if len(cited) == 1 else 'keys'} {', '.join(map(repr, cited))}: {exc}") from None


def serialize_config(spec: ExperimentSpec) -> str:
    """Canonical text form of a resolved spec (parses back to the same spec)."""
    lines = []
    for key in SCHEMA:
        value = spec.values[key]
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _rhos(spec: ExperimentSpec) -> np.ndarray:
    return np.array([10.0 ** (s / 10.0) for s in spec.snr_grid_db()])


def _scheme_columns(angles_deg, snrs_db, caps: dict) -> dict:
    """Columns (angle, SNR, scheme, capacity), angle-major, from (angles, SNRs) capacity arrays per scheme."""
    a, s, k = len(angles_deg), len(snrs_db), len(caps)
    return {
        "angle_deg": np.repeat(angles_deg, s * k),
        "snr_db": np.tile(np.repeat(snrs_db, k), a),
        "scheme": list(caps) * (a * s),
        "capacity_bps_hz": np.stack([np.broadcast_to(c, (a, s)) for c in caps.values()], axis=2).ravel(),
    }


def _run_angle_sweep(spec: ExperimentSpec, axis: str):
    cfg = spec.link()
    angles_deg = spec.sweep_grid_deg()
    # Pose 0 is the aligned link; the other poses tilt along the axis.
    tilt, zero = np.radians(np.concatenate([[0.0], angles_deg])), np.zeros(len(angles_deg) + 1)
    gamma, psi = (tilt, zero) if axis == "yaw" else (zero, tilt)
    poses = np.stack([gamma, psi, zero], axis=1)
    steered = np.exp(1j * phases_eo(gamma, psi, cfg))
    # Steering sets none (weights of exactly 1 + 0j) and electronic, from one
    # build of each element channel.
    caps = capacity(mode_channels(poses, cfg, np.stack([np.ones_like(steered), steered])), _rhos(spec))
    return _scheme_columns(angles_deg, spec.snr_grid_db(), {
        "aligned": caps[0, 0],
        "none": caps[0, 1:],
        "electronic": caps[1, 1:],
    })


def _run_roll_profile(spec: ExperimentSpec):
    cfg = spec.link()
    thetas_deg = spec.roll_grid_deg()
    thetas = np.radians(thetas_deg)
    return {"theta_deg": thetas_deg, "theta_rad": thetas, "capacity_bps_hz": capacity_profile(thetas, cfg)}


def _run_hybrid_compare(spec: ExperimentSpec):
    cfg = spec.link()
    angles_deg = spec.hybrid_grid_deg()
    rhos = _rhos(spec)
    # The roll objective does not depend on the pose: anneal once, reuse.
    theta_star, _ = optimize_roll(cfg, spec.sa_params())
    poses, aoa_error = spec.hybrid_poses()
    result = hybrid_pipeline(poses, cfg, theta_star, spec.servo_config(), aoa_error)
    hybrid = capacity(result.effective, rhos)
    tilt = np.radians(angles_deg)
    tilted = np.stack([tilt, tilt, np.zeros(len(tilt))], axis=1)
    electronic = capacity(mode_channels(tilted, cfg, np.exp(1j * phases_eo(tilt, tilt, cfg))), rhos)
    # Perfect alignment rolled to the achieved angle; the same kernel as the
    # hybrid rows, so a zero residual gives the same bits.
    perfect = capacity(mode_channels([(0.0, 0.0, result.theta_star)], cfg), rhos)
    return _scheme_columns(angles_deg, spec.snr_grid_db(), {
        "perfect": perfect,
        "hybrid": hybrid,
        "electronic": electronic,
    })


def _run_sa_trace(spec: ExperimentSpec):
    cfg = spec.link()
    theta_star, trace = optimize_roll(cfg, spec.sa_params())
    return {
        "outer_iter": np.arange(len(trace)),
        "temperature": np.array(trace.temperatures),
        "best_theta_rad": np.array(trace.best_thetas),
        "best_capacity_bps_hz": np.array(trace.best_capacities),
        "accepted": np.array(trace.accepted_counts),
    }


def _run_monotonicity(spec: ExperimentSpec):
    cfg = spec.link()
    s_target = spec["monotonicity.s_coupling"]
    grid_deg = spec.monotonicity_grid_deg()
    angles = [math.radians(d) for d in grid_deg]
    # Rows run axis-major, then mode, then angle; the closed form has no pitch term.
    exact = steered_sir(cfg.modes, angles, s_target, cfg.n_elements).transpose(0, 2, 1)
    asymptotic = asymptotic_sir(cfg.modes, angles, s_target, cfg.n_elements).T
    return {
        "axis": [axis for axis in AXES for _ in range(cfg.n_modes * len(angles))],
        "mode": np.tile(np.repeat(cfg.modes, len(angles)), len(AXES)),
        "angle_deg": np.tile(grid_deg, len(AXES) * cfg.n_modes),
        "sir_linear": exact.ravel(),
        "sir_asymptotic": np.tile(asymptotic.ravel(), len(AXES)),
    }


def _run_complexity(spec: ExperimentSpec):
    ns, ps = spec.complexity_grid()
    params = ComplexityParams(
        p_data=np.tile(ps, len(ns)),
        n_elements=np.repeat(ns, len(ps)),
        u_data=spec.link().n_modes,  # U in P U N^2: the modes the link multiplexes
        **{f: spec[f"complexity.{f}"] for f in ("p_coarse", "u_coarse", "p_fine", "u_fine")},
        sa=spec.sa_params(),
        gamma_cmd=math.radians(spec["pose.gamma_deg"]),
        psi_cmd=math.radians(spec["pose.psi_deg"]),
        theta_star=math.radians(spec["complexity.theta_star_deg"]),
        nu=spec.servo_config().accuracy_nu,
    )
    hybrid, electronic = (sum(cost(params).values()) for cost in (cost_hybrid, cost_electronic))
    return {
        "n_elements": params.n_elements,
        "p_data": params.p_data,
        "cost_hybrid": hybrid,
        "cost_electronic": electronic,
        "ratio": hybrid / electronic,
    }


# Each runner returns column name -> column, in CSV order: equal-length numpy
# arrays, or lists of str; run() formats and writes them.
_RUNNERS = {
    "sweep-yaw": lambda spec: _run_angle_sweep(spec, "yaw"),
    "sweep-pitch": lambda spec: _run_angle_sweep(spec, "pitch"),
    "roll-profile": _run_roll_profile,
    "hybrid-compare": _run_hybrid_compare,
    "sa-trace": _run_sa_trace,
    "monotonicity": _run_monotonicity,
    "complexity": _run_complexity,
}

# The manifest's record of the numpy build and the SIMD targets it dispatches to,
# on which the CSV bytes depend; read once, at import.
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
_SIMD_ON = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
_NUMPY_LINE = f"# numpy {np.__version__}, SIMD targets on: {_SIMD_ON}\n"

# CSV lines per write: every default and benchmark run is one write, while a
# sweep at its bound (480 000 rows) never holds all its line strings at once
# (holding them took its peak RSS from 116 MB to 159 MB).
_LINES_PER_WRITE = 8192
# What a CSV writer would quote; no cell may hold it.
_QUOTED = frozenset(',"\r\n')


def run(spec: ExperimentSpec, out_dir) -> tuple[Path, Path]:
    """Execute an experiment; write ``<name>.csv`` and ``manifest.txt``.

    Returns (csv_path, manifest_path).  Outputs are deterministic for a given
    resolved spec.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    columns = _RUNNERS[spec.name](spec)
    wall = time.monotonic() - started

    # The one place that knows the number format: floats as Python's shortest
    # round-trip repr, integers in decimal, str columns (axis, scheme) as they are.
    # No cell needs quoting, so a CSV line is its cells joined by commas and
    # ended by CRLF, the bytes csv.writer writes.  Every check runs before a
    # file is opened, so a failed run leaves an earlier run's outputs as they were.
    n_rows = len(next(iter(columns.values())))
    cells = []
    for name, col in columns.items():
        if len(col) != n_rows:
            raise ValueError(f"column {name!r} has {len(col)} rows, the first column {n_rows}")
        if isinstance(col, list):
            _check_unquoted(name, {name, *col})
            cells.append(col)
        else:
            _check_unquoted(name, (name,))
            cells.append(_cells(col))
    rows = map(",".join, zip(*cells, strict=True))
    lines = itertools.chain([",".join(columns)], rows)
    csv_path = out / f"{spec.name}.csv"
    with _open_fresh(csv_path, newline="") as fh:
        while block := list(itertools.islice(lines, _LINES_PER_WRITE)):
            fh.write("\r\n".join(block) + "\r\n")
    manifest_path = out / "manifest.txt"
    with _open_fresh(manifest_path) as fh:
        fh.write(f"# oamlink {__version__} experiment manifest\n")
        fh.write(f"# wall_time_s = {wall:.3f}\n")
        fh.write(_NUMPY_LINE)
        fh.write(f"# rows = {n_rows}\n")
        fh.write(serialize_config(spec))
    return csv_path, manifest_path


def _cells(col: np.ndarray):
    """The CSV cells of a numpy column, each distinct value formatted once.

    Values are told apart by bit pattern, so -0.0 and 0.0 keep their own text.
    A column with no repeat is formatted cell by cell, which skips the lookup;
    a strictly increasing one cannot repeat, so it also skips the sort.
    """
    form = repr if col.dtype.kind == "f" else str
    if not np.all(col[1:] > col[:-1]):
        keys, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
        if len(keys) < len(col):
            text = list(map(form, keys.view(col.dtype).tolist()))
            return map(text.__getitem__, inverse.tolist())
    return map(form, col.tolist())


def _check_unquoted(column: str, cells) -> None:
    """Raise ValueError naming ``column`` if a cell holds a comma, a quote or a line break."""
    for cell in cells:
        if not _QUOTED.isdisjoint(cell):
            raise ValueError(f"column {column!r}: cell {cell!r} would need CSV quoting")


def _open_fresh(path: Path, newline: str | None = None):
    """Open ``path`` for writing as a new file, removing an earlier run's file first.

    Truncating a non-empty file in place makes ext4 (auto_da_alloc) flush the
    new data when it is closed, a disk wait of 0.1 ms to several ms per file
    that a new file does not pay.
    """
    path.unlink(missing_ok=True)
    return open(path, "w", newline=newline)
