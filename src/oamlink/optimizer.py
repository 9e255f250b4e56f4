"""Simulated-annealing search for the roll angle that maximizes capacity.

The objective is the interference-free diagonal model of the fully steered
link: every mode sees SINR = rho * |h_diag|^2, so the capacity depends on the
roll angle only through the per-mode diagonal magnitudes.  The objective is
periodic with period 2*pi/N, hence the search interval [-pi/N, pi/N].

Mode l's diagonal factor exp(-i l theta) has modulus one, so |h_l| =
N |eta_p| |sum_j W_lj exp(i S_p cos(delta_j - theta))| with the constant (U, N)
matrix W = exp(i l delta): theta enters one mode-independent (N,) factor.
``roll_objective`` builds delta, W, the couplings S_p and the scales N |eta_p|
once per annealing run; each candidate angle is then one (subcarriers, 1, N)
complex exp and a broadcast product-sum with W, the operations of the batched
``capacity_profile``, so both give the same bits and the seeded trace the same
accept decisions.  Neither BLAS (``e @ W.T``, whose rows change in the last bit
with the number of rows) nor a Jacobi-Anger series would keep those bits.

A brute-force grid search over the same interval serves as the optimizer's
reference; annealing runs are deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import LinkConfig

# Roll angles capacity_profile evaluates together.  Its largest temporary,
# the complex (ANGLE_CHUNK, U, N) product with W of 92 KB at U = 9, N = 10,
# stays below glibc's 128 KB mmap threshold and so reuses heap pages.
ANGLE_CHUNK = 64


@dataclass(frozen=True)
class SaParams:
    """Annealing schedule.

    ``step_scale`` is the largest perturbation magnitude [rad] at the initial
    temperature; None picks (pi/N)/10 for the link at hand.  Perturbations
    shrink proportionally to the current temperature.
    """

    t_init: float = 100.0
    t_min: float = 1e-3
    cooling: float = 0.9
    inner_iters: int = 20
    step_scale: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.t_min < self.t_init:
            raise ValueError("need 0 < t_min < t_init")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be >= 1")
        if self.step_scale is not None and not self.step_scale > 0:
            raise ValueError("step_scale must be positive")

    @property
    def outer_iterations(self) -> int:
        """Number of temperature levels until t_init * cooling^k <= t_min."""
        # A difference of logs: t_min / t_init underflows for extreme schedules.
        return math.ceil((math.log(self.t_min) - math.log(self.t_init)) / math.log(self.cooling))


@dataclass
class SaTrace:
    """Per-temperature record of an annealing run."""

    temperatures: list[float] = field(default_factory=list)
    best_thetas: list[float] = field(default_factory=list)
    best_capacities: list[float] = field(default_factory=list)
    accepted_counts: list[int] = field(default_factory=list)

    def append(self, temperature: float, best_theta: float, best_capacity: float, accepted: int):
        self.temperatures.append(temperature)
        self.best_thetas.append(best_theta)
        self.best_capacities.append(best_capacity)
        self.accepted_counts.append(accepted)

    def __len__(self) -> int:
        return len(self.temperatures)


def _diag_constants(cfg: LinkConfig):
    """Per-link constants of the diagonal model.

    Returns delta = 2 pi j / N, j = 1..N (N,), W = exp(i l delta) as (U, N),
    the couplings S_p as (P, 1, 1) and the scales N |eta_p| as (P, 1).
    """
    n = cfg.n_elements
    delta = 2.0 * math.pi * np.arange(1, n + 1) / n
    w = np.exp(1j * np.outer(cfg.modes, delta))
    subcarriers = range(cfg.n_subcarriers)
    s = np.array([cfg.coupling(p) for p in subcarriers])[:, None, None]
    scale = np.array([n * abs(cfg.eta(p)) for p in subcarriers])[:, None]
    return delta, w, s, scale


def capacity_profile(thetas, cfg: LinkConfig) -> np.ndarray:
    """Diagonal-model capacity [bits/s/Hz] at each roll angle (vectorized).

    Mode l's diagonal entry is N eta(p) sum_delta exp(i l (delta - theta) + i S_p cos(delta - theta)),
    delta = 2 pi j / N, j = 1..N: periodic in theta with period 2 pi / N and equal in magnitude
    to the double DFT sum of the aligned link rolled to theta; per subcarrier it is one (angles, N)
    complex exp and the product-sum with W (module docstring).  Walks the angles ANGLE_CHUNK at a
    time and loops over subcarriers, so the temporaries stay (ANGLE_CHUNK, modes, N) however many
    angles are asked for; every per-angle reduction is the same, and so are the bits.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    delta, w, s, scale = _diag_constants(cfg)
    caps = np.empty(thetas.shape[0])
    for start in range(0, thetas.shape[0], ANGLE_CHUNK):
        cos = np.cos(delta[None, :] - thetas[start : start + ANGLE_CHUNK, None])  # (T, N)
        total = np.zeros(cos.shape[0])
        for p in range(cfg.n_subcarriers):
            e = np.exp(1j * (s[p] * cos))  # (T, N)
            h_abs = scale[p] * np.abs((e[:, None, :] * w).sum(axis=2))  # (T, U)
            total += np.log2(1.0 + cfg.snr_rho * h_abs**2).sum(axis=1)
        caps[start : start + ANGLE_CHUNK] = total / cfg.n_subcarriers
    return caps


def roll_objective(cfg: LinkConfig):
    """The annealer's objective: theta -> ``capacity_profile([theta], cfg)[0]``, bit for bit.

    The link constants are built once; each call is one (P, 1, N) complex exp
    and its product-sum with W, the profile's operations, whose per-subcarrier
    sums are added in subcarrier order as the profile does (``np.sum`` would
    add eight or more of them pairwise).
    """
    delta, w, s, scale = _diag_constants(cfg)
    rho, n_sub = cfg.snr_rho, cfg.n_subcarriers

    def objective(theta: float) -> float:
        e = np.exp(1j * (s * np.cos(delta - theta)))  # (P, 1, N)
        h_abs = scale * np.abs((e * w).sum(axis=2))  # (P, U)
        per_subcarrier = np.log2(1.0 + rho * h_abs**2).sum(axis=1)
        return float(np.add.accumulate(per_subcarrier)[-1] / n_sub)

    return objective


def capacity_objective(theta: float, cfg: LinkConfig) -> float:
    """Diagonal-model capacity at a single roll angle."""
    return roll_objective(cfg)(theta)


def grid_search_roll(cfg: LinkConfig, resolution: int) -> tuple[float, float]:
    """Exhaustive argmax of the objective on a uniform grid over [-pi/N, pi/N]."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    half = math.pi / cfg.n_elements
    thetas = np.linspace(-half, half, resolution)
    caps = capacity_profile(thetas, cfg)
    best = int(np.argmax(caps))
    return float(thetas[best]), float(caps[best])


def optimize_roll(
    cfg: LinkConfig,
    sa: SaParams,
    theta_init: float | None = None,
) -> tuple[float, SaTrace]:
    """Anneal the roll angle over [-pi/N, pi/N].

    Per inner iteration a signed perturbation ``e`` (uniform over
    [-step, step] scaled by temperature) proposes theta + e, reflected to
    theta - e when that leaves the interval.  A candidate is accepted when
    it improves the capacity or passes the Metropolis draw
    exp((c_new - c) / T); after each temperature level the walk restarts
    from the best point seen so far if anything was accepted at that level.
    """
    half = math.pi / cfg.n_elements
    step0 = sa.step_scale if sa.step_scale is not None else half / 10.0
    rng = np.random.default_rng(sa.rng_seed)
    theta = -half if theta_init is None else float(theta_init)
    if not -half <= theta <= half:
        raise ValueError(f"theta_init {theta} outside [-pi/N, pi/N]")
    objective = roll_objective(cfg)
    cap = objective(theta)
    theta_best, cap_best = theta, cap
    temperature = sa.t_init
    trace = SaTrace()
    while temperature > sa.t_min:
        accepted = 0
        step = step0 * temperature / sa.t_init
        for _ in range(sa.inner_iters):
            e = rng.uniform(-step, step)
            cand = theta + e
            if not -half < cand < half:
                cand = theta - e
            cand = min(max(cand, -half), half)
            cap_new = objective(cand)
            if cap_new > cap or rng.random() < math.exp((cap_new - cap) / temperature):
                theta, cap = cand, cap_new
                accepted += 1
                if cap > cap_best:
                    theta_best, cap_best = theta, cap
        if accepted:
            theta, cap = theta_best, cap_best
        trace.append(temperature, theta_best, cap_best, accepted)
        temperature *= sa.cooling
    return theta_best, trace
