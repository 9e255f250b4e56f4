"""Order-level operation counts for hybrid versus electronic-only steering.

Each pipeline stage contributes one big-O term evaluated with unit
constants: cubic terms for the eigendecomposition-based arrival-angle
estimation at the coarse (P_bar, U_bar) and refined (P_tilde, U_tilde)
grids, angle/accuracy ratios for the mechanical rotations, the annealer's
continuous level count times its inner iterations, and P*U*N^2 for applying
the electronic weights.  This is a cost *model* matching how such
comparisons are usually plotted, not a cycle-accurate measurement.

``cost_hybrid`` and ``cost_electronic`` return a dict of stage name -> count;
its values, summed in order, are the scheme's total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizer import SaParams


@dataclass(frozen=True)
class ComplexityParams:
    """Everything the cost terms depend on.

    Angles are radians (only ratios to ``nu`` enter, so units cancel);
    ``sa`` is the annealing schedule whose evaluations the roll term counts.
    ``p_data`` and ``n_elements`` may be int64 arrays that broadcast together,
    so one call of the cost functions evaluates a whole (N, P) grid.
    """

    p_data: int | np.ndarray
    u_data: int
    p_coarse: int
    u_coarse: int
    p_fine: int
    u_fine: int
    n_elements: int | np.ndarray
    sa: SaParams
    gamma_cmd: float
    psi_cmd: float
    theta_star: float
    nu: float

    def __post_init__(self):
        for name in ("p_data", "u_data", "p_coarse", "u_coarse", "p_fine", "u_fine", "n_elements"):
            if np.any(np.asarray(getattr(self, name)) < 1):
                raise ValueError(f"{name} must be positive")
        # Over arrays, P U N^2 is taken in int64, which would wrap silently.
        if int(np.max(self.p_data)) * self.u_data * int(np.max(self.n_elements)) ** 2 >= 2**63:
            raise ValueError("p_data * u_data * n_elements**2 must stay below 2**63")
        if not (self.p_coarse <= self.p_fine and self.u_coarse <= self.u_fine):
            raise ValueError("coarse estimation grid must not exceed the fine grid")
        if not self.nu > 0:
            raise ValueError("nu must be positive")


def _annealer_evals(params: ComplexityParams) -> float:
    """inner_iters times the continuous level count log_cooling(t_min/t_init), whose ceiling is sa.outer_iterations."""
    sa = params.sa
    return sa.inner_iters * (math.log(sa.t_min) - math.log(sa.t_init)) / math.log(sa.cooling)


def cost_electronic(params: ComplexityParams) -> dict:
    """Electronic-only steering: refined estimation plus weight application."""
    return {
        "aoa_estimation": float(params.p_fine**3 * params.u_fine**3),
        "electronic_steering": np.float64(params.p_data * params.u_data * params.n_elements**2),
    }


def cost_hybrid(params: ComplexityParams) -> dict:
    """Hybrid steering: coarse estimation, two mechanical stages, annealer,
    refined estimation and weight application."""
    return {
        "coarse_aoa_estimation": float(params.p_coarse**3 * params.u_coarse**3),
        "mechanical_pitch_yaw": (abs(params.psi_cmd) + abs(params.gamma_cmd)) / params.nu,
        "roll_optimization": _annealer_evals(params),
        "mechanical_roll": abs(params.theta_star) / params.nu,
        "refined_aoa_estimation": float(params.p_fine**3 * params.u_fine**3),
        "electronic_steering": np.float64(params.p_data * params.u_data * params.n_elements**2),
    }
