"""Order-level operation counts for hybrid versus electronic-only steering.

Each pipeline stage contributes one big-O term evaluated with unit
constants: cubic terms for the eigendecomposition-based arrival-angle
estimation at the coarse (P_bar, U_bar) and refined (P_tilde, U_tilde)
grids, angle/accuracy ratios for the mechanical rotations, the annealer's
total inner-iteration count, and P*U*N^2 for applying the electronic
weights.  This is a cost *model* matching how such comparisons are usually
plotted, not a cycle-accurate measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .optimizer import SaParams


@dataclass(frozen=True)
class ComplexityParams:
    """Everything the cost terms depend on.

    Angles are radians (only ratios to ``nu`` enter, so units cancel);
    ``sa`` is the annealing schedule whose evaluations the roll term counts.
    """

    p_data: int = 8
    u_data: int = 9
    p_coarse: int = 4
    u_coarse: int = 4
    p_fine: int = 8
    u_fine: int = 8
    n_elements: int = 10
    sa: SaParams = SaParams()
    gamma_cmd: float = math.radians(60.0)
    psi_cmd: float = math.radians(60.0)
    theta_star: float = math.radians(10.0)
    nu: float = math.radians(0.3)

    def __post_init__(self):
        for name in ("p_data", "u_data", "p_coarse", "u_coarse", "p_fine", "u_fine", "n_elements"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not (self.p_coarse <= self.p_fine and self.u_coarse <= self.u_fine):
            raise ValueError("coarse estimation grid must not exceed the fine grid")
        if not self.nu > 0:
            raise ValueError("nu must be positive")


@dataclass(frozen=True)
class CostBreakdown:
    """Per-stage abstract operation counts and their sum."""

    terms: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.terms.values())


def _annealer_evals(params: ComplexityParams) -> float:
    """inner_iters * log_cooling(t_min / t_init): total candidate evaluations."""
    sa = params.sa
    return sa.inner_iters * (math.log(sa.t_min) - math.log(sa.t_init)) / math.log(sa.cooling)


def cost_electronic(params: ComplexityParams) -> CostBreakdown:
    """Electronic-only steering: refined estimation plus weight application."""
    return CostBreakdown(
        {
            "aoa_estimation": float(params.p_fine**3 * params.u_fine**3),
            "electronic_steering": float(params.p_data * params.u_data * params.n_elements**2),
        }
    )


def cost_hybrid(params: ComplexityParams) -> CostBreakdown:
    """Hybrid steering: coarse estimation, two mechanical stages, annealer,
    refined estimation and weight application."""
    return CostBreakdown(
        {
            "coarse_aoa_estimation": float(params.p_coarse**3 * params.u_coarse**3),
            "mechanical_pitch_yaw": (abs(params.psi_cmd) + abs(params.gamma_cmd)) / params.nu,
            "roll_optimization": _annealer_evals(params),
            "mechanical_roll": abs(params.theta_star) / params.nu,
            "refined_aoa_estimation": float(params.p_fine**3 * params.u_fine**3),
            "electronic_steering": float(params.p_data * params.u_data * params.n_elements**2),
        }
    )


def relative_cost(params: ComplexityParams) -> float:
    """Hybrid total over electronic-only total."""
    return cost_hybrid(params).total / cost_electronic(params).total
