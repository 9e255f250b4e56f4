"""End-to-end hybrid beam steering: mechanical coarse alignment, electronic refinement.

Stages, in causal order:

1. F1 - servo rotation in yaw and pitch toward the estimated pose, leaving a
   small residual bounded by the potentiometer accuracy.
2. E1 - electronic schedule countering the residual.
3. F2 - servo roll rotation to the capacity-optimal angle found by the
   annealer (the roll objective does not depend on the residual, so F2 may
   run before or after E1).
4. E2 - electronic adjustment re-aiming the E1 correction at the rolled
   element angles.

Arrival-angle estimation itself is out of scope: estimates are the true
angles plus a configurable additive error, and the servo quantization then
bounds the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import mode_channels
from .config import LinkConfig
from .geometry import Pose
from .optimizer import SaParams, SaTrace, optimize_roll
from .servo import ServoConfig, execute_rotation
from .steering import MechanicalCommand, mechanical_pitch_yaw, phases_e1, phases_e2


@dataclass
class HybridResult:
    """Everything the hybrid pipeline produced for one pose."""

    effective: np.ndarray  # (P, U, U) steered mode-domain channels, one per subcarrier
    command: MechanicalCommand
    phases: np.ndarray  # (P, N) summed E1 + E2 schedule, one row per subcarrier
    residual: Pose
    theta_star: float
    trace: SaTrace
    servo_steps: dict[str, int]


def hybrid_pipeline(
    pose: Pose,
    cfg: LinkConfig,
    sa_params: SaParams | None = None,
    servo_cfg: ServoConfig | None = None,
    aoa_error: tuple[float, float] = (0.0, 0.0),
    theta_star: float | None = None,
) -> HybridResult:
    """Run the full steering chain and return the effective mode-domain channel.

    ``theta_star`` short-circuits the annealer with a precomputed roll angle
    (it depends only on the link, not on the pose).  ``phases`` of the result
    holds the summed E1 + E2 schedule, one (N,) row per subcarrier.
    """
    servo_cfg = servo_cfg if servo_cfg is not None else ServoConfig()
    sa_params = sa_params if sa_params is not None else SaParams()

    # F1: coarse mechanical alignment at servo accuracy.
    gamma_hat, steps_yaw = execute_rotation(pose.gamma + aoa_error[0], servo_cfg)
    psi_hat, steps_pitch = execute_rotation(pose.psi + aoa_error[1], servo_cfg)
    residual = mechanical_pitch_yaw(pose, MechanicalCommand(gamma_hat, psi_hat), servo=servo_cfg)

    # Roll optimization and F2.
    if theta_star is None:
        theta_star, trace = optimize_roll(cfg, sa_params)
    else:
        trace = SaTrace()
    theta_achieved, steps_roll = execute_rotation(theta_star, servo_cfg)

    # F2 rebuilds the channel at the rolled residual; E1 + E2 steer it.
    command = MechanicalCommand(gamma_hat, psi_hat, theta_achieved)
    e1 = phases_e1(residual, cfg)
    e2 = phases_e2(residual, theta_achieved, cfg)
    rows = (np.exp(1j * e1) * np.exp(1j * e2))[None]  # the two stages' weights in turn
    angles = [(residual.gamma, residual.psi, theta_achieved)]
    return HybridResult(
        effective=mode_channels(angles, cfg, rows)[0],
        command=command,
        phases=e1 + e2,
        residual=residual,
        theta_star=theta_achieved,
        trace=trace,
        servo_steps={"yaw": steps_yaw, "pitch": steps_pitch, "roll": steps_roll},
    )
