"""End-to-end hybrid beam steering: mechanical coarse alignment, electronic refinement.

Stages, in causal order:

1. F1 - servo rotation in yaw and pitch toward the estimated pose, leaving a
   small residual bounded by the potentiometer accuracy.
2. E1 - electronic schedule countering the residual.
3. F2 - servo roll rotation to the capacity-optimal angle theta*, which
   ``optimizer.optimize_roll`` finds for the link (the roll objective does
   not depend on the pose or the residual, so one theta* serves every pose,
   and F2 may run before or after E1).
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
from .servo import ServoConfig, execute_rotation
from .steering import mechanical_pitch_yaw, phases_e1, phases_e2


@dataclass
class HybridResult:
    """Everything the hybrid pipeline produced for A poses, in pose order.

    ``commands``, ``residuals`` and the yaw/pitch ``servo_steps`` hold one
    entry per pose; the roll is one rotation to ``theta_star`` for all.
    """

    effective: np.ndarray  # (A, P, U, U) steered mode-domain channels, one per pose and subcarrier
    commands: np.ndarray  # (A, 3) achieved servo (yaw, pitch, roll) rows, the layout mode_channels takes
    phases: np.ndarray  # (A, P, N) summed E1 + E2 schedules, one row per pose and subcarrier
    residuals: list[Pose]
    theta_star: float
    servo_steps: dict  # "yaw", "pitch": A step counts each; "roll": one count


def hybrid_pipeline(
    poses: list[Pose],
    cfg: LinkConfig,
    theta_star: float,
    servo_cfg: ServoConfig = ServoConfig(),
    aoa_error: tuple[float, float] = (0.0, 0.0),
) -> HybridResult:
    """Run the full steering chain for A poses and return their effective mode-domain channels.

    ``theta_star`` is the roll angle to command, as ``optimize_roll`` returns
    it for ``cfg``; the result's ``theta_star`` is the angle the servo
    achieves.  The servo stages run per pose; E1, E2 and the channel rebuild
    each run once for all poses.
    """
    # F1: coarse mechanical alignment at servo accuracy, pose by pose.
    hats, residuals, steps_yaw, steps_pitch = [], [], [], []
    for pose in poses:
        gamma_hat, yaw = execute_rotation(pose.gamma + aoa_error[0], servo_cfg)
        psi_hat, pitch = execute_rotation(pose.psi + aoa_error[1], servo_cfg)
        hats.append((gamma_hat, psi_hat))
        residuals.append(mechanical_pitch_yaw(pose, gamma_hat, psi_hat))
        steps_yaw.append(yaw)
        steps_pitch.append(pitch)

    # F2: one roll rotation serves every pose.
    theta_achieved, steps_roll = execute_rotation(theta_star, servo_cfg)

    # F2 rebuilds the channels at the rolled residuals; E1 + E2 steer them.
    gamma = np.array([r.gamma for r in residuals])
    psi = np.array([r.psi for r in residuals])
    e1 = phases_e1(gamma, psi, cfg)
    e2 = phases_e2(gamma, psi, theta_achieved, cfg)
    rows = np.exp(1j * e1) * np.exp(1j * e2)  # the two stages' weights in turn
    angles = np.stack([gamma, psi, np.full(len(gamma), theta_achieved)], axis=1)
    return HybridResult(
        effective=mode_channels(angles, cfg, rows),
        commands=np.array([(g, p, theta_achieved) for g, p in hats]).reshape(-1, 3),
        phases=e1 + e2,
        residuals=residuals,
        theta_star=theta_achieved,
        servo_steps={"yaw": steps_yaw, "pitch": steps_pitch, "roll": steps_roll},
    )
