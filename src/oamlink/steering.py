"""Electronic steering phase schedules and mechanical rotation of the channel.

Electronic steering folds per-element phase shifts into the despiralization
weights; each stage has a closed-form schedule, one (N,) row per subcarrier:

* ``phases_eo`` counters the full pose (electronic-only operation, after
  R. Chen et al., IEEE WCL 2018), (A, P, N) for A poses at once,
* ``phases_e1`` counters the small residual yaw/pitch left after the
  pitch/yaw mechanical rotation (accuracy claims assume residuals within a
  few tenths of a degree up to a few degrees), (A, P, N) for A residuals,
* ``phases_e2`` re-aims after the roll rotation by supplying exactly the
  element-angle difference terms the roll introduced, (A, P, N).

Mechanical rotation is a non-linear operation on the channel: it moves the
element positions, so the channel matrices are rebuilt at the new attitude
rather than multiplied by anything.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .channel import ChannelMatrix, channel_matrices
from .config import LinkConfig
from .geometry import Pose


def phases_eo(gamma, psi, cfg: LinkConfig) -> np.ndarray:
    """(A, P, N) electronic-only schedules of A poses (gamma[a], psi[a]) at every subcarrier.

    k_p R_r (sin(theta_m) sin(psi) cos(gamma) - cos(theta_m) sin(gamma)).
    """
    gamma, psi = (np.asarray(x, dtype=float)[:, None, None] for x in (gamma, psi))
    k_rr = cfg.carriers.wavenumbers[:, None] * cfg.rx.radius
    theta = cfg.rx.element_angles
    return k_rr * (np.sin(theta) * np.sin(psi) * np.cos(gamma) - np.cos(theta) * np.sin(gamma))


def phases_e1(gamma, psi, cfg: LinkConfig) -> np.ndarray:
    """(A, P, N) post-mechanical schedules: ``phases_eo`` at A residual angles (gamma[a], psi[a])."""
    return phases_eo(gamma, psi, cfg)


def phases_e2(gamma, psi, theta_star: float, cfg: LinkConfig) -> np.ndarray:
    """(A, P, N) roll-compensation schedules of A residual angles (gamma[a], psi[a]).

    2 k_p R_r sin(theta*/2) * (cos(gb) cos(theta*/2 + theta_m) sin(pb)
    + sin(gb) sin(theta*/2 + theta_m)), the exact increment that moves the
    phases_e1 correction from element angles theta_m to theta_m + theta*.
    """
    gb, pb = (np.asarray(x, dtype=float)[:, None, None] for x in (gamma, psi))
    k_rr = (cfg.carriers.wavenumbers * cfg.rx.radius)[:, None]
    theta = cfg.rx.element_angles
    half = 0.5 * theta_star
    return (
        2.0
        * k_rr
        * math.sin(half)
        * (np.cos(gb) * np.cos(half + theta) * np.sin(pb) + np.sin(gb) * np.sin(half + theta))
    )


def mechanical_pitch_yaw(pose: Pose, yaw: float, pitch: float) -> Pose:
    """Rotate by the achieved yaw and pitch; return the residual, roll 0 (``channel_matrices`` builds its channel)."""
    return Pose(pose.gamma - yaw, pose.psi - pitch)


def mechanical_roll(residual: Pose, theta_star: float, cfg: LinkConfig) -> list[ChannelMatrix]:
    """Rotate the array about boresight to ``theta_star``; rebuild the channel at the rolled residual."""
    if not abs(theta_star) <= math.pi:
        raise ValueError(f"roll angle must satisfy |theta| <= pi, got {theta_star}")
    return channel_matrices(replace(residual, roll=theta_star), cfg)
