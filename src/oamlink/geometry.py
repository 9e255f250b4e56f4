"""Coordinate-frame math for a tilted receive UCA.

The receive array sits at range ``r`` on the transmit boresight and can be
rotated in yaw (about its vertical axis), pitch (about its horizontal axis)
and roll (about boresight).  One ``Pose`` describes every attitude of the
steering chain: the initial pose, the residual the pitch/yaw servo leaves
and that residual rolled about boresight.  Everything here is a pure
function of angles: rotation matrices, the identities tying yaw/pitch to the
elevation/azimuth of the arrival direction, and ``distances``, the one place
that knows the exact and far-field element-to-element distance models.

Angles are radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PITCH = "pitch"
YAW = "yaw"
ROLL = "roll"

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class Pose:
    """Receive-array attitude: yaw ``gamma``, pitch ``psi``, roll about boresight.

    Yaw and pitch live in the open interval (-pi/2, pi/2); the boresight
    tilt ``alpha_from(psi, gamma)`` then always lies in [0, pi/2).
    """

    gamma: float
    psi: float
    roll: float = 0.0

    def __post_init__(self):
        if not (abs(self.gamma) < _HALF_PI and abs(self.psi) < _HALF_PI):
            raise ValueError(
                f"yaw/pitch must satisfy |angle| < pi/2, got gamma={self.gamma}, psi={self.psi}"
            )
        if not (math.isfinite(self.gamma) and math.isfinite(self.psi) and math.isfinite(self.roll)):
            raise ValueError("pose angles must be finite")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform circular array: element count, radius [m], angle of element 0."""

    n_elements: int
    radius: float
    initial_angle: float = 0.0

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def element_angles(self) -> np.ndarray:
        """In-plane element angles 2*pi*j/N + initial_angle, j = 0..N-1."""
        return 2.0 * math.pi * np.arange(self.n_elements) / self.n_elements + self.initial_angle


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """3x3 rotation matrix for the pitch (x), yaw (y) or roll (z) axis."""
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(angle), math.sin(angle)
    if axis == PITCH:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == YAW:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == ROLL:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"unknown rotation axis {axis!r}")


def alpha_from(psi: float, gamma: float) -> float:
    """Boresight tilt from pitch and yaw, alpha = arccos(cos(psi) * cos(gamma)).

    Evaluated through the half-angle form
    sin^2(alpha/2) = sin^2(psi/2) + cos(psi) * sin^2(gamma/2), which keeps full
    relative accuracy down to zero tilt where the arccos form cancels; at
    gamma = 0 it returns |psi| to within an ulp.
    """
    if not (abs(psi) < _HALF_PI and abs(gamma) < _HALF_PI):
        raise ValueError(f"pitch/yaw must satisfy |angle| < pi/2, got psi={psi}, gamma={gamma}")
    s = math.hypot(math.sin(psi / 2.0), math.sqrt(math.cos(psi)) * math.sin(gamma / 2.0))
    return 2.0 * math.asin(s)


def psi_from(alpha: float, gamma: float) -> float:
    """Pitch recovered from tilt and yaw, psi = arccos(cos(alpha) / cos(gamma)).

    Evaluated through the half-angle form
    sin^2(psi/2) = sin((alpha - |gamma|)/2) * sin((alpha + |gamma|)/2) / cos(gamma),
    which has no cancellation near zero pitch.
    Returns the non-negative pitch.  Raises for alpha outside [0, pi/2) and
    when cos(alpha) > cos(gamma), i.e. when no pitch can produce the
    requested tilt at this yaw.

    The problem itself is ill-conditioned for psi -> 0 at gamma != 0:
    d(alpha)/d(psi) = sin(psi) cos(gamma) / sin(alpha) -> 0, so an error
    d_alpha in the tilt moves the recovered pitch by up to
    sqrt(psi^2 + 2 sin(alpha) d_alpha / cos(gamma)) - psi.
    """
    if not abs(gamma) < _HALF_PI:
        raise ValueError(f"yaw must satisfy |gamma| < pi/2, got {gamma}")
    if not 0.0 <= alpha < _HALF_PI:
        raise ValueError(f"tilt must satisfy 0 <= alpha < pi/2, got {alpha}")
    g = abs(gamma)
    lo = math.sin((alpha - g) / 2.0)
    hi = math.sin((alpha + g) / 2.0) / math.cos(gamma)
    # 1 - cos(alpha)/cos(gamma) = 2 lo hi; a 1e-9 slack on the ratio absorbs rounding in alpha
    if 2.0 * lo * hi < -1e-9:
        raise ValueError(f"no valid pitch: cos(alpha)={math.cos(alpha)} exceeds cos(gamma)={math.cos(gamma)}")
    # two square roots so that lo * hi cannot underflow for tiny tilts
    return 2.0 * math.asin(math.sqrt(max(0.0, lo)) * math.sqrt(hi))


def phi_azimuth(gamma: float, psi: float) -> float:
    """Azimuth of the arrival direction in the tilted receive-array frame.

    Two-branch form: pi/2 + arccos(.) for gamma >= 0 and pi/2 - arccos(.)
    for gamma < 0, continuous across gamma = 0 where both branches meet at
    pi/2 (for psi > 0).  Undefined when gamma = psi = 0 since the arrival
    direction is then along boresight.  For psi >= 0 the result lies in
    [0, pi]; negative pitch continues the same branches past that range
    (the value is an angle on the circle).
    """
    if not (abs(gamma) < _HALF_PI and abs(psi) < _HALF_PI):
        raise ValueError(f"yaw/pitch must satisfy |angle| < pi/2, got gamma={gamma}, psi={psi}")
    if gamma == 0.0 and psi == 0.0:
        raise ValueError("azimuth undefined for gamma = psi = 0 (boresight arrival)")
    num = 2.0 * math.cos(gamma) * math.sin(psi)
    den = math.sqrt(3.0 - 2.0 * math.cos(2.0 * gamma) * math.cos(psi) ** 2 - math.cos(2.0 * psi))
    arg = min(1.0, max(-1.0, num / den))
    if gamma >= 0.0:
        return _HALF_PI + math.acos(arg)
    return _HALF_PI - math.acos(arg)


def distances(angles: np.ndarray, cfg, method: str) -> np.ndarray:
    """(A, N, N) element distances for A attitudes, rows (yaw, pitch, roll) of ``angles``.

    ``cfg`` carries the ``tx``/``rx`` arrays and the range r.  With q the rotated
    receive element and t the transmit one, ``exact`` is |q + r z - t| and
    ``farfield`` its first-order expansion r + q_z - (q_x t_x + q_y t_y) / r.
    """
    gamma, psi, roll = (angles[:, i, None, None] for i in range(3))
    theta = cfg.rx.element_angles[:, None] + roll  # (A, N, 1)
    phi = cfg.tx.element_angles[None, :]
    st, ct = np.sin(theta), np.cos(theta)
    sf, cf = np.sin(phi), np.cos(phi)
    sg, cg = np.sin(gamma), np.cos(gamma)
    sp, cp = np.sin(psi), np.cos(psi)
    r = cfg.range_r
    if method == "farfield":
        rr_rt = cfg.rx.radius * cfg.tx.radius / r
        return (
            r
            - rr_rt * st * cf * sp * sg
            - rr_rt * (ct * cf * cg + st * sf * cp)
            + cfg.rx.radius * (st * sp * cg - ct * sg)
        )
    if method != "exact":
        raise ValueError(f"unknown distance method {method!r}")
    # Receive element positions in the transmit-parallel frame, shifted to range r.
    qx = cfg.rx.radius * (ct * cg + st * sp * sg)
    qy = cfg.rx.radius * (st * cp)
    qz = cfg.rx.radius * (st * sp * cg - ct * sg) + r
    return np.sqrt(
        (qx - cfg.tx.radius * cf) ** 2 + (qy - cfg.tx.radius * sf) ** 2 + qz**2
    )
