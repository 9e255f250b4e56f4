"""PWM servo model for the three mechanical rotation axes.

The commanded angle maps linearly onto the PWM duty cycle:
angle = pi/(pulse_max - pulse_min) * (duty*period - pulse_mid), so the
mid-width pulse is 0 rad and the min/max widths bound the reachable range.
The potentiometer feedback quantizes what the gear actually reaches to
multiples of ``accuracy_nu``; the step count doubles as the rotation-cost
unit in the complexity model.  Rotation dynamics are not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ServoConfig:
    """PWM timing [s] and potentiometer accuracy [rad].

    Defaults follow standard hobby-servo pulse widths (1/1.5/2 ms over a
    20 ms period, i.e. a +-pi/2 reachable range) with 0.3 degree accuracy.
    """

    period_k: float = 0.020
    pulse_min: float = 0.001
    pulse_mid: float = 0.0015
    pulse_max: float = 0.002
    accuracy_nu: float = math.radians(0.3)

    def __post_init__(self):
        if not (0 < self.pulse_min < self.pulse_mid < self.pulse_max <= self.period_k):
            raise ValueError("need 0 < pulse_min < pulse_mid < pulse_max <= period_k")
        if not self.accuracy_nu > 0:
            raise ValueError("accuracy_nu (potentiometer accuracy) must be positive")

    @property
    def reachable_range(self) -> tuple[float, float]:
        """Angle interval [rad] the gear can be commanded to."""
        span = self.pulse_max - self.pulse_min
        return (
            math.pi * (self.pulse_min - self.pulse_mid) / span,
            math.pi * (self.pulse_max - self.pulse_mid) / span,
        )


def execute_rotation(target: float, servo: ServoConfig) -> tuple[float, int]:
    """Rotate one axis toward ``target`` [rad]; every axis has the same servo.

    Returns (achieved angle, potentiometer step count).  The achieved angle
    is the target rounded to the nearest multiple of the accuracy (ties to
    even), so the residual never exceeds accuracy_nu / 2.  Both the target
    and the achieved angle must lie in the reachable range.
    """
    lo, hi = servo.reachable_range
    if not lo <= target <= hi:
        raise ValueError(f"target {target} rad outside reachable range [{lo}, {hi}]")
    steps = round(target / servo.accuracy_nu)
    achieved = steps * servo.accuracy_nu
    if not lo <= achieved <= hi:  # a coarse accuracy rounds a target near the edge past it
        raise ValueError(
            f"commanded angle {target:.6g} rad is achieved as {achieved:.6g} rad,"
            f" outside the reachable range [{lo:.6g}, {hi:.6g}] rad"
        )
    return achieved, abs(steps)
