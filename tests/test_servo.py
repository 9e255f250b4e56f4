"""PWM duty mapping and potentiometer quantization."""

import math

import pytest
from hypothesis import given, strategies as st

from oamlink import ServoConfig, execute_rotation

SERVO = ServoConfig()


def test_reachable_range_default():
    lo, hi = SERVO.reachable_range
    assert lo == pytest.approx(-math.pi / 2)
    assert hi == pytest.approx(math.pi / 2)


def test_config_validation():
    with pytest.raises(ValueError):
        ServoConfig(pulse_min=0.002, pulse_mid=0.0015, pulse_max=0.001)
    with pytest.raises(ValueError):
        ServoConfig(accuracy_nu=0.0)


def test_reachable_range_is_the_pwm_relation_at_the_pulse_limits():
    # angle = pi / (pulse_max - pulse_min) * (pulse - pulse_mid): the mid pulse
    # commands 0 rad and the min/max pulses bound the range, here off-center.
    servo = ServoConfig(pulse_min=0.0011, pulse_mid=0.0016, pulse_max=0.0019)
    lo, hi = servo.reachable_range
    scale = math.pi / (servo.pulse_max - servo.pulse_min)
    assert lo == pytest.approx(scale * (servo.pulse_min - servo.pulse_mid))
    assert hi == pytest.approx(scale * (servo.pulse_max - servo.pulse_mid))
    assert hi - lo == pytest.approx(math.pi)


def test_out_of_range_errors():
    with pytest.raises(ValueError):
        execute_rotation(2.0, SERVO)


def test_achieved_angle_out_of_range_errors():
    # 1.56 rad lies inside +-pi/2, but a 1 rad accuracy rounds it to 2 rad
    coarse = ServoConfig(accuracy_nu=1.0)
    with pytest.raises(ValueError, match="achieved as 2 rad"):
        execute_rotation(1.56, coarse)
    assert execute_rotation(1.4, coarse) == (1.0, 1)


def test_execute_rotation_zero_target():
    achieved, steps = execute_rotation(0.0, SERVO)
    assert achieved == 0.0 and steps == 0


def test_execute_rotation_exact_multiple():
    achieved, steps = execute_rotation(math.radians(60), SERVO)
    assert steps == 200
    assert achieved == pytest.approx(math.radians(60), abs=1e-12)


def test_execute_rotation_quantization_bound():
    achieved, steps = execute_rotation(math.radians(60.1), SERVO)
    assert abs(achieved - math.radians(60.1)) <= math.radians(0.15) + 1e-15
    assert steps in (200, 201)


@given(st.floats(-math.pi / 2, math.pi / 2))
def test_quantization_error_never_exceeds_half_step(target):
    achieved, steps = execute_rotation(target, SERVO)
    assert abs(achieved - target) <= SERVO.accuracy_nu / 2 + 1e-15
    assert steps == round(abs(achieved) / SERVO.accuracy_nu)


def test_step_count_scales_linearly():
    _, s1 = execute_rotation(math.radians(30), SERVO)
    _, s2 = execute_rotation(math.radians(60), SERVO)
    assert abs(s2 - 2 * s1) <= 1
