"""PWM duty mapping and potentiometer quantization."""

import math

import pytest
from hypothesis import given, strategies as st

from oamlink import ServoConfig, angle_from_duty, duty_from_angle, execute_rotation

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


def test_angle_from_duty_center_and_max():
    assert angle_from_duty(SERVO.pulse_mid / SERVO.period_k, SERVO) == pytest.approx(0.0)
    expected_max = math.pi * (SERVO.pulse_max - SERVO.pulse_mid) / (SERVO.pulse_max - SERVO.pulse_min)
    assert angle_from_duty(SERVO.pulse_max / SERVO.period_k, SERVO) == pytest.approx(expected_max)


def test_duty_from_angle_endpoints():
    assert duty_from_angle(0.0, SERVO) == pytest.approx(SERVO.pulse_mid / SERVO.period_k)
    lo, hi = SERVO.reachable_range
    assert duty_from_angle(hi, SERVO) == pytest.approx(SERVO.pulse_max / SERVO.period_k)
    assert duty_from_angle(lo, SERVO) == pytest.approx(SERVO.pulse_min / SERVO.period_k)


def test_out_of_range_errors():
    with pytest.raises(ValueError):
        angle_from_duty(0.5 * SERVO.pulse_min / SERVO.period_k, SERVO)
    with pytest.raises(ValueError):
        duty_from_angle(2.0, SERVO)
    with pytest.raises(ValueError):
        execute_rotation(2.0, SERVO)


@given(st.floats(-math.pi / 2, math.pi / 2))
def test_duty_angle_round_trip(theta):
    assert angle_from_duty(duty_from_angle(theta, SERVO), SERVO) == pytest.approx(theta, abs=1e-12)


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
