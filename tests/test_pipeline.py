"""Hybrid steering pipeline end to end."""

import math

import numpy as np
import pytest

from oamlink import (
    Pose,
    SaParams,
    ServoConfig,
    capacity,
    channel_matrix,
    default_link,
    hybrid_pipeline,
    mechanical_roll,
    oam_effective,
    phases_e1,
    phases_e2,
)

SA = SaParams(rng_seed=0)
SERVO = ServoConfig()


@pytest.fixture(scope="module")
def cfg():
    return default_link()


def test_zero_pose_recovers_aligned_up_to_roll(cfg):
    result = hybrid_pipeline(Pose(0.0, 0.0), cfg, SA, SERVO)
    assert result.command.yaw_cmd == 0.0
    assert result.command.pitch_cmd == 0.0
    assert result.residual.gamma == 0.0 and result.residual.psi == 0.0
    # effective matrices are diagonal (aligned link rolled to the optimum)
    for eff in result.effective:
        diag = np.abs(np.diag(eff))
        off = np.abs(eff - np.diag(np.diag(eff)))
        assert off.max() <= 1e-10 * diag.max()


def test_residual_bounded_by_servo_accuracy(cfg):
    pose = Pose(math.radians(60.07), math.radians(29.86))
    result = hybrid_pipeline(pose, cfg, SA, SERVO)
    assert abs(result.residual.gamma) <= SERVO.accuracy_nu / 2 + 1e-15
    assert abs(result.residual.psi) <= SERVO.accuracy_nu / 2 + 1e-15
    assert result.servo_steps["yaw"] == round(abs(result.command.yaw_cmd) / SERVO.accuracy_nu)


def test_aoa_error_shifts_residual(cfg):
    err = (math.radians(0.9), math.radians(-0.6))
    pose = Pose(math.radians(30), math.radians(30))
    result = hybrid_pipeline(pose, cfg, SA, SERVO, aoa_error=err)
    assert result.residual.gamma == pytest.approx(-err[0], abs=SERVO.accuracy_nu / 2 + 1e-12)
    assert result.residual.psi == pytest.approx(-err[1], abs=SERVO.accuracy_nu / 2 + 1e-12)


def test_orderings_agree(cfg):
    # the stored schedule is the elementwise E1 + E2 sum, and applying it as a
    # single (two-step) schedule reproduces the four-step effective matrices
    pose = Pose(math.radians(45.08), math.radians(20.11))
    result = hybrid_pipeline(pose, cfg, SA, SERVO)
    res, ts = result.residual, result.theta_star
    rolled = mechanical_roll(res, ts, cfg)
    e1, e2 = phases_e1(res, cfg), phases_e2(res, ts, cfg)
    for p, (H, eff, sched) in enumerate(zip(rolled, result.effective, result.phases)):
        assert np.array_equal(sched, e1[p] + e2[p])
        two = oam_effective(H.entries, cfg.modes, np.exp(1j * sched))
        assert np.abs(eff - two).max() <= 1e-12 * np.abs(eff).max()


def test_theta_star_within_search_interval(cfg):
    result = hybrid_pipeline(Pose(math.radians(30), math.radians(30)), cfg, SA, SERVO)
    assert abs(result.theta_star) <= math.pi / 10 + 1e-12
    assert result.command.roll_cmd == result.theta_star


def test_capacity_close_to_roll_matched_reference(cfg):
    # nonzero residual case: suppression keeps the hybrid capacity within a
    # small fraction of the aligned link rolled to the same angle
    pose = Pose(math.radians(45.13), math.radians(29.92))
    result = hybrid_pipeline(pose, cfg, SA, SERVO)
    from oamlink import channel_matrices

    rolled = channel_matrices(Pose(0.0, 0.0, result.theta_star), cfg)
    reference = [oam_effective(H.entries, cfg.modes) for H in rolled]
    for rho in (1.0, 100.0, 1000.0):
        c_h = capacity(result.effective, rho)
        c_ref = capacity(reference, rho)
        assert abs(c_h - c_ref) / c_ref < 1e-3


def test_pipeline_beats_electronic_only(cfg):
    from oamlink import phases_eo

    pose = Pose(math.radians(60), math.radians(60))
    result = hybrid_pipeline(pose, cfg, SA, SERVO)
    eo = []
    rows = np.exp(1j * phases_eo([pose.gamma], [pose.psi], cfg)[0])
    for p in range(cfg.n_subcarriers):
        H = channel_matrix(p, pose, cfg)
        eo.append(oam_effective(H.entries, cfg.modes, rows[p]))
    for rho in (1.0, 100.0):
        assert capacity(result.effective, rho) > capacity(eo, rho)
