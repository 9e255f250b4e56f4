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
    optimize_roll,
    phases_e1,
    phases_e2,
)

SERVO = ServoConfig()


@pytest.fixture(scope="module")
def cfg():
    return default_link()


@pytest.fixture(scope="module")
def theta_star(cfg):
    return optimize_roll(cfg, SaParams(rng_seed=0))[0]


def test_zero_pose_recovers_aligned_up_to_roll(cfg, theta_star):
    result = hybrid_pipeline([Pose(0.0, 0.0)], cfg, theta_star, SERVO)
    assert result.commands[0, 0] == 0.0
    assert result.commands[0, 1] == 0.0
    assert result.residuals[0].gamma == 0.0 and result.residuals[0].psi == 0.0
    # effective matrices are diagonal (aligned link rolled to the optimum)
    for eff in result.effective[0]:
        diag = np.abs(np.diag(eff))
        off = np.abs(eff - np.diag(np.diag(eff)))
        assert off.max() <= 1e-10 * diag.max()


def test_residual_bounded_by_servo_accuracy(cfg, theta_star):
    pose = Pose(math.radians(60.07), math.radians(29.86))
    result = hybrid_pipeline([pose], cfg, theta_star, SERVO)
    assert abs(result.residuals[0].gamma) <= SERVO.accuracy_nu / 2 + 1e-15
    assert abs(result.residuals[0].psi) <= SERVO.accuracy_nu / 2 + 1e-15
    assert result.servo_steps["yaw"][0] == round(abs(result.commands[0, 0]) / SERVO.accuracy_nu)


def test_aoa_error_shifts_residual(cfg, theta_star):
    err = (math.radians(0.9), math.radians(-0.6))
    pose = Pose(math.radians(30), math.radians(30))
    result = hybrid_pipeline([pose], cfg, theta_star, SERVO, aoa_error=err)
    assert result.residuals[0].gamma == pytest.approx(-err[0], abs=SERVO.accuracy_nu / 2 + 1e-12)
    assert result.residuals[0].psi == pytest.approx(-err[1], abs=SERVO.accuracy_nu / 2 + 1e-12)


def test_poses_in_one_call_equal_one_call_per_pose(cfg, theta_star):
    # The kernels run once for all poses; each pose's slice keeps the bits of
    # a call with that pose alone.
    poses = [Pose(math.radians(a), math.radians(a)) for a in (0.0, 12.0, 36.0, 60.0)]
    result = hybrid_pipeline(poses, cfg, theta_star, SERVO, aoa_error=(0.01, -0.02))
    assert result.effective.shape == (4, cfg.n_subcarriers, cfg.n_modes, cfg.n_modes)
    assert result.phases.shape == (4, cfg.n_subcarriers, cfg.n_elements)
    assert result.commands.shape == (4, 3)
    for a, pose in enumerate(poses):
        one = hybrid_pipeline([pose], cfg, theta_star, SERVO, aoa_error=(0.01, -0.02))
        assert np.array_equal(result.effective[a], one.effective[0])
        assert np.array_equal(result.phases[a], one.phases[0])
        assert np.array_equal(result.commands[a], one.commands[0])
        assert result.residuals[a] == one.residuals[0]
        assert result.servo_steps["yaw"][a] == one.servo_steps["yaw"][0]
        assert result.servo_steps["pitch"][a] == one.servo_steps["pitch"][0]
    assert result.servo_steps["roll"] == one.servo_steps["roll"]


def test_orderings_agree(cfg, theta_star):
    # the stored schedule is the elementwise E1 + E2 sum, and applying it as a
    # single (two-step) schedule reproduces the four-step effective matrices
    pose = Pose(math.radians(45.08), math.radians(20.11))
    result = hybrid_pipeline([pose], cfg, theta_star, SERVO)
    res, ts = result.residuals[0], result.theta_star
    rolled = mechanical_roll(res, ts, cfg)
    e1, e2 = phases_e1([res.gamma], [res.psi], cfg)[0], phases_e2([res.gamma], [res.psi], ts, cfg)[0]
    for p, (H, eff, sched) in enumerate(zip(rolled, result.effective[0], result.phases[0])):
        assert np.array_equal(sched, e1[p] + e2[p])
        two = oam_effective(H.entries, cfg.modes, np.exp(1j * sched))
        assert np.abs(eff - two).max() <= 1e-12 * np.abs(eff).max()


def test_theta_star_within_search_interval(cfg, theta_star):
    result = hybrid_pipeline([Pose(math.radians(30), math.radians(30))], cfg, theta_star, SERVO)
    assert abs(result.theta_star) <= math.pi / 10 + 1e-12
    assert result.commands[0, 2] == result.theta_star


def test_roll_rounded_out_of_reach_errors(cfg):
    # the servo checks the roll it achieves as it checks yaw and pitch
    with pytest.raises(ValueError, match="achieved as 2 rad"):
        hybrid_pipeline([Pose(0.0, 0.0)], cfg, 1.56, ServoConfig(accuracy_nu=1.0))


def test_capacity_close_to_roll_matched_reference(cfg, theta_star):
    # nonzero residual case: suppression keeps the hybrid capacity within a
    # small fraction of the aligned link rolled to the same angle
    pose = Pose(math.radians(45.13), math.radians(29.92))
    result = hybrid_pipeline([pose], cfg, theta_star, SERVO)
    from oamlink import channel_matrices

    rolled = channel_matrices(Pose(0.0, 0.0, result.theta_star), cfg)
    reference = [oam_effective(H.entries, cfg.modes) for H in rolled]
    for rho in (1.0, 100.0, 1000.0):
        c_h = capacity(result.effective[0], rho)
        c_ref = capacity(reference, rho)
        assert abs(c_h - c_ref) / c_ref < 1e-3


def test_pipeline_beats_electronic_only(cfg, theta_star):
    from oamlink import phases_eo

    pose = Pose(math.radians(60), math.radians(60))
    result = hybrid_pipeline([pose], cfg, theta_star, SERVO)
    eo = []
    rows = np.exp(1j * phases_eo([pose.gamma], [pose.psi], cfg)[0])
    for p in range(cfg.n_subcarriers):
        H = channel_matrix(p, pose, cfg)
        eo.append(oam_effective(H.entries, cfg.modes, rows[p]))
    for rho in (1.0, 100.0):
        assert capacity(result.effective[0], rho) > capacity(eo, rho)
