"""Rotation matrices, angle identities and element distances."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oamlink import (
    Pose,
    alpha_from,
    default_link,
    distances,
    phi_azimuth,
    psi_from,
    rotation_matrix,
)
from oamlink.geometry import PITCH, ROLL, YAW

# frozen from a 30-digit evaluation of arccos(cos(30deg) * cos(45deg))
ALPHA_30_45 = 0.911738290968487636358489564317
# frozen from a 30-digit evaluation of pi/2 - arccos(1/sqrt(3))
PHI_M45_45 = 0.615479708670387341067464589124

EPS = sys.float_info.epsilon
angles = st.floats(-math.pi, math.pi, allow_nan=False)
open_angles = st.floats(-1.39, 1.39)  # ~80 degrees, inside the open pi/2 domain
# Receive attitudes with non-zero yaw, pitch and roll, from a servo residual to steep tilts.
TILTED_POSES = (
    Pose(0.003, -0.004, 0.21),
    Pose(0.52, 0.35, 0.11),
    Pose(-0.7, 0.2, -2.3),
    Pose(1.2, -1.1, 3.0),
)


def oracle_distances(pose, cfg, method):
    """(N, N) distances from the rotation-matrix product q = R_yaw R_pitch R_roll x0.

    The exact model is |q + r z - t|; the far-field model its first-order
    expansion r + q_z - (q_x t_x + q_y t_y) / r.
    """
    M = rotation_matrix(YAW, pose.gamma) @ rotation_matrix(PITCH, pose.psi) @ rotation_matrix(ROLL, pose.roll)
    r = cfg.range_r
    d = np.empty((cfg.n_elements, cfg.n_elements))
    for m, theta in enumerate(cfg.rx.element_angles):
        q = M @ (cfg.rx.radius * np.array([math.cos(theta), math.sin(theta), 0.0]))
        for n, phi in enumerate(cfg.tx.element_angles):
            t = cfg.tx.radius * np.array([math.cos(phi), math.sin(phi), 0.0])
            if method == "exact":
                d[m, n] = np.linalg.norm(q + np.array([0.0, 0.0, r]) - t)
            else:
                d[m, n] = r + q[2] - (q[0] * t[0] + q[1] * t[1]) / r
    return d


def grid(pose, cfg, method):
    return distances(np.array([(pose.gamma, pose.psi, pose.roll)]), cfg, method)[0]


def test_rotation_matrix_identity_at_zero():
    assert np.allclose(rotation_matrix(PITCH, 0.0), np.eye(3), atol=0)


def test_rotation_matrix_yaw_quarter_turn():
    expected = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    assert np.allclose(rotation_matrix(YAW, math.pi / 2), expected, atol=1e-15)


def test_rotation_matrix_roll_inverse_composition():
    theta = 0.7342
    prod = rotation_matrix(ROLL, theta) @ rotation_matrix(ROLL, -theta)
    assert np.abs(prod - np.eye(3)).max() < 1e-14


@given(st.sampled_from([PITCH, YAW, ROLL]), angles)
def test_rotation_matrix_orthogonal_unit_determinant(axis, angle):
    M = rotation_matrix(axis, angle)
    assert np.abs(M.T @ M - np.eye(3)).max() < 1e-13
    assert abs(np.linalg.det(M) - 1.0) < 1e-13


def test_rotation_matrix_bad_axis():
    with pytest.raises(ValueError):
        rotation_matrix("boresight", 0.1)


def test_alpha_from_aligned_and_single_axis():
    assert alpha_from(0.0, 0.0) == 0.0
    psi = math.radians(60)
    assert alpha_from(psi, 0.0) == pytest.approx(psi, abs=1e-15)
    # tiny tilts keep full relative accuracy (the arccos form cancels here)
    for tiny in (1.66e-7, 7.1840481121764905e-06, 1e-9, -1e-9, 1e-200):
        assert abs(alpha_from(tiny, 0.0) - abs(tiny)) <= math.ulp(tiny)
    assert alpha_from(1e-9, 1e-9) == pytest.approx(math.sqrt(2) * 1e-9, rel=1e-15)


def test_alpha_from_frozen_value():
    assert alpha_from(math.radians(30), math.radians(45)) == pytest.approx(ALPHA_30_45, abs=1e-14)


def test_alpha_from_domain_error():
    with pytest.raises(ValueError):
        alpha_from(math.pi / 2, 0.0)


def test_psi_from_trivial_cases():
    assert psi_from(0.0, 0.0) == 0.0
    alpha = math.radians(37)
    assert psi_from(alpha, 0.0) == pytest.approx(alpha, abs=1e-15)


def test_psi_from_round_trip_spot():
    psi, gamma = math.radians(20), math.radians(35)
    assert psi_from(alpha_from(psi, gamma), gamma) == pytest.approx(psi, abs=1e-12)


def test_psi_from_domain_error():
    # tilt smaller than the yaw alone can produce
    with pytest.raises(ValueError):
        psi_from(math.radians(10), math.radians(40))
    # tilt outside [0, pi/2) or not finite
    for alpha, gamma in ((math.nan, 0.0), (-0.3, 0.0), (2.0, 0.1), (math.inf, 0.0)):
        with pytest.raises(ValueError):
            psi_from(alpha, gamma)


@given(open_angles, open_angles)
@example(7.1840481121764905e-06, 0.0)
@example(1.66e-7, 0.0)
@example(1e-9, 1.0)  # alpha rounds to gamma itself
def test_alpha_psi_round_trip(psi, gamma):
    # Recovering psi is ill-conditioned for psi -> 0 at gamma != 0, where
    # d(alpha)/d(psi) = sin(psi) cos(gamma) / sin(alpha) -> 0.  A few ulp of
    # error d_alpha in the tilt then move the pitch by up to
    # sqrt(psi^2 + 2 sin(alpha) d_alpha / cos(gamma)) - |psi|.  The bound stays
    # within O(eps |psi|) of 1e-12 wherever the problem is well conditioned
    # and at gamma = 0.
    alpha = alpha_from(psi, gamma)
    d_alpha = 4 * sys.float_info.epsilon * alpha
    bound = 1e-12 + math.sqrt(psi**2 + 2 * math.sin(alpha) * d_alpha / math.cos(gamma)) - abs(psi)
    assert abs(psi_from(alpha, gamma) - abs(psi)) <= bound


def test_round_trip_grid():
    grid = np.radians(np.linspace(-80, 80, 100))
    for psi in grid:
        for gamma in grid:
            assert psi_from(alpha_from(psi, gamma), gamma) == pytest.approx(abs(psi), abs=1e-12)


def test_phi_azimuth_limits():
    assert phi_azimuth(0.0, math.radians(30)) == pytest.approx(math.pi / 2, abs=1e-12)
    assert phi_azimuth(1e-12, math.radians(30)) == pytest.approx(math.pi / 2, abs=1e-5)
    # vanishing pitch at positive yaw: the arccos argument drops to 0
    assert phi_azimuth(math.radians(45), 1e-14) == pytest.approx(math.pi, abs=1e-6)


def test_phi_azimuth_frozen_second_branch():
    assert phi_azimuth(math.radians(-45), math.radians(45)) == pytest.approx(PHI_M45_45, abs=1e-14)


def test_phi_azimuth_continuity_at_zero_yaw():
    # both branches approach pi/2 as gamma -> 0 for fixed positive pitch
    for psi in np.radians(np.linspace(1, 85, 100)):
        for eps in (1e-9, -1e-9):
            assert phi_azimuth(eps, psi) == pytest.approx(math.pi / 2, abs=1e-6)


def test_phi_azimuth_matches_propagation_direction():
    # azimuth of the boresight propagation direction projected onto the
    # rotated array plane, computed with generic rotation matrices
    for gamma in np.radians([-70, -31, -5, 4, 28, 66]):
        for psi in np.radians([3, 17, 44, 71]):
            M = rotation_matrix(YAW, gamma) @ rotation_matrix(PITCH, psi)
            z = np.array([0.0, 0.0, 1.0])
            expected = math.atan2(z @ M[:, 1], z @ M[:, 0])
            got = phi_azimuth(gamma, psi)
            diff = (got - expected + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-12


def test_phi_azimuth_undefined_at_origin():
    with pytest.raises(ValueError):
        phi_azimuth(0.0, 0.0)


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(math.pi / 2, 0.0)
    with pytest.raises(ValueError):
        Pose(0.0, -math.pi / 2)
    pose = Pose(0.1, -0.2, roll=2.5)
    assert alpha_from(pose.psi, pose.gamma) > 0


@pytest.mark.parametrize("method", ["exact", "farfield"])
@pytest.mark.parametrize("pose", TILTED_POSES)
def test_distances_match_rotation_matrix_product(pose, method):
    # Both sides end in a sum of size d ~ r, rounded by eps d / 2 each; their
    # radius-sized terms (three rotations, a handful of products and trig
    # values) add a few eps R each, bounded by 16 eps (R_r + R_t).
    cfg = default_link(rx_initial_angle=0.1, tx_initial_angle=-0.3)
    expected = oracle_distances(pose, cfg, method)
    tol = EPS * (expected + 16 * (cfg.rx.radius + cfg.tx.radius))
    assert np.all(np.abs(grid(pose, cfg, method) - expected) <= tol)


def test_distances_unknown_method():
    with pytest.raises(ValueError, match="unknown distance method"):
        grid(Pose(0.0, 0.0), default_link(), "spherical")


def test_distance_farfield_aligned_reference_element():
    cfg = default_link()
    d = grid(Pose(0.0, 0.0), cfg, "farfield")[0, 0]
    assert d == pytest.approx(cfg.range_r - cfg.rx.radius * cfg.tx.radius / cfg.range_r, rel=1e-15)


def test_distance_farfield_error_bound_at_default_range():
    # pinned after an exhaustive oracle run: the expansion drops a uniform
    # (Rr^2 + Rt^2) / (2 r) term (~0.89 wavelengths here), giving ~2e-3
    # relative error at 450-wavelength range
    cfg = default_link()
    pose = Pose(math.radians(30), math.radians(20))
    exact, far = grid(pose, cfg, "exact"), grid(pose, cfg, "farfield")
    assert np.max(np.abs(exact - far) / exact) < 2.0e-3


def test_distance_farfield_error_decreases_with_range():
    import warnings

    pose = Pose(math.radians(30), math.radians(20))
    errs = []
    for rw in (100.0, 450.0, 1000.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = default_link(range_wavelengths=rw)
        exact, far = grid(pose, cfg, "exact"), grid(pose, cfg, "farfield")
        errs.append(np.max(np.abs(exact - far) / exact))
    assert errs[0] > errs[1] > errs[2]
