"""Steering schedules, mechanical channel rebuilds and the diagonal closed form."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oamlink import (
    CarrierGrid,
    Pose,
    capacity_profile,
    channel_matrices,
    channel_matrix,
    default_link,
    mechanical_pitch_yaw,
    mechanical_roll,
    oam_effective,
    phases_e1,
    phases_e2,
    phases_eo,
)
from oamlink.geometry import PITCH, ROLL, YAW, rotation_matrix


def offdiag_power_db(eff: np.ndarray) -> float:
    diag_power = np.sum(np.abs(np.diag(eff)) ** 2)
    off_power = np.sum(np.abs(eff) ** 2) - diag_power
    return 10 * math.log10(off_power / diag_power)


def one_mode_profile(cfg, p, mode, thetas):
    """capacity_profile of ``cfg`` reduced to subcarrier ``p`` and one mode: log2(1 + rho |h_ll|^2)."""
    return capacity_profile(thetas, replace(cfg, carriers=CarrierGrid((cfg.carriers.frequencies[p],)), modes=(mode,)))


def assert_capacity_of_diag(cap, h, rho, rel):
    """``cap`` is log2(1 + rho |g|^2) with |g| = pytest.approx(|h|, rel=rel), to first order.

    The magnitude tolerance is pytest.approx's max(rel |h|, 1e-12), carried through the log.
    """
    x = rho * abs(h) ** 2
    tol = max(rel * abs(h), 1e-12)
    assert abs(cap - math.log2(1.0 + x)) <= 2.0 * rho * abs(h) * tol / ((1.0 + x) * math.log(2.0))


def test_phases_eo_zero_pose():
    cfg = default_link()
    assert np.all(phases_eo([0.0], [0.0], cfg)[0, 0] == 0.0)


def test_phases_eo_yaw_only_form():
    cfg = default_link()
    gamma = math.radians(25)
    w = phases_eo([gamma], [0.0], cfg)[0, 2]
    k_rr = cfg.wavenumber(2) * cfg.rx.radius
    expected = -k_rr * np.cos(cfg.rx.element_angles) * math.sin(gamma)
    assert np.abs(w - expected).max() < 1e-12


def test_phases_eo_cancels_element_angle_phase_term():
    # steering must exactly cancel the k_p*R_r phase line of the channel,
    # leaving a matrix that depends on the pose only through the coupling terms
    cfg = default_link()
    pose = Pose(math.radians(35), math.radians(15))
    p = 1
    H = channel_matrix(p, pose, cfg).entries
    w = phases_eo([pose.gamma], [pose.psi], cfg)[0, p]
    steered = np.exp(1j * w)[:, None] * H
    k = cfg.wavenumber(p)
    s = cfg.coupling(p)
    theta = cfg.rx.element_angles[:, None]
    phi = cfg.tx.element_angles[None, :]
    expected_phase = (
        s * np.sin(theta) * np.cos(phi) * math.sin(pose.psi) * math.sin(pose.gamma)
        + s * (np.cos(theta) * np.cos(phi) * math.cos(pose.gamma) + np.sin(theta) * np.sin(phi) * math.cos(pose.psi))
        - k * cfg.range_r
    )
    expected = cfg.beta / (2 * k * cfg.range_r) * np.exp(1j * expected_phase)
    assert np.abs(steered - expected).max() < 1e-9 * np.abs(expected).max()


def test_phases_e1_equals_eo_at_residual():
    cfg = default_link()
    res = Pose(math.radians(0.21), math.radians(-0.13))
    a = phases_e1([res.gamma], [res.psi], cfg)[0, 3]
    b = phases_eo([res.gamma], [res.psi], cfg)[0, 3]
    assert np.array_equal(a, b)


def test_phases_e2_trivial_zeros():
    cfg = default_link()
    res = Pose(math.radians(0.2), math.radians(0.1))
    assert np.abs(phases_e2([res.gamma], [res.psi], 0.0, cfg)[0, 0]).max() == 0.0
    assert np.abs(phases_e2([0.0], [0.0], 0.3, cfg)[0, 0]).max() == 0.0


def test_phases_e2_equals_element_angle_difference_form():
    # the half-angle product form equals the plain difference of the e1-style
    # correction evaluated at rolled versus unrolled element angles
    cfg = default_link()
    res = Pose(math.radians(0.25), math.radians(-0.2))
    ts = 0.21
    k_rr = cfg.wavenumber(0) * cfg.rx.radius
    theta = cfg.rx.element_angles
    rolled = theta + ts
    expected = k_rr * (
        (np.sin(rolled) - np.sin(theta)) * math.sin(res.psi) * math.cos(res.gamma)
        - (np.cos(rolled) - np.cos(theta)) * math.sin(res.gamma)
    )
    got = phases_e2([res.gamma], [res.psi], ts, cfg)[0, 0]
    assert np.abs(got - expected).max() < 1e-12


def test_phases_e1_e2_rows_equal_one_residual_calls():
    # One call over A residuals gives each residual's bits of a call with it alone.
    cfg = default_link()
    gamma, psi = np.radians([0.3, -0.1, 0.0, 0.15]), np.radians([-0.2, 0.25, 0.0, 0.1])
    e1, e2 = phases_e1(gamma, psi, cfg), phases_e2(gamma, psi, 0.21, cfg)
    assert e1.shape == e2.shape == (4, cfg.n_subcarriers, cfg.n_elements)
    for a in range(4):
        assert np.array_equal(e1[a], phases_e1(gamma[a:a + 1], psi[a:a + 1], cfg)[0])
        assert np.array_equal(e2[a], phases_e2(gamma[a:a + 1], psi[a:a + 1], 0.21, cfg)[0])


def test_mechanical_pitch_yaw_perfect_command():
    cfg = default_link()
    pose = Pose(math.radians(40), math.radians(30))
    residual = mechanical_pitch_yaw(pose, pose.gamma, pose.psi)
    channels = channel_matrices(residual, cfg)
    assert residual.gamma == 0.0 and residual.psi == 0.0
    aligned = channel_matrix(0, Pose(0.0, 0.0), cfg).entries
    assert np.abs(channels[0].entries - aligned).max() == 0.0
    assert len(channels) == cfg.n_subcarriers


def test_mechanical_pitch_yaw_null_command():
    cfg = default_link()
    pose = Pose(math.radians(40), math.radians(30))
    residual = mechanical_pitch_yaw(pose, 0.0, 0.0)
    channels = channel_matrices(residual, cfg)
    original = channel_matrix(0, pose, cfg).entries
    assert np.abs(channels[0].entries - original).max() == 0.0


def test_mechanical_pitch_yaw_rejects_residual_of_pi_2():
    # a residual of pi/2 or more is no Pose; the servo checks its own reach
    with pytest.raises(ValueError, match="pi/2"):
        mechanical_pitch_yaw(Pose(1.0, 0.0), -1.0, 0.0)


def test_mechanical_roll_zero_equals_residual_stage():
    cfg = default_link()
    res = Pose(math.radians(0.2), math.radians(0.1))
    rolled = mechanical_roll(res, 0.0, cfg)
    f1 = channel_matrices(res, cfg)
    for a, b in zip(rolled, f1):
        assert np.abs(a.entries - b.entries).max() == 0.0


def test_mechanical_roll_full_spacing_permutes_rows():
    cfg = default_link()
    res = Pose(0.0, 0.0)
    rolled = mechanical_roll(res, 2 * math.pi / 10, cfg)[0].entries
    base = channel_matrices(res, cfg)[0].entries
    assert np.abs(rolled - np.roll(base, -1, axis=0)).max() < 1e-9 * np.abs(base).max()


def test_mechanical_roll_against_geometric_brute_force():
    cfg = default_link()
    res = Pose(math.radians(0.2), math.radians(-0.15))
    ts = 0.1
    rolled = mechanical_roll(res, ts, cfg)[0].entries
    k = cfg.wavenumber(0)
    M = rotation_matrix(YAW, res.gamma) @ rotation_matrix(PITCH, res.psi) @ rotation_matrix(ROLL, ts)
    H = np.zeros((10, 10), dtype=complex)
    for mi in range(10):
        theta = cfg.rx.element_angles[mi]
        q = M @ (cfg.rx.radius * np.array([math.cos(theta), math.sin(theta), 0.0]))
        for ni in range(10):
            phi = cfg.tx.element_angles[ni]
            t = cfg.tx.radius * np.array([math.cos(phi), math.sin(phi), 0.0])
            d_ff = cfg.range_r + q[2] - (q[0] * t[0] + q[1] * t[1]) / cfg.range_r
            H[mi, ni] = cfg.beta / (2 * k * cfg.range_r) * np.exp(-1j * k * d_ff)
    assert np.abs(rolled - H).max() < 1e-10 * np.abs(H).max()


def test_closed_form_diag_matches_double_sum():
    # capacity_profile's closed-form diagonal against the explicit double DFT
    # sum, mode by mode
    cfg = default_link()
    H = channel_matrix(0, Pose(0.0, 0.0), cfg)
    eff = oam_effective(H.entries, cfg.modes)
    for u, mode in enumerate(cfg.modes):
        assert_capacity_of_diag(one_mode_profile(cfg, 0, mode, 0.0)[0], eff[u, u], cfg.snr_rho, 1e-12)


def test_closed_form_diag_rolled_matches_double_sum():
    # the closed form carries the despiralization convention that tracks the
    # rolled element angles; it equals the fixed-DFT double sum up to the
    # unit phase exp(i * mode * theta), so magnitudes and capacity agree
    cfg = default_link()
    ts = 0.13
    rolled = mechanical_roll(Pose(0.0, 0.0), ts, cfg)
    eff = oam_effective(rolled[0].entries, cfg.modes)
    for u, mode in enumerate(cfg.modes):
        assert_capacity_of_diag(one_mode_profile(cfg, 0, mode, ts)[0], eff[u, u], cfg.snr_rho, 1e-10)


def test_closed_form_diag_periodicity_and_mode_wrap():
    cfg = default_link()
    theta = 0.05
    n = cfg.n_elements
    for mode in (-4, 0, 3):
        a, b = one_mode_profile(cfg, 0, mode, [theta, theta + 2 * math.pi / n])
        assert a == pytest.approx(b, rel=1e-12)
    # adding N to the mode number preserves the diagonal magnitude
    lo = one_mode_profile(cfg, 0, 2, theta)[0]
    hi = one_mode_profile(cfg, 0, 12, theta)[0]
    assert hi == pytest.approx(lo, rel=1e-12)


def test_e1_suppression_bound():
    # frozen regression bound: off-diagonal power at least 40 dB below
    # diagonal power for residuals up to 0.3 degree (measured ~-82 dB)
    cfg = default_link()
    res = Pose(math.radians(0.3), math.radians(0.3))
    channels = channel_matrices(res, cfg)
    e1 = phases_e1([res.gamma], [res.psi], cfg)[0]
    for p, H in enumerate(channels):
        eff = oam_effective(H.entries, cfg.modes, np.exp(1j * e1[p]))
        assert offdiag_power_db(eff) < -40.0


def test_hybrid_suppression_bound_over_roll_range():
    cfg = default_link()
    res = Pose(math.radians(0.3), math.radians(-0.3))
    e1 = phases_e1([res.gamma], [res.psi], cfg)[0]
    for ts in (-math.pi / 10, -0.1, 0.02, 0.1449, math.pi / 10):
        channels = mechanical_roll(res, ts, cfg)
        e2 = phases_e2([res.gamma], [res.psi], ts, cfg)[0]
        for p, H in enumerate(channels):
            eff = oam_effective(H.entries, cfg.modes, np.exp(1j * e1[p]) * np.exp(1j * e2[p]))
            assert offdiag_power_db(eff) < -40.0


def test_hybrid_diag_closed_form_accuracy():
    # hybrid-steered diagonal versus the double DFT sum of the aligned link
    # rolled to the same angle; worst case measured 2.22e-3 over the
    # 0.3-degree residual corners (the low-magnitude mode 0 dominates the
    # relative error), frozen at 3e-3
    cfg = default_link()
    res = Pose(math.radians(0.3), math.radians(0.2))
    ts = 0.11
    channels = mechanical_roll(res, ts, cfg)
    aligned = mechanical_roll(Pose(0.0, 0.0), ts, cfg)
    e1, e2 = phases_e1([res.gamma], [res.psi], cfg)[0], phases_e2([res.gamma], [res.psi], ts, cfg)[0]
    rows = np.exp(1j * e1) * np.exp(1j * e2)
    for p in (0, 4, 7):
        eff = oam_effective(channels[p].entries, cfg.modes, rows[p])
        predicted = np.diag(oam_effective(aligned[p].entries, cfg.modes))
        assert np.max(np.abs(np.diag(eff) - predicted) / np.abs(predicted)) <= 3e-3
