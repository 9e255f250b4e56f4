"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Tolerances are frozen here; pinned values come from the
oracle runs recorded in the test comments.
"""

import math
import time

import numpy as np

from oamlink import (
    Pose,
    SaParams,
    ServoConfig,
    alpha_from,
    asymptotic_sir,
    capacity,
    capacity_profile,
    channel_matrices,
    channel_matrix,
    default_link,
    distances,
    grid_search_roll,
    hybrid_pipeline,
    mechanical_roll,
    oam_effective,
    optimize_roll,
    phases_e1,
    phases_e2,
    phases_eo,
    psi_from,
    phi_azimuth,
)
from oamlink.geometry import PITCH, ROLL, YAW, rotation_matrix
from oamlink.metrics import steered_sir


def report(number: int, name: str, ok: bool, detail: str, started: float, budget_s: float):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}  {name}: {detail}  ({elapsed:.2f}s / budget {budget_s:.0f}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget_s, f"criterion {number} exceeded runtime budget: {elapsed:.2f}s"


def electronic_effectives(pose: Pose, cfg):
    effs = []
    steered = pose.gamma != 0.0 or pose.psi != 0.0
    rows = np.exp(1j * phases_eo([pose.gamma], [pose.psi], cfg)[0])
    for p in range(cfg.n_subcarriers):
        H = channel_matrix(p, pose, cfg)
        steer = rows[p] if steered else None
        effs.append(oam_effective(H.entries, cfg.modes, steer))
    return effs


def test_criterion_1_aligned_diagonality():
    started = time.monotonic()
    worst = 0.0
    for n in (4, 10, 16):
        modes = tuple(range(-(n // 2) + 1, n // 2))
        cfg = default_link(n_elements=n, modes=modes)
        H = channel_matrix(0, Pose(0.0, 0.0), cfg)
        eff = oam_effective(H.entries, cfg.modes)
        diag_max = np.abs(np.diag(eff)).max()
        off = np.abs(eff - np.diag(np.diag(eff))).max()
        worst = max(worst, off / diag_max)
    report(1, "aligned mode-domain diagonality", worst <= 1e-10, f"worst off/diag = {worst:.2e}", started, 1.0)


def test_criterion_2_hybrid_recovery():
    started = time.monotonic()
    cfg = default_link()
    servo = ServoConfig()
    theta_star, _ = optimize_roll(cfg, SaParams(rng_seed=0))
    snrs_db = np.arange(0, 31, 2)
    worst_rel = 0.0
    min_margin = math.inf
    for gamma_deg, psi_deg in ((30.0, 30.0), (60.0, 60.0)):
        pose = Pose(math.radians(gamma_deg), math.radians(psi_deg))
        result = hybrid_pipeline([pose], cfg, theta_star, servo)
        rolled = channel_matrices(Pose(0.0, 0.0, result.theta_star), cfg)
        reference = [oam_effective(H.entries, cfg.modes) for H in rolled]
        eo = electronic_effectives(pose, cfg)
        for snr_db in snrs_db:
            rho = 10.0 ** (snr_db / 10.0)
            c_h = capacity(result.effective[0], rho)
            c_ref = capacity(reference, rho)
            worst_rel = max(worst_rel, abs(c_h - c_ref) / c_ref)
            if (gamma_deg, psi_deg) == (60.0, 60.0):
                min_margin = min(min_margin, c_h - capacity(eo, rho))
    ok = worst_rel <= 0.01 and min_margin > 0.0
    report(
        2,
        "hybrid recovers roll-matched perfect alignment",
        ok,
        f"worst |hybrid-perfect|/perfect = {worst_rel:.2e}, min hybrid-electronic margin @60deg = {min_margin:.2f} b/s/Hz",
        started,
        10.0,
    )


def test_criterion_3_large_angle_threshold():
    # percentages pinned after the first oracle run at 0 dB, 6 subcarriers:
    # 10 degrees -> 0.20% below aligned, 60 degrees -> 77.7% below aligned
    started = time.monotonic()
    cfg = default_link(n_subcarriers=6)
    rho = 1.0  # 0 dB
    c_aligned = capacity(electronic_effectives(Pose(0.0, 0.0), cfg), rho)
    c_10 = capacity(electronic_effectives(Pose(math.radians(10), 0.0), cfg), rho)
    c_60 = capacity(electronic_effectives(Pose(math.radians(60), 0.0), cfg), rho)
    small_loss = 1.0 - c_10 / c_aligned
    large_loss = 1.0 - c_60 / c_aligned
    ok = small_loss <= 0.02 and large_loss > 0.20
    report(
        3,
        "electronic-only threshold behavior",
        ok,
        f"loss(10deg) = {small_loss:.2%} (<=2%), loss(60deg) = {large_loss:.2%} (>20%)",
        started,
        10.0,
    )


def test_criterion_4_roll_periodicity_and_cycles():
    # the claim under test is the cycle count: the profile repeats exactly
    # 10 times over a full turn.  With the symmetric mode set the profile is
    # even in theta, so each cycle carries two equal local maxima (raw
    # local-maximum count 20); counting maxima would double-count cycles.
    started = time.monotonic()
    cfg = default_link()
    m = 3600
    thetas = np.linspace(-math.pi, math.pi, m, endpoint=False)
    caps = capacity_profile(thetas, cfg)
    cycles = 0
    for d in range(1, 37):
        if m % d:
            continue
        if np.abs(np.roll(caps, -(m // d)) - caps).max() <= 1e-9:
            cycles = d
    left, right = np.roll(caps, 1), np.roll(caps, -1)
    n_maxima = int(np.sum((caps > left) & (caps > right)))
    shift = m // 10
    periodicity = float(np.abs(np.roll(caps, -shift) - caps).max())
    ok = cycles == 10 and periodicity <= 1e-9 and n_maxima == 2 * cycles
    report(
        4,
        "roll capacity has 10 cycles over a full turn",
        ok,
        f"cycles = {cycles}, |C(t)-C(t+2pi/10)| = {periodicity:.1e}, local maxima = {n_maxima} (2 per cycle)",
        started,
        5.0,
    )


def test_criterion_5_sa_optimality_and_convergence():
    started = time.monotonic()
    cfg = default_link()
    _, cap_grid = grid_search_roll(cfg, 10_000)
    worst_gap = -math.inf
    worst_stable = 0
    for seed in range(20):
        _, trace = optimize_roll(cfg, SaParams(rng_seed=seed))
        bc = np.array(trace.best_capacities)
        gap = cap_grid - bc[-1]
        worst_gap = max(worst_gap, gap)
        worst_stable = max(worst_stable, int(np.argmax(bc[-1] - bc < 1e-6)))
    ok = worst_gap <= 1e-3 and worst_stable <= 30
    report(
        5,
        "annealer matches grid search and converges fast",
        ok,
        f"worst gap to 1e4-point grid = {worst_gap:.2e} b/s/Hz, worst stabilization iter = {worst_stable}",
        started,
        30.0,
    )


def test_criterion_6_small_coupling_monotonicity():
    started = time.monotonic()
    cfg = default_link()
    grid = np.radians(np.linspace(1, 89, 50))
    worst_increase = 0.0
    for sirs in steered_sir(cfg.modes, grid, 0.01, cfg.n_elements):
        with np.errstate(invalid="ignore"):  # a step from +inf is nan, which fmax passes over
            worst = np.fmax.reduce((sirs[1:] - sirs[:-1]) / sirs[:-1], axis=None, initial=0.0)
        worst_increase = max(worst_increase, float(worst))
    angles = np.radians([10, 30, 60, 85])
    exact = steered_sir(cfg.modes, angles, 0.001, cfg.n_elements)[0]
    asym = asymptotic_sir(cfg.modes, angles, 0.001, cfg.n_elements)
    worst_mismatch = float(np.max(np.abs(exact / asym - 1.0)))
    ok = worst_increase <= 1e-12 and worst_mismatch <= 0.05
    report(
        6,
        "SIR monotone at S=0.01; asymptotics match at S=0.001",
        ok,
        f"worst adjacent SIR increase = {worst_increase:.1e}, worst exact/asymptotic mismatch = {worst_mismatch:.2e}",
        started,
        10.0,
    )


def test_criterion_7_hybrid_suppression():
    started = time.monotonic()
    cfg = default_link()
    res = Pose(math.radians(0.3), math.radians(-0.3))
    worst_db = -math.inf
    e1 = phases_e1([res.gamma], [res.psi], cfg)[0]
    for ts in (-math.pi / 10, -0.1, 0.0, 0.1449, math.pi / 10):
        channels = mechanical_roll(res, ts, cfg)
        e2 = phases_e2([res.gamma], [res.psi], ts, cfg)[0]
        for p, H in enumerate(channels):
            eff = oam_effective(H.entries, cfg.modes, np.exp(1j * e1[p]) * np.exp(1j * e2[p]))
            diag_power = np.sum(np.abs(np.diag(eff)) ** 2)
            off_power = np.sum(np.abs(eff) ** 2) - diag_power
            worst_db = max(worst_db, 10 * math.log10(off_power / diag_power))
    report(
        7,
        "hybrid off-diagonal suppression",
        worst_db <= -40.0,
        f"worst off/diag power = {worst_db:.1f} dB (bound -40 dB)",
        started,
        5.0,
    )


def test_criterion_8_complexity_ratio():
    started = time.monotonic()
    from oamlink import cost_electronic, cost_hybrid
    from test_complexity import reference_params

    params = reference_params(n_elements=np.repeat(np.arange(8, 33), 13), p_data=np.tile(np.arange(4, 17), 25))
    ratios = sum(cost_hybrid(params).values()) / sum(cost_electronic(params).values())
    ok = min(ratios) >= 1.009 and max(ratios) <= 1.026
    report(
        8,
        "hybrid/electronic cost ratio band",
        ok,
        f"ratio in [{min(ratios):.4f}, {max(ratios):.4f}] over N=8..32, P=4..16",
        started,
        1.0,
    )


def test_criterion_9_oracle_equivalence():
    started = time.monotonic()
    cfg = default_link(n_elements=4, n_subcarriers=1, modes=(-1, 0, 1))
    k = cfg.wavenumber(0)
    pose = Pose(math.radians(30), math.radians(20))

    # far-field phase within k * (max distance error) of the exact phase
    angles = np.array([(pose.gamma, pose.psi, pose.roll)])
    d_exact = distances(angles, cfg, "exact")[0]
    d_far = distances(angles, cfg, "farfield")[0]
    bound = k * np.abs(d_exact - d_far).max()
    phase_err = np.abs(k * d_far - k * d_exact).max()

    # full steering chain against a generic-rotation brute force
    nu = math.radians(0.3)
    pose2 = Pose(math.radians(50.2), math.radians(20.6))
    ghat = round(pose2.gamma / nu) * nu
    phat = round(pose2.psi / nu) * nu
    res = Pose(pose2.gamma - ghat, pose2.psi - phat)
    ts = 0.11
    n = 4
    M = rotation_matrix(YAW, res.gamma) @ rotation_matrix(PITCH, res.psi) @ rotation_matrix(ROLL, ts)
    theta = cfg.rx.element_angles
    w1 = k * cfg.rx.radius * (
        np.sin(theta) * math.sin(res.psi) * math.cos(res.gamma)
        - np.cos(theta) * math.sin(res.gamma)
    )
    rolled_theta = theta + ts
    w2 = k * cfg.rx.radius * (
        (np.sin(rolled_theta) - np.sin(theta)) * math.sin(res.psi) * math.cos(res.gamma)
        - (np.cos(rolled_theta) - np.cos(theta)) * math.sin(res.gamma)
    )
    H_bf = np.zeros((n, n), dtype=complex)
    for mi in range(n):
        q = M @ (cfg.rx.radius * np.array([math.cos(theta[mi]), math.sin(theta[mi]), 0.0]))
        for ni in range(n):
            t = cfg.tx.radius * np.array([math.cos(theta[ni]), math.sin(theta[ni]), 0.0])
            d_ff = cfg.range_r + q[2] - (q[0] * t[0] + q[1] * t[1]) / cfg.range_r
            H_bf[mi, ni] = cfg.beta / (2 * k * cfg.range_r) * np.exp(-1j * k * d_ff)
    eff_bf = np.zeros((3, 3), dtype=complex)
    for ui, lu in enumerate(cfg.modes):
        for vi, lv in enumerate(cfg.modes):
            acc = 0.0 + 0.0j
            for mi in range(n):
                for ni in range(n):
                    acc += (
                        np.exp(-2j * math.pi * lu * mi / n)
                        * np.exp(1j * (w1[mi] + w2[mi]))
                        * H_bf[mi, ni]
                        * np.exp(2j * math.pi * lv * ni / n)
                    )
            eff_bf[ui, vi] = acc / n
    channels = mechanical_roll(res, ts, cfg)
    e1, e2 = phases_e1([res.gamma], [res.psi], cfg)[0], phases_e2([res.gamma], [res.psi], ts, cfg)[0]
    rows = np.exp(1j * e1) * np.exp(1j * e2)
    eff_lib = oam_effective(channels[0].entries, cfg.modes, rows[0])
    pipeline_err = np.abs(eff_lib - eff_bf).max() / np.abs(eff_bf).max()
    ok = phase_err <= bound + 1e-9 and pipeline_err <= 1e-10
    report(
        9,
        "closed forms match brute-force oracles",
        ok,
        f"phase err {phase_err:.3f} rad <= bound {bound:.3f}, pipeline rel err = {pipeline_err:.1e}",
        started,
        5.0,
    )


def test_criterion_10_geometry_identities():
    started = time.monotonic()
    grid = np.radians(np.linspace(-80, 80, 100))
    worst_round = 0.0
    for psi in grid:
        for gamma in grid:
            rec = psi_from(alpha_from(psi, gamma), gamma)
            worst_round = max(worst_round, abs(rec - abs(psi)))
    worst_cont = 0.0
    for psi in np.radians(np.linspace(0.5, 85, 100)):
        for eps in np.linspace(1e-10, 1e-8, 100):
            for signed in (eps, -eps):
                worst_cont = max(worst_cont, abs(phi_azimuth(signed, psi) - math.pi / 2))
    ok = worst_round <= 1e-12 and worst_cont <= 1e-5
    report(
        10,
        "tilt/pitch round trip and azimuth branch continuity",
        ok,
        f"worst round-trip error = {worst_round:.1e} rad, worst azimuth offset at zero yaw = {worst_cont:.1e} rad",
        started,
        1.0,
    )
