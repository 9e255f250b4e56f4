"""SINR/SIR/capacity metrics and the small-coupling SIR analysis."""

import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

import oamlink
from oamlink import (
    Pose,
    asymptotic_sir,
    capacity,
    channel_matrix,
    default_link,
    oam_effective,
    phases_eo,
    sinr,
    sir,
)
from oamlink.metrics import (
    CAPACITY_CHUNK,
    steered_entries,
    steered_mode_entry,
    steered_sir,
)

MODES = tuple(range(-4, 5))


def electronic_effective(pose: Pose, cfg, p: int = 0):
    H = channel_matrix(p, pose, cfg)
    return oam_effective(H.entries, cfg.modes, np.exp(1j * phases_eo([pose.gamma], [pose.psi], cfg)[0, p]))


def test_sinr_diagonal_matrix():
    eff = np.diag([2.0 + 0j, 0.5 + 0j])
    assert sinr(eff, 0, 10.0) == pytest.approx(10.0 * 4.0)
    assert sinr(eff, 1, 10.0) == pytest.approx(10.0 * 0.25)


def test_sinr_equal_entries_two_modes():
    h = 0.7 - 0.2j
    eff = np.array([[h, h], [h, h]])
    rho = 31.0
    expected = rho * abs(h) ** 2 / (rho * abs(h) ** 2 + 1.0)
    assert sinr(eff, 0, rho) == pytest.approx(expected)


def test_sinr_validation():
    eff = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        sinr(eff, 0, 0.0)
    with pytest.raises(IndexError):
        sinr(eff, 2, 1.0)


def test_sir_diagonal_is_infinite():
    assert sir(np.diag([1.0 + 0j, 2.0 + 0j]), 0) == math.inf


@pytest.mark.parametrize("off", [1e-9, 3e-8])
def test_sir_sums_off_diagonal_power_without_cancellation(off):
    # row sum - signal rounds 1 + off^2 back to 1 and reported inf (1e-9)
    # or a 1.3% error (3e-8); the true SIR is 1 / off^2
    eff = np.array([[1.0, off], [off, 1.0]], dtype=complex)
    assert sir(eff, 0) == pytest.approx(1.0 / off**2, rel=1e-14)


def test_sinr_approaches_sir_at_high_snr():
    cfg = default_link()
    eff = electronic_effective(Pose(math.radians(20), 0.0), cfg)
    s = sir(eff, 4)
    high = sinr(eff, 4, 1e9)
    assert abs(high - s) / s < 1e-6


@settings(max_examples=20)
@given(st.integers(0, 2**31 - 1))
def test_sinr_sir_limit_identity(seed):
    rng = np.random.default_rng(seed)
    eff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for rho in (1e6, 1e9):
        for u in range(4):
            row = np.abs(eff[u]) ** 2
            interference = row.sum() - row[u]
            lhs = sinr(eff, u, rho) * (1.0 + 1.0 / (rho * interference))
            assert lhs == pytest.approx(sir(eff, u), rel=1e-6)


def test_sir_decreases_between_small_yaw_points():
    cfg = default_link()
    a = sir(electronic_effective(Pose(math.radians(5), 0.0), cfg), 5)
    b = sir(electronic_effective(Pose(math.radians(10), 0.0), cfg), 5)
    assert math.isfinite(a) and a > b


def test_capacity_single_mode_unit_sinr():
    eff = np.array([[1.0 + 0j]])
    assert capacity([eff], 1.0) == pytest.approx(1.0)


def test_capacity_increases_when_interference_removed():
    cfg = default_link()
    eff = electronic_effective(Pose(math.radians(30), math.radians(10)), cfg)
    cleaned = np.diag(np.diag(eff))
    assert capacity([cleaned], 100.0) > capacity([eff], 100.0)


@settings(max_examples=20)
@given(st.integers(0, 2**31 - 1))
def test_capacity_invariant_under_row_phase_rotation(seed):
    rng = np.random.default_rng(seed)
    eff = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    phases = np.exp(1j * rng.uniform(-math.pi, math.pi, 5))
    rotated = phases[:, None] * eff
    assert capacity([eff], 50.0) == pytest.approx(capacity([rotated], 50.0), rel=1e-12)


def test_capacity_of_stack_equals_per_pose_calls():
    # the batched (A, S) form has the bits of one call per pose and SNR
    from oamlink.channel import mode_channels

    cfg = default_link(n_subcarriers=3)
    angles = [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1), (1.2, 0.0, 0.0)]
    stack = mode_channels(angles, cfg)
    rhos = 10.0 ** (np.arange(-10.0, 31.0, 8.0) / 10.0)
    caps = capacity(stack, rhos)
    assert caps.shape == (3, len(rhos))
    for a in range(3):
        for j, rho in enumerate(rhos):
            assert caps[a, j] == capacity(stack[a], float(rho))
    assert isinstance(capacity(stack[0], 2.0), float)
    with pytest.raises(ValueError):
        capacity(stack, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        capacity([], 1.0)


def test_capacity_working_memory_bounded_by_chunk():
    # Beyond its (rows, S) result, capacity holds one chunk's temporaries: at most
    # two (CAPACITY_CHUNK, P, U, U) power arrays (|h|^2, then its off-diagonal copy,
    # while the diagonal view keeps |h|^2 alive) and at most four (CAPACITY_CHUNK,
    # S, P, U) per-mode terms.  Evaluating every row at once holds the per-mode
    # terms of all rows instead: 3.5 MB each here, against a 2.3 MB bound.
    P, U, S = 6, 9, 16
    rows = 8 * CAPACITY_CHUNK
    rng = np.random.default_rng(3)
    h = rng.standard_normal((rows, P, U, U)) + 1j * rng.standard_normal((rows, P, U, U))
    rhos = 10.0 ** (np.arange(S) / 5.0)
    bound = 2 * CAPACITY_CHUNK * P * U * U * 8 + 4 * CAPACITY_CHUNK * S * P * U * 8
    capacity(h[:1], rhos)  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        caps = capacity(h, rhos)
        extra = tracemalloc.get_traced_memory()[1] - before - caps.nbytes
    finally:
        tracemalloc.stop()
    assert extra <= bound
    # rows on either side of a chunk boundary keep the bits of a one-pose call
    for a in (0, CAPACITY_CHUNK - 1, CAPACITY_CHUNK, rows - 1):
        assert np.array_equal(caps[a], capacity(h[a], rhos))


def test_aligned_reference_capacity_regression():
    # the perfect-alignment reference curve shared by the angle-sweep and
    # hybrid-compare experiments, frozen from the first oracle run
    expected = {
        8: {0: 22.229520862, 10: 48.512208216, 20: 77.635489479, 30: 107.408443116},
        6: {0: 22.219890137, 10: 48.478942717, 20: 77.563309636, 30: 107.322267650},
    }
    for n_sub, curve in expected.items():
        cfg = default_link(n_subcarriers=n_sub)
        effs = [
            oam_effective(channel_matrix(p, Pose(0.0, 0.0), cfg).entries, cfg.modes)
            for p in range(n_sub)
        ]
        for snr_db, value in curve.items():
            assert capacity(effs, 10 ** (snr_db / 10)) == pytest.approx(value, abs=1e-8)


def test_asymptotic_sir_infinite_at_zero_yaw():
    # Every even-t interference term of mode 1 carries (1 - cos g)^tau_bar with tau_bar > 0.
    assert asymptotic_sir(MODES, 0.0, 0.01, 10)[0, 5] == math.inf


def test_asymptotic_sir_ignores_odd_differences():
    # t = 1 is the only pair, and its entry vanishes at zero pitch for even N.
    assert np.all(asymptotic_sir((0, 1), math.radians(40), 0.01, 10) == math.inf)


def test_asymptotic_sir_linear_specialization():
    # Modes +-1: tau = tau_bar = 1 and chi = 0, so SIR = ((1 + cos g) / (1 - cos g))^2.
    gamma = math.radians(37)
    expected = ((1 + math.cos(gamma)) / (1 - math.cos(gamma))) ** 2
    assert asymptotic_sir((1, -1), gamma, 0.01, 10)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_steered_entry_matches_double_sum_at_moderate_coupling():
    for s_target in (1.0, 5.585053606381855):
        # One carrier at coupling S = k_1 R_r R_t / r = 2 pi * 20 * 20 / (range in wavelengths).
        scaled = default_link(n_subcarriers=1, range_wavelengths=800 * math.pi / s_target)
        assert scaled.coupling(0) == pytest.approx(s_target, rel=1e-14)
        for axis in ("yaw", "pitch"):
            angle = math.radians(33)
            pose = Pose(angle, 0.0) if axis == "yaw" else Pose(0.0, angle)
            eff = electronic_effective(pose, scaled)
            scale = scaled.eta(0) * scaled.n_elements**2
            for u in (0, 4, 5):
                for v in (2, 4, 8):
                    bessel = steered_mode_entry(axis, scaled.modes, u, v, angle, s_target, 10)
                    assert abs(bessel * scale - eff[u, v]) < 1e-10


def lattice_entry(axis, modes, u, v, angle, s_coupling, n_elements):
    """Independent oracle: the (q, w) Bessel lattice summed term by term.

    entry = sum over integer (q, w) with q + w = l_u (mod N), q - w = l_v
    (mod N) of i^(q+w) * sigma^w * J_q(S (1+cos)/2) * J_w(S (1-cos)/2),
    sigma = -1 for yaw and +1 for pitch.  The plain double DFT sum cannot
    serve here: at small S it loses these entries to cancellation.
    """
    sigma = -1.0 if axis == "yaw" else 1.0
    c = math.cos(angle)
    a = s_coupling * (1.0 + c) / 2.0
    b = s_coupling * (1.0 - c) / 2.0
    lu, lv = int(modes[u]), int(modes[v])
    q_max = int(math.ceil(a + b)) + 2 * n_elements + 25
    total = 0.0 + 0.0j
    for q in range(-q_max, q_max + 1):
        # congruences force w = lu - q (mod N) and w = q - lv (mod N)
        if (2 * q - lu - lv) % n_elements != 0:
            continue
        jq = jv(q, a)
        if jq == 0.0:
            continue
        w0 = lu - q
        j_lo = -(q_max + w0) // n_elements
        for j in range(j_lo, (q_max - w0) // n_elements + 1):
            w = w0 + j * n_elements
            total += (1j ** (q + w)) * (sigma**w) * jq * jv(w, b)
    return complex(total)


@pytest.mark.parametrize("n_elements, modes", [(10, range(-4, 5)), (9, range(-4, 5)), (16, range(-3, 4))])
@pytest.mark.parametrize("s_coupling", [1e-3, 1e-2, 1.0, 5.585053606381855])
def test_steered_entries_match_scalar_lattice(n_elements, modes, s_coupling):
    modes = tuple(modes)
    angles = np.radians([0.0, 1.0, 33.0, 60.0, 89.0])
    for axis in ("yaw", "pitch"):
        batched = steered_entries(axis, modes, angles, s_coupling, n_elements)
        assert batched.shape == (len(angles), len(modes), len(modes))
        for k, angle in enumerate(angles):
            for u in range(len(modes)):
                for v in range(len(modes)):
                    oracle = lattice_entry(axis, modes, u, v, angle, s_coupling, n_elements)
                    got = batched[k, u, v]
                    if oracle == 0:
                        assert got == 0, (axis, angle, u, v)
                    else:
                        assert abs(got - oracle) <= 1e-13 * abs(oracle), (axis, angle, u, v)


def test_exact_sir_converges_to_asymptotic():
    ratios = []
    angles = np.radians([10, 30, 60])
    for s in (0.1, 0.01, 0.001):
        exact = steered_sir("yaw", MODES, angles, s, 10)
        ratios.append(np.max(np.abs(exact / asymptotic_sir(MODES, angles, s, 10) - 1.0)))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.05


def _worst_rise(sirs: np.ndarray) -> np.ndarray:
    """Worst adjacent relative increase down each column of an (A, U) SIR table; 0 with none.

    A step from +inf (the interference-free SIR at zero tilt) is nan, which
    fmax passes over: to a finite value it is a fall, to +inf a plateau.
    """
    with np.errstate(invalid="ignore"):
        return np.fmax.reduce((sirs[1:] - sirs[:-1]) / sirs[:-1], axis=0, initial=0.0)


def test_steered_sir_monotone_at_small_coupling_all_modes():
    # A relative increase up to 1e-12 is a plateau, not a violation.
    cfg = default_link()
    grid = np.radians(np.linspace(1, 89, 50))
    for axis in ("yaw", "pitch"):
        worst = _worst_rise(steered_sir(axis, cfg.modes, grid, 0.01, cfg.n_elements))
        for u in range(9):
            assert worst[u] <= 1e-12, f"{axis} mode index {u}: worst increase {worst[u]}"


@pytest.mark.parametrize("n, lo, s", [(48, -23, 1e-8), (64, -31, 1e-4), (10, -4, 1e-40)])
def test_steered_sirs_finite_at_small_coupling(n, lo, s):
    # On these links the interference powers |h_uv|^2 underflow to 0 in
    # double precision, which read as +inf SIR in 100 to 600 cells of each
    # 25-angle monotonicity CSV; scaling each row by a power of two first keeps
    # every SIR finite and positive.
    modes = tuple(range(lo, -lo + 1))
    grid = np.radians(np.linspace(1, 89, 25))
    for axis in ("yaw", "pitch"):
        sirs = steered_sir(axis, modes, grid, s, n)
        assert np.all(np.isfinite(sirs)) and np.all(sirs > 0)


def _fold(x: int, n: int) -> int:
    """Distance of x from the nearest multiple of n."""
    return min(abs(x - k * n) for k in (x // n, x // n + 1))


def _exponents(l_u: int, l_v: int, n: int) -> tuple[int, int, int]:
    """tau, tau_bar and chi of an even mode-number difference t = l_u - l_v, from their definitions."""
    t = l_u - l_v
    return _fold(l_u, n), _fold(t // 2, n), _fold(l_v + t // 2, n)


def _decimal_asymptotic_sir(modes, u: int, n: int, cos_gamma: Decimal, s: Decimal) -> Decimal:
    """The closed forms of ``asymptotic_sir`` in Decimal arithmetic: signal^2 / sum of interference^2."""
    tau = _fold(modes[u], n)
    signal = (s * (1 + cos_gamma)) ** tau / (4**tau * math.factorial(tau))
    interference_power = Decimal(0)
    for l_v in modes:
        if l_v != modes[u] and (modes[u] - l_v) % 2 == 0:  # odd t vanishes at even N
            _, tb, chi = _exponents(modes[u], l_v, n)
            interference = (
                s ** (tb + chi)
                * (1 - cos_gamma) ** tb
                * (1 + cos_gamma) ** chi
                / (4 ** (tb + chi) * math.factorial(tb) * math.factorial(chi))
            )
            interference_power += interference**2
    return signal**2 / interference_power


@pytest.mark.parametrize(
    "n, modes, s",
    [(48, range(-23, 24), 1e-8), (64, range(-31, 32), 1e-4), (10, range(-4, 5), 1e-40), (10, (13, -1, 4, 0), 0.01)],
    ids=["48--23-1e-08", "64--31-0.0001", "10--4-1e-40", "10-wrapped-0.01"],
)
def test_asymptotic_sir_matches_decimal_closed_forms(n, modes, s):
    # On the first three links signal^2 / interference^2 in doubles read inf or 0
    # in 458 cells, though every SIR is a finite double.  The log domain rounds log S,
    # log(1 +- cos), their weighted sum L = ln SIR and exp(-L): about |L| eps from
    # the logs and sum, plus a few eps; measured at most 0.96 of this bound.
    assert _exponents(4, 0, 10) == (4, 2, 2)  # the exponents, checked by hand
    assert _exponents(13, -1, 10) == (3, 3, 4)  # t = 14 wraps modulo 10
    modes = tuple(modes)
    gammas = np.radians(np.linspace(1, 89, 25))
    got = asymptotic_sir(modes, gammas, s, n)
    assert got.shape == (len(gammas), len(modes))
    eps = Decimal(np.finfo(float).eps)
    with localcontext() as ctx:
        ctx.prec = 50
        for u in range(len(modes)):
            for value, c in zip(got[:, u], np.cos(gammas)):
                expected = _decimal_asymptotic_sir(modes, u, n, Decimal(float(c)), Decimal(s))
                assert math.isfinite(value)
                assert abs(Decimal(float(value)) - expected) <= (abs(expected.ln()) + 8) * eps * expected


def test_steered_sir_single_angle_has_no_rise():
    cfg = default_link()
    worst = _worst_rise(steered_sir("yaw", cfg.modes, [math.radians(10)], 0.01, cfg.n_elements))
    assert worst[4] <= 1e-12 and worst[4] == 0.0


def test_steered_sir_falls_from_infinity(recwarn):
    # At zero tilt the SIR is +inf (no interference): a step down from it is a
    # fall, and a step from +inf to +inf a plateau, so the worst rise stays finite.
    cfg = default_link()
    assert steered_sir("yaw", cfg.modes, [0.0], 0.01, cfg.n_elements)[0, 4] == math.inf
    worst = _worst_rise(steered_sir("yaw", cfg.modes, [0.0, 0.1, 0.2], 0.01, cfg.n_elements))
    assert (worst[4] <= 1e-12, worst[4]) == (True, 0.0)
    # One mode has no interference: its SIR is +inf at every angle.
    worst = _worst_rise(steered_sir("pitch", (0,), [0.0, 0.1, 0.2], 0.01, cfg.n_elements))
    assert (worst[0] <= 1e-12, worst[0]) == (True, 0.0)
    assert len(recwarn) == 0


def test_steered_sir_rise_at_full_coupling():
    # at the reference coupling (~5.6) per-mode SIR is not monotone; the
    # rise must show, not be masked
    cfg = default_link()
    grid = np.radians(np.linspace(1, 89, 50))
    worst = _worst_rise(steered_sir("yaw", cfg.modes, grid, 5.585053606381855, cfg.n_elements))[4]
    assert not worst <= 1e-12 and worst > 1.0


def test_steered_sir_validates_axis():
    cfg = default_link()
    with pytest.raises(ValueError):
        steered_sir("roll", cfg.modes, [0.1, 0.2], 0.01, cfg.n_elements)


def test_asymptotic_sir_monotone_decreasing():
    grid = np.radians(np.linspace(1, 89, 50))
    vals = asymptotic_sir(MODES, grid, 0.01, 10)
    assert vals.shape == (len(grid), 9) and np.all(vals[1:] < vals[:-1])
    # one call per angle: numpy may sum a single angle's terms in another order
    one_by_one = np.concatenate([asymptotic_sir(MODES, [g], 0.01, 10) for g in grid])
    np.testing.assert_allclose(one_by_one, vals, rtol=1e-14)


def test_import_leaves_scipy_special_unloaded():
    # only steered_entries needs jv; scipy.special would dominate import time
    code = "import sys, oamlink.experiments; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(oamlink.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
