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
from oamlink import metrics
from oamlink.metrics import (
    AXES,
    CAPACITY_CHUNK,
    SIR_CHUNK,
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


def _contiguous_mode_sets(n: int):
    """Every mode range through 0 of 2 to N modes, none beyond N - 1 from 0."""
    for lo in range(1 - n, 1):
        for hi in range(max(0, lo + 1), min(n - 1, lo + n - 1) + 1):
            yield tuple(range(lo, hi + 1))


def test_asymptotic_sir_holds_where_derived_and_raises_elsewhere():
    # The closed forms hold for even N with no mode at N/2 (mod N): there they
    # meet the exact SIR within S^2 on every range scanned (0.67 S^2 at worst
    # over 89 angles).  A mode at N/2 has two leading orders J_{+-N/2} and odd N
    # keeps odd differences, so those ranges miss it (by a factor 32.4 at N = 10,
    # modes -4..5, 89 degrees) and raise.
    grid = np.radians(np.linspace(1, 89, 12))
    for n in range(2, 17):
        for modes in _contiguous_mode_sets(n):
            if n % 2 or any(l % n == n // 2 for l in modes):
                with pytest.raises(ValueError, match="closed forms"):
                    asymptotic_sir(modes, grid, 0.01, n)
                continue
            for s in (1e-3, 1e-2):
                exact, closed = steered_sir(modes, grid, s, n)[0], asymptotic_sir(modes, grid, s, n)
                finite = np.isfinite(closed)  # +inf where a mode has no interference
                assert np.array_equal(np.isfinite(exact), finite), (n, modes)
                assert np.all(np.abs(exact[finite] / closed[finite] - 1.0) <= s * s), (n, modes, s)


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
    entries = steered_entries(modes, angles, s_coupling, n_elements)
    assert entries.shape == (len(AXES), len(angles), len(modes), len(modes))
    for axis, batched in zip(AXES, entries):
        for k, angle in enumerate(angles):
            for u in range(len(modes)):
                for v in range(len(modes)):
                    oracle = lattice_entry(axis, modes, u, v, angle, s_coupling, n_elements)
                    got = batched[k, u, v]
                    if oracle == 0:
                        assert got == 0, (axis, angle, u, v)
                    else:
                        assert abs(got - oracle) <= 1e-13 * abs(oracle), (axis, angle, u, v)


def folded_lattice(axis, modes, angles, s_coupling, n_elements, q_max):
    """The (A, U, U) entries of the folded lattice over the orders |q| <= q_max, and its (A, N) A^ and B^.

    The residues are summed chunk by chunk from a multiple of N, as
    ``steered_entries`` sums them, so two order counts differ only by the
    orders one of them drops.
    """
    c = np.cos(angles)
    args = np.concatenate([s_coupling * (1 + c) / 2, s_coupling * (1 - c) / 2])
    orders = np.arange(-q_max, q_max + 1)
    powers = np.repeat([1, 3 if axis == "yaw" else 1], len(c))[:, None] * orders
    lead = -q_max % n_elements
    j = metrics._bessel_orders(args, q_max, 0)[:, np.abs(orders)] * np.where((orders < 0) & (orders % 2 == 1), -1.0, 1.0)
    seq = np.array([1, 1j, -1, -1j])[powers % 4] * j
    seq = np.pad(seq, ((0, 0), (lead, -(lead + len(orders)) % n_elements)))
    a_hat, b_hat = np.split(seq.reshape(len(args), -1, n_elements).sum(axis=1), 2)
    lu = np.asarray(modes)[:, None]
    r = np.arange(n_elements)
    hit = (2 * r - lu[:, :, None] - lu.T[:, :, None]) % n_elements == 0
    return np.einsum("uvr,ar,aur->auv", hit, a_hat, b_hat[:, (lu - r) % n_elements]), a_hat, b_hat


@pytest.mark.parametrize("n_elements", [3, 4, 10, 16, 64])
@pytest.mark.parametrize("s_coupling", [5e-324, 1e-300, 1e-3, 0.01, 1.0, 5.6, 20.0, 100.0])
def test_steered_entries_orders_cover_the_tail_bound(n_elements, s_coupling):
    # steered_entries drops the orders past q_max, which its tail bound
    # (metrics._order_max) puts where each folded factor stays within
    # t = 2^-56 min(1, (S/2)^h / h!), h = N // 2, of its full sum.  An entry is
    # at most two products A^ B^, so it moves by at most 2 t (|A^| + |B^| + t).
    # The reference sums at least 200 orders more than the bound keeps anywhere
    # here (168 at S = 100), from the same recurrence, which gives both the same
    # bits at the orders they share, so only the dropped orders tell them apart.
    n, h = n_elements, n_elements // 2
    modes = tuple(range(-((n - 1) // 2), n // 2 + 1))  # every residue mod N
    angles = np.radians([0.0, 1.0, 33.0, 60.0, 89.0])  # 0 puts S itself in the lattice
    t = 2.0**-56 * math.exp(min(0.0, h * (math.log(s_coupling) - math.log(2.0)) - math.lgamma(h + 1)))
    for axis, got in zip(AXES, steered_entries(modes, angles, s_coupling, n)):
        ref, a_hat, b_hat = folded_lattice(axis, modes, angles, s_coupling, n, 2 * math.ceil(s_coupling) + n + 250)
        tol = 2 * t * (np.abs(a_hat).max(axis=1) + np.abs(b_hat).max(axis=1) + t)
        excess = np.abs(got - ref) - tol[:, None, None]
        assert excess.max() <= 0.0, (axis, excess.max())


def test_steered_entries_at_zero_arguments():
    # At 90 degrees S (1 +- cos) / 2 rounds to 0 for S = 5e-324, and J_q(0) is 1 at q = 0 only.
    got = steered_entries((0, 1), [math.pi / 2], 5e-324, 10)
    assert np.array_equal(got, [[[[1.0, 0.0], [0.0, 0.0]]]] * len(AXES))


def test_exact_sir_converges_to_asymptotic():
    ratios = []
    angles = np.radians([10, 30, 60])
    for s in (0.1, 0.01, 0.001):
        exact = steered_sir(MODES, angles, s, 10)[0]
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
    for axis, sirs in zip(AXES, steered_sir(cfg.modes, grid, 0.01, cfg.n_elements)):
        worst = _worst_rise(sirs)
        for u in range(9):
            assert worst[u] <= 1e-12, f"{axis} mode index {u}: worst increase {worst[u]}"


@pytest.mark.parametrize("n, lo, s", [(48, -23, 1e-8), (64, -31, 1e-4), (10, -4, 1e-40), (64, -31, 1e-8)])
def test_steered_sirs_finite_at_small_coupling(n, lo, s):
    # On these links the interference powers |h_uv|^2 underflow to 0 in
    # double precision, which read as +inf SIR in 100 to 600 cells of each
    # 25-angle monotonicity CSV; scaling each row by a power of two first keeps
    # every SIR finite and positive.  At N = 64, S = 1e-8 the leading orders of
    # modes +-31 are J_31..J_33, 5.7e-292 down to 1.3e-311, which scipy's jv
    # returned as 0, an SIR of 0.
    modes = tuple(range(lo, -lo + 1))
    grid = np.radians(np.linspace(1, 89, 25))
    for sirs in steered_sir(modes, grid, s, n):
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
    worst = _worst_rise(steered_sir(cfg.modes, [math.radians(10)], 0.01, cfg.n_elements)[0])
    assert worst[4] <= 1e-12 and worst[4] == 0.0


def test_steered_sir_falls_from_infinity(recwarn):
    # At zero tilt the SIR is +inf (no interference): a step down from it is a
    # fall, and a step from +inf to +inf a plateau, so the worst rise stays finite.
    cfg = default_link()
    assert steered_sir(cfg.modes, [0.0], 0.01, cfg.n_elements)[0, 0, 4] == math.inf
    worst = _worst_rise(steered_sir(cfg.modes, [0.0, 0.1, 0.2], 0.01, cfg.n_elements)[0])
    assert (worst[4] <= 1e-12, worst[4]) == (True, 0.0)
    # One mode has no interference: its SIR is +inf at every angle.
    worst = _worst_rise(steered_sir((0,), [0.0, 0.1, 0.2], 0.01, cfg.n_elements)[1])
    assert (worst[0] <= 1e-12, worst[0]) == (True, 0.0)
    assert len(recwarn) == 0


def test_steered_sir_rise_at_full_coupling():
    # at the reference coupling (~5.6) per-mode SIR is not monotone; the
    # rise must show, not be masked
    cfg = default_link()
    grid = np.radians(np.linspace(1, 89, 50))
    worst = _worst_rise(steered_sir(cfg.modes, grid, 5.585053606381855, cfg.n_elements)[0])[4]
    assert not worst <= 1e-12 and worst > 1.0


def test_steered_sir_chunks_keep_the_bits(monkeypatch):
    # Every step after the shared Bessel fold is per angle, so SIR_CHUNK angles
    # at a time give the bits of one batch of all of them.
    grid = np.radians(np.linspace(1, 89, 2 * SIR_CHUNK + 3))
    chunked = steered_sir(MODES, grid, 0.01, 10)
    monkeypatch.setattr(metrics, "SIR_CHUNK", len(grid))
    assert np.array_equal(steered_sir(MODES, grid, 0.01, 10), chunked)


def test_steered_sir_and_entries_on_no_angles():
    # An empty grid gives empty tables, as asymptotic_sir's (0, U) and
    # capacity_profile's (0,), not numpy's error on a reduction with no identity.
    assert steered_sir(MODES, [], 0.01, 10).shape == (len(AXES), 0, len(MODES))
    assert steered_entries(MODES, [], 0.01, 10).shape == (len(AXES), 0, len(MODES), len(MODES))
    assert asymptotic_sir(MODES, [], 0.01, 10).shape == (0, len(MODES))


def _bessel_series(q: int, x: float, e: int = 0) -> float:
    """J_q(x) 2^(-q e) from its power series sum_m (-1)^m (x/2)^(2m+q) / (m! (m+q)!) in 90-digit decimals.

    x is converted exactly; at x = 100 the terms reach 1e41 and cancel to
    |J| <= 1, so 90 digits leave more than 30 beyond a double's.
    """
    with localcontext() as ctx:
        ctx.prec = 90
        half = Decimal(x) / 2
        term = (half**q if q else Decimal(1)) / math.factorial(q)  # Decimal 0**0 is undefined
        first, total, m = abs(term), term, 0
        while True:
            m += 1
            term *= -half * half / (m * (m + q))
            total += term
            if m > half and abs(term) <= first * Decimal("1e-45"):
                return float(total * Decimal(2) ** (-q * e))


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e-8, 0.01, 1.0, 5.6, 20.0, 100.0])
@pytest.mark.parametrize("n", [2, 10, 64])
def test_bessel_orders_meet_the_recurrence_error_bound(x, n):
    # Each ratio r_k = x / (2k - x r_(k+1)) takes three roundings and inherits its
    # successor's error damped by r_k r_(k+1); J_q multiplies q ratios and divides
    # by the sum of the even orders up to the recurrence's top order.  So each
    # order carries at most 4 (top + 1) roundings of eps / 2: relative to |J_q|
    # where the ratios lie in (0, 1) (q >= x), and to max |J| below x, where J_q
    # oscillates and relative error means nothing at a zero.  Every rounding of a
    # subnormal adds at most 2^-1074.  scipy's jv is no oracle at this accuracy:
    # it returns 0 for J_31(1e-8) = 5.7e-292, and is off by 157 eps at
    # J_1(1e-300) and by 100 eps of max |J| at x = 100.  The scaled table,
    # J_q 2^(-q e), holds no subnormal order at these x, so it takes no floor.
    q_max = metrics._order_max(x, n)
    top = metrics._recurrence_top(x, q_max)
    for e, floor in ((0, 2.0**-1074), (metrics._scale(x), 0.0)):  # unscaled, then scaled
        got = metrics._bessel_orders(np.array([math.ldexp(x, -e)]), q_max, e)[0]
        exact = np.array([_bessel_series(q, x, e) for q in range(q_max + 1)])
        scale = np.where(np.arange(q_max + 1) >= x, np.abs(exact), np.abs(exact).max())
        tol = (top + 1) * (2.0 * np.finfo(float).eps * scale + floor)
        assert np.all(np.abs(got - exact) <= tol), (e, np.max(np.abs(got - exact) / tol))
        if x == 0.0:
            assert got.tolist() == [1.0] + [0.0] * q_max


def _per_axis_sir(modes, angles, s_coupling, n):
    """(2, A, U) SIRs one axis and ``SIR_CHUNK`` angles at a time, the loop ``steered_sir`` had before it stacked the axes."""
    a_hat, b_hat = metrics._folded_sequences(angles, s_coupling, n)
    e = metrics._scale(s_coupling)
    a_hat, b_hats = a_hat[: len(a_hat) // 2], np.split(b_hat, 2)
    sirs = np.empty((len(b_hats), len(a_hat), len(modes)))
    for k, b in enumerate(b_hats):
        for start in range(0, len(a_hat), SIR_CHUNK):
            rows = slice(start, start + SIR_CHUNK)
            sirs[k, rows] = metrics._entry_sir(np.abs(metrics._lattice_entries(a_hat[rows], b[rows], modes, n, e)))
    return sirs


@pytest.mark.parametrize("n, modes, s", [(10, range(-4, 5), 0.01), (9, range(-4, 5), 5.6), (64, range(-31, 32), 1e-4)])
def test_stacked_axes_keep_the_per_axis_bits(n, modes, s):
    # 70 angles make 140 stacked rows: the chunk of rows 64..127 spans the yaw/pitch boundary.
    modes = tuple(modes)
    grid = np.radians(np.linspace(1, 89, 70))
    assert np.array_equal(steered_sir(modes, grid, s, n).view(np.uint64), _per_axis_sir(modes, grid, s, n).view(np.uint64))
    a_hat, b_hat = metrics._folded_sequences(grid, s, n)
    e = metrics._scale(s)
    per_axis = np.stack([metrics._lattice_entries(a_hat[:70], b, modes, n, e) for b in np.split(b_hat, 2)])
    # steered_entries's one ldexp that takes row u from its scale 2^(-|l_u|_N e)
    per_axis = np.ldexp(per_axis.view(float), e * metrics._fold(np.array(modes), n)[:, None]).view(complex)
    assert np.array_equal(steered_entries(modes, grid, s, n).view(np.uint64), per_axis.view(np.uint64))


def _per_pair_asymptotic_sir(modes, angles, s_coupling, n):
    """``asymptotic_sir`` as it was before it read the interfering pairs as Python ints in one pass.

    Its pair table comes from a loop that indexes numpy scalars pair by pair.
    """
    lu = np.asarray(modes, dtype=int)
    lv = lu[:, None, None]
    t = lu - lv
    tau, tb, chi = (np.minimum(x % n, -x % n) for x in np.broadcast_arrays(lu, t // 2, lv + t // 2))
    e = tb + chi - tau
    interferes = (t % 2 == 0) & (t != 0)
    log_factor = np.zeros(t.shape)
    for pair in zip(*np.nonzero(interferes)):
        a, b, c, d = (int(x[pair]) for x in (tau, tb, chi, e))
        log_factor[pair] = math.log(math.ldexp(math.factorial(a) / (math.factorial(b) * math.factorial(c)), -2 * d))
    cg = np.cos(np.atleast_1d(np.asarray(angles, dtype=float)))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_plus, log_minus = np.log1p(cg), np.log1p(-cg)
        log_r = e * math.log(s_coupling) + log_factor + np.where(tb != 0, tb * log_minus, 0.0)
        log_r += np.where(chi != tau, (chi - tau) * log_plus, 0.0)
    x = np.where(interferes, 2.0 * log_r, -math.inf)
    top = x.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    x -= shift
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(-(shift + np.log(np.exp(x, out=x).sum(axis=0))))


@pytest.mark.parametrize(
    "n, modes, s",
    [(10, range(-4, 5), 0.01), (10, (13, -1, 4, 0), 0.01), (48, range(-23, 24), 1e-8), (64, range(-31, 32), 1e-4)],
)
def test_asymptotic_sir_keeps_the_per_pair_loop_bits(n, modes, s):
    modes = tuple(modes)
    angles = np.radians(np.linspace(0, 89, 25))
    got, expected = asymptotic_sir(modes, angles, s, n), _per_pair_asymptotic_sir(modes, angles, s, n)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# The link-fixed tables the kernels build once per process, each in a bounded cache.
_TABLE_CACHES = (metrics._closed_form_pairs, metrics._lattice_gather, metrics._order_tables)


def _arrays(value):
    """Every numpy array of a cached table, through nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    else:
        for item in value:
            yield from _arrays(item)


def test_table_caches_are_bounded_and_read_only():
    grid = np.radians([1.0, 40.0, 89.0])
    steered_sir(MODES, grid, 0.01, 10)
    steered_sir(MODES, grid, 0.01, 9)  # odd N: one residue per pair
    asymptotic_sir(MODES, grid, 0.01, 10)
    q_max, e = metrics._order_max(0.01, 10), metrics._scale(0.01)
    tables = [
        metrics._closed_form_pairs(MODES, 10),
        metrics._lattice_gather(MODES, 10, e),
        metrics._lattice_gather(MODES, 9, e),
        metrics._order_tables(q_max, 10, e),
    ]
    for cache in _TABLE_CACHES:
        info = cache.cache_info()
        assert info.maxsize is not None and 0 < info.maxsize <= 64, cache
        assert info.hits > 0, cache  # the calls above built and then reused it
    for array in (a for table in tables for a in _arrays(table)):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def _sir_bits(n, modes):
    grid = np.radians(np.linspace(1, 89, 12))
    return [
        f(modes, grid, 0.01, n).view(np.uint64).copy() for f in (steered_sir, steered_entries, asymptotic_sir)
    ]


@pytest.mark.parametrize("n, modes, other", [(10, range(-4, 5), (16, range(-7, 8))), (16, range(-7, 8), (10, range(-4, 5)))])
def test_cached_tables_keep_the_bits_across_calls_and_links(n, modes, other):
    modes, (other_n, other_modes) = tuple(modes), other
    for cache in _TABLE_CACHES:
        cache.cache_clear()
    first = _sir_bits(n, modes)  # builds the tables
    repeat = _sir_bits(n, modes)  # reads them
    _sir_bits(other_n, tuple(other_modes))
    after = _sir_bits(n, modes)
    for got in (repeat, after):
        assert all(np.array_equal(a, b) for a, b in zip(first, got))


@pytest.mark.parametrize("n, modes", [(9, range(-4, 5)), (10, range(-5, 5)), (16, range(-7, 9))])
def test_closed_form_domain_raises_on_every_call(n, modes):
    # The pair table is cached per link; the domain check runs before it on every call.
    for _ in range(3):
        with pytest.raises(ValueError, match="closed forms"):
            asymptotic_sir(tuple(modes), [0.5], 0.01, n)
        asymptotic_sir(MODES, [0.5], 0.01, 10)


@pytest.mark.parametrize("s_coupling", [1e-9, 1e-12, 1e-100, 5e-324])
@pytest.mark.parametrize("n, modes", [(10, range(-4, 5)), (16, range(-7, 8)), (64, range(-31, 32)), (64, range(5, 10)), (8, range(1, 4))])
def test_steered_sir_meets_the_closed_form_at_any_small_coupling(n, modes, s_coupling):
    # From the least tilt a double resolves to 89.999 degrees, the steered SIR
    # meets the closed form (off by S^2) to rounding, and is inf only where it
    # is.  Unscaled, the lattice's leading entries underflowed here: at N = 64,
    # S = 1e-9 modes +-31 had an SIR of inf or 0 in 64 of 3150 cells.
    modes = tuple(modes)
    grid = np.radians([1e-6, 1e-4, 0.01, 1.0, 30.0, 60.0, 89.0, 89.999])
    exact, closed = steered_sir(modes, grid, s_coupling, n)[0], asymptotic_sir(modes, grid, s_coupling, n)
    finite = np.isfinite(closed)
    assert np.array_equal(np.isfinite(exact), finite) and np.all(exact > 0)
    assert np.all(np.abs(exact[finite] / closed[finite] - 1.0) <= max(s_coupling**2, 1e-12))


def test_steered_mode_entry_validates_axis():
    cfg = default_link()
    with pytest.raises(ValueError):
        steered_mode_entry("roll", cfg.modes, 0, 1, 0.1, 0.01, cfg.n_elements)
    with pytest.raises(IndexError):  # u = -1 returned the entry of mode +4
        steered_mode_entry("yaw", cfg.modes, -1, 1, 0.1, 0.01, cfg.n_elements)


def test_asymptotic_sir_monotone_decreasing():
    grid = np.radians(np.linspace(1, 89, 50))
    vals = asymptotic_sir(MODES, grid, 0.01, 10)
    assert vals.shape == (len(grid), 9) and np.all(vals[1:] < vals[:-1])
    # one call per angle: numpy may sum a single angle's terms in another order
    one_by_one = np.concatenate([asymptotic_sir(MODES, [g], 0.01, 10) for g in grid])
    np.testing.assert_allclose(one_by_one, vals, rtol=1e-14)


# Imports the package, then runs the monotonicity CLI into sys.argv[1], noting
# after each whether any scipy module is loaded.
_SCIPY_LOADED = """
import runpy, sys
loaded = lambda: any(name.partition(".")[0] == "scipy" for name in sys.modules)
import oamlink
after_import = loaded()
sys.argv = ["oamlink.cli", "monotonicity", "--out", sys.argv[1]]
try:
    runpy.run_module("oamlink.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert exit.code == 0, exit.code
print("scipy loaded:", after_import, loaded())
"""


def test_import_leaves_scipy_special_unloaded(tmp_path):
    # numpy is the one runtime dependency: neither importing the package nor a
    # whole monotonicity run, Bessel lattice included, loads any scipy module.
    env = dict(os.environ, PYTHONPATH=str(Path(oamlink.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_LOADED, str(tmp_path)], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "scipy loaded: False False"
    assert (tmp_path / "monotonicity.csv").stat().st_size > 0
