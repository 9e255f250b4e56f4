"""Channel matrices, DFT spiralization and the noisy receive chain."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oamlink import (
    Pose,
    channel_matrices,
    channel_matrix,
    default_link,
    distances,
    oam_effective,
    partial_dft,
    phases_eo,
    simulate_reception,
    sinr,
)
from oamlink.channel import POSE_CHUNK, mode_channels
from oamlink.geometry import PITCH, ROLL, YAW, rotation_matrix
from oamlink.metrics import AXES, steered_entries

EPS = np.finfo(float).eps


def brute_force_channel(p, pose, cfg, method="exact"):
    """Positions by generic rotation products, exact distances or their far-field expansion, first-line coefficient."""
    n = cfg.n_elements
    k = cfg.wavenumber(p)
    r = cfg.range_r
    M = rotation_matrix(YAW, pose.gamma) @ rotation_matrix(PITCH, pose.psi) @ rotation_matrix(ROLL, pose.roll)
    H = np.zeros((n, n), dtype=complex)
    for mi in range(n):
        theta = cfg.rx.element_angles[mi]
        q = M @ (cfg.rx.radius * np.array([math.cos(theta), math.sin(theta), 0.0]))
        for ni in range(n):
            phi = cfg.tx.element_angles[ni]
            t = cfg.tx.radius * np.array([math.cos(phi), math.sin(phi), 0.0])
            if method == "exact":
                d = np.linalg.norm(q + np.array([0.0, 0.0, r]) - t)
                H[mi, ni] = cfg.beta / (2 * k * d) * np.exp(-1j * k * d)
            else:
                d = r + q[2] - (q[0] * t[0] + q[1] * t[1]) / r
                H[mi, ni] = cfg.beta / (2 * k * r) * np.exp(-1j * k * d)
    return H


def test_farfield_amplitude_is_index_independent():
    cfg = default_link()
    pose = Pose(math.radians(25), math.radians(-10))
    H = channel_matrix(0, pose, cfg).entries
    expected = cfg.beta / (2 * cfg.wavenumber(0) * cfg.range_r)
    assert np.abs(np.abs(H) - expected).max() < 1e-12 * expected


def test_aligned_channel_depends_on_index_difference_only():
    cfg = default_link()
    H = channel_matrix(0, Pose(0.0, 0.0), cfg).entries
    n = cfg.n_elements
    for m in range(n):
        for nn in range(n):
            assert H[m, nn] == pytest.approx(H[0, (nn - m) % n], rel=1e-12)


def test_channel_matrix_matches_channel_coeff():
    # per-element coefficients beta/(2 k d) exp(-i k d) from the distance grid
    cfg = default_link(n_elements=5, n_subcarriers=2, modes=(0, 1, 2))
    pose = Pose(math.radians(33), math.radians(-21))
    k = cfg.wavenumber(1)
    for method in ("farfield", "exact"):
        H = channel_matrix(1, pose, cfg, method=method).entries
        d = distances(np.array([(pose.gamma, pose.psi, pose.roll)]), cfg, method)[0]
        for m in range(5):
            for n in range(5):
                amplitude = cfg.beta / (2.0 * k * (d[m, n] if method == "exact" else cfg.range_r))
                assert amplitude * np.exp(-1j * k * d[m, n]) == pytest.approx(H[m, n], rel=1e-12)


@pytest.mark.parametrize("method", ["exact", "farfield"])
@pytest.mark.parametrize("pose", [Pose(0.52, 0.35, 0.11), Pose(-0.7, 0.2, -2.3), Pose(1.2, -1.1, 3.0)])
def test_channel_against_brute_force(pose, method):
    # Each side rounds d to about eps (d + 16 (R_r + R_t)) (test_geometry's
    # oracle test) and the phase k d to eps k d, so with d <= r + R_r + R_t the
    # phases differ by up to 2 eps k (2 d + 16 (R_r + R_t)); exp and the
    # amplitude add a few eps.
    cfg = default_link()
    radii = cfg.rx.radius + cfg.tx.radius
    d_max = cfg.range_r + radii
    for p, H in enumerate(channel_matrices(pose, cfg, method)):
        Hb = brute_force_channel(p, pose, cfg, method)
        tol = 2 * EPS * cfg.wavenumber(p) * (2 * d_max + 16 * radii) + 8 * EPS
        assert np.max(np.abs(H.entries - Hb) / np.abs(Hb)) <= tol


def test_farfield_phase_tracks_exact_phase():
    # With q the rotated receive element (|q| = R_r, so |q_z| <= R_r) and t the
    # transmit one (|t| = R_t, t_z = 0), d_exact^2 = r^2 + 2 r q_z + |q - t|^2, so
    # d_exact = r sqrt(1 + e) with |e| <= (2 r R_r + (R_r + R_t)^2) / r^2.  Its
    # first-order term r e / 2 = q_z + (R_r^2 + R_t^2) / (2r) - (q_x t_x + q_y t_y) / r
    # is d_ff plus a constant, so d_exact - d_ff - (R_r^2 + R_t^2) / (2r) is the
    # Taylor remainder of r sqrt(1 + e): at most r e^2 / 8 (1 - |e|)^(-3/2).  On the
    # default link k_p times this bound is 3.9 to 4.1 rad, against up to 3.1 rad
    # measured (85 degrees yaw); a far-field term of order k R_r R_t / r (5.6 rad)
    # gone wrong breaks it.  8 eps r covers the rounding of distances near r.
    cfg = default_link()
    r, rr, rt = cfg.range_r, cfg.rx.radius, cfg.tx.radius
    e = (2 * r * rr + (rr + rt) ** 2) / r**2
    bound = r * e**2 / 8 * (1 - e) ** -1.5 + 8 * EPS * r
    k = cfg.wavenumbers.max()
    for gamma_deg, psi_deg, roll in ((0, 0, 0), (30, 20, 0), (85, 0, 0), (0, 85, 0), (60, 60, 1.0), (-45, 70, -2.0)):
        angles = np.array([(math.radians(gamma_deg), math.radians(psi_deg), roll)])
        d_e, d_f = distances(angles, cfg, "exact")[0], distances(angles, cfg, "farfield")[0]
        dropped = d_e - d_f - (rr**2 + rt**2) / (2 * r)
        assert k * np.abs(dropped).max() <= k * bound, (gamma_deg, psi_deg, roll)


def test_relabeling_invariance():
    # shifting both initial angles by the same element spacing leaves the
    # aligned channel unchanged entry for entry
    shift = 2 * math.pi / 10
    cfg0 = default_link()
    cfg1 = default_link(rx_initial_angle=shift, tx_initial_angle=shift)
    H0 = channel_matrix(0, Pose(0, 0), cfg0).entries
    H1 = channel_matrix(0, Pose(0, 0), cfg1).entries
    assert np.abs(H0 - H1).max() < 1e-9 * np.abs(H0).max()


def test_dft_vector_basics():
    def dft_vector(mode, n):
        return partial_dft([mode], n)[0]

    v = dft_vector(0, 7)
    assert np.allclose(v, np.full(7, 1 / math.sqrt(7)))
    assert np.allclose(dft_vector(8, 7), dft_vector(1, 7))
    for l1 in range(-3, 4):
        for l2 in range(-3, 4):
            ip = dft_vector(l1, 7) @ dft_vector(l2, 7).conj()
            expected = 1.0 if (l1 - l2) % 7 == 0 else 0.0
            assert abs(ip - expected) < 1e-13


def test_partial_dft_orthonormal_rows():
    F = partial_dft(range(-4, 5), 10)
    assert F.shape == (9, 10)
    assert np.abs(F @ F.conj().T - np.eye(9)).max() < 1e-13
    full = partial_dft(range(10), 10)
    assert np.abs(full @ full.conj().T - np.eye(10)).max() < 1e-13
    single = partial_dft([3], 10)
    assert abs(np.linalg.norm(single) - 1.0) < 1e-14


def test_partial_dft_duplicate_modes_rejected():
    with pytest.raises(ValueError):
        partial_dft([1, 1], 10)
    with pytest.raises(ValueError):
        partial_dft([1, 11], 10)  # identical rows modulo N


@pytest.mark.parametrize("n", [4, 10, 16])
def test_aligned_oam_is_diagonal(n):
    modes = tuple(range(-(n // 2) + 1, n // 2))
    cfg = default_link(n_elements=n, modes=modes)
    H = channel_matrix(0, Pose(0.0, 0.0), cfg)
    eff = oam_effective(H.entries, cfg.modes)
    diag = np.abs(np.diag(eff))
    off = np.abs(eff - np.diag(np.diag(eff)))
    assert off.max() <= 1e-10 * diag.mean()


def test_oam_effective_identity_steering():
    cfg = default_link()
    H = channel_matrix(0, Pose(math.radians(15), 0.0), cfg)
    zero = np.exp(1j * np.zeros(10))
    a = oam_effective(H.entries, cfg.modes, None)
    b = oam_effective(H.entries, cfg.modes, zero)
    assert np.abs(a - b).max() == 0.0


def test_full_despiralization_preserves_energy():
    cfg = default_link()
    H = channel_matrix(0, Pose(math.radians(37), math.radians(11)), cfg)
    eff = oam_effective(H.entries, tuple(range(10)), None)
    assert np.linalg.norm(eff) == pytest.approx(np.linalg.norm(H.entries), rel=1e-12)


@settings(max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_steering_inverse_recovers_unsteered(seed):
    rng = np.random.default_rng(seed)
    cfg = default_link(n_elements=6, modes=(-2, -1, 0, 1, 2))
    H = channel_matrix(0, Pose(0.3, -0.2), cfg)
    w = rng.uniform(-math.pi, math.pi, 6)
    eff = oam_effective(H.entries, cfg.modes, np.exp(1j * w) * np.exp(-1j * w))
    plain = oam_effective(H.entries, cfg.modes)
    assert np.abs(eff - plain).max() <= 1e-14 * np.abs(plain).max()


def test_simulate_reception_noiseless_single_mode():
    cfg = default_link()
    H = channel_matrix(0, Pose(0.0, 0.0), cfg).entries
    eff = oam_effective(H, cfg.modes)
    s = np.zeros(9, dtype=complex)
    s[5] = 1.0
    y = simulate_reception(s, H, cfg.modes, noise_sigma=0.0)
    others = np.abs(np.delete(y, 5))
    assert others.max() <= 1e-10 * abs(y[5])
    assert np.abs(y - eff @ s).max() < 1e-12


def test_simulate_reception_noiseless_matches_effective_product():
    cfg = default_link()
    H = channel_matrix(0, Pose(math.radians(9), math.radians(4)), cfg).entries
    eff = oam_effective(H, cfg.modes)
    rng = np.random.default_rng(5)
    s = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = simulate_reception(s, H, cfg.modes, noise_sigma=0.0)
    assert np.abs(y - eff @ s).max() < 1e-12


def test_simulate_reception_deterministic_given_seed():
    cfg = default_link()
    H = channel_matrix(0, Pose(0.0, 0.0), cfg).entries
    s = np.ones(9, dtype=complex)
    y1 = simulate_reception(s, H, cfg.modes, noise_sigma=1.0, rng=42)
    y2 = simulate_reception(s, H, cfg.modes, noise_sigma=1.0, rng=42)
    assert np.array_equal(y1, y2)


def test_monte_carlo_sinr_matches_analytic():
    # 1e5 noise draws at 20 dB, aligned link: empirical SINR within 0.2 dB
    cfg = default_link()
    rho = 100.0
    H = channel_matrix(0, Pose(0.0, 0.0), cfg).entries
    eff = oam_effective(H, cfg.modes)
    draws = 100_000
    s = np.full((9, draws), math.sqrt(rho), dtype=complex)
    y = simulate_reception(s, H, cfg.modes, noise_sigma=1.0, rng=123)
    for u in (0, 4, 5):
        predicted = sinr(eff, u, rho)
        signal = rho * abs(eff[u, u]) ** 2
        residual = np.mean(np.abs(y[u] - eff[u, u] * s[u]) ** 2)
        empirical = signal / residual
        assert abs(10 * math.log10(predicted / empirical)) < 0.2


def test_simulate_reception_dimension_mismatch():
    cfg = default_link()
    H = channel_matrix(0, Pose(0.0, 0.0), cfg).entries
    with pytest.raises(ValueError):
        simulate_reception(np.ones(4), H, cfg.modes)


@pytest.mark.parametrize("steered", [False, True])
def test_mode_channels_slices_equal_one_pose_views(steered):
    # every slice, at any batch position and chunk, has the bits of the one-pose path
    cfg = default_link()
    rng = np.random.default_rng(1)
    count = 2 * POSE_CHUNK + 3
    angles = np.column_stack([rng.uniform(-1, 1, count), rng.uniform(-1, 1, count), rng.uniform(-3, 3, count)])
    rows = np.exp(1j * phases_eo(angles[:, 0], angles[:, 1], cfg)) if steered else None
    batch = mode_channels(angles, cfg, rows)
    assert batch.shape == (count, cfg.n_subcarriers, cfg.n_modes, cfg.n_modes)
    for a in (0, POSE_CHUNK - 1, POSE_CHUNK, count - 1):
        pose = Pose(*angles[a])
        single = mode_channels(angles[a : a + 1], cfg, None if rows is None else rows[a : a + 1])[0]
        assert np.array_equal(single, batch[a])
        for p in range(cfg.n_subcarriers):
            H = channel_matrix(p, pose, cfg)
            steering = np.exp(1j * phases_eo([pose.gamma], [pose.psi], cfg)[0, p]) if steered else None
            assert np.array_equal(oam_effective(H.entries, cfg.modes, steering), batch[a, p])


def test_mode_channels_steering_sets_equal_one_set_calls():
    # a leading axis of steering sets gives each set's bits, chunk by chunk,
    # the all-ones set those of no steering
    cfg = default_link()
    rng = np.random.default_rng(2)
    count = POSE_CHUNK + 5
    angles = np.column_stack([rng.uniform(-1, 1, count), rng.uniform(-1, 1, count), rng.uniform(-3, 3, count)])
    steered = np.exp(1j * phases_eo(angles[:, 0], angles[:, 1], cfg))
    sets = mode_channels(angles, cfg, np.stack([np.ones_like(steered), steered, steered.conj()]))
    assert sets.shape == (3, count, cfg.n_subcarriers, cfg.n_modes, cfg.n_modes)
    assert np.array_equal(sets[0], mode_channels(angles, cfg))
    assert np.array_equal(sets[1], mode_channels(angles, cfg, steered))
    assert np.array_equal(sets[2], mode_channels(angles, cfg, steered.conj()))
    H = channel_matrices(Pose(*angles[0]), cfg)[0].entries
    rows = steered[0, 0]
    assert np.array_equal(oam_effective(H, cfg.modes, np.stack([rows, rows.conj()]))[1], oam_effective(H, cfg.modes, rows.conj()))


@pytest.mark.parametrize("shape", [(3, 9), (2, 2, 10), (9,)])
def test_oam_effective_rejects_misshaped_rows(shape):
    cfg = default_link()
    H = channel_matrix(0, Pose(0.1, 0.2), cfg).entries
    with pytest.raises(ValueError, match="steering rows"):
        oam_effective(H, cfg.modes, np.ones(shape))


def test_mode_channels_rejects_misshaped_rows():
    cfg = default_link()
    with pytest.raises(ValueError, match="steering rows"):
        mode_channels(np.zeros((3, 3)), cfg, np.ones((1, cfg.n_subcarriers, cfg.n_elements)))


def test_mode_channels_working_memory_independent_of_pose_count():
    # Beyond its (A, P, U, U) result the kernel holds one chunk's temporaries:
    # the distance grids plus at most six complex (P, N, N) arrays per pose.
    cfg = default_link()
    P, N = cfg.n_subcarriers, cfg.n_elements
    bound = 6 * POSE_CHUNK * P * N * N * 16
    mode_channels(np.zeros((1, 3)), cfg)  # first-call allocations
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    extra, leaked = [], []
    tracemalloc.start()
    try:
        for count in (2 * POSE_CHUNK, 40 * POSE_CHUNK):
            angles = np.zeros((count, 3))
            angles[:, 0] = np.linspace(0.0, 1.4, count)
            arrays = tracemalloc.take_snapshot().filter_traces(numpy_only)
            tracemalloc.reset_peak()
            out = mode_channels(angles, cfg)
            # Working memory: out and the blocks that outlive the call are in
            # both the peak and the memory still traced after it, so they cancel.
            current, peak = tracemalloc.get_traced_memory()
            extra.append(peak - current)
            del out
            after = tracemalloc.take_snapshot().filter_traces(numpy_only)
            leaked += [stat for stat in after.compare_to(arrays, "traceback") if stat.count_diff > 0]
    finally:
        tracemalloc.stop()
    assert max(extra) <= bound
    assert abs(extra[0] - extra[1]) <= 4096  # interpreter noise, not arrays
    assert leaked == []  # no array allocated by the call outlives it


@pytest.mark.parametrize("n, modes", [(10, tuple(range(-4, 5))), (16, tuple(range(-7, 8))), (7, (-3, -1, 0, 2, 3))])
def test_dft_diagonalizes_aligned_circulant_link(n, modes):
    # The aligned link is circulant, H[m, k] = h[(k - m) mod N], so the DFT
    # diagonalizes it (the UCA-OAM view of Edfors & Johansson, IEEE TAP 2012):
    # entry (u, u) is N ifft(h)[l_u mod N], every other entry 0.  Each entry
    # sums N^2 terms of magnitude |eta|; the DFT phases (up to 2 pi |l|) and
    # the two N-term sums bound the rounding by eps N^2 |eta| (2N + 2 pi max|l|)
    # plus the FFT's log2 N.
    cfg = default_link(n_elements=n, modes=modes)
    batch = mode_channels([(0.0, 0.0, 0.0)], cfg)[0]
    for p in range(cfg.n_subcarriers):
        h = channel_matrix(p, Pose(0.0, 0.0), cfg).entries[0]
        eigen = n * np.fft.ifft(h)[np.mod(modes, n)]
        tol = EPS * n * n * abs(cfg.eta(p)) * (2 * n + 2 * math.pi * max(map(abs, modes)) + math.log2(n))
        assert np.abs(np.diag(batch[p]) - eigen).max() <= tol
        assert np.abs(batch[p] - np.diag(np.diag(batch[p]))).max() <= tol


@pytest.mark.parametrize("axis", ["yaw", "pitch"])
@pytest.mark.parametrize("degrees", [10.0, 30.0, 60.0])
def test_steered_single_axis_matches_bessel_lattice(axis, degrees):
    # Cross-layer oracle: the far-field channel tilted about one axis, steered
    # by phases_eo (R. Chen et al., IEEE WCL 2018) and despiralized equals the
    # Jacobi-Anger lattice entries of metrics.steered_entries times N^2 eta_p.
    # Each entry sums N^2 terms of magnitude |eta|; their phases k_p d and
    # eta's k_p r are about k_p r (3e3 rad here), each rounded to a few ulps,
    # and the steering phases, DFT phases and 2N-term sums add O(N eps).  So
    # the DFT path is exact to about 4 eps N^2 |eta| (k_p r + N) absolute; the
    # lattice side is good to about 1e-14 relative.
    cfg = default_link()
    n = cfg.n_elements
    angle = math.radians(degrees)
    gamma, psi = (angle, 0.0) if axis == "yaw" else (0.0, angle)
    batch = mode_channels([(gamma, psi, 0.0)], cfg, np.exp(1j * phases_eo([gamma], [psi], cfg)))[0]
    for p in range(cfg.n_subcarriers):
        lattice = steered_entries(cfg.modes, [angle], cfg.coupling(p), n)[AXES.index(axis), 0]
        expected = n * n * cfg.eta(p) * lattice
        k_r = cfg.wavenumber(p) * cfg.range_r
        tol = 4 * EPS * n * n * abs(cfg.eta(p)) * (k_r + n) + 1e-14 * np.abs(expected).max()
        assert np.abs(batch[p] - expected).max() <= tol
