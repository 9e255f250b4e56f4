"""Roll-angle annealer, its grid-search reference, and the capacity objective."""

import math

import numpy as np
import pytest

from oamlink import (
    Pose,
    SaParams,
    capacity_objective,
    capacity_profile,
    default_link,
    grid_search_roll,
    mechanical_roll,
    oam_effective,
    optimize_roll,
    roll_objective,
)
from oamlink.optimizer import _jacobi_anger, _series_orders, _uniform_stream

# Links whose roll model takes the N-element sum instead of the series: the
# couplings 16.7 (radii 50 wavelengths at range 1000) and 2.2e9 (the last
# subcarrier at 1.567e18 Hz, a value the config fuzz test reaches).
WIDE_LINK = default_link(radius_rx_wavelengths=50, radius_tx_wavelengths=50, range_wavelengths=1000)
HUGE_COUPLING_LINK = default_link(freq_stop_hz=1.567e18)
# One carrier and mode 0 at the coupling S = k_1 R_r R_t / r = 0.2; with the
# 20-wavelength radii, S = 2 pi * 20 * 20 / (range in wavelengths).
SMALL_COUPLING_LINK = default_link(n_subcarriers=1, modes=(0,), range_wavelengths=800 * math.pi / 0.2)


def _largest_coupling(cfg):
    return max(cfg.coupling(p) for p in range(cfg.n_subcarriers))


def test_sa_params_validation():
    with pytest.raises(ValueError):
        SaParams(t_init=1.0, t_min=2.0)
    with pytest.raises(ValueError):
        SaParams(cooling=1.0)
    with pytest.raises(ValueError):
        SaParams(inner_iters=0)


def test_outer_iteration_count():
    sa = SaParams(t_init=100.0, t_min=1e-3, cooling=0.9)
    assert sa.outer_iterations == math.ceil(math.log(1e-5) / math.log(0.9))
    _, trace = optimize_roll(default_link(n_subcarriers=1), SaParams(inner_iters=1))
    assert len(trace) == SaParams().outer_iterations
    # The temperature product reaches 0.0010000000000000002 > t_min after three
    # levels; the annealer still runs the schedule's three, not a fourth.
    sa = SaParams(t_init=1.0, t_min=1e-3, cooling=0.1)
    _, trace = optimize_roll(default_link(n_subcarriers=1), sa)
    assert len(trace) == sa.outer_iterations == 3
    # t_min / t_init underflows to 0 here; the level count must not
    extreme = SaParams(t_init=1e308, t_min=1e-308, cooling=0.9)
    assert extreme.outer_iterations == math.ceil((math.log(1e-308) - math.log(1e308)) / math.log(0.9))


# Roll angles of the oracle check, as functions of N: the interval ends, zero,
# an interior angle and two angles anywhere on the circle.
ORACLE_THETAS = {
    "-pi/N": lambda n: -math.pi / n,
    "0": lambda n: 0.0,
    "0.07": lambda n: 0.07,
    "pi/N": lambda n: math.pi / n,
    **{
        f"random{i}": (lambda n, t=float(t): t)
        for i, t in enumerate(np.random.default_rng(8).uniform(-math.pi, math.pi, 2))
    },
}


@pytest.mark.parametrize("theta_of", ORACLE_THETAS.values(), ids=ORACLE_THETAS.keys())
@pytest.mark.parametrize(
    "cfg",
    [
        default_link(),
        default_link(n_subcarriers=1),
        default_link(n_elements=16, modes=tuple(range(-7, 8))),
        WIDE_LINK,
        HUGE_COUPLING_LINK,
        # the arrays' initial element angles: the series (N = 10 and 16) and the element sum (wide)
        default_link(rx_initial_angle=math.radians(5)),
        default_link(tx_initial_angle=math.radians(5)),
        default_link(
            radius_rx_wavelengths=50, radius_tx_wavelengths=50, range_wavelengths=1000,
            rx_initial_angle=math.radians(3), tx_initial_angle=math.radians(-11),
        ),
        default_link(
            n_elements=16, modes=tuple(range(-7, 8)),
            rx_initial_angle=math.radians(20), tx_initial_angle=math.radians(1),
        ),
    ],
    ids=["default", "P1", "N16", "wide", "S2e9", "rx5", "tx5", "wide-rx3-tx-11", "N16-rx20-tx1"],
)
def test_capacity_objective_matches_closed_form_diag(cfg, theta_of):
    # the objective's closed-form diagonal against the explicit double DFT sum
    # of the aligned link rolled to theta
    theta = theta_of(cfg.n_elements)
    total = 0.0
    for H in mechanical_roll(Pose(0.0, 0.0), theta, cfg):
        for h in np.diag(oam_effective(H.entries, cfg.modes)):
            total += math.log2(1.0 + cfg.snr_rho * abs(h) ** 2)
    assert capacity_objective(theta, cfg) == pytest.approx(total / cfg.n_subcarriers, rel=1e-12)


def test_roll_model_branch_follows_term_count():
    # the series where it needs at most N terms, else the N-element sum
    cfg = default_link()
    ks = _series_orders(_largest_coupling(cfg), cfg.modes, cfg.n_elements)
    assert ks is not None and len(ks) <= cfg.n_elements
    for cfg in (WIDE_LINK, HUGE_COUPLING_LINK):
        assert _series_orders(_largest_coupling(cfg), cfg.modes, cfg.n_elements) is None


def test_jacobi_anger_coefficients_match_jv():
    from scipy.special import jv

    couplings = np.array([1e-3, 0.2, *(default_link().coupling(p) for p in range(8)), 16.7, 37.0])
    orders = np.arange(-40, 41)
    expected = 1j ** (orders % 4) * jv(orders, couplings[:, None])
    assert np.max(np.abs(_jacobi_anger(couplings, orders) - expected)) <= 3e-15


@pytest.mark.parametrize(
    "cfg",
    [
        default_link(),
        default_link(n_subcarriers=1),
        default_link(n_elements=16, modes=tuple(range(-7, 8))),
        default_link(n_subcarriers=6),
        WIDE_LINK,
        HUGE_COUPLING_LINK,
    ],
    ids=["default", "P1", "N16", "P6", "wide", "S2e9"],
)
def test_roll_objective_bit_identical_to_profile(cfg):
    # the annealer's objective against the batched roll-profile path: equal
    # bits, so a rewrite of either cannot move an accept decision unnoticed
    thetas = np.random.default_rng(cfg.n_elements + cfg.n_subcarriers).uniform(-math.pi, math.pi, 500)
    objective = roll_objective(cfg)
    assert np.array_equal([objective(t) for t in thetas], capacity_profile(thetas, cfg))
    assert capacity_objective(float(thetas[0]), cfg) == capacity_profile(thetas[:1], cfg)[0]


# optimize_roll(default_link(), SaParams(rng_seed=0)), recorded before the
# objective was rebuilt from per-link constants: (best theta, levels) runs.
SEED0_BEST_THETAS = [
    (-0.19564783669009547, 1), (-0.14670700798445782, 3), (-0.14618457540891308, 5),
    (-0.14571700953859007, 3), (-0.14569150253825391, 2), (-0.14540817503467485, 1),
    (-0.1450424828611356, 2), (-0.14491517731129056, 3), (-0.14494625277553047, 26),
    (-0.14494570935758713, 12), (-0.14494319438181208, 8), (-0.1449449225254749, 4),
    (-0.14494444625455546, 3), (-0.14494409402047595, 23), (-0.14494421104943517, 2),
    (-0.14494420652864362, 2), (-0.1449441554699882, 1), (-0.14494416610097324, 9),
]


def test_optimize_roll_seeded_trace_pinned():
    theta_star, trace = optimize_roll(default_link(), SaParams(rng_seed=0))
    assert trace.accepted_counts == [19] + [20] * 109
    assert trace.best_thetas == [theta for theta, run in SEED0_BEST_THETAS for _ in range(run)]
    assert theta_star == -0.14494416610097324


def test_uniform_stream_continues_the_generator():
    # block boundaries fall inside the run; uniform(lo, hi) is lo + (hi - lo) * random()
    stream = _uniform_stream(np.random.default_rng(5), block=7)
    rng = np.random.default_rng(5)
    for i in range(50):
        step = 0.01 * (i + 1)
        if i % 3:
            assert next(stream) == rng.random()
        else:
            assert -step + 2.0 * step * next(stream) == rng.uniform(-step, step)


def test_optimize_roll_extreme_schedule_never_runs_dry():
    # 13 463 levels of one or two draws each, many blocks of the stream
    sa = SaParams(t_init=1e308, t_min=1e-308, inner_iters=1)
    theta_star, trace = optimize_roll(default_link(n_subcarriers=1), sa)
    assert len(trace) == sa.outer_iterations
    assert abs(theta_star) <= math.pi / 10


def test_capacity_objective_symmetric_for_symmetric_modes():
    cfg = default_link()
    for theta in (0.03, 0.11, 0.29):
        assert capacity_objective(theta, cfg) == pytest.approx(
            capacity_objective(-theta, cfg), rel=1e-12
        )


def test_capacity_objective_periodicity():
    cfg = default_link()
    a = capacity_objective(0.123, cfg)
    b = capacity_objective(0.123 + 2 * math.pi / 10, cfg)
    assert a == pytest.approx(b, abs=1e-9)


def test_capacity_profile_visible_variation():
    # regression pin: at the reference link the roll profile swings by
    # several bits (measured ~3.6 bits peak-to-trough at 20 dB)
    cfg = default_link()
    half = math.pi / 10
    caps = capacity_profile(np.linspace(-half, half, 2001), cfg)
    assert caps.max() - caps.min() > 3.0


def test_single_zero_mode_objective_constant():
    # theta-invariance of the mode-0 objective holds where the N-sample sum
    # does not alias the order-N Bessel harmonic, i.e. at small coupling; at
    # the reference coupling (~5.6) the profile genuinely varies with theta
    cfg = SMALL_COUPLING_LINK
    theta_star, _ = optimize_roll(cfg, SaParams(rng_seed=1))
    assert abs(capacity_objective(theta_star, cfg) - capacity_objective(0.0, cfg)) <= 1e-12


def test_grid_search_validation_and_consistency():
    cfg = default_link()
    with pytest.raises(ValueError):
        grid_search_roll(cfg, 1)
    t1, c1 = grid_search_roll(cfg, 10_000)
    t2, c2 = grid_search_roll(cfg, 100_000)
    assert abs(c1 - c2) < 1e-6
    assert abs(t1) <= math.pi / 10 and abs(t2) <= math.pi / 10


def test_grid_search_peak_memory_bounded_by_chunk():
    # The profile walks ANGLE_CHUNK angles at a time: besides the grid and its
    # capacities (8 bytes per angle each, one spare) it holds about five
    # (ANGLE_CHUNK, U, N) arrays, the largest complex.  Unchunked, 10^5 angles
    # peaked at 411 MB.
    import tracemalloc

    from oamlink.optimizer import ANGLE_CHUNK

    cfg = default_link()
    resolution = 100_000
    bound = 3 * 8 * resolution + 5 * 16 * ANGLE_CHUNK * cfg.n_modes * cfg.n_elements
    tracemalloc.start()
    try:
        grid_search_roll(cfg, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_grid_search_constant_objective():
    cfg = SMALL_COUPLING_LINK
    theta, cap = grid_search_roll(cfg, 101)
    assert theta == -math.pi / 10  # first grid point of a flat profile
    assert cap == pytest.approx(capacity_objective(0.0, cfg), rel=1e-12)


def test_optimize_roll_deterministic():
    cfg = default_link()
    sa = SaParams(rng_seed=11)
    t1, tr1 = optimize_roll(cfg, sa)
    t2, tr2 = optimize_roll(cfg, sa)
    assert t1 == t2
    assert tr1.best_capacities == tr2.best_capacities
    assert tr1.best_thetas == tr2.best_thetas
    assert tr1.accepted_counts == tr2.accepted_counts


def test_optimize_roll_feasible_and_monotone_best():
    cfg = default_link()
    theta_star, trace = optimize_roll(cfg, SaParams(rng_seed=3))
    assert -math.pi / 10 <= theta_star <= math.pi / 10
    assert all(abs(t) <= math.pi / 10 for t in trace.best_thetas)
    bc = trace.best_capacities
    assert all(b >= a for a, b in zip(bc, bc[1:]))


def test_optimize_roll_matches_grid_search():
    # 20 seeds: annealed capacity within 1e-3 of the 1e4-point grid optimum;
    # the continuous search may beat the finite grid by up to its
    # quantization error (~2.4e-8 here), hence the small negative allowance
    cfg = default_link()
    _, cap_grid = grid_search_roll(cfg, 10_000)
    for seed in range(20):
        theta_star, trace = optimize_roll(cfg, SaParams(rng_seed=seed))
        gap = cap_grid - trace.best_capacities[-1]
        assert -1e-6 <= gap <= 1e-3, f"seed {seed}: gap {gap}"


def test_optimize_roll_stabilizes_quickly():
    cfg = default_link()
    for seed in range(20):
        _, trace = optimize_roll(cfg, SaParams(rng_seed=seed))
        bc = np.array(trace.best_capacities)
        first_stable = int(np.argmax(bc[-1] - bc < 1e-6))
        assert first_stable <= 30, f"seed {seed}: stabilized at iter {first_stable}"
