"""Roll-angle annealer, its grid-search reference, and the capacity objective."""

import math

import numpy as np
import pytest

from oamlink import (
    ResidualPose,
    SaParams,
    capacity_objective,
    capacity_profile,
    default_link,
    grid_search_roll,
    mechanical_roll,
    oam_effective,
    optimize_roll,
)
from oamlink.metrics import scaled_coupling_link


def test_sa_params_validation():
    with pytest.raises(ValueError):
        SaParams(t_init=1.0, t_min=2.0)
    with pytest.raises(ValueError):
        SaParams(cooling=1.0)
    with pytest.raises(ValueError):
        SaParams(inner_iters=0)
    with pytest.raises(ValueError):
        SaParams(step_scale=-0.1)


def test_outer_iteration_count():
    sa = SaParams(t_init=100.0, t_min=1e-3, cooling=0.9)
    assert sa.outer_iterations == math.ceil(math.log(1e-5) / math.log(0.9))
    _, trace = optimize_roll(default_link(n_subcarriers=1), SaParams(inner_iters=1))
    assert len(trace) == SaParams().outer_iterations


def test_capacity_objective_matches_closed_form_diag():
    # the objective's closed-form diagonal against the explicit double DFT sum
    # of the aligned link rolled to theta
    cfg = default_link()
    theta = 0.07
    total = 0.0
    for H in mechanical_roll(ResidualPose(0.0, 0.0), theta, cfg):
        for h in np.diag(oam_effective(H, cfg.modes).entries):
            total += math.log2(1.0 + cfg.snr_rho * abs(h) ** 2)
    assert capacity_objective(theta, cfg) == pytest.approx(total / cfg.n_subcarriers, rel=1e-12)


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
    cfg = scaled_coupling_link(default_link(modes=(0,)), 0.2)
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


def test_grid_search_constant_objective():
    cfg = scaled_coupling_link(default_link(modes=(0,)), 0.2)
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
