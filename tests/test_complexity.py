"""Operation-count model for hybrid versus electronic-only steering."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oamlink import ComplexityParams, SaParams, cost_electronic, cost_hybrid


# The reference values: the reference link's P = 8 subcarriers, U = 9 modes and
# N = 10 elements, the config's estimation grids, 60-degree poses, a 10-degree
# roll, 0.3-degree servo accuracy and the default annealing schedule.
REFERENCE = dict(
    p_data=8, u_data=9, p_coarse=4, u_coarse=4, p_fine=8, u_fine=8, n_elements=10, sa=SaParams(),
    gamma_cmd=math.radians(60.0), psi_cmd=math.radians(60.0), theta_star=math.radians(10.0), nu=math.radians(0.3),
)


def reference_params(**fields) -> ComplexityParams:
    """ComplexityParams at the reference values, with ``fields`` given instead."""
    return ComplexityParams(**{**REFERENCE, **fields})


def relative_cost(params):
    """Hybrid total over electronic-only total, as the complexity experiment's ratio column."""
    return sum(cost_hybrid(params).values()) / sum(cost_electronic(params).values())


def test_params_validation():
    with pytest.raises(ValueError):
        reference_params(p_coarse=9, p_fine=8)
    with pytest.raises(ValueError):
        reference_params(n_elements=0)
    with pytest.raises(ValueError):
        reference_params(sa=SaParams(cooling=1.5))
    with pytest.raises(ValueError):
        reference_params(nu=0.0)


def test_electronic_unit_case():
    params = reference_params(p_data=1, u_data=1, p_coarse=1, u_coarse=1, p_fine=1, u_fine=1, n_elements=1)
    assert sum(cost_electronic(params).values()) == 2.0


def test_degenerate_hybrid_collapse():
    # coarse grid equal to the fine grid, zero rotation angles, minimal annealer
    params = reference_params(
        p_coarse=8, u_coarse=8, p_fine=8, u_fine=8,
        gamma_cmd=0.0, psi_cmd=0.0, theta_star=0.0,
        sa=SaParams(inner_iters=1, t_init=1.0, t_min=0.999, cooling=0.5),
    )
    fine = 8**3 * 8**3
    electronic = params.p_data * params.u_data * params.n_elements**2
    annealer = math.log(0.999) / math.log(0.5)
    assert sum(cost_hybrid(params).values()) == pytest.approx(2 * fine + electronic + annealer)


def test_electronic_term_quadratic_in_n():
    params = reference_params()
    a = cost_electronic(params)["electronic_steering"]
    b = cost_electronic(replace(params, n_elements=20))["electronic_steering"]
    assert b == 4 * a


def test_reference_ratio_in_reported_band():
    # N=10, P=8 defaults with the stated estimation grids and annealing schedule
    ratio = relative_cost(reference_params())
    assert 1.009 <= ratio <= 1.026


def test_ratio_band_over_sweep():
    for n in range(8, 33):
        for p in range(4, 17):
            ratio = relative_cost(reference_params(n_elements=n, p_data=p))
            assert 1.009 <= ratio <= 1.026, (n, p, ratio)


def test_ratio_decreases_toward_one_as_link_grows():
    ratios = [
        relative_cost(reference_params(n_elements=n, p_data=p))
        for n, p in ((8, 4), (16, 8), (32, 16))
    ]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_hybrid_dominates_whenever_coarse_estimation_costs():
    params = reference_params()
    assert sum(cost_hybrid(params).values()) >= sum(cost_electronic(params).values())
    assert all(v >= 0 for v in cost_hybrid(params).values())


def test_dominant_ratio_structure():
    # the leading excess is the coarse-estimation block over the fine one
    params = reference_params(
        gamma_cmd=0.0, psi_cmd=0.0, theta_star=0.0,
        sa=SaParams(inner_iters=1, t_init=1.0, t_min=0.999, cooling=0.5),
    )
    predicted = 1.0 + params.p_coarse**3 * params.u_coarse**3 / (
        params.p_fine**3 * params.u_fine**3 + params.p_data * params.u_data * params.n_elements**2
    )
    assert relative_cost(params) == pytest.approx(predicted, rel=1e-6)


def test_grid_call_matches_point_calls():
    # One call over an (N, P) grid gives the bits of one call per point, up to the count bounds.
    for n, p in ((np.arange(8, 33), np.arange(4, 17)), (np.arange(9991, 10001), np.arange(9991, 10001))):
        n_grid, p_grid = np.repeat(n, len(p)), np.tile(p, len(n))
        base = reference_params(u_data=int(p[-1]), p_fine=int(p[-1]), u_fine=int(p[-1]))
        grid = replace(base, n_elements=n_grid, p_data=p_grid)
        for cost in (cost_hybrid, cost_electronic):
            terms = cost(grid)
            points = [cost(replace(base, n_elements=int(a), p_data=int(b))) for a, b in zip(n_grid, p_grid)]
            assert list(terms) == list(points[0])
            np.testing.assert_array_equal(sum(terms.values()), [sum(t.values()) for t in points])


def test_electronic_term_must_fit_int64():
    # P U N^2 of integer arrays is taken in int64: refuse what would wrap.
    with pytest.raises(ValueError, match="2\\*\\*63"):
        reference_params(n_elements=np.array([10**6]), p_data=np.array([10**4]), u_data=10**4)
    reference_params(n_elements=np.array([10**4]), p_data=np.array([10**4]), u_data=10**4)
