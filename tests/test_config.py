"""Link configuration validation and derived quantities."""

import math

import numpy as np
import pytest

from oamlink import ArrayGeometry, CarrierGrid, LinkConfig, default_link


def test_carrier_grid_validation():
    with pytest.raises(ValueError):
        CarrierGrid(())
    with pytest.raises(ValueError):
        CarrierGrid((1e9, 1e9))  # not strictly increasing
    with pytest.raises(ValueError):
        CarrierGrid((-1e9,))
    grid = CarrierGrid.linspace(3.9982e9, 4.2387e9, 8)
    assert grid.n_subcarriers == 8
    assert np.all(np.diff(grid.frequencies) > 0)
    assert grid.wavenumbers[0] == pytest.approx(2 * math.pi * 3.9982e9 / 299792458.0)
    # computed once and shared by every reader, so it must not be writable
    assert grid.wavenumbers is grid.wavenumbers
    with pytest.raises(ValueError):
        grid.wavenumbers[0] = 0.0


def test_single_frequency_grid():
    grid = CarrierGrid.linspace(4e9, 5e9, 1)
    assert grid.frequencies == (4e9,)


def test_default_link_reference_values():
    cfg = default_link()
    lambda1 = 299792458.0 / 3.9982e9
    assert cfg.n_elements == 10
    assert cfg.modes == tuple(range(-4, 5))
    assert cfg.rx.radius == pytest.approx(20 * lambda1)
    assert cfg.range_r == pytest.approx(450 * lambda1)
    assert cfg.snr_rho == pytest.approx(100.0)
    # coupling at the first subcarrier: k1 * Rr * Rt / r
    assert cfg.coupling(0) == pytest.approx(2 * math.pi * 400 / 450)
    # default beta normalizes the far-field magnitude to 1 at subcarrier 0
    assert cfg.beta / (2 * cfg.wavenumber(0) * cfg.range_r) == pytest.approx(1.0)
    assert abs(cfg.eta(0)) == pytest.approx(1.0 / 10)


def test_link_validation():
    arr = ArrayGeometry(10, 1.5)
    carriers = CarrierGrid.linspace(4e9, 4.2e9, 2)
    with pytest.raises(ValueError):
        LinkConfig(range_r=100.0, tx=arr, rx=ArrayGeometry(8, 1.5), carriers=carriers)
    with pytest.raises(ValueError):
        LinkConfig(range_r=100.0, tx=arr, rx=arr, carriers=carriers, modes=tuple(range(11)))
    with pytest.raises(ValueError):
        LinkConfig(range_r=100.0, tx=arr, rx=arr, carriers=carriers, modes=(1, 11))
    with pytest.raises(ValueError):
        LinkConfig(range_r=100.0, tx=arr, rx=arr, carriers=carriers, snr_rho=0.0)
    with pytest.raises(ValueError):
        LinkConfig(range_r=-5.0, tx=arr, rx=arr, carriers=carriers)


def test_near_field_range_warns():
    arr = ArrayGeometry(10, 1.5)
    carriers = CarrierGrid.linspace(4e9, 4.2e9, 2)
    with pytest.warns(UserWarning, match="far-field") as record:
        LinkConfig(range_r=20.0, tx=arr, rx=arr, carriers=carriers)
    assert record[0].filename == __file__  # the warning names the caller, not the dataclass __init__


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 1.0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.0)
