"""Link configuration validation and derived quantities."""

import math

import numpy as np
import pytest

from oamlink import ArrayGeometry, LinkConfig, default_link

ARRAY = ArrayGeometry(10, 1.5)


def link(frequencies=(4e9, 4.2e9), **fields):
    """A LinkConfig with every field given, as it has no defaults."""
    return LinkConfig(**{"range_r": 100.0, "tx": ARRAY, "rx": ARRAY, "frequencies": frequencies,
                         "modes": tuple(range(-4, 5)), "snr_rho": 100.0, **fields})


def test_frequency_validation():
    with pytest.raises(ValueError, match="frequencies"):
        link(())
    with pytest.raises(ValueError, match="frequencies"):
        link((1e9, 1e9))  # not strictly increasing
    with pytest.raises(ValueError, match="frequencies"):
        link((-1e9,))
    cfg = default_link()
    assert cfg.n_subcarriers == 8
    assert np.all(np.diff(cfg.frequencies) > 0)
    assert cfg.wavenumbers[0] == pytest.approx(2 * math.pi * 3.9982e9 / 299792458.0)
    # computed once and shared by every reader, so it must not be writable
    assert cfg.wavenumbers is cfg.wavenumbers
    with pytest.raises(ValueError):
        cfg.wavenumbers[0] = 0.0


def test_single_frequency_link():
    cfg = default_link(n_subcarriers=1, freq_start_hz=4e9, freq_stop_hz=5e9)
    assert cfg.frequencies == (4e9,)


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
    with pytest.raises(ValueError):
        link(rx=ArrayGeometry(8, 1.5))
    with pytest.raises(ValueError):
        link(modes=tuple(range(11)))
    with pytest.raises(ValueError):
        link(modes=(1, 11))
    with pytest.raises(ValueError):
        link(snr_rho=0.0)
    with pytest.raises(ValueError):
        link(range_r=-5.0)


def test_near_field_range_warns():
    with pytest.warns(UserWarning, match="far-field") as record:
        link(range_r=20.0)
    assert record[0].filename == __file__  # the warning names the caller, not the dataclass __init__


def test_near_field_default_link_warns_at_the_callers_line():
    # default_link builds the LinkConfig, so a fixed stacklevel named config.py
    with pytest.warns(UserWarning, match="far-field") as record:
        default_link(range_wavelengths=20)
    assert record[0].filename == __file__


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 1.0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.0)


def _numpy_checks(frequencies, range_r, rx_radius, tx_radius):
    """The message of the first frequency, range or finiteness check that fails, or None.

    The checks as ``LinkConfig`` made them in numpy before it made them in
    Python floats; the checks between range and finiteness (element counts,
    modes, SNR) pass on every link here.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if len(freqs) < 1:
        return "frequencies must not be empty"
    if not np.all(freqs > 0):
        return "frequencies must be positive"
    if not np.all(np.diff(freqs) > 0):
        return "frequencies must be strictly increasing"
    if not range_r > 0:
        return "range must be positive"
    k = 2.0 * math.pi * freqs / 299792458.0
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = k * rx_radius * tx_radius / range_r
        finite = np.all(np.isfinite(k * range_r)) and np.all(np.isfinite(coupling))
    if not (math.isfinite(2.0 * float(k[0]) * range_r) and finite):
        return "beta, k_p * range and the coupling k_p * R_r * R_t / range must be finite"
    return None


@pytest.mark.parametrize("frequencies", [(), (math.nan,), (math.inf,), (0.0,), (-1e9,), (4e9, 4e9), (4.2e9, 4e9),
                                         (4e9, math.nan), (4e9, math.inf), (4e9, 4.2e9), (1e300,), (1e9, 1e300)])
@pytest.mark.parametrize("range_r, rx_radius, tx_radius", [(100.0, 1.5, 1.5), (math.nan, 1.5, 1.5), (1e300, 1.5, 1.5),
                                                           (100.0, 1e300, 1e10), (100.0, math.inf, 1.5), (1e-300, 1e-302, 1e-302)])
def test_link_checks_keep_the_numpy_messages(frequencies, range_r, rx_radius, tx_radius):
    expected = _numpy_checks(frequencies, range_r, rx_radius, tx_radius)
    fields = {"frequencies": frequencies, "range_r": range_r, "rx": ArrayGeometry(10, rx_radius), "tx": ArrayGeometry(10, tx_radius)}
    if expected is None:
        assert link(**fields).n_subcarriers == len(frequencies)
    else:
        with pytest.raises(ValueError) as raised:
            link(**fields)
        assert str(raised.value) == expected


def test_wavenumbers_keep_their_bits():
    cfg = default_link()
    expected = 2.0 * math.pi * np.asarray(cfg.frequencies, dtype=float) / 299792458.0
    assert cfg.wavenumbers.tobytes() == expected.tobytes()
