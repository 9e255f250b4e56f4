"""Link configuration: carrier grid, array pair, mode set and SNR.

The reference setup used throughout the test-bench experiments is an
N = 10 element pair of UCAs with radius 20 wavelengths, separated by 450
wavelengths, multiplexing the nine modes -4..4 on 8 subcarriers between
3.9982 GHz and 4.2387 GHz.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import ArrayGeometry

SPEED_OF_LIGHT = 299792458.0  # m/s

# Reference link parameters (wavelengths are in units of the first carrier's).
DEFAULT_N_ELEMENTS = 10
DEFAULT_MODES = tuple(range(-4, 5))
DEFAULT_FREQ_START_HZ = 3.9982e9
DEFAULT_FREQ_STOP_HZ = 4.2387e9
DEFAULT_N_SUBCARRIERS = 8
DEFAULT_RADIUS_WAVELENGTHS = 20.0
DEFAULT_RANGE_WAVELENGTHS = 450.0
DEFAULT_SNR_DB = 20.0


@dataclass(frozen=True)
class CarrierGrid:
    """Strictly increasing subcarrier frequencies [Hz]."""

    frequencies: tuple[float, ...]

    def __post_init__(self):
        if len(self.frequencies) < 1:
            raise ValueError("carrier grid needs at least one frequency")
        freqs = np.asarray(self.frequencies, dtype=float)
        if not np.all(freqs > 0):
            raise ValueError("frequencies must be positive")
        if len(freqs) > 1 and not np.all(np.diff(freqs) > 0):
            raise ValueError("frequencies must be strictly increasing")

    @classmethod
    def linspace(cls, start_hz: float, stop_hz: float, count: int) -> "CarrierGrid":
        if count == 1:
            return cls((float(start_hz),))
        return cls(tuple(np.linspace(start_hz, stop_hz, count)))

    @property
    def n_subcarriers(self) -> int:
        return len(self.frequencies)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """k_p = 2*pi / wavelength_p (computed once, read-only)."""
        k = 2.0 * math.pi * np.asarray(self.frequencies) / SPEED_OF_LIGHT
        k.flags.writeable = False
        return k


@dataclass(frozen=True)
class LinkConfig:
    """Full boresight link description."""

    range_r: float
    tx: ArrayGeometry
    rx: ArrayGeometry
    carriers: CarrierGrid
    modes: tuple[int, ...] = DEFAULT_MODES
    snr_rho: float = 10.0 ** (DEFAULT_SNR_DB / 10.0)

    def __post_init__(self):
        if not self.range_r > 0:
            raise ValueError("range must be positive")
        if self.tx.n_elements != self.rx.n_elements:
            raise ValueError("transmit and receive arrays must have the same element count")
        modes = tuple(int(l) for l in self.modes)
        n = self.rx.n_elements
        if len(modes) > n:
            raise ValueError(f"at most {n} modes supported, got {len(modes)}")
        if len({l % n for l in modes}) != len(modes):
            raise ValueError("modes must be distinct modulo the element count")
        if not self.snr_rho > 0:
            raise ValueError("snr_rho must be positive")
        object.__setattr__(self, "modes", modes)
        k = self.carriers.wavenumbers
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan is what the check looks for
            coupling = k * self.rx.radius * self.tx.radius / self.range_r
            finite = np.all(np.isfinite(k * self.range_r)) and np.all(np.isfinite(coupling))
        if not (math.isfinite(self.beta) and finite):
            raise ValueError("beta, k_p * range and the coupling k_p * R_r * R_t / range must be finite")
        if self.range_r < 10.0 * (self.tx.radius + self.rx.radius):
            # Name the first frame outside the package, past the dataclass __init__ and
            # default_link (Python 3.12's skip_file_prefixes does this).
            frame, level = sys._getframe(), 1
            while frame.f_back is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
                frame, level = frame.f_back, level + 1
            warnings.warn(
                "range below 10x the summed radii; far-field channel model degrades",
                stacklevel=level,
            )

    @property
    def beta(self) -> float:
        """Lumped amplitude constant of the per-element channel coefficient, 2 * k_1 * range_r.

        It makes the far-field coefficient magnitude ~1 at the first subcarrier, so ``snr_rho`` is the receive SNR.
        """
        return 2.0 * self.wavenumber(0) * self.range_r

    @property
    def n_elements(self) -> int:
        return self.rx.n_elements

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def n_subcarriers(self) -> int:
        return self.carriers.n_subcarriers

    def wavenumber(self, p: int) -> float:
        return float(self.carriers.wavenumbers[p])

    def coupling(self, p: int) -> float:
        """Dimensionless phase-coupling strength k_p * R_r * R_t / r."""
        return self.wavenumber(p) * self.rx.radius * self.tx.radius / self.range_r

    def eta(self, p: int) -> complex:
        """Common prefactor of mode-domain matrix entries: beta*e^{-i k_p r}/(2 k_p r N)."""
        k = self.wavenumber(p)
        return self.beta / (2.0 * k * self.range_r * self.n_elements) * np.exp(-1j * k * self.range_r)

def default_link(
    n_elements: int = DEFAULT_N_ELEMENTS,
    n_subcarriers: int = DEFAULT_N_SUBCARRIERS,
    modes: tuple[int, ...] = DEFAULT_MODES,
    radius_rx_wavelengths: float = DEFAULT_RADIUS_WAVELENGTHS,
    radius_tx_wavelengths: float = DEFAULT_RADIUS_WAVELENGTHS,
    range_wavelengths: float = DEFAULT_RANGE_WAVELENGTHS,
    snr_db: float = DEFAULT_SNR_DB,
    rx_initial_angle: float = 0.0,
    tx_initial_angle: float = 0.0,
    freq_start_hz: float = DEFAULT_FREQ_START_HZ,
    freq_stop_hz: float = DEFAULT_FREQ_STOP_HZ,
) -> LinkConfig:
    """Reference link with radii/range given in first-carrier wavelengths."""
    lambda1 = SPEED_OF_LIGHT / freq_start_hz
    return LinkConfig(
        range_r=range_wavelengths * lambda1,
        tx=ArrayGeometry(n_elements, radius_tx_wavelengths * lambda1, tx_initial_angle),
        rx=ArrayGeometry(n_elements, radius_rx_wavelengths * lambda1, rx_initial_angle),
        carriers=CarrierGrid.linspace(freq_start_hz, freq_stop_hz, n_subcarriers),
        modes=modes,
        snr_rho=10.0 ** (snr_db / 10.0),
    )
