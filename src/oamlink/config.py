"""Link configuration: subcarrier frequencies, array pair, mode set and SNR.

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


@dataclass(frozen=True)
class LinkConfig:
    """Full boresight link description."""

    range_r: float
    tx: ArrayGeometry
    rx: ArrayGeometry
    frequencies: tuple[float, ...]  # strictly increasing subcarrier frequencies [Hz]
    modes: tuple[int, ...]
    snr_rho: float

    def __post_init__(self):
        freqs = [float(f) for f in self.frequencies]
        if len(freqs) < 1:
            raise ValueError("frequencies must not be empty")
        if not all(f > 0 for f in freqs):
            raise ValueError("frequencies must be positive")
        if not all(b - a > 0 for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
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
        # Python floats overflow to inf and nan without a warning, which is what the check looks for.
        r, rx, tx = float(self.range_r), float(self.rx.radius), float(self.tx.radius)
        finite = all(math.isfinite(k * r) and math.isfinite(k * rx * tx / r) for k in self.wavenumbers.tolist())
        if not (math.isfinite(self.beta) and finite):
            raise ValueError("beta, k_p * range and the coupling k_p * R_r * R_t / range must be finite")
        if self.range_r < 10.0 * (self.tx.radius + self.rx.radius):
            # Name the first frame outside the package, past the dataclass __init__ and
            # default_link (Python 3.12's skip_file_prefixes does this).  The module name
            # is read from __spec__: under python -m oamlink.cli, __name__ is __main__.
            frame, level = sys._getframe(), 1
            while frame.f_back is not None and _module_name(frame).partition(".")[0] == __package__:
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
        return len(self.frequencies)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """k_p = 2*pi / wavelength_p (computed once, read-only)."""
        k = 2.0 * math.pi * np.asarray(self.frequencies) / SPEED_OF_LIGHT
        k.flags.writeable = False
        return k

    def wavenumber(self, p: int) -> float:
        return float(self.wavenumbers[p])

    def coupling(self, p: int) -> float:
        """Dimensionless phase-coupling strength k_p * R_r * R_t / r."""
        return self.wavenumber(p) * self.rx.radius * self.tx.radius / self.range_r

    def eta(self, p: int) -> complex:
        """Common prefactor of mode-domain matrix entries: beta*e^{-i k_p r}/(2 k_p r N)."""
        k = self.wavenumber(p)
        return self.beta / (2.0 * k * self.range_r * self.n_elements) * np.exp(-1j * k * self.range_r)


def _module_name(frame) -> str:
    """The module a frame runs in, by its import name, which __main__ does not hide."""
    return getattr(frame.f_globals.get("__spec__"), "name", "")


def default_link(
    n_elements: int = 10,
    n_subcarriers: int = 8,
    modes: tuple[int, ...] = tuple(range(-4, 5)),
    radius_rx_wavelengths: float = 20.0,
    radius_tx_wavelengths: float = 20.0,
    range_wavelengths: float = 450.0,
    snr_db: float = 20.0,
    rx_initial_angle: float = 0.0,
    tx_initial_angle: float = 0.0,
    freq_start_hz: float = 3.9982e9,
    freq_stop_hz: float = 4.2387e9,
) -> LinkConfig:
    """The reference link, with radii and range in first-carrier wavelengths."""
    lambda1 = SPEED_OF_LIGHT / freq_start_hz
    return LinkConfig(
        range_r=range_wavelengths * lambda1,
        tx=ArrayGeometry(n_elements, radius_tx_wavelengths * lambda1, tx_initial_angle),
        rx=ArrayGeometry(n_elements, radius_rx_wavelengths * lambda1, rx_initial_angle),
        frequencies=tuple(np.linspace(freq_start_hz, freq_stop_hz, n_subcarriers)),
        modes=modes,
        snr_rho=10.0 ** (snr_db / 10.0),
    )
