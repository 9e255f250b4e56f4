"""Independent references for the benchmark's output checks.

Nothing here imports oamlink.  The link is rebuilt from the resolved
config that each run writes to its manifest: element positions come from an
explicit rotation-matrix product, the channel coefficient is the paper's
far-field form beta/(2 k r) * exp(-i k d) with d = r + q_z - (q . t)/r
(the first-order expansion of |q + r z - t|; the dropped |q|^2 + |t|^2
term is the same for every element pair), the mode-domain matrix is the
explicit double DFT sum, and SINR is evaluated one mode at a time.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def parse_manifest(text: str) -> dict:
    """Resolved config values from a manifest (``key = value`` lines)."""
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class Link:
    """The link a manifest describes, in plain numpy."""

    def __init__(self, values: dict):
        f0 = float(values["scenario.freq_start_hz"])
        f1 = float(values["scenario.freq_stop_hz"])
        count = int(values["scenario.n_subcarriers"])
        freqs = np.array([f0]) if count == 1 else np.linspace(f0, f1, count)
        lambda1 = SPEED_OF_LIGHT / f0
        self.k = 2.0 * math.pi * freqs / SPEED_OF_LIGHT
        self.n = int(values["scenario.n_elements"])
        self.modes = np.arange(int(values["scenario.mode_min"]), int(values["scenario.mode_max"]) + 1)
        self.r = float(values["scenario.range_wavelengths"]) * lambda1
        self.radius_rx = float(values["scenario.radius_rx_wavelengths"]) * lambda1
        self.radius_tx = float(values["scenario.radius_tx_wavelengths"]) * lambda1
        self.rx_angles = 2.0 * math.pi * np.arange(self.n) / self.n + math.radians(
            float(values["scenario.rx_initial_angle_deg"])
        )
        tx_angles = 2.0 * math.pi * np.arange(self.n) / self.n + math.radians(
            float(values["scenario.tx_initial_angle_deg"])
        )
        self.tx_pos = self.radius_tx * np.stack([np.cos(tx_angles), np.sin(tx_angles), np.zeros(self.n)], axis=1)
        self.beta = 2.0 * self.k[0] * self.r
        self.rho = 10.0 ** (float(values["scenario.snr_db"]) / 10.0)
        j = np.arange(self.n)
        self.dft = np.exp(-2j * math.pi * np.outer(self.modes, j) / self.n) / math.sqrt(self.n)

    def rx_positions(self, yaw: float, pitch: float, roll: float = 0.0) -> np.ndarray:
        """Receive element positions, R_yaw @ R_pitch @ R_roll applied to the in-plane ring."""
        ring = self.radius_rx * np.stack(
            [np.cos(self.rx_angles), np.sin(self.rx_angles), np.zeros(self.n)], axis=1
        )
        return ring @ (_rot_yaw(yaw) @ _rot_pitch(pitch) @ _rot_roll(roll)).T

    def channel(self, p: int, q: np.ndarray) -> np.ndarray:
        """Far-field N x N channel at subcarrier ``p`` for receive positions ``q``."""
        d = self.r + q[:, 2:3] - (q @ self.tx_pos.T) / self.r
        return self.beta / (2.0 * self.k[p] * self.r) * np.exp(-1j * self.k[p] * d)

    def mode_matrix(self, H: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """h[u, v] = sum_m sum_n F[u, m] b[m] H[m, n] conj(F[v, n])."""
        return np.einsum("um,m,mn,vn->uv", self.dft, weights, H, self.dft.conj())


def _rot_pitch(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_yaw(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_roll(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def scalar_sinr(h: np.ndarray, u: int, rho: float) -> float:
    signal = abs(h[u, u]) ** 2
    interference = sum(abs(h[u, v]) ** 2 for v in range(h.shape[1]) if v != u)
    return rho * signal / (rho * interference + 1.0)


def capacity(mode_matrices, rho: float) -> float:
    """Mean over subcarriers of the per-mode log2(1 + SINR) sum."""
    total = sum(
        math.log2(1.0 + scalar_sinr(h, u, rho)) for h in mode_matrices for u in range(h.shape[0])
    )
    return total / len(mode_matrices)


def sweep_capacities(link: Link, yaw: float, pitch: float, rhos) -> dict[str, list[float]]:
    """Capacities per scheme ('none', 'electronic') at one pose, one per rho.

    Electronic-only steering multiplies receive element m by exp(i k q_z,m),
    which cancels the path-length term that the tilt adds along boresight.
    """
    q = link.rx_positions(yaw, pitch)
    plain, steered = [], []
    for p in range(len(link.k)):
        H = link.channel(p, q)
        plain.append(link.mode_matrix(H, np.ones(link.n)))
        steered.append(link.mode_matrix(H, np.exp(1j * link.k[p] * q[:, 2])))
    return {
        "none": [capacity(plain, rho) for rho in rhos],
        "electronic": [capacity(steered, rho) for rho in rhos],
    }


def roll_capacity(link: Link, theta: float) -> float:
    """Interference-free diagonal-model capacity of the aligned link rolled by ``theta``."""
    q = link.rx_positions(0.0, 0.0, theta)
    total = 0.0
    for p in range(len(link.k)):
        h = link.mode_matrix(link.channel(p, q), np.ones(link.n))
        total += sum(math.log2(1.0 + link.rho * abs(h[u, u]) ** 2) for u in range(len(link.modes)))
    return total / len(link.k)
