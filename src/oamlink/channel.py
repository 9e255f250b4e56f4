"""Per-subcarrier channel matrices and the mode-domain (OAM) channel.

The element-to-element coefficient is beta/(2 k d) * exp(-i k d) with d the
transmit-to-receive element distance; the far-field variant keeps the exact
distance in the phase expansion but flattens the amplitude to beta/(2 k r).
Mode multiplexing uses rows of a (partial) DFT matrix: row u spiralizes /
despiralizes mode l_u, optionally weighted by per-element steering phases.

``oam_effective`` is the despiralization kernel: ((F * b) @ H) @ F^H of a
(..., N, N) stack of channels H with (..., N) steering rows b and the partial
DFT F.  ``mode_channels`` gives the (A, P, U, U) mode-domain channels of A
receive attitudes through it, from ``geometry.distances`` vectorized over
the attitudes, POSE_CHUNK attitudes at a time.  ``channel_matrix`` and
``channel_matrices`` take one ``Pose``, roll included; they are the element
channel's one-pose views.  Its oracles in the
tests: the rotation-matrix product with the exact Euclidean distance; the
aligned link is circulant, so the DFT diagonalizes it (Edfors & Johansson,
IEEE TAP 2012); and a single-axis tilt steered by ``phases_eo`` (R. Chen et
al., IEEE WCL 2018) gives N^2 eta_p times ``metrics.steered_entries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import LinkConfig
from .geometry import Pose, distances

# Poses evaluated together by mode_channels.  Its largest temporaries are
# complex (POSE_CHUNK, P, N, N) arrays, 100 KB at P = 8, N = 10: below glibc's
# 128 KB mmap threshold, so repeated calls reuse heap pages.
POSE_CHUNK = 8


@dataclass(frozen=True)
class ChannelMatrix:
    """N x N element-domain channel at one subcarrier (rows: rx, cols: tx)."""

    subcarrier_index: int
    entries: np.ndarray


def _channel_tensor(angles: np.ndarray, cfg: LinkConfig, method: str) -> np.ndarray:
    """(A, P, N, N) element-domain channels of A attitudes at every subcarrier."""
    k = cfg.wavenumbers[:, None, None]
    d = distances(angles, cfg, method)[:, None]
    amplitude = cfg.beta / (2.0 * k * (d if method == "exact" else cfg.range_r))
    return amplitude * np.exp(-1j * k * d)


def mode_channels(angles, cfg: LinkConfig, rows=None) -> np.ndarray:
    """(A, P, U, U) far-field mode-domain channels ((F * b) @ H) @ F^H of A receive attitudes.

    ``angles`` has one (yaw, pitch, roll) row [rad] per attitude, the fields
    of a ``Pose``.  ``rows`` holds (A, P, N) unit-modulus steering weights b;
    None stands for weights of exactly 1 + 0j, which zero phases also give.
    """
    angles = np.asarray(angles, dtype=float).reshape(-1, 3)
    shape = (len(angles), cfg.n_subcarriers, cfg.n_elements)
    if rows is not None and np.shape(rows) != shape:
        raise ValueError(f"steering rows must have shape {shape}, got {np.shape(rows)}")
    out = np.empty(shape[:2] + (cfg.n_modes, cfg.n_modes), dtype=complex)
    for start in range(0, len(angles), POSE_CHUNK):
        chunk = slice(start, start + POSE_CHUNK)
        H = _channel_tensor(angles[chunk], cfg, "farfield")
        out[chunk] = oam_effective(H, cfg.modes, None if rows is None else rows[chunk])
    return out


def channel_matrix(p: int, pose: Pose, cfg: LinkConfig, method: str = "farfield") -> ChannelMatrix:
    """Assemble the N x N channel at subcarrier ``p`` for the receive attitude ``pose``."""
    return channel_matrices(pose, cfg, method)[p]


def channel_matrices(pose: Pose, cfg: LinkConfig, method: str = "farfield") -> list[ChannelMatrix]:
    """Channel matrices for every subcarrier at the receive attitude ``pose``, roll included."""
    H = _channel_tensor(np.array([(pose.gamma, pose.psi, pose.roll)]), cfg, method)[0]
    return [ChannelMatrix(p, h) for p, h in enumerate(H)]


def partial_dft(modes: Sequence[int], n_elements: int) -> np.ndarray:
    """U x N despiralization rows exp(-2i*pi*l_u*j/N)/sqrt(N), unit norm; F F^H = I_U.

    Modes that coincide modulo N produce identical rows, so they are rejected.
    """
    modes = [int(l) for l in modes]
    if len(modes) > n_elements:
        raise ValueError(f"at most {n_elements} modes supported, got {len(modes)}")
    if len({l % n_elements for l in modes}) != len(modes):
        raise ValueError("duplicate mode (modulo element count) in mode list")
    j = np.arange(n_elements)
    return np.exp(-2j * math.pi * np.array(modes)[:, None] * j / n_elements) / math.sqrt(n_elements)


@lru_cache(maxsize=16)
def _despiralizer(modes: tuple[int, ...], n_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``partial_dft`` F and F^H of a mode set, built once, not once per call or chunk."""
    F = partial_dft(modes, n_elements)
    F_h = F.conj().T
    F.flags.writeable = F_h.flags.writeable = False
    return F, F_h


def oam_effective(H, modes: Sequence[int], rows=None) -> np.ndarray:
    """(..., U, U) mode-domain channels (F * b) @ H @ F^H of (..., N, N) channels ``H``.

    ``rows`` holds (..., N) unit-modulus steering weights b, one row per
    channel; None stands for weights of exactly 1 + 0j, which zero phases
    also give.  Successive steering stages multiply their weights.
    """
    n = H.shape[-1]
    if H.shape[-2:] != (n, n):
        raise ValueError(f"channel matrices must be square, got {H.shape}")
    if rows is not None and np.shape(rows) != H.shape[:-1]:
        raise ValueError(f"steering rows must have shape {H.shape[:-1]}, got {np.shape(rows)}")
    F, F_h = _despiralizer(tuple(modes), n)
    b = np.ones(H.shape[:-1], dtype=complex) if rows is None else rows
    return (F * b[..., None, :]) @ H @ F_h


def simulate_reception(
    symbols: np.ndarray,
    H: np.ndarray,
    modes: Sequence[int],
    rows=None,
    noise_sigma: float = 0.0,
    rng: int | np.random.Generator = 0,
) -> np.ndarray:
    """One-shot receive chain: spiralize, propagate over the N x N ``H``, add noise, despiralize.

    ``symbols`` is the length-U mode-symbol vector (or U x K batch of draws);
    ``rows`` the (N,) unit-modulus steering weights, None for none.  Noise
    is circular complex Gaussian with per-element variance ``noise_sigma**2``.
    Deterministic for a given seed.
    """
    n = H.shape[0]
    F, F_h = _despiralizer(tuple(modes), n)
    s = np.asarray(symbols, dtype=complex)
    if s.shape[0] != len(F):
        raise ValueError(f"expected {len(F)} mode symbols, got {s.shape[0]}")
    x = F_h @ s
    received = H @ x
    if noise_sigma > 0.0:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        z = noise_sigma / math.sqrt(2.0) * (
            gen.standard_normal(received.shape) + 1j * gen.standard_normal(received.shape)
        )
        received = received + z
    return (F if rows is None else F * rows) @ received
