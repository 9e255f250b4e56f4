"""Per-subcarrier channel matrices and the mode-domain (OAM) channel.

The element-to-element coefficient is beta/(2 k d) * exp(-i k d) with d the
transmit-to-receive element distance; the far-field variant keeps the exact
distance in the phase expansion but flattens the amplitude to beta/(2 k r).
Mode multiplexing uses rows of a (partial) DFT matrix: row u spiralizes /
despiralizes mode l_u, optionally weighted by per-element steering phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .config import LinkConfig
from .geometry import Pose


@dataclass(frozen=True)
class ChannelMatrix:
    """N x N element-domain channel at one subcarrier (rows: rx, cols: tx)."""

    subcarrier_index: int
    entries: np.ndarray


@dataclass(frozen=True)
class OamMatrix:
    """U x U effective mode-domain channel (rows/cols follow the mode list)."""

    entries: np.ndarray


def _distance_grid(
    pose: Pose | None,
    residual: Pose | None,
    stage: str,
    cfg: LinkConfig,
    method: str,
) -> np.ndarray:
    """All N x N element distances for one stage (vectorized twin of geometry.distance)."""
    gamma, psi, roll = geometry._stage_angles(pose, residual, stage)
    theta = cfg.rx.element_angles[:, None] + roll
    phi = cfg.tx.element_angles[None, :]
    st, ct = np.sin(theta), np.cos(theta)
    sf, cf = np.sin(phi), np.cos(phi)
    sg, cg = math.sin(gamma), math.cos(gamma)
    sp, cp = math.sin(psi), math.cos(psi)
    r = cfg.range_r
    if method == "farfield":
        rr_rt = cfg.rx.radius * cfg.tx.radius / r
        return (
            r
            - rr_rt * st * cf * sp * sg
            - rr_rt * (ct * cf * cg + st * sf * cp)
            + cfg.rx.radius * (st * sp * cg - ct * sg)
        )
    if method != "exact":
        raise ValueError(f"unknown distance method {method!r}")
    # Receive element positions in the transmit-parallel frame, shifted to range r.
    qx = cfg.rx.radius * (ct * cg + st * sp * sg)
    qy = cfg.rx.radius * (st * cp)
    qz = cfg.rx.radius * (st * sp * cg - ct * sg) + r
    return np.sqrt(
        (qx - cfg.tx.radius * cf) ** 2 + (qy - cfg.tx.radius * sf) ** 2 + qz**2
    )


def channel_matrix(
    p: int,
    pose: Pose | None,
    residual: Pose | None,
    stage: str,
    cfg: LinkConfig,
    method: str = "farfield",
) -> ChannelMatrix:
    """Assemble the N x N channel at subcarrier ``p`` for the given stage."""
    k = cfg.wavenumber(p)
    d = _distance_grid(pose, residual, stage, cfg, method)
    amplitude = cfg.beta / (2.0 * k * (d if method == "exact" else cfg.range_r))
    return ChannelMatrix(p, amplitude * np.exp(-1j * k * d))


def channel_matrices(
    pose: Pose | None,
    residual: Pose | None,
    stage: str,
    cfg: LinkConfig,
    method: str = "farfield",
) -> list[ChannelMatrix]:
    """Channel matrices for every subcarrier."""
    return [channel_matrix(p, pose, residual, stage, cfg, method) for p in range(cfg.n_subcarriers)]


def dft_vector(mode: int, n_elements: int) -> np.ndarray:
    """Unit-norm despiralization row for one mode: exp(-2i*pi*mode*j/N)/sqrt(N)."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    j = np.arange(n_elements)
    return np.exp(-2j * math.pi * mode * j / n_elements) / math.sqrt(n_elements)


def partial_dft(modes: Sequence[int], n_elements: int) -> np.ndarray:
    """U x N matrix whose row u is dft_vector(modes[u]); satisfies F F^H = I_U.

    Modes that coincide modulo N produce identical rows, so they are rejected.
    """
    modes = [int(l) for l in modes]
    if len(modes) > n_elements:
        raise ValueError(f"at most {n_elements} modes supported, got {len(modes)}")
    if len({l % n_elements for l in modes}) != len(modes):
        raise ValueError("duplicate mode (modulo element count) in mode list")
    return np.stack([dft_vector(l, n_elements) for l in modes])


def _steering_row(steering, n_elements: int) -> np.ndarray:
    """Unit-modulus per-element weights from zero, one or several phase schedules."""
    if steering is None:
        return np.ones(n_elements)
    schedules = steering if isinstance(steering, (list, tuple)) else [steering]
    row = np.ones(n_elements, dtype=complex)
    for sched in schedules:
        phases = np.asarray(getattr(sched, "phases", sched), dtype=float)
        if phases.shape != (n_elements,):
            raise ValueError(f"steering phases must have shape ({n_elements},), got {phases.shape}")
        row = row * np.exp(1j * phases)
    return row


def oam_effective(
    H: ChannelMatrix,
    modes: Sequence[int],
    steering=None,
) -> OamMatrix:
    """Mode-domain channel (F * b) @ H @ F^H with optional steering weights b.

    ``steering`` may be None (plain despiralization), a phase schedule, or a
    sequence of schedules applied multiplicatively (successive electronic
    steering stages).
    """
    n = H.entries.shape[0]
    if H.entries.shape != (n, n):
        raise ValueError(f"channel matrix must be square, got {H.entries.shape}")
    F = partial_dft(modes, n)
    row = _steering_row(steering, n)
    return OamMatrix((F * row) @ H.entries @ F.conj().T)


def simulate_reception(
    symbols: np.ndarray,
    H: ChannelMatrix,
    modes: Sequence[int],
    steering=None,
    noise_sigma: float = 0.0,
    rng: int | np.random.Generator = 0,
) -> np.ndarray:
    """One-shot receive chain: spiralize, propagate, add noise, despiralize.

    ``symbols`` is the length-U mode-symbol vector (or U x K batch of draws);
    noise is circular complex Gaussian with per-element variance
    ``noise_sigma**2``.  Deterministic for a given seed.
    """
    n = H.entries.shape[0]
    F = partial_dft(modes, n)
    s = np.asarray(symbols, dtype=complex)
    if s.shape[0] != len(F):
        raise ValueError(f"expected {len(F)} mode symbols, got {s.shape[0]}")
    x = F.conj().T @ s
    received = H.entries @ x
    if noise_sigma > 0.0:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        z = noise_sigma / math.sqrt(2.0) * (
            gen.standard_normal(received.shape) + 1j * gen.standard_normal(received.shape)
        )
        received = received + z
    return (F * _steering_row(steering, n)) @ received
