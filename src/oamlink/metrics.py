"""SINR / SIR / capacity of an effective mode-domain channel.

Noise power is normalized to 1 and the symbol power folded into the linear
ratio ``rho``, so SINR on mode u of an effective matrix h is
rho*|h(u,u)|^2 / (rho * sum_{v!=u} |h(u,v)|^2 + 1).  Capacity averages
log2(1 + SINR) over subcarriers and sums over modes.

The small-coupling closed forms give the leading-order magnitude of the
diagonal (signal) and off-diagonal (interference) entries when the pitch is
zero; ``asymptotic_sir`` gives their (A, U) SIRs of every mode at every yaw
angle in one call, which ``monotonicity`` writes beside the exact SIR.

The exact steered entries of a single-axis tilt come from the Jacobi-Anger
expansion e^{iS cos d} = sum_q i^q J_q(S) e^{iqd} (DLMF 10.12).  Two Bessel
sequences, A_q = i^q J_q(S (1+cos)/2) and B_w = (i sigma)^w J_w(S (1-cos)/2),
are folded by residue mod N into A^_r and B^_s; every entry is then
sum over r with 2r = l_u + l_v (mod N) of A^_r B^_{(l_u - r) mod N}, at most
two products.  ``steered_entries`` evaluates all angles and mode pairs of
one tilt axis from one array ``jv`` call per sequence; it stays accurate
where the plain double DFT sum cancels at small coupling, and
``steered_sir`` gives their (A, U) SIRs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Channels whose capacities are evaluated together.  The per-mode terms are
# (CAPACITY_CHUNK, SNRs, P, U) floats, 590 KB at 16 SNRs, 8 subcarriers and 9
# modes, so a sweep's peak memory does not grow with angles times SNRs.
CAPACITY_CHUNK = 64


def _signal_interference(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row signal and interference power of a (..., U, U) stack of mode-domain matrices.

    The interference sums the off-diagonal powers directly: row sum minus
    signal cancels when the interference is many orders below the signal.
    """
    power = np.abs(h) ** 2
    off = ~np.eye(power.shape[-1], dtype=bool)
    return np.diagonal(power, axis1=-2, axis2=-1), np.where(off, power, 0.0).sum(axis=-1)


def _row(effective: np.ndarray, u: int) -> tuple[float, float]:
    if not 0 <= u < effective.shape[0]:
        raise IndexError(f"mode index {u} outside 0..{effective.shape[0] - 1}")
    signal, interference = _signal_interference(effective)
    return float(signal[u]), float(interference[u])


def sinr(effective: np.ndarray, u: int, rho: float) -> float:
    """Signal-to-interference-plus-noise ratio on mode row ``u`` of a U x U matrix (linear)."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    signal, interference = _row(effective, u)
    return rho * signal / (rho * interference + 1.0)


def sir(effective: np.ndarray, u: int) -> float:
    """Signal-to-interference ratio on mode row ``u`` of a U x U matrix; +inf when interference-free."""
    signal, interference = _row(effective, u)
    if interference <= 0.0:
        return math.inf
    return signal / interference


def capacity(effectives, rho):
    """Mean-over-subcarriers, sum-over-modes capacity [bits/s/Hz].

    ``effectives`` is a (..., P, U, U) stack, such as one pose's (P, U, U) or
    the (A, P, U, U) of ``mode_channels``; ``rho`` is one linear SNR or an
    array of them.  Returns the stack's leading shape followed by rho's, as a
    float when that is empty.  Chunks of the flattened leading axes take the
    same element-wise operations and per-row sum, so chunking keeps the bits.
    """
    h = np.asarray(effectives)
    if h.ndim < 3 or h.shape[-3] < 1:
        raise ValueError(f"need a (..., P, U, U) stack with P >= 1, got shape {h.shape}")
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho > 0):
        raise ValueError("rho must be positive")
    flat = h.reshape((-1,) + h.shape[-3:])
    pad = (slice(None),) + (None,) * rho.ndim
    r = rho[..., None, None]
    total = np.empty((len(flat),) + rho.shape)
    for start in range(0, len(flat), CAPACITY_CHUNK):
        chunk = slice(start, start + CAPACITY_CHUNK)
        signal, interference = _signal_interference(flat[chunk])  # (chunk, P, U)
        per_mode = np.log2(1.0 + r * signal[pad] / (r * interference[pad] + 1.0))
        total[chunk] = per_mode.reshape(per_mode.shape[:-2] + (-1,)).sum(axis=-1) / h.shape[-3]
    total = total.reshape(h.shape[:-3] + rho.shape)
    return float(total) if total.ndim == 0 else total


def asymptotic_sir(
    modes: Sequence[int],
    angles,
    s_coupling: float,
    n_elements: int,
) -> np.ndarray:
    """(A, U) small-coupling SIR of every mode at every yaw angle at zero pitch, from the closed forms.

    Valid in the small-coupling regime (s_coupling well below ~0.1), the
    leading-order entry magnitudes, in units of |eta| N^2 (which cancels), are

    signal_u        ~ [S (1+cos g)]^tau / (4^tau tau!)
    interference_uv ~ S^(tb+chi) (1-cos g)^tb (1+cos g)^chi / (4^(tb+chi) tb! chi!)

    where, with t = l_u - l_v and |x|_N the distance of x from the nearest
    multiple of N, tau = |l_u|_N, tb = |t/2|_N and chi = |l_v + t/2|_N.  For an
    even element count, entries whose mode-number difference t is odd vanish
    identically at zero pitch (shifting both element indices by N/2 flips the
    summand sign), so only pairs with even t count, and their exponents are
    integers.  The powers S^tau under- and overflow a double, so each ratio
    r_uv = interference_uv / signal_u is taken in the log domain and
    SIR = 1 / sum_v r_uv^2 = exp(-logsumexp(2 log r_uv)); +inf with no
    interference.
    """
    lu = np.asarray(modes, dtype=int)
    lv = lu[:, None, None]  # the pair tables are (V, 1, U), indexed v first, against (A, 1) angles
    t = lu - lv
    tau, tb, chi = (np.minimum(x % n_elements, -x % n_elements) for x in np.broadcast_arrays(lu, t // 2, lv + t // 2))
    e = tb + chi - tau
    interferes = (t % 2 == 0) & (t != 0)
    # One correctly rounded quotient of factorials per pair, scaled exactly by 4^-e
    # (differences of lgamma lose up to 150 eps).
    log_factor = np.zeros(t.shape)
    for pair in zip(*np.nonzero(interferes)):
        a, b, c, d = (int(x[pair]) for x in (tau, tb, chi, e))
        log_factor[pair] = math.log(math.ldexp(math.factorial(a) / (math.factorial(b) * math.factorial(c)), -2 * d))
    cg = np.cos(np.atleast_1d(np.asarray(angles, dtype=float)))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf: a factor that vanishes
        log_plus, log_minus = np.log1p(cg), np.log1p(-cg)
        # Skip the angle factors with exponent 0: 0^0 = 1, where 0 * log(0) is nan.
        log_r = e * math.log(s_coupling) + log_factor + np.where(tb != 0, tb * log_minus, 0.0)
        log_r += np.where(chi != tau, (chi - tau) * log_plus, 0.0)
    # logsumexp over v from the largest term (a running logaddexp rounds at each
    # step), summed in v order; a pair that does not interfere has r = 0.
    x = np.where(interferes, 2.0 * log_r, -math.inf)  # (V, A, U)
    top = x.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    x -= shift  # in place: x is (V, A, U), 33 MB at 1000 angles and 64 modes
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(-(shift + np.log(np.exp(x, out=x).sum(axis=0))))


# i^k indexed by k mod 4, and the k with i * sigma = i^k per tilt axis
# (sigma = -1 for yaw, +1 for pitch).
_I_POWERS = np.array([1, 1j, -1, -1j])
_AXIS_I_POWER = {"yaw": 3, "pitch": 1}


def _residue_fold(seq: np.ndarray, q_max: int, n: int) -> np.ndarray:
    """Sum the orders -q_max..q_max on the last axis of ``seq`` by residue mod ``n``.

    Column r of the result holds the sum over every order q = r (mod n).
    """
    lead = (-q_max) % n  # zero-pad so the first order is a multiple of n
    tail = -(lead + seq.shape[-1]) % n
    padded = np.pad(seq, ((0, 0), (lead, tail)))
    return padded.reshape(seq.shape[0], -1, n).sum(axis=1)


def steered_entries(
    axis: str,
    modes: Sequence[int],
    angles,
    s_coupling: float,
    n_elements: int,
) -> np.ndarray:
    """Steered mode-domain matrices for a single-axis tilt, in units of eta * N^2.

    Returns an (A, U, U) array: entry [k, u, v] belongs to ``angles[k]``.
    Both arrays' reference elements sit at angle zero.  Each sequence is
    built with one array ``jv`` call of shape (A, 2 q_max + 1); nothing
    scales with angles times the (q, w) lattice.  The module docstring gives
    the folded-residue form it evaluates (sigma = -1 for yaw, +1 for pitch).
    """
    from scipy.special import jv  # imported here: scipy.special dominates ``import oamlink``

    if axis not in _AXIS_I_POWER:
        raise ValueError(f"axis must be 'yaw' or 'pitch', got {axis!r}")
    c = np.cos(np.atleast_1d(np.asarray(angles, dtype=float)))
    a = s_coupling * (1.0 + c) / 2.0
    b = s_coupling * (1.0 - c) / 2.0
    n = n_elements
    q_max = int(math.ceil(np.max(a + b))) + 2 * n + 25
    orders = np.arange(-q_max, q_max + 1)
    a_hat = _residue_fold(_I_POWERS[orders % 4] * jv(orders, a[:, None]), q_max, n)
    b_hat = _residue_fold(_I_POWERS[orders * _AXIS_I_POWER[axis] % 4] * jv(orders, b[:, None]), q_max, n)
    lu = np.asarray(modes, dtype=int)[:, None]
    r = np.arange(n)
    hit = (2 * r - lu[:, :, None] - lu.T[:, :, None]) % n == 0  # (U, U, N): 2r = l_u + l_v
    return np.einsum("uvr,ar,aur->auv", hit, a_hat, b_hat[:, (lu - r) % n])


def steered_sir(
    axis: str,
    modes: Sequence[int],
    angles,
    s_coupling: float,
    n_elements: int,
) -> np.ndarray:
    """(A, U) SIR of every mode at every angle of a single-axis tilt; +inf when interference-free."""
    magnitude = np.abs(steered_entries(axis, modes, angles, s_coupling, n_elements))
    # Scale each row by a power of two from its largest entry before squaring: exact,
    # and keeps the powers of small-coupling entries from underflowing to 0.
    exponent = np.frexp(magnitude.max(axis=-1, keepdims=True))[1]
    signal, interference = _signal_interference(np.ldexp(magnitude, -exponent))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(interference > 0.0, signal / interference, math.inf)


def steered_mode_entry(
    axis: str,
    modes: Sequence[int],
    u: int,
    v: int,
    angle: float,
    s_coupling: float,
    n_elements: int,
) -> complex:
    """Steered mode-domain entry [u, v] for a single-axis tilt, in units of eta * N^2.

    The one-angle view of ``steered_entries``: the electronically steered
    link tilted in yaw only (zero pitch) or pitch only (zero yaw), both
    arrays' reference elements at angle zero, from the residue-folded
    Jacobi-Anger form of the module docstring.  It stays accurate where the
    plain double sum loses the entry to cancellation at small coupling.
    """
    return complex(steered_entries(axis, modes, [angle], s_coupling, n_elements)[0, u, v])

