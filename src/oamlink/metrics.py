"""SINR / SIR / capacity of an effective mode-domain channel.

Noise power is normalized to 1 and the symbol power folded into the linear
ratio ``rho``, so SINR on mode u of an effective matrix h is
rho*|h(u,u)|^2 / (rho * sum_{v!=u} |h(u,v)|^2 + 1).  Capacity averages
log2(1 + SINR) over subcarriers and sums over modes.

The small-coupling closed forms give the leading-order magnitude of the
diagonal (signal) and off-diagonal (interference) entries when the pitch is
zero, on links with an even element count N and no mode at N/2 (mod N);
``asymptotic_sir`` gives their (A, U) SIRs of every mode at every yaw angle in
one call, which ``monotonicity`` writes beside the exact SIR.

The exact steered entries of a single-axis tilt come from the Jacobi-Anger
expansion e^{iS cos d} = sum_q i^q J_q(S) e^{iqd} (DLMF 10.12).  Two Bessel
sequences, A_q = i^q J_q(S (1+cos)/2) and B_w = (i sigma)^w J_w(S (1-cos)/2),
are folded by residue mod N into A^_r and B^_s; every entry is then
sum over r with 2r = l_u + l_v (mod N) of A^_r B^_{(l_u - r) mod N}, at most
two products, and only those residues are gathered.  Yaw and pitch differ
only in the i-powers that multiply J_w, so ``steered_entries`` evaluates all
angles and mode pairs of both axes (``AXES``: yaw, then pitch) in one stacked
pass over their rows, from one backward recurrence (``_bessel_orders``) at
the orders 0..q_max that the tail bound |J_q(x)| <= (x/2)^|q| / |q|! asks
for, mirrored to the negative orders by J_-q = (-1)^q J_q (DLMF 10.4.1); it
stays accurate where the plain double DFT sum cancels at small coupling, and
``steered_sir`` gives their (2, A, U) SIRs.  Its values carry one power-of-two
scale of S (``_scale``), under which no leading entry underflows at any S > 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

# Channels whose capacities are evaluated together.  The per-mode terms are
# (CAPACITY_CHUNK, SNRs, P, U) floats, 590 KB at 16 SNRs, 8 subcarriers and 9
# modes, so a sweep's peak memory does not grow with angles times SNRs.
CAPACITY_CHUNK = 64
# Rows, one angle of one tilt axis each, whose steered SIRs are evaluated
# together.  The (SIR_CHUNK, U, U) entries and magnitudes are 4 MB at 63 modes,
# where one axis's whole lattice at 1000 angles took 130 MB of temporaries.
SIR_CHUNK = 64


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


def check_closed_form_domain(modes: Sequence[int], n_elements: int) -> None:
    """Raise ValueError unless ``asymptotic_sir``'s closed forms hold for the link.

    They are derived for an even element count N and no mode at N/2 (mod N);
    the rule is decided in integers.
    """
    n = n_elements
    if n % 2:
        raise ValueError(f"the closed forms need an even element count, got N = {n}")
    if any(int(l) % n == n // 2 for l in modes):
        raise ValueError(f"the closed forms need no mode at N/2 = {n // 2} (mod N), got modes {tuple(map(int, modes))}")


def _fold(x, n: int):
    """|x|_N, the distance of the integers ``x`` from the nearest multiple of N."""
    return np.minimum(x % n, -x % n)


@lru_cache(maxsize=16)
def _closed_form_pairs(modes: tuple[int, ...], n_elements: int) -> tuple[np.ndarray, ...]:
    """Read-only (V, 1, U) pair tables of ``asymptotic_sir`` for a link, built once per process.

    They are indexed v first, against (A, 1) angles: whether the pair
    interferes (even t != 0), the power e = tb + chi - tau of S in its ratio,
    tb, chi - tau, and the log of its factorial quotient scaled by 4^-e.
    """
    lu = np.array(modes, dtype=int)
    lv = lu[:, None, None]
    t = lu - lv
    tau, tb, chi = (_fold(x, n_elements) for x in np.broadcast_arrays(lu, t // 2, lv + t // 2))
    e = tb + chi - tau
    interferes = (t % 2 == 0) & (t != 0)
    # One correctly rounded quotient of factorials per pair, scaled exactly by 4^-e
    # (differences of lgamma lose up to 150 eps).
    log_factor = np.zeros(t.shape)
    pairs = np.nonzero(interferes)
    log_factor[pairs] = [
        math.log(math.ldexp(math.factorial(a) / (math.factorial(b) * math.factorial(c)), -2 * d))
        for a, b, c, d in zip(*(x[pairs].tolist() for x in (tau, tb, chi, e)))
    ]
    tables = interferes, e, tb, chi - tau, log_factor
    for table in tables:
        table.flags.writeable = False
    return tables


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
    multiple of N, tau = |l_u|_N, tb = |t/2|_N and chi = |l_v + t/2|_N.  They
    are derived for an even element count N, where entries whose mode-number
    difference t is odd vanish identically at zero pitch (shifting both element
    indices by N/2 flips the summand sign), so only pairs with even t count, and
    their exponents are integers.  A mode at N/2 (mod N) has two leading orders,
    J_{+-N/2}, which the forms do not sum; ``check_closed_form_domain`` raises
    ValueError for odd N or such a mode.  The powers S^tau under- and overflow
    a double, so each ratio r_uv = interference_uv / signal_u is taken in the
    log domain and SIR = 1 / sum_v r_uv^2 = exp(-logsumexp(2 log r_uv)); +inf
    with no interference.
    """
    check_closed_form_domain(modes, n_elements)
    interferes, e, tb, chi_tau, log_factor = _closed_form_pairs(tuple(map(int, modes)), n_elements)
    cg = np.cos(np.atleast_1d(np.asarray(angles, dtype=float)))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf: a factor that vanishes
        log_plus, log_minus = np.log1p(cg), np.log1p(-cg)
        # Skip the angle factors with exponent 0: 0^0 = 1, where 0 * log(0) is nan.
        log_r = e * math.log(s_coupling) + log_factor + np.where(tb != 0, tb * log_minus, 0.0)
        log_r += np.where(chi_tau != 0, chi_tau * log_plus, 0.0)
    # logsumexp over v from the largest term (a running logaddexp rounds at each
    # step), summed in v order; a pair that does not interfere has r = 0.
    x = np.where(interferes, 2.0 * log_r, -math.inf)  # (V, A, U)
    top = x.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    x -= shift  # in place: x is (V, A, U), 32 MB at 1000 angles and 63 modes
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(-(shift + np.log(np.exp(x, out=x).sum(axis=0))))


# i^k indexed by k mod 4.
_I_POWERS = np.array([1, 1j, -1, -1j])
# The tilt axes of the steered lattice, in the order of its leading axis.
AXES = ("yaw", "pitch")


def _order_max(x: float, n: int) -> int:
    """The largest Bessel order |q| the lattice keeps for arguments up to ``x``.

    |J_q(x)| <= (x/2)^|q| / |q|! (DLMF 10.14.4), and once q + 2 >= x successive
    bounds shrink by at least half, so the orders beyond |q| > q_max add at most
    4 (x/2)^(q_max+1) / (q_max+1)! to a folded residue.  Every residue has a
    leading order |q| <= N//2, of size about (x/2)^(N//2) / (N//2)! or more at
    small x.  q_max is the first order from N//2 where that tail is below 2^-56
    of the smaller of 1 and that leading size: an eighth of a double's rounding,
    relative at small coupling and absolute where |J| is of order 1.  The terms
    are compared as logs, so no subnormal x underflows them, and the search ends
    within 0.4 x + 31 steps (70 at x = 100).  ``_bessel_orders`` starts its
    recurrence a few orders above q_max.
    """
    h = n // 2
    if x == 0.0:  # J_q(0) = 0 for every q != 0
        return h
    log_half = math.log(x) - math.log(2.0)
    limit = -56.0 * math.log(2.0) + min(0.0, h * log_half - math.lgamma(h + 1))
    q = max(h, math.ceil(x) - 2)
    while math.log(4.0) + (q + 1) * log_half - math.lgamma(q + 2) > limit:
        q += 1
    return q


def _recurrence_top(x: float, q_max: int) -> int:
    """The order past q_max where ``_bessel_orders`` starts for arguments up to ``x``.

    The ratio continued fraction converges like (x / 2k)^2 per order, so this
    is the first order where the factors (x / (2k - x))^2 past q_max put the
    truncation error at q_max below 2^-54, half an ulp or less: q_max + 3 at
    x = 0.01, N = 10, and q_max + 20 at x = 100.
    """
    top, log_error = q_max, 0.0
    while x > 0.0 and log_error > -54.0 * math.log(2.0):
        top += 1
        log_error += 2.0 * (math.log(x) - math.log(2.0 * top - x))
    return top


def _scale(s_coupling: float) -> int:
    """The lattice's scale exponent e = min(E, 0), where 2^E <= S < 2^(E+1): S 2^-e is in [1, 2) for S < 1."""
    return min(math.frexp(s_coupling)[1] - 1, 0)


def _bessel_orders(x: np.ndarray, q_max: int, e: int) -> np.ndarray:
    """(M, q_max + 1) table of J_q(x 2^e) 2^(-q e), q = 0..q_max, at each of M scaled arguments ``x`` >= 0.

    Miller's backward recurrence (DLMF 3.6(vi)) in ratio form: from r = 0 past
    ``_recurrence_top``, r_k = J_k / J_(k-1) = y / (2k - y r_(k+1)) at y = x 2^e,
    each carried times 2^-e, then J_k = r_1 ... r_k / (1 + 2 r_1 r_2 + ...),
    the sum J_0 + 2 sum J_2k = 1 (DLMF 10.12.4) over J_0.  Powers of two keep
    every rounding of the unscaled recurrence where its values are normal; below
    S = 1 ``_scale``'s e puts every x below 2, so no value overflows and the
    orders of x >= 1/2 stay normal down to y = 5e-324.  x = 0 gives J_q(0).  The
    sum runs up from order 0, so orders past q_max, each below 2^-56 of it,
    leave its bits.
    """
    top = _recurrence_top(math.ldexp(float(x.max(initial=0.0)), e), q_max)
    small = np.ldexp(x, 2 * e)  # y 2^e
    ratios = np.zeros((top + 2, len(x)))  # r_0 = 1, ..., r_top, r_(top+1) = 0, each times 2^-e
    ratios[0] = 1.0
    for k in range(top, 0, -1):  # r_k 2^-e = x / (2k - (y 2^e) (r_(k+1) 2^-e)), in place
        r = ratios[k]
        np.divide(x, np.subtract(2.0 * k, np.multiply(small, ratios[k + 1], r), r), r)
    products = np.cumprod(ratios[:-1], axis=0)  # J_k / J_0 times 2^(-k e)
    even = np.ldexp(products[::2], 2 * e * np.arange(len(products[::2]))[:, None])  # J_2k / J_0
    return (products[: q_max + 1] / (2.0 * even.sum(axis=0) - 1.0)).T


@lru_cache(maxsize=16)
def _order_tables(q_max: int, n: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of ``_folded_sequences`` over the orders -q_max..q_max, built once per process.

    The (3, 1, 2 q_max + 1) i-powers i^(k q), with k = 1 for A^, 3 for B^_yaw
    and 1 for B^_pitch, each times 2^((|q| - |q|_N) e), which takes order q
    from its scale 2^(-|q| e) to its residue column's, and the signs (-1)^q of
    the negative orders.
    """
    orders = np.arange(-q_max, q_max + 1)
    scales = np.ldexp(1.0, (np.abs(orders) - _fold(orders, n)) * e)
    powers = _I_POWERS[np.outer([1, 3, 1], orders) % 4][:, None] * scales
    signs = np.where(orders[:q_max] % 2, -1.0, 1.0)
    powers.flags.writeable = signs.flags.writeable = False
    return powers, signs


def _folded_sequences(angles, s_coupling: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(2A, N) folded sequences A^ and B^ of both axes' rows: yaw at every angle, then pitch.

    A_q = i^q J_q(a) and B_w = (i sigma)^w J_w(b), with a, b = S (1 +- cos) / 2
    and i sigma = -i for yaw, +i for pitch, over the orders |q| <= q_max of
    ``_order_max``; column r sums every order q = r (mod N), scaled by
    2^(-|r|_N e) with e = ``_scale(S)``.  One ``_bessel_orders`` call
    evaluates a and b at the orders 0..q_max, mirrored to the negative ones by
    J_-q = (-1)^q J_q (DLMF 10.4.1), an exact sign flip.  Both axes' B take
    their i-powers from the same J_w(b), and both axes' rows share A^.
    """
    c = np.cos(np.atleast_1d(np.asarray(angles, dtype=float)))
    e = _scale(s_coupling)
    args = math.ldexp(s_coupling, -e) * np.array([1.0 + c, 1.0 - c]) / 2.0  # a, b times 2^-e
    q_max = _order_max(math.ldexp(float(args.max(initial=0.0)), e), n)
    powers, signs = _order_tables(q_max, n, e)
    half = _bessel_orders(args.ravel(), q_max, e).reshape(2, len(c), q_max + 1)
    j = np.concatenate([half[..., :0:-1] * signs, half], axis=-1)
    # Zero-pad so the first order is a multiple of N (np.pad takes 15 times as long here).
    lead = -q_max % n
    end = lead + 2 * q_max + 1
    seq = np.zeros((3, len(c), end + -end % n), complex)
    np.multiply(powers, j[[0, 1, 1]], out=seq[..., lead:end])
    a_hat, *b_hats = seq.reshape(3, len(c), seq.shape[-1] // n, n).sum(axis=-2)
    return np.concatenate([a_hat, a_hat]), np.concatenate(b_hats)


@lru_cache(maxsize=16)
def _lattice_gather(modes: tuple[int, ...], n: int, e: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
    """Read-only gather tables of ``_lattice_entries`` for a link and scale, built once per process.

    Returns the flattened (u, v) pairs whose entries can be non-zero and, per
    residue r of a pair, the columns r and s = (l_u - r) mod N of A^ and B^
    and the factor 2^((|r|_N + |s|_N - |l_u|_N) e) that takes their product
    to row u's scale 2^(-|l_u|_N e).  As r + s = l_u (mod N), the triangle
    inequality puts the factor at or below 1.
    """
    lu = np.array(modes, dtype=int)
    total = (lu[:, None] + lu).ravel()  # l_u + l_v, flattened (u, v)
    if n % 2:
        pairs, residues = np.arange(total.size), [total * ((n + 1) // 2)]
    else:
        pairs = np.flatnonzero(total % 2 == 0)
        residues = [total[pairs] // 2, total[pairs] // 2 + n // 2]
    row_mode = lu[pairs // lu.size]
    columns = tuple((r % n, (row_mode - r) % n) for r in residues)
    tables = tuple((a, b, np.ldexp(1.0, (_fold(a, n) + _fold(b, n) - _fold(row_mode, n)) * e)) for a, b in columns)
    for table in (pairs, *(t for column in tables for t in column)):
        table.flags.writeable = False
    return pairs, tables


def _lattice_entries(a_hat: np.ndarray, b_hat: np.ndarray, modes: Sequence[int], n: int, e: int) -> np.ndarray:
    """(R, U, U) entries of R rows from their (R, N) folded sequences A^ and B^ at scale e.

    Entry [u, v] sums A^_r B^_{(l_u - r) mod N} over the residues r with
    2r = l_u + l_v (mod N), and only those are gathered: for odd N the one
    r = (l_u + l_v)(N + 1)/2; for even N, r and r + N/2 where l_u + l_v is even,
    and none (a zero entry) where it is odd.  Row u comes out scaled by
    2^(-|l_u|_N e), which no SIR of the row sees.  Every step is per row.
    """
    pairs, columns = _lattice_gather(tuple(map(int, modes)), n, e)
    size = len(modes)
    entries = np.zeros((len(a_hat), size * size), complex)
    # einsum rounds each complex product unfused; numpy's multiply may fuse it (FMA),
    # which moves odd-N entries, whose A^ and B^ are fully complex, by an ulp.
    entries[:, pairs] = sum(np.einsum("ap,ap,p->ap", a_hat[:, a], b_hat[:, b], f) for a, b, f in columns)
    return entries.reshape(-1, size, size)


def steered_entries(
    modes: Sequence[int],
    angles,
    s_coupling: float,
    n_elements: int,
) -> np.ndarray:
    """Steered mode-domain matrices for a single-axis tilt in each of ``AXES``, in units of eta * N^2.

    Returns a (2, A, U, U) array: entry [i, k, u, v] belongs to tilt axis
    ``AXES[i]`` (yaw, then pitch) at ``angles[k]``.  Both arrays' reference
    elements sit at angle zero.  Both axes' rows come from one
    ``_bessel_orders`` call over 2A arguments and orders 0..q_max and are
    gathered in one stacked pass; nothing scales with angles times the (q, w)
    lattice.  The module docstring gives the folded-residue form it evaluates.
    One ``ldexp`` removes the row scale of ``_lattice_entries``, rounding each
    entry at most once, where it falls below the smallest normal double.
    """
    e = _scale(s_coupling)
    rows = _lattice_entries(*_folded_sequences(angles, s_coupling, n_elements), modes, n_elements, e)
    row_scale = e * _fold(np.array(modes, dtype=int), n_elements)[:, None]
    rows = np.ldexp(rows.view(float), row_scale).view(complex)
    return rows.reshape((len(AXES), len(rows) // len(AXES)) + rows.shape[1:])


def steered_sir(
    modes: Sequence[int],
    angles,
    s_coupling: float,
    n_elements: int,
) -> np.ndarray:
    """(2, A, U) SIR of every mode at every angle of a yaw, then a pitch tilt; +inf when interference-free.

    One ``_bessel_orders`` call serves both axes.  Their rows are stacked, yaw
    then pitch, and their entries assembled ``SIR_CHUNK`` rows at a time in one
    pass; every step is per row, so the stacking and chunking keep the bits.
    The rows keep the power-of-two scale of ``_lattice_entries``, under which
    no leading entry underflows at any S > 0.
    """
    e = _scale(s_coupling)
    a_hat, b_hat = _folded_sequences(angles, s_coupling, n_elements)
    sirs = np.empty((len(a_hat), len(modes)))
    for start in range(0, len(a_hat), SIR_CHUNK):
        rows = slice(start, start + SIR_CHUNK)
        sirs[rows] = _entry_sir(np.abs(_lattice_entries(a_hat[rows], b_hat[rows], modes, n_elements, e)))
    return sirs.reshape(len(AXES), len(sirs) // len(AXES), len(modes))


def _entry_sir(magnitude: np.ndarray) -> np.ndarray:
    """(A, U) SIR of each row of an (A, U, U) stack of entry magnitudes."""
    # Scale each row by a power of two from its largest entry before squaring: exact,
    # and keeps the powers of small-coupling entries from underflowing to 0.
    exponent = np.frexp(magnitude.max(axis=-1, keepdims=True))[1]
    signal, interference = _signal_interference(np.ldexp(magnitude, -exponent))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an SIR beyond a double is inf
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
    if axis not in AXES:
        raise ValueError(f"axis must be 'yaw' or 'pitch', got {axis!r}")
    if not (0 <= u < len(modes) and 0 <= v < len(modes)):
        raise IndexError(f"mode indices ({u}, {v}) outside 0..{len(modes) - 1}")
    return complex(steered_entries(modes, [angle], s_coupling, n_elements)[AXES.index(axis), 0, u, v])

