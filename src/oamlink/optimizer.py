"""Simulated-annealing search for the roll angle that maximizes capacity.

The objective is the interference-free diagonal model of the fully steered
link: every mode sees SINR = rho * |h_diag|^2, so the capacity depends on the
roll angle only through the per-mode diagonal magnitudes.  The objective is
periodic with period 2*pi/N, hence the search interval [-pi/N, pi/N].

Mode l's diagonal entry of the aligned link rolled to theta (the double DFT
sum the tests use as oracle) has the factor exp(-i l theta) of modulus one, so
|h_l| = N |eta_p| |sum_j W_lj exp(i S_p cos(delta_j - theta - Delta))| with
W = exp(i l delta), delta_j = 2 pi j / N.  The arrays' element angles enter
through Delta, the receive array's initial angle less the transmit array's:
the aligned link rolled to theta is the offset-free link rolled to
theta + Delta.  The Jacobi-Anger expansion
exp(i S cos phi) = sum_q i^q J_q(S) exp(i q phi) (DLMF 10.12) keeps only the
orders q = kN - l of that sum, so with z = exp(-i N (theta + Delta))

    |h_l| = N^2 |eta_p| |sum_k i^q J_q(S_p) z^k|,  q = kN - l,

a polynomial of a few terms whose period 2 pi / N is built in.  Its
coefficients come from one FFT, so no Bessel routine is needed.  Where the
series would need more than N terms (large couplings), the same kernel sums
the N element terms instead.  ``roll_objective`` and ``capacity_profile``
share one kernel, ``_log_terms``, whose sum over k runs in the same order for
one angle as for a chunk of angles, so both give the same bits and the seeded
trace the same accept decisions.  BLAS (``z @ c``, whose rows change in the
last bit with the number of rows) would not keep those bits.

A brute-force grid search over the same interval serves as the optimizer's
reference; annealing runs are deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import LinkConfig

# Roll angles capacity_profile evaluates together; its complex (K, P, U, ANGLE_CHUNK)
# products take 1.0 MB at the default link.  At P = 6 and 2881 angles, chunks of 16,
# 32, 64, 128 and 256 took 5.3, 4.2, 3.9, 3.6 and 3.8 ms (min of 200).
ANGLE_CHUNK = 128


@dataclass(frozen=True)
class SaParams:
    """Annealing schedule."""

    t_init: float = 100.0
    t_min: float = 1e-3
    cooling: float = 0.9
    inner_iters: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.t_min < self.t_init:
            raise ValueError("need 0 < t_min < t_init")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be >= 1")

    @property
    def outer_iterations(self) -> int:
        """The annealer's number of temperature levels: the least k with t_init * cooling^k <= t_min."""
        # A difference of logs: t_min / t_init underflows for extreme schedules.
        return math.ceil((math.log(self.t_min) - math.log(self.t_init)) / math.log(self.cooling))


@dataclass
class SaTrace:
    """Per-temperature record of an annealing run."""

    temperatures: list[float] = field(default_factory=list)
    best_thetas: list[float] = field(default_factory=list)
    best_capacities: list[float] = field(default_factory=list)
    accepted_counts: list[int] = field(default_factory=list)

    def append(self, temperature: float, best_theta: float, best_capacity: float, accepted: int):
        self.temperatures.append(temperature)
        self.best_thetas.append(best_theta)
        self.best_capacities.append(best_capacity)
        self.accepted_counts.append(accepted)

    def __len__(self) -> int:
        return len(self.temperatures)


def _series_orders(s_max: float, modes, n: int) -> range | None:
    """The k of the series terms, or None where it would need more than N of them.

    Mode l takes the orders q = kN - l.  |J_q(S)| <= (S/2)^|q| / |q|! (DLMF
    10.14.4), and once q + 2 >= S successive bounds shrink by at least half, so
    the orders beyond |q| > q_max add at most 4 (S/2)^(q_max+1) / (q_max+1)!.
    q_max is the first order, counting up from the largest order some mode needs
    at all, where that is below 2^-56 at the largest coupling: in units of
    N^2 |eta_p|, an eighth of the N-element sum's own rounding of about 2^-53.  The search stops
    where the k range would pass N terms, so it takes at most about N^2 / 2
    steps whatever the coupling.
    """
    lo, hi = min(modes), max(modes)
    q = max(min(l % n, -l % n) for l in modes)
    tail = 4.0 * math.prod((s_max / 2.0) / m for m in range(1, q + 2))
    while True:
        ks = range(-((q - lo) // n), (hi + q) // n + 1)
        if len(ks) > n:
            return None
        if q + 2 >= s_max and tail <= 2.0**-56:
            return ks
        q += 1
        tail *= (s_max / 2.0) / (q + 1)


def _jacobi_anger(s: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The coefficients i^q J_q(s) of exp(i s cos phi) = sum_q i^q J_q(s) exp(i q phi).

    Shape (len(s),) + orders.shape.  One length-M FFT of exp(i s cos(2 pi m / M))
    per coupling: its bin q is the sum of the coefficients of orders q + rM, so
    M > 2 max|q| leaves only orders past max|q| as aliases, which
    ``_series_orders`` has bounded.
    """
    m = 16
    while m <= 2 * int(np.max(np.abs(orders))):
        m *= 2
    samples = np.exp(1j * np.outer(s, np.cos(2.0 * math.pi * np.arange(m) / m)))
    return (np.fft.fft(samples, axis=1) / m)[:, orders % m]


def _roll_model(cfg: LinkConfig):
    """The diagonal model as |h_{p,l}(theta)| = |sum_k c[k, p, l] exp(exponent(theta)[k, p])|.

    Returns (exponent, c) with c a contiguous (K, P, U, 1) table scaled by
    sqrt(rho), so that rho |h|^2 is h * h.  ``exponent`` maps a roll angle (or
    a (T,) array of them) to the (K, P or 1, 1, 1 or T) imaginary exponents of
    the terms, i times a real phase rounded once: the angles run along the
    last axis, so a chunk's products and its sum over k run over rows of T
    contiguous angles.  The
    Jacobi-Anger series (module docstring) takes the terms exp(-i k N theta)
    where ``_series_orders`` finds at most N of them; otherwise the terms are
    the N-element sum's exp(i S_p cos(delta_j - Delta - theta)), with c_j =
    sqrt(rho) N |eta_p| W_lj.  The link's element angles enter as constants:
    the series coefficients carry exp(-i k N Delta) and the element sum takes
    delta_j - Delta, so an evaluation does the same work at any Delta, and
    Delta = 0 keeps the offset-free model's bits.
    """
    n = cfg.n_elements
    offset = cfg.rx.initial_angle - cfg.tx.initial_angle
    subcarriers = range(cfg.n_subcarriers)
    s = np.array([cfg.coupling(p) for p in subcarriers])
    amp = math.sqrt(cfg.snr_rho) * n * np.abs([cfg.eta(p) for p in subcarriers])
    modes = np.array(cfg.modes)
    ks = _series_orders(float(np.max(s)), cfg.modes, n)
    if ks is None:
        delta = 2.0 * math.pi * np.arange(1, n + 1) / n
        c = (np.exp(1j * np.outer(delta, modes))[:, None, :] * amp[:, None])[..., None]  # (N, P, U, 1)
        delta, i_s = (delta - offset)[:, None, None, None], 1j * s[:, None, None]
        return (lambda theta: i_s * np.cos(delta - theta)), c
    k = np.array(ks)
    coefficients = _jacobi_anger(s, k[:, None] * n - modes)  # (P, K, U)
    coefficients *= np.exp(-1j * n * offset * k)[:, None]  # z^k at theta + Delta
    c = np.ascontiguousarray((n * amp[:, None, None] * coefficients).transpose(1, 0, 2))[..., None]
    i_kn = -1j * n * k[:, None, None, None]
    return (lambda theta: i_kn * theta), c


def _log_terms(exponent, c: np.ndarray, theta) -> np.ndarray:
    """The (P, U, 1) log2(1 + rho |h|^2) of the roll model at theta, (P, U, T) at T thetas."""
    h = np.abs(np.add.reduce(c * np.exp(exponent(theta)), axis=0))
    return np.log2(1.0 + h * h)


def capacity_profile(thetas, cfg: LinkConfig) -> np.ndarray:
    """Diagonal-model capacity [bits/s/Hz] at each roll angle, ANGLE_CHUNK angles at a time.

    Each angle's P U log terms are summed from a contiguous (T, P U) copy,
    the pairwise order of the objective's sum over its (P, U, 1) terms.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    exponent, c = _roll_model(cfg)
    caps = np.empty(thetas.shape[0])
    for start in range(0, thetas.shape[0], ANGLE_CHUNK):
        chunk = thetas[start : start + ANGLE_CHUNK]
        per_mode = np.ascontiguousarray(_log_terms(exponent, c, chunk).reshape(-1, len(chunk)).T)  # (T, P U)
        caps[start : start + ANGLE_CHUNK] = np.add.reduce(per_mode, axis=1)
    return caps / cfg.n_subcarriers


def roll_objective(cfg: LinkConfig):
    """The annealer's objective: theta -> ``capacity_profile([theta], cfg)[0]``, bit for bit.

    The roll model is built once; each call is one ``_log_terms`` and one
    pairwise sum of its P U capacities, the profile's operations per angle.
    """
    exponent, c = _roll_model(cfg)
    n_sub = cfg.n_subcarriers

    def objective(theta: float) -> float:
        return float(np.add.reduce(_log_terms(exponent, c, theta), axis=None)) / n_sub

    return objective


def capacity_objective(theta: float, cfg: LinkConfig) -> float:
    """Diagonal-model capacity at a single roll angle."""
    return roll_objective(cfg)(theta)


def grid_search_roll(cfg: LinkConfig, resolution: int) -> tuple[float, float]:
    """Exhaustive argmax of the objective on a uniform grid over [-pi/N, pi/N]."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    half = math.pi / cfg.n_elements
    thetas = np.linspace(-half, half, resolution)
    caps = capacity_profile(thetas, cfg)
    best = int(np.argmax(caps))
    return float(thetas[best]), float(caps[best])


def _uniform_stream(rng: np.random.Generator, block: int = 1024):
    """The doubles of successive ``rng.random()`` calls, drawn ``block`` at a time.

    ``Generator.uniform(lo, hi)`` is lo + (hi - lo) * random() on the same
    stream, one double per call, so a loop that takes its draws from here in
    order makes the decisions it would make calling the generator each time.
    """
    while True:
        yield from rng.random(block).tolist()


def optimize_roll(cfg: LinkConfig, sa: SaParams) -> tuple[float, SaTrace]:
    """Anneal the roll angle over [-pi/N, pi/N], starting at -pi/N.

    Per inner iteration a signed perturbation ``e``, uniform over [-step, step]
    with step = (pi/N)/10 at the initial temperature and shrinking in proportion
    to it, proposes theta + e, reflected to theta - e when that leaves the
    interval.  A candidate is accepted when
    it improves the capacity or passes the Metropolis draw
    exp((c_new - c) / T); after each temperature level the walk restarts
    from the best point seen so far if anything was accepted at that level.
    """
    half = math.pi / cfg.n_elements
    draw = _uniform_stream(np.random.default_rng(sa.rng_seed)).__next__
    theta = -half
    objective = roll_objective(cfg)
    cap = objective(theta)
    theta_best, cap_best = theta, cap
    temperature = sa.t_init
    trace = SaTrace()
    for _ in range(sa.outer_iterations):
        accepted = 0
        step = half / 10.0 * temperature / sa.t_init
        for _ in range(sa.inner_iters):
            e = -step + 2.0 * step * draw()  # uniform(-step, step): lo + (hi - lo) * random()
            cand = theta + e
            if not -half < cand < half:
                cand = theta - e
            cand = min(max(cand, -half), half)
            cap_new = objective(cand)
            if cap_new > cap or draw() < math.exp((cap_new - cap) / temperature):
                theta, cap = cand, cap_new
                accepted += 1
                if cap > cap_best:
                    theta_best, cap_best = theta, cap
        if accepted:
            theta, cap = theta_best, cap_best
        trace.append(temperature, theta_best, cap_best, accepted)
        temperature *= sa.cooling
    return theta_best, trace
