"""The link's exact symmetries as relations between two runs.

No oracle sees an input that the code ignores or mis-signs while its output
stays plausible; two runs that the geometry says must agree do.  Each test
compares two small CLI runs or kernel calls.  The phases k d are about
2.8e3 rad and their rounding about 1e-13 rad, so the relations hold to about
1e-13 relative (measured moves are at most 1.2e-13, yaw with no steering);
RTOL = 1e-12 holds them with margin.  The offset relation missed by 6.1% when
the roll model ignored the arrays' initial angles.
"""

import csv
import math

import numpy as np
import pytest

from oamlink import default_link, phases_eo
from oamlink.channel import mode_channels
from oamlink.experiments import ExperimentSpec, run
from oamlink.metrics import capacity

RTOL = 1e-12


def _run(tmp_path, name: str, values: dict) -> tuple[bytes, dict[str, np.ndarray]]:
    """The CSV bytes of experiment ``name`` at the config ``values``, and its float columns."""
    out = tmp_path / "-".join(f"{key}={value}" for key, value in values.items())
    csv_path, _ = run(ExperimentSpec.resolve(name, values), out)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = {key: np.array([float(r[key]) for r in rows]) for key in rows[0] if key != "scheme"}
    return csv_path.read_bytes(), columns


def _roll_profile(tmp_path, start_deg: float, stop_deg: float, **scenario) -> np.ndarray:
    values = {"roll.start_deg": start_deg, "roll.stop_deg": stop_deg, "roll.count": 181}
    values.update({f"scenario.{key}": value for key, value in scenario.items()})
    return _run(tmp_path, "roll-profile", values)[1]["capacity_bps_hz"]


@pytest.mark.parametrize("n_elements, mode_max", [(10, 4), (16, 7)])
def test_roll_profile_has_period_two_pi_over_n(tmp_path, n_elements, mode_max):
    link = {"n_elements": n_elements, "mode_min": -mode_max, "mode_max": mode_max}
    turn = 360.0 / n_elements
    base = _roll_profile(tmp_path, -60.0, 60.0, **link)
    np.testing.assert_allclose(_roll_profile(tmp_path, -60.0 + turn, 60.0 + turn, **link), base, rtol=RTOL, atol=0)


@pytest.mark.parametrize("offset_deg", [5.0, -11.0])
def test_roll_profile_at_rx_initial_angle_is_the_offset_free_profile_shifted(tmp_path, offset_deg):
    # The aligned link rolled to theta with the receive array's elements turned
    # by Delta is the offset-free link rolled to theta + Delta.
    rolled = _roll_profile(tmp_path, -60.0, 60.0, rx_initial_angle_deg=offset_deg)
    shifted = _roll_profile(tmp_path, -60.0 + offset_deg, 60.0 + offset_deg)
    np.testing.assert_allclose(rolled, shifted, rtol=RTOL, atol=0)


@pytest.mark.parametrize("name", ["sweep-yaw", "sweep-pitch", "roll-profile"])
def test_doubled_frequencies_give_the_same_bytes(tmp_path, name):
    # Lengths are in first-carrier wavelengths, so doubling both frequencies
    # halves every length: each k d and k R is the same double.
    grids = {"sweep.count": 6, "roll.count": 181}
    base = ExperimentSpec.resolve(name)
    doubled = {key: 2.0 * base[key] for key in ("scenario.freq_start_hz", "scenario.freq_stop_hz")}
    assert _run(tmp_path, name, {**grids, **doubled})[0] == _run(tmp_path, name, grids)[0]


def test_yaw_sign_leaves_symmetric_modes_capacity(tmp_path):
    # Yaw -gamma mirrors the link; a mode set symmetric about 0 maps onto itself,
    # with and without electronic steering.
    cfg = default_link(n_subcarriers=6)
    assert sorted(cfg.modes) == sorted(-l for l in cfg.modes)
    gamma = np.radians(np.linspace(0.0, 85.0, 18))
    rhos = 10.0 ** (np.arange(0.0, 31.0, 2.0) / 10.0)
    caps = []
    for sign in (1.0, -1.0):
        g, zero = sign * gamma, np.zeros_like(gamma)
        steered = np.exp(1j * phases_eo(g, zero, cfg))
        sets = np.stack([np.ones_like(steered), steered])
        caps.append(capacity(mode_channels(np.stack([g, zero, zero], axis=1), cfg, sets), rhos))
    np.testing.assert_allclose(caps[1], caps[0], rtol=RTOL, atol=0)
