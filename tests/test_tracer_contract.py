"""bench/tracer.py: every traced name exists, and channel_matrix feeds the entry counters.

The benchmark wraps oamlink functions by module and name; a renamed or
deleted one makes ``install`` fail with a KeyError.
"""

import importlib.util
from pathlib import Path

import oamlink
import oamlink.cli  # noqa: F401  the benchmark's entry point; imports experiments, which install wraps
from oamlink import Pose, channel, default_link

_SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _SCRIPT)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_tracer_installs_counts_channel_entries_and_restores():
    originals = (oamlink.channel_matrix, channel.channel_matrix, channel.channel_matrices)
    cfg = default_link()
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        assert oamlink.channel_matrix is not originals[0]
        H = oamlink.channel_matrix(0, Pose(0.1, 0.2, 0.3), cfg)
    finally:
        restore()
    assert (oamlink.channel_matrix, channel.channel_matrix, channel.channel_matrices) == originals
    assert t.counters[("channel.entries_built", t.unit)] == H.entries.size == cfg.n_elements**2
    assert t.counters[("channel.bytes_computed", t.unit)] == H.entries.nbytes
    calls, _ = tracer.span_totals(t, [t.unit])
    assert calls["channel.channel_matrix"] == 1
    assert calls["channel.channel_matrices"] == 1


def test_batched_kernels_are_traced_by_name(tmp_path, capsys):
    # The kernels carry the names the benchmark wraps, so their calls are counted.
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        for name in ("sweep-yaw", "hybrid-compare", "monotonicity"):
            assert oamlink.cli.main([name, "--out", str(tmp_path / name)]) == 0
    finally:
        restore()
    capsys.readouterr()  # the CSV and manifest paths main prints
    calls, _ = tracer.span_totals(t, [t.unit])
    for name in (
        "steering.phases_eo",
        "steering.phases_e1",
        "steering.phases_e2",
        "channel.oam_effective",
        "metrics.steered_sir",
    ):
        assert calls.get(name, 0) > 0, name
