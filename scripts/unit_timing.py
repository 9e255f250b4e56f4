#!/usr/bin/env python3
"""Time benchmark units in process, in fresh interpreters, for one or more checkouts.

Usage: python scripts/unit_timing.py CHECKOUT [CHECKOUT ...] --workload NAME [--units K] [--rounds R] [--seed S]

Each round starts one fresh interpreter per checkout, taking the checkouts in
turn, in reverse order every other round.  The interpreter imports
``oamlink`` from the checkout's ``src``, writes the inputs that this
repository's ``bench/workloads.py`` generates for units 0..K of the seed,
runs unit 0 untimed as a warm-up and then times units 1..K.  A unit is one
``oamlink.cli.main`` call per experiment of the workload, as the benchmark
makes it.  The report gives, per checkout, the minimum, 10th percentile and
median unit time over all rounds, and each round's minimum.

The benchmark's probe-adjusted ``unit_p50_s`` spreads by more than a 10%
change on a shared host; the minimum over many units in one process does
not, so this resolves a per-unit change the benchmark cannot.  Times are raw
wall-clock seconds of this host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

# The interpreter of one (round, checkout): argv is the checkout, the bench
# directory, the workload, the seed, the unit count and a scratch directory.
_CHILD = """
import contextlib, json, os, sys, time
from pathlib import Path
checkout, bench, workload, seed, units, out = sys.argv[1:]
sys.path[:0] = [os.path.join(checkout, "src"), bench]
from oamlink import cli
from workloads import WORKLOADS, config_text
work, out = WORKLOADS[workload], Path(out)
configs = []
for index in range(int(units) + 1):
    path = out / f"unit-{index}.cfg"
    path.write_text(config_text(work.inputs(int(seed), index)))
    configs.append(str(path))
times = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for index, cfg in enumerate(configs):
        start = time.perf_counter()
        for exp in work.experiments:
            if cli.main([exp, "--config", cfg, "--out", str(out / exp), "--workers", "1"]) != 0:
                sys.exit(f"unit {index}: {exp} failed")
        if index:
            times.append(time.perf_counter() - start)
print(json.dumps({"oamlink": cli.__file__, "times": times}))
"""


def _time_checkout(checkout: Path, workload: str, seed: int, units: int, scratch: Path) -> list[float]:
    """Unit times of one fresh interpreter on ``checkout``; raises RuntimeError if it fails."""
    scratch.mkdir()
    argv = [sys.executable, "-c", _CHILD, str(checkout), str(_ROOT / "bench"), workload, str(seed), str(units), str(scratch)]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {done.stderr.strip()}")
    report = json.loads(done.stdout.splitlines()[-1])
    imported = Path(report["oamlink"]).resolve().parent
    if imported != (checkout / "src" / "oamlink").resolve():
        raise RuntimeError(f"{checkout}: imported oamlink from {imported}, not from its src")
    return report["times"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT", help="repository roots to time")
    parser.add_argument("--workload", required=True, help="benchmark workload whose units run")
    parser.add_argument("--units", type=int, default=200, help="timed units per interpreter (default 200)")
    parser.add_argument("--rounds", type=int, default=3, help="interpreters per checkout (default 3)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs (default 0)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(_ROOT / "bench"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unit_timing: unknown workload {args.workload}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    if args.units < 1 or args.rounds < 1:
        print("unit_timing: --units and --rounds must be at least 1", file=sys.stderr)
        return 1
    times: dict[Path, list[list[float]]] = {checkout: [] for checkout in args.checkouts}
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(args.rounds):
            order = list(enumerate(args.checkouts))
            for index, checkout in order if round_ % 2 == 0 else order[::-1]:
                scratch = Path(tmp) / f"{round_}-{index}"
                try:
                    times[checkout].append(_time_checkout(checkout, args.workload, args.seed, args.units, scratch))
                except RuntimeError as exc:
                    print(f"unit_timing: {exc}", file=sys.stderr)
                    return 1
    print(f"{args.workload}, seed {args.seed}: {args.units} units x {args.rounds} rounds per checkout, ms per unit")
    for checkout, rounds in times.items():
        every = sorted(t for round_times in rounds for t in round_times)
        p10 = statistics.quantiles(every, n=10, method="inclusive")[0] if len(every) > 1 else every[0]
        mins = " ".join(f"{min(r) * 1e3:.3f}" for r in rounds)
        print(
            f"{checkout}: min {every[0] * 1e3:.3f}, p10 {p10 * 1e3:.3f}, median {statistics.median(every) * 1e3:.3f};"
            f" round minimums {mins}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
