#!/usr/bin/env python3
"""Write the CSVs and manifests of chosen benchmark units into a directory tree.

Usage: python scripts/unit_outputs.py OUT --units SEED:UNIT [SEED:UNIT ...] [--workload NAME ...]

Each unit's inputs are those ``bench/workloads.py`` generates for its
(seed, unit) pair, and each of its experiments is one ``oamlink.cli.main``
call, as the benchmark makes it, with this checkout's ``src`` first on the
path.  Without ``--workload`` every workload runs.  The tree is

    OUT/<workload>/<seed>-<unit>/unit.cfg
    OUT/<workload>/<seed>-<unit>/<experiment>/<experiment>.csv, manifest.txt

Run it from two checkouts into two directories, then compare the trees with
``diff -r --exclude=manifest.txt A B``: the manifests hold each run's wall
time, and every other file must match byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _pair(text: str) -> tuple[int, int]:
    seed, sep, unit = text.partition(":")
    try:
        if sep:
            return int(seed), int(unit)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected SEED:UNIT, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, help="root of the tree to write")
    parser.add_argument("--units", type=_pair, nargs="+", required=True, metavar="SEED:UNIT", help="units to run")
    parser.add_argument("--workload", nargs="+", default=None, help="workloads to run (default: all)")
    args = parser.parse_args(argv)
    for path in (_ROOT / "bench", _ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from oamlink import cli
    from workloads import WORKLOADS, config_text

    if Path(cli.__file__).resolve().parent != (_ROOT / "src" / "oamlink").resolve():
        print(f"unit_outputs: imported oamlink from {cli.__file__}, not from {_ROOT / 'src'}", file=sys.stderr)
        return 1
    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unit_outputs: unknown workload {', '.join(unknown)}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    for name in names:
        workload = WORKLOADS[name]
        for seed, index in args.units:
            unit_dir = args.out / name / f"{seed}-{index}"
            unit_dir.mkdir(parents=True, exist_ok=True)
            cfg = unit_dir / "unit.cfg"
            cfg.write_text(config_text(workload.inputs(seed, index)))
            for exp in workload.experiments:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    code = cli.main([exp, "--config", str(cfg), "--out", str(unit_dir / exp), "--workers", "1"])
                if code != 0:
                    print(f"unit_outputs: {name} seed {seed} unit {index}: {exp} exited {code}", file=sys.stderr)
                    return 1
        print(f"{name}: {len(args.units)} units under {args.out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
