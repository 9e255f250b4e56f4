#!/usr/bin/env python3
"""Run every experiment with its defaults into results/<name>/.

Usage: python scripts/reproduce_all.py [--out DIR]
"""

import argparse
from pathlib import Path

from oamlink.experiments import EXPERIMENT_NAMES, ExperimentSpec, run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args(argv)
    for name in EXPERIMENT_NAMES:
        spec = ExperimentSpec.resolve(name)
        csv_path, manifest_path = run(spec, args.out / name)
        print(f"{name}: {csv_path}")


if __name__ == "__main__":
    main()
