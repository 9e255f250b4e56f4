"""Command-line entry point: one subcommand per experiment.

Exit codes: 0 on success (and for ``--help``), 1 on configuration errors,
bad command lines included (an unknown subcommand or flag, or a flag value
of the wrong type), 2 on runtime errors.  Errors print ``config error: ...``
or ``runtime error: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .experiments import EXPERIMENT_NAMES, ConfigError, ExperimentSpec, parse_config, run


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose command-line errors are config errors (exit 1)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"config error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later ``main`` call."""
    parser = _Parser(
        prog="oamlink",
        description="UCA-based LoS OAM link experiments (hybrid vs electronic beam steering)",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENT_NAMES:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None, help="key-value config file")
        p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the annealer seed")
        p.add_argument("--workers", type=int, default=1, help="accepted and ignored (runs are single-threaded)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.config is not None:
            try:
                text = args.config.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from None
            overrides = parse_config(text)
        if args.seed is not None:
            overrides["sa.seed"] = args.seed
        spec = ExperimentSpec.resolve(args.experiment, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        csv_path, manifest_path = run(spec, args.out)
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(csv_path)
    print(manifest_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
