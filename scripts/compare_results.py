#!/usr/bin/env python3
"""Compare two results trees CSV by CSV.

Usage: python scripts/compare_results.py GOLDEN_DIR NEW_DIR [--rtol 1e-12]

Both trees must hold the same CSV files (by path relative to the tree
root), each with the same header and row count.  A cell matches when its
text is identical or when both cells parse as numbers within ``--rtol`` of
each other (equal infinities count as equal).  Every mismatch is printed;
the exit code is 0 when the trees match and 1 otherwise.  Other files, such
as manifests with their wall times, are ignored.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cells_match(a: str, b: str, rtol: float) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=rtol, abs_tol=0.0)


def compare_csv(golden: Path, new: Path, rtol: float) -> list[str]:
    """Mismatches between two CSV files, one message each."""
    old_rows, new_rows = _read(golden), _read(new)
    if old_rows[:1] != new_rows[:1]:
        return [f"header {old_rows[:1]} != {new_rows[:1]}"]
    if len(old_rows) != len(new_rows):
        return [f"{len(old_rows) - 1} rows != {len(new_rows) - 1} rows"]
    problems = []
    for lineno, (old, row) in enumerate(zip(old_rows, new_rows), start=1):
        if len(old) != len(row):
            problems.append(f"line {lineno}: {len(old)} cells != {len(row)} cells")
            continue
        for a, b in zip(old, row):
            if not _cells_match(a, b, rtol):
                problems.append(f"line {lineno}: {a!r} != {b!r}")
    return problems


def compare_trees(golden: Path, new: Path, rtol: float) -> list[str]:
    """Mismatches between two results trees, each prefixed with the CSV's relative path."""
    old_files = {p.relative_to(golden) for p in golden.rglob("*.csv")}
    new_files = {p.relative_to(new) for p in new.rglob("*.csv")}
    if not old_files:
        return [f"no CSV files under {golden}"]
    problems = [f"{rel}: only in {golden}" for rel in sorted(old_files - new_files)]
    problems += [f"{rel}: only in {new}" for rel in sorted(new_files - old_files)]
    for rel in sorted(old_files & new_files):
        problems += [f"{rel}: {msg}" for msg in compare_csv(golden / rel, new / rel, rtol)]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("golden", type=Path, help="reference results tree")
    parser.add_argument("new", type=Path, help="results tree to check")
    parser.add_argument("--rtol", type=float, default=1e-12, help="relative tolerance for numeric cells")
    args = parser.parse_args(argv)
    if not 0.0 <= args.rtol < math.inf:
        parser.error(f"--rtol must be non-negative and finite, got {args.rtol}")
    for tree in (args.golden, args.new):
        if not tree.is_dir():
            parser.error(f"{tree} is not a directory")
    problems = compare_trees(args.golden, args.new, args.rtol)
    for msg in problems:
        print(msg)
    print(f"{len(problems)} mismatches (rtol {args.rtol:g})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
