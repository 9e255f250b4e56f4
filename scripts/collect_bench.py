#!/usr/bin/env python3
"""Merge benchmark results into one BENCH_<short-sha>.json.

Usage: python scripts/collect_bench.py [RUN_DIR ...] [--out FILE]

Each RUN_DIR is the output root of one ``python3 bench/run.py`` run
(default ``.bench_out``) and holds ``<workload>/trace0/result.json``.  All
runs must come from the same commit.  For every workload and end-to-end
metric the file gets the median, the quartiles and the value of each run,
with the runs' seeds, their failed/attempted unit counts, the commit and
the core count.  Without ``--out`` it is written to ``BENCH_<short-sha>.json``
in the current directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def collect(run_dirs: list[Path]) -> dict:
    """Summary of every ``<workload>/trace0/result.json`` under the run directories."""
    results = [json.loads(path.read_text()) for d in run_dirs for path in sorted(d.glob("*/trace0/result.json"))]
    if not results:
        raise ValueError(f"no */trace0/result.json under {', '.join(map(str, run_dirs))}")
    shas = {r["environment"]["git_sha"] for r in results}
    if len(shas) != 1:
        raise ValueError(f"results come from more than one commit: {sorted(map(str, shas))}")
    env = results[0]["environment"]
    workloads: dict[str, dict] = {}
    for r in results:
        w = workloads.setdefault(r["workload"], {"runs": 0, "seeds": [], "failed": 0, "attempted": 0, "values": {}})
        w["runs"] += 1
        w["seeds"].append(r["seed"])
        w["failed"] += r["failed"]
        w["attempted"] += r["attempted"]
        for name, (value, unit) in r["end_to_end"].items():
            w["values"].setdefault(name, (unit, []))[1].append(value)
    for w in workloads.values():
        metrics = {}
        for name, (unit, values) in w.pop("values").items():
            q1, q3 = _quartiles(values)
            metrics[name] = {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3, "values": values}
        w["metrics"] = metrics
    return {
        "git_sha": env["git_sha"],
        "nproc": env["nproc"],
        "python": env["python"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "workloads": dict(sorted(workloads.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs", nargs="*", type=Path, default=[Path(".bench_out")], help="benchmark output roots")
    parser.add_argument("--out", type=Path, default=None, help="output file (default BENCH_<short-sha>.json)")
    args = parser.parse_args(argv)
    try:
        summary = collect(args.runs)
    except ValueError as exc:
        print(f"collect_bench: {exc}", file=sys.stderr)
        return 1
    out = args.out or Path(f"BENCH_{(summary['git_sha'] or 'unknown')[:7]}.json")
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
