#!/usr/bin/env python3
"""Merge benchmark results into one BENCH_<short-sha>.json, or compare two such files.

Usage: python scripts/collect_bench.py [RUN_DIR ...] [--out FILE]
       python scripts/collect_bench.py --compare PARENT.json CHANGE.json

Each RUN_DIR is the output root of one ``python3 bench/run.py`` run
(default ``.bench_out``) and holds ``<workload>/trace0/result.json``.  All
runs must come from the same commit.  For every workload and end-to-end
metric the file gets the median, the quartiles and the value of each run,
with the runs' seeds, their failed/attempted unit counts, the commit and
the core count.  Without ``--out`` it is written to ``BENCH_<short-sha>.json``
in the current directory.

``--compare`` prints, per workload and end-to-end metric of both files, the
pairs (runs of the same seed on both sides) the change wins, both medians,
the parent's interquartile range and whether a gain may be claimed: at least
ten pairs, wins in at least nine tenths of them (ties count for neither),
and a median better than the parent's by more than the parent's IQR.  Which
way is better is read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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


def _by_seed(workload: dict, name: str) -> dict[int, float]:
    if len(set(workload["seeds"])) != len(workload["seeds"]):
        raise ValueError(f"a seed occurs twice in {workload['seeds']}: pairs are matched by seed")
    return dict(zip(workload["seeds"], workload["metrics"][name]["values"]))


def compare(parent: dict, change: dict, better: dict[str, str]) -> list[dict]:
    """One row per workload and end-to-end metric in both summaries, with the claim rule's terms."""
    rows = []
    for workload in sorted(parent["workloads"].keys() & change["workloads"].keys()):
        p, c = parent["workloads"][workload], change["workloads"][workload]
        for name in sorted(p["metrics"].keys() & c["metrics"].keys()):
            if better.get(name) not in ("lower", "higher"):
                raise ValueError(f"{name}: BENCHMARK.json gives no direction for this metric")
            sign = 1.0 if better[name] == "lower" else -1.0  # sign * (parent - change) > 0: the change is better
            old, new = _by_seed(p, name), _by_seed(c, name)
            seeds = old.keys() & new.keys()
            wins = sum(sign * (old[s] - new[s]) > 0 for s in seeds)
            pm, cm = p["metrics"][name], c["metrics"][name]
            iqr = pm["q3"] - pm["q1"]
            gain = sign * (pm["median"] - cm["median"])
            claim = len(seeds) >= 10 and wins >= 0.9 * len(seeds) and gain > iqr
            rows.append({"workload": workload, "metric": name, "unit": pm["unit"], "pairs": len(seeds), "wins": wins,
                         "parent_median": pm["median"], "change_median": cm["median"], "parent_iqr": iqr, "claim": claim})
    return rows


def print_comparison(rows: list[dict]) -> None:
    print(f"{'workload':14} {'metric':15} {'wins':^7} {'parent':>11} {'change':>11} {'change %':>8} {'parent IQR':>10}  claim")
    for r in rows:
        pm = r["parent_median"]
        move = 100.0 * (r["change_median"] - pm) / pm
        print(f"{r['workload']:14} {r['metric']:15} {r['wins']:>3}/{r['pairs']:<3} {pm:>11.5g} {r['change_median']:>11.5g}"
              f" {move:>+8.1f} {r['parent_iqr']:>10.3g}  {'yes' if r['claim'] else 'no'} [{r['unit']}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("runs", nargs="*", type=Path, default=[Path(".bench_out")], help="benchmark output roots")
    modes.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"), help="two BENCH_*.json files")
    parser.add_argument("--out", type=Path, default=None, help="output file (default BENCH_<short-sha>.json)")
    args = parser.parse_args(argv)
    if args.compare and args.out:
        parser.error("--out writes a merged file; --compare writes none")
    if args.compare:
        try:
            better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
            parent, change = (json.loads(path.read_text()) for path in args.compare)
            print_comparison(compare(parent, change, better))
        except (OSError, ValueError, KeyError) as exc:
            print(f"collect_bench: {exc}", file=sys.stderr)
            return 1
        return 0
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
