#!/usr/bin/env python3
"""oamlink benchmark: run a workload in-process, check its outputs, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30          # every workload, one after another

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print the same metrics by name with their
units, plus the tail percentile and sample count, the error rate, the seed
and the environment.  The generated inputs, the outputs, the spans of a
traced run and a full ``result.json`` go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

OUT_DIR = ".bench_out"
SETUP_RUNS = 7
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Runs in a fresh interpreter: import of oamlink, the first resolve and link build.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
from oamlink.experiments import ExperimentSpec, parse_config
with open(sys.argv[2]) as fh:
    spec = ExperimentSpec.resolve(sys.argv[1], parse_config(fh.read()))
spec.link()
print(time.perf_counter() - t0)
"""


def cap_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS/OpenMP pools at ``nproc`` (before numpy loads); returns the settings."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ[var])
        except (KeyError, ValueError):
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without leaving it; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, nproc: int, threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "workers": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "machine": platform.machine(),
        "threads": threads,
    }


def setup_times(root: Path, workload, seed: int, out_dir: Path) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_RUNS fresh interpreters, one after another, and
    the mean of the host-speed probes before and after each."""
    import harness
    from workloads import config_text

    cfg = out_dir / "inputs" / "setup.cfg"
    cfg.parent.mkdir(parents=True, exist_ok=True)
    cfg.write_text(config_text(workload.inputs(seed, 0)))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times, probes = [], []
    harness.probe()  # warm-up: the first call pays for lazy imports
    before = harness.probe()
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload.experiments[0], str(cfg)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        after = harness.probe()
        times.append(float(child.stdout.split()[-1]))
        probes.append((before + after) / 2)
        before = after
    return times, probes


def result_line(result: dict) -> dict:
    metrics = result.get("end_to_end") or result["per_layer"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def report(result: dict) -> None:
    import harness

    env = result["environment"]
    print(f"oamlink benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"{result['seconds']:g} s, trace {result['trace']}")
    print(f"inputs generated from seed {result['seed']} under {result['out_dir']}/inputs")
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"environment: nproc={env['nproc']} workers={env['workers']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} git={env['git_sha']} {threads}")
    if "end_to_end" in result:
        for name, (value, unit) in result["end_to_end"].items():
            note = ""
            if name == "setup_s":
                note = f"median of {SETUP_RUNS} fresh interpreters"
            elif name == "unit_tail_s":
                note = result["tail"]
            elif name == "unit_p50_s":
                note = f"median of {result['units']} units"
            print(f"  {name:<16} {value:.6g} {unit:<4} {note}")
        wall = ", ".join(f"{name} {value:.6g}" for name, value in result["wall"].items())
        probe_ms = 1e3 * statistics.median(result["probe_seconds"])
        print(f"  wall clock, unadjusted: {wall}")
        print(f"  host-speed probe: median {probe_ms:.3g} ms against the reference "
              f"{1e3 * harness.PROBE_REF_S:g} ms")
    else:
        for name, (value, unit) in result["per_layer"].items():
            print(f"  {name:<40} {value:.6g} {unit}")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in result["shares"].items())
        print(f"  share of the traced unit per experiment: {shares}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<16} {rate:.6g}      {result['failed']} failed of {result['attempted']} attempted units")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")


def run_one(args, root: Path, nproc: int, threads: dict) -> int:
    src = root / "src"
    sys.path.insert(0, str(src))
    import oamlink

    if Path(oamlink.__file__).resolve().parent != (src / "oamlink").resolve():
        print(f"bench: imported oamlink from {oamlink.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = root / OUT_DIR / args.workload / f"trace{args.trace}"
    setup = None if args.trace else setup_times(root, workload, args.seed, out_dir)
    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    if setup is not None:
        times, probes = setup
        adjusted = [t * harness.PROBE_REF_S / p for t, p in zip(times, probes)]
        result["end_to_end"] = {"setup_s": (statistics.median(adjusted), "s"), **result["end_to_end"]}
        result["wall"] = {"setup_s": statistics.median(times), **result["wall"]}
        result["setup_runs_s"] = times
        result["setup_probe_seconds"] = probes
    result["environment"] = environment(root, nproc, threads)
    result["out_dir"] = str(out_dir.relative_to(root))
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps(result_line(result)))
    return 0


def run_all(args, root: Path) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"bench: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode
        *lines, last = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines))
        line = json.loads(last)
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    from workloads import WORKLOADS  # imports numpy, so only after the cap

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "oamlink" / "__init__.py").is_file():
        print("bench: src/oamlink not found; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root, nproc, threads)


if __name__ == "__main__":
    sys.exit(main())
