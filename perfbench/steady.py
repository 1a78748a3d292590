"""Steadiness mode: run each workload repeatedly and summarize every metric.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--out perfbench/steadiness.json]

It runs every workload with seeds 1-10, each for ``run_seconds`` of
``BENCHMARK.json``.  For every workload and metric it reports
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
min and max, and ``spread`` = (q3 - q1) / median.  The bounds in
``BENCHMARK.json`` are set from this output, which is committed next to
them as ``perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import common
from plan import WORKLOADS

SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(common.HERE / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True,
                          text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = json.loads(
        (common.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {
        "runs": len(SEEDS),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
        },
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [one_run(workload, seed, seconds) for seed in SEEDS]
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        report["workloads"][workload] = {
            "metrics": metrics,
            "wall_s": summarize([r["wall_s"] for r in runs]),
            "failed": sum(r["failed"] for r in runs),
        }
        for name, s in metrics.items():
            print(f"{workload:13s} {name:26s} median {s['median']:12.4f} "
                  f"spread {s['spread']:.3f}", flush=True)
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
