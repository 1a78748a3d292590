"""The repo benchmark: closed-loop workloads through the public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 24 --trace 0

Workloads (one client each; see ``BENCHMARK.json`` and
``perfbench/design.json`` for why each was chosen):

* ``read_mostly`` -- WKT small on ``Cluster(replicas=1)``; scalar
  ``sccnt``/``spcnt`` reads and whole-graph ``count_many`` screens on the
  primary, a few reads routed to the replica once it reports the epoch,
  and a 4-op insert batch every 20th step;
* ``churn``       -- WKT small; a fixed cycle of low-impact deletions
  (incremental repair), their re-insertion, and a mixed batch that takes
  the rebuild fallback.

A run generates a seeded plan (untimed), then executes it in several
fresh interpreter processes one after another (``worker.py``), each on
its own sub-plan, and pools their samples: per-process offsets in this
shared 2-vCPU host are as large as the effects later changes claim.
Second-scale operations (set-up, ``recover()``) are sampled in every
process and reported as the median.

Every workload runs durable with ``wal_fsync="always"``.  Before any
number is printed the run checks, outside the timed sections: after
every batch, that the engine's graph equals the input graph with the
planned ops applied, and sampled ``sccnt`` answers against
``bfs_cycle_count`` on that graph (and at the end, routed answers too);
the final state against a reference computed without the engine (the
serial replay of the planned ops, or a from-scratch build of the
expected graph when the last batch rebuilt); every
``recover()`` of a crash image against the live state; for
``read_mostly`` a verification pass with per-epoch digests
(``verify_replicas``) before the timed passes, which run with digests
off; and that every step's ops ran as one batch on its planned
maintenance path.  A failed check exits 1 and prints no result.

``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the
same plan with spans around the layers' public entry points and prints
every per-layer metric; the names and units are those listed in
``BENCHMARK.json``.  The last stdout line is the JSON result; the line
before it is the failure accounting (each count as a share of
attempted) and the share of the loop the writes took.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import common
from common import GateError, median, percentile, vertex_percentile

#: A run must end within this many seconds, set-up and checks included.
RUN_BUDGET_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def run_worker(plan_path, index, out_path, workdir, trace, verify,
               deadline):
    cmd = [sys.executable, str(common.HERE / "worker.py"), str(plan_path),
           str(index), str(out_path), str(workdir)]
    if trace:
        cmd.append("--trace")
    if verify:
        cmd.append("--verify")
    env = dict(os.environ)
    tmp = common.WORK_DIR / "tmp"
    # Keep temporary files (the replica's forkserver socket) inside the
    # checkout, unless the path would overflow a Unix socket address.
    if len(str(tmp)) <= 60:
        tmp.mkdir(exist_ok=True)
        env["TMPDIR"] = str(tmp)
    proc = subprocess.run(
        cmd, cwd=common.ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise GateError(f"worker exited {proc.returncode}:\n{tail}")
    with open(out_path) as f:
        return json.load(f)


def end_to_end(plan: dict, samples: list[dict]) -> dict:
    def pooled(key):
        return [x for s in samples for x in s[key]]

    ops = sum(s["ops"] for s in samples)
    return {
        "setup_s": median(s["setup_s"] for s in samples),
        "sccnt_p50_us": percentile(pooled("sccnt_us"), 50),
        "sccnt_p99_us": median(
            vertex_percentile(
                s["sccnt_us"],
                [v for step in sub["steps"] for v in step["sccnt"]], 99)
            for s, sub in zip(samples, plan["procs"], strict=True)),
        "spcnt_p50_us": percentile(pooled("spcnt_us"), 50),
        "screen_first_ms": median(pooled("screen_first_ms")),
        "screen_warm_ms": median(pooled("screen_warm_ms")),
        "visible_p50_ms": percentile(pooled("visible_ms"), 50),
        "update_ops_per_s": ops / sum(s["write_s"] for s in samples),
        "recovery_s": median(pooled("recovery_s")),
        "index_bytes": median(s["index_bytes"] for s in samples),
        "write_bytes_per_op": sum(s["write_bytes"] for s in samples) / ops,
        "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
    }


def per_layer(samples: list[dict]) -> dict:
    return {name: median(s["layers"][name] for s in samples)
            for name in samples[0]["layers"]}


def accounting(samples: list[dict]) -> tuple[dict, int, int]:
    totals: dict[str, int] = {}
    for s in samples:
        for key, value in s["accounting"].items():
            totals[key] = totals.get(key, 0) + value
    ops, reads = totals["ops_attempted"], totals["reads_attempted"]
    shares = {
        key: value / (reads if key.startswith("reads") else ops)
        for key, value in totals.items()
        if key not in ("ops_attempted", "reads_attempted")
    }
    failed = (totals["ops_skipped"] + totals["ops_shed"]
              + totals["ops_rejected"] + totals["ops_quarantined"]
              + totals["reads_raised"])
    report = {"attempted": totals, "share_of_attempted": shares}
    return report, ops + reads, failed


def main(argv=None) -> int:
    from plan import WORKLOADS, make_plan

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("small", "tiny"),
                        default="small",
                        help="input size; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {common.SRC}; run from the "
                     "root of a repository checkout")
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        shutil.rmtree(common.WORK_DIR, ignore_errors=True)
        common.WORK_DIR.mkdir(parents=True)
        plan = make_plan(args.workload, args.seed, args.seconds,
                         args.profile)
        samples = execute(plan, bool(args.trace), deadline)
    except (GateError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    report, attempted, failed = accounting(samples)
    metrics = (per_layer(samples) if args.trace
               else end_to_end(plan, samples))
    units = common.metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        return _fail("measured metrics differ from BENCHMARK.json: "
                     f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "accounting": report,
        "write_share": median(s["write_share"] for s in samples),
    }))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def execute(plan: dict, trace: bool, deadline: float) -> list[dict]:
    work = common.WORK_DIR
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    if plan["replica"]:
        # Verification pass with per-epoch digests on, over the first
        # steps of sub-plan 0, before the timed passes (digests off).
        sub = plan["procs"][0]
        prefix = dict(plan, procs=[dict(sub, steps=sub["steps"][:3])])
        (work / "verify-plan.json").write_text(json.dumps(prefix))
        run_worker(work / "verify-plan.json", 0, work / "verify.json",
                   work / "verify", False, True, deadline)
    return [
        run_worker(plan_path, i, work / f"sample-{i}.json",
                   work / f"proc-{i}", trace, False, deadline)
        for i in range(len(plan["procs"]))
    ]


if __name__ == "__main__":
    sys.exit(main())
