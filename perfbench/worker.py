"""One fresh-interpreter sample of a workload plan.

Usage (``run.py`` calls this; it is not a user entry point)::

    python3 perfbench/worker.py PLAN.json INDEX OUT.json WORKDIR [--trace] [--verify]

The process sets the engine up, runs sub-plan ``INDEX`` of the plan as a
closed loop with one client, copies the data dir as a crash image after
the last acknowledged flush, stops the engine, recovers the image, checks
every gate, and writes its raw samples to ``OUT.json``.

There is one client thread.  A step with ops submits them as one batch
and blocks in ``flush()``; reads run only after ``flush()`` returned
*and* the engine's writer thread went idle (its checkpoint, if one was
due, has finished), so no timed read overlaps a busy writer.

The gates check the engine against state built without it: the process
applies every planned op to its own copy of the input graph, and the
engine's graph must equal that copy after every batch; the BFS oracle
and the final-state reference run on that copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

import common
from common import GateError, check_sccnt
from spans import Tracer, wchar

now = time.perf_counter


# ----------------------------------------------------------------------
# Process-level probes
# ----------------------------------------------------------------------
def _task_stat(tid: int) -> tuple[str, int]:
    """``(state, cpu_ns)`` of thread ``tid`` of this process."""
    with open(f"/proc/self/task/{tid}/stat") as f:
        state = f.read().rsplit(")", 1)[1].split()[0]
    with open(f"/proc/self/task/{tid}/schedstat") as f:
        return state, int(f.read().split()[0])


def wait_idle(tid: int) -> None:
    """Return once thread ``tid`` is asleep and used no CPU across a
    2 ms window (the engine's writer is blocked on its empty queue)."""
    _, prev = _task_stat(tid)
    while True:
        time.sleep(0.002)
        state, cpu = _task_stat(tid)
        if state == "S" and cpu - prev < 50_000:
            return
        prev = cpu


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def submit_batch(engine, ops) -> None:
    """Submit ``ops`` so the writer drains them as exactly one batch:
    with a long switch interval the client keeps the GIL until
    ``flush()`` blocks, so the writer cannot wake mid-submission."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        engine.submit_many(ops)
    finally:
        sys.setswitchinterval(old)


# ----------------------------------------------------------------------
class Sample:
    """Drives one plan in this process and collects raw samples."""

    def __init__(self, plan: dict, index: int, workdir: Path, trace: bool,
                 verify: bool) -> None:
        self.plan = plan
        self.sub = plan["procs"][index]
        self.workdir = workdir
        self.verify = verify
        self.tracer = Tracer() if trace else None
        self.out: dict = {
            "sccnt_us": [], "spcnt_us": [], "screen_first_ms": [],
            "screen_warm_ms": [], "visible_ms": [], "routed_us": [],
            "replica_visible_ms": [], "csc_sccnt_us": [],
            "csc_spcnt_us": [], "traced_sccnt_us": [], "dirty": [],
            "submit_us": [],
        }
        self.reads_attempted = 0
        self.reads_raised = 0

    # -- spans are no-ops in untraced runs ------------------------------
    def span(self, name: str, root: bool = False):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, root=root)

    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.cluster import Cluster
        from repro.service import DurabilityConfig, ServeConfig, ServeEngine

        plan = self.plan
        graph = common.make_graph(plan["graph"])  # inputs in memory
        #: the graph the acknowledged ops must leave (never the engine's)
        self.expected = graph.copy()
        self.data_dir = self.workdir / "data"
        config = ServeConfig(
            batch_size=common.BATCH_SIZE,
            durability=DurabilityConfig(
                data_dir=str(self.data_dir),
                wal_fsync="always",
                checkpoint_wal_bytes=plan["checkpoint_wal_bytes"],
                checkpoint_on_stop=False,
            ),
        )
        if self.tracer is not None:
            self.tracer.install()
        self.cluster = None
        t0 = now()
        with self.span("setup", root=True):
            if plan["replica"]:
                self.cluster = Cluster(graph, config=config, replicas=1,
                                       record_digests=self.verify)
                self.cluster.start()
                self.engine = self.cluster.engine
                t_primary = now()
                self.cluster.router.sccnt(0)  # first routed answer
                self.out["replica_bootstrap_s"] = now() - t_primary
                self.replica = self.cluster.router.live()[0]
                self.replica_pid = self.replica.status()["pid"]
            else:
                self.engine = ServeEngine(graph, config=config).start()
            self.engine.snapshot().sccnt(0)  # first query answerable
        self.out["setup_s"] = now() - t0
        self.writer_tid = next(
            t.native_id for t in threading.enumerate()
            if t.name == "repro-serve-writer"
        )
        wait_idle(self.writer_tid)
        self.check_graph()
        # The serial-replay oracle starts from this state (untimed).
        self.initial = self.engine.counter.to_bytes()

    # ------------------------------------------------------------------
    def write(self, step: dict) -> bool:
        """Submit the step's batch, if it has one, and wait until it is
        visible and the writer is idle.  Returns whether a new epoch was
        published."""
        engine = self.engine
        ops = [tuple(op) for op in step["ops"]]
        if not ops:
            return False
        before = engine.stats()
        w0 = wchar()
        with self.span("batch", root=True):
            t0 = now()
            with self.span("engine.submit"):
                submit_batch(engine, ops)
            t_sub = now()
            snap = engine.flush(timeout=120)
            t1 = now()
        wait_idle(self.writer_tid)
        self.write_busy_s += now() - t0
        self.write_bytes += wchar() - w0
        self.out["submit_us"].append((t_sub - t0) * 1e6 / len(ops))
        self.out["visible_ms"].append((t1 - t0) * 1e3)
        self.write_s += t1 - t0
        self.ops += len(ops)
        after = engine.stats()
        if after.batches - before.batches != 1:
            raise GateError(
                f"step of {len(ops)} ops ran as "
                f"{after.batches - before.batches} batches, not one"
            )
        rebuilt = after.rebuilds - before.rebuilds
        if rebuilt != (step["path"] == "rebuild"):
            raise GateError(
                f"batch planned as {step['path']!r} "
                f"{'took' if rebuilt else 'skipped'} the rebuild fallback"
            )
        self.rebuilds += rebuilt
        if self.cluster is not None:
            while self.replica.status()["epoch"] < snap.epoch:
                time.sleep(0.001)
            t2 = now()
            self.out["replica_visible_ms"].append((t2 - t0) * 1e3)
        for kind, tail, head in ops:
            if kind == "insert":
                self.expected.add_edge(tail, head)
            else:
                self.expected.remove_edge(tail, head)
        return True

    def check_graph(self) -> None:
        """Gate: the engine's graph holds exactly the planned edges."""
        graph, want = self.engine.counter.graph, self.expected
        if graph.n != want.n or set(graph.edges()) != set(want.edges()):
            raise GateError("the engine's graph differs from the input "
                            "graph with the acknowledged ops applied")

    def read(self, step: dict, fresh: bool) -> None:
        """The step's reads; ``fresh`` when the step published an epoch,
        whose first screen is then timed as ``screen_first_ms``."""
        snap = self.engine.snapshot()
        if fresh and self.tracer is not None and self.prev_snap is not None:
            self.out["dirty"].append(_dirty(self.prev_snap, snap))
        self.prev_snap = snap
        everyone = self.everyone
        keys = ("screen_first_ms", "screen_warm_ms")
        for key in keys if fresh else keys[1:]:
            with self.span(key, root=True):
                t0 = now()
                snap.count_many(everyone)
                self.out[key].append((now() - t0) * 1e3)
            self.reads_attempted += 1
        if self.tracer is not None:
            self.tracer.uninstall()
            self._paired_reads(snap, step)
        else:
            self._reads(snap, step)
        if self.cluster is not None:
            routed = self.cluster.router.sccnt
            lat = self.out["routed_us"]
            for v in step["routed"]:
                t0 = now()
                routed(v)
                lat.append((now() - t0) * 1e6)
            self.reads_attempted += len(step["routed"])
        if self.tracer is not None:
            # Traced Snapshot.sccnt calls, for the tracing overhead.
            self.tracer.install()
            lat = self.out["traced_sccnt_us"]
            for v in step["sccnt"]:
                with self.tracer.span("query", root=True):
                    t0 = now()
                    snap.sccnt(v)
                    lat.append((now() - t0) * 1e6)

    def _reads(self, snap, step) -> None:
        sccnt, spcnt = snap.sccnt, snap.spcnt
        lat = self.out["sccnt_us"]
        for v in step["sccnt"]:
            t0 = now()
            sccnt(v)
            lat.append((now() - t0) * 1e6)
        lat = self.out["spcnt_us"]
        for x, y in step["spcnt"]:
            t0 = now()
            spcnt(x, y)
            lat.append((now() - t0) * 1e6)
        self.reads_attempted += len(step["sccnt"]) + len(step["spcnt"])

    def _paired_reads(self, snap, step) -> None:
        """Trace runs only: each ``Snapshot`` read is paired with a
        direct ``CSCIndex`` call on the same vertex and epoch, the
        kernel's share of the read.  Which of the two goes first
        alternates, so neither always finds the labels cached."""
        from repro.core.csc import CSCIndex

        index = snap.index
        out = self.out
        pairs = (
            (snap.sccnt, CSCIndex.sccnt, out["sccnt_us"],
             out["csc_sccnt_us"], [(v,) for v in step["sccnt"]]),
            (snap.spcnt, CSCIndex.spcnt, out["spcnt_us"],
             out["csc_spcnt_us"], [tuple(p) for p in step["spcnt"]]),
        )
        for api, kernel, api_lat, kernel_lat, args in pairs:
            for i, a in enumerate(args):
                for first in ((0, 1) if i % 2 else (1, 0)):
                    t0 = now()
                    if first:
                        api(*a)
                    else:
                        kernel(index, *a)
                    (api_lat if first else kernel_lat).append(
                        (now() - t0) * 1e6)
            self.reads_attempted += len(args)

    # ------------------------------------------------------------------
    def run(self) -> dict:
        from repro.errors import ReproError

        self.setup()
        engine = self.engine
        self.everyone = list(range(engine.snapshot().n))
        self.prev_snap = None
        self.ops = 0
        self.write_s = 0.0
        self.write_busy_s = 0.0
        self.write_bytes = 0
        self.rebuilds = 0
        self.checked = 0
        check_s = 0.0
        dur0 = engine.durability_stats()
        cpu0 = (proc_cpu_s(self.replica_pid)
                if self.cluster is not None else 0.0)
        t_loop = now()
        for step in self.sub["steps"]:
            fresh = self.write(step)
            try:
                self.read(step, fresh)
            except ReproError:
                self.reads_raised += 1
            if fresh:
                t0 = now()
                self.check_graph()
                self.checked += check_sccnt(engine.snapshot(), self.expected,
                                            step["check"])
                check_s += now() - t0
        # Share of the loop, gates excluded, spent from a batch's submit
        # until the writer is idle again (checkpoints included).
        self.out["loop_s"] = now() - t_loop - check_s
        self.out["write_share"] = self.write_busy_s / self.out["loop_s"]
        self.finish(dur0, cpu0)
        return self.out

    def finish(self, dur0, cpu0) -> None:
        engine, out, plan = self.engine, self.out, self.plan
        stats = engine.stats()
        dur = engine.durability_stats()
        snap = engine.snapshot()
        index = snap.index
        out["index_bytes"] = index.store_in.nbytes() + index.store_out.nbytes()
        out["label_entries"] = index.total_entries()
        out["epochs"] = snap.epoch
        if self.cluster is not None:
            out["replica_cpu_s"] = proc_cpu_s(self.replica_pid) - cpu0
        # Crash image: the data dir after the last acknowledged flush,
        # with no clean-stop checkpoint.
        crash = self.workdir / "crash"
        shutil.copytree(self.data_dir, crash)
        live = engine.counter.to_bytes()
        answers = snap.count_many(self.everyone)
        self.check_graph()
        graph = self.expected
        checked = check_sccnt(snap, graph, self.sub["oracle"])
        if self.cluster is not None:
            checked += check_sccnt(self.cluster.router, graph,
                                   self.sub["oracle"])
            if self.verify:
                out["verified_epochs"] = self.cluster.verify_replicas()
            self.cluster.stop()
        else:
            engine.stop()
        out["oracle_checked"] = checked + self.checked
        out["ops"] = self.ops
        out["write_s"] = self.write_s
        out["write_bytes"] = self.write_bytes
        out["counts"] = {
            "batches": stats.batches,
            "rebuilds": stats.rebuilds,
            "wal_records": dur.wal_records,
            "checkpoints": dur.checkpoints_written - dur0.checkpoints_written,
            "checkpoint_bytes": dur.checkpoint_bytes - dur0.checkpoint_bytes,
        }
        steps = self.sub["steps"]
        if self.rebuilds != sum(s["path"] == "rebuild" for s in steps):
            raise GateError("rebuild count differs from the plan")
        out["accounting"] = {
            "ops_attempted": sum(len(s["ops"]) for s in steps),
            "ops_acknowledged": stats.ops_consumed - stats.ops_skipped
            - stats.ops_shed - stats.ops_rejected,
            "ops_skipped": stats.ops_skipped,
            "ops_shed": stats.ops_shed,
            "ops_rejected": stats.ops_rejected,
            "ops_quarantined": stats.quarantined,
            "reads_attempted": self.reads_attempted,
            "reads_raised": self.reads_raised,
        }
        self.recover(crash, live)
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self.check_final_state(live, answers, engine.counter.strategy)
        shutil.rmtree(self.data_dir)
        shutil.rmtree(crash)
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.dump(self.workdir / "spans.jsonl")
            from layers import layer_metrics

            out["layers"] = layer_metrics(self.tracer, out)

    def check_final_state(self, live: bytes, answers, strategy) -> None:
        """The final state against a reference computed without the
        engine.  A sub-plan of insert batches is checked against the
        serial replay of every acknowledged op: the initial counter,
        then one edge at a time through ``insert_edge``, as
        ``repro.service.serial_replay`` does (that rebuilds the initial
        index; this starts from the bytes saved after set-up).  A
        sub-plan that ends on a rebuild batch is checked against a
        from-scratch build, at the same hub order, of the input graph
        with every planned op applied:
        per-edge maintenance under the default "redundancy" strategy
        keeps dominated entries that a rebuild drops, so only the
        answers of a serial replay would match, while labels are a pure
        function of (graph, order).  Every vertex's ``SCCnt`` (scalar
        queries on the reference, the bulk kernel on the engine) and
        the bytes must match."""
        from plan import plan_ops
        from repro.core.counter import ShortestCycleCounter
        from repro.core.csc import CSCIndex

        steps = [s for s in self.sub["steps"] if s["ops"]]
        if steps[-1]["path"] == "rebuild":
            ref = ShortestCycleCounter(
                CSCIndex.build(self.expected.copy(),
                               self.engine.counter.index.order),
                strategy)
        else:
            if any(s["path"] != "insert" for s in steps):
                raise GateError("no final-state reference for this plan")
            ref = ShortestCycleCounter.from_bytes(self.initial, strategy)
            for _, tail, head in plan_ops(steps):
                ref.insert_edge(tail, head)
        want = [ref.sccnt(v) for v in range(ref.graph.n)]
        if common.answers_digest(answers) != common.answers_digest(want):
            raise GateError("final SCCnt answers differ from the "
                            "reference state")
        if ref.to_bytes() != live:
            raise GateError("final to_bytes() differs from the reference "
                            "state")

    def recover(self, crash: Path, live: bytes) -> None:
        from repro.persist import recover

        times = self.out["recovery_s"] = []
        for _ in range(self.plan["recoveries"]):
            with self.span("recover", root=True):
                t0 = now()
                result = recover(crash)
                times.append(now() - t0)
            if result.counter.to_bytes() != live:
                raise GateError("recover() of the crash image is not "
                                "bit-identical to the live state")
            self.out["recovery_records"] = result.records_replayed


def _dirty(prev, cur) -> int:
    """Vertices whose label structures changed between two published
    snapshots (copy-on-write identity diff, both sides)."""
    total = 0
    for side in ("store_in", "store_out"):
        a, b = getattr(prev.index, side), getattr(cur.index, side)
        total += sum(
            1 for v in range(len(b.packed))
            if a.packed[v] is not b.packed[v] or a.canon[v] != b.canon[v]
            or a.big[v] is not b.big[v]
        )
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("index", type=int)
    parser.add_argument("out")
    parser.add_argument("workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)
    with open(args.plan) as f:
        plan = json.load(f)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    result = Sample(plan, args.index, workdir, args.trace,
                    args.verify).run()
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
