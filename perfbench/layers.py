"""Per-layer metrics of one traced process, from its spans and samples.

Layers are named by module.  A layer the workload does not exercise
reports 0 (for example ``batch.rebuild_ms`` on the insert-only
``read_mostly``, or the cluster metrics on ``churn``): the layer did no
work.  ``run.py`` checks the names against ``BENCHMARK.json``.
"""

from __future__ import annotations

from common import median
from spans import END, META, NAME, PARENT, START, self_time


def _med(values) -> float:
    return median(values) if values else 0.0


def _dur(span) -> float:
    return span[END] - span[START]


def layer_metrics(tracer, out: dict) -> dict:
    spans = tracer.spans
    kids = tracer.children()
    by_id = {s[0]: s for s in spans}

    def root_of(span):
        while span[PARENT] is not None:
            span = by_id[span[PARENT]]
        return span

    def named(name, root=None):
        return [s for s in spans if s[NAME] == name
                and (root is None or root_of(s)[NAME] == root)]

    batches = named("batch")
    applies = named("batch.apply", root="batch")
    metas = [s[META] for s in applies]
    deleting = [m for m in metas if m["deleted"]]
    repaired = [m for m in deleting if not m["rebuilt"]]
    rebuilt = [m for m in metas if m["rebuilt"]]
    inserts = [_dur(s) for s in applies if not s[META]["deleted"]]
    wal = named("wal.log", root="batch")
    recoveries = [
        (sum(_dur(k) for k in kids.get(r[0], [])
             if k[NAME] == "recovery.materialize"),
         sum(_dur(k) for k in kids.get(r[0], []) if k[NAME] == "batch.apply"))
        for r in named("recover")
    ]
    setup_builds = named("csc.build", root="setup")
    sccnt_p50 = _med(out["sccnt_us"])
    csc_p50 = _med(out["csc_sccnt_us"])
    routed_p50 = _med(out["routed_us"])
    visible = out["visible_ms"]
    replica_visible = out["replica_visible_ms"]
    root_self = [self_time(b, kids.get(b[0], [])) for b in batches]
    return {
        "csc.sccnt_p50_us": csc_p50,
        "csc.spcnt_p50_us": _med(out["csc_spcnt_us"]),
        "csc.build_s": _dur(setup_builds[0]) if setup_builds else 0.0,
        "csc.label_entries": out["label_entries"],
        "bulk.first_ms": 1e3 * _med(
            [_dur(s) for s in named("bulk.sccnt_many", "screen_first_ms")]),
        "bulk.warm_ms": 1e3 * _med(
            [_dur(s) for s in named("bulk.sccnt_many", "screen_warm_ms")]),
        "snapshot.read_overhead_us": sccnt_p50 - csc_p50,
        "snapshot.capture_ms": 1e3 * _med(
            [_dur(s) for s in named("snapshot.capture", "batch")]),
        "snapshot.dirty_vertices": _med(out["dirty"]),
        "batch.discovery_ms": 1e3 * _med(
            [d["discovery_s"] for d in deleting]),
        "batch.repair_ms": 1e3 * _med([d["repair_s"] for d in repaired]),
        "batch.rebuild_ms": 1e3 * _med([d["rebuild_s"] for d in rebuilt]),
        "batch.insert_ms": 1e3 * _med(inserts),
        "batch.repair_bfs": sum(d["repair_bfs"] for d in metas),
        "batch.affected_fraction": _med([d["affected"] for d in repaired]),
        "batch.rebuild_share": len(rebuilt) / len(metas) if metas else 0.0,
        "wal.log_ms": 1e3 * _med([_dur(s) for s in wal]),
        "wal.bytes_per_op": (
            sum(s[META]["bytes"] for s in wal) / out["ops"]
            if out["ops"] else 0.0),
        "checkpoint.write_ms": 1e3 * _med(
            [_dur(s) for s in named("checkpoint.write", "batch")]),
        "checkpoint.count": out["counts"]["checkpoints"],
        "checkpoint.bytes": out["counts"]["checkpoint_bytes"],
        "recovery.materialize_s": _med([m for m, _ in recoveries]),
        "recovery.replay_s": _med([r for _, r in recoveries]),
        "recovery.records": out["recovery_records"],
        "engine.submit_us": _med(out["submit_us"]),
        "engine.other_ms": 1e3 * _med(root_self),
        "engine.batches": out["counts"]["batches"],
        "engine.rebuilds": out["counts"]["rebuilds"],
        "router.sccnt_p50_us": routed_p50,
        "router.rpc_overhead_us": routed_p50 - sccnt_p50 if routed_p50
        else 0.0,
        "replica.visible_p50_ms": _med(replica_visible),
        "replica.catchup_ms": _med(
            [r - v for r, v in zip(replica_visible, visible)]),
        "replica.bootstrap_s": out.get("replica_bootstrap_s", 0.0),
        "replica.cpu_s_per_epoch": (
            out.get("replica_cpu_s", 0.0) / out["counts"]["batches"]
            if out["counts"]["batches"] else 0.0),
        "trace.visible_p50_ms": 1e3 * _med([_dur(b) for b in batches]),
        "trace.accounted_share": _med(
            [1 - s / _dur(b) for s, b in zip(root_self, batches)]),
        "trace.read_overhead_us": _med(out["traced_sccnt_us"]) - sccnt_p50,
    }
